#!/usr/bin/env python3
"""The repository's benchmark: host cost and simulated I/O per workload.

    python3 perfbench/run.py --workload randread-shared --seed 1 \\
        --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) from this one host process on
one thread.  The seed makes every input; the program gets only those.
A run repeats the workload's round until ``--seconds`` have passed
(at least three rounds).  Every round of one seed is the same model
run, so simulated results repeat exactly and rounds only add host-time
samples; host metrics are medians over rounds.  Each round's host
times are scaled by how much slower than usual the host ran the fixed
loop in ``hostspeed.py`` just before and after the round, which keeps
a shared host's drifting speed out of the numbers.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds traced by ``hosttrace.HostTracer`` and adds
one round on ``Machine(trace=True)``; it reports the per-layer metrics
and writes the kept spans under ``perfbench/out/``.  METRICS.md lists
every metric, its unit and which end-to-end metric it should move.

Human-readable lines come first; the last line of standard output is
one JSON object.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
# Engines of randread-shared; other workloads report 0 for those unused.
ENGINES = ("bypassd", "sync", "libaio", "io_uring")
# Paper, Figure 6 (EXPERIMENTS.md): BypassD's 4 KB read latency is about
# 42% below sync's, single-threaded and uncontended.
PAPER_4K_REDUCTION = 0.42


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_program():
    """Import the model from ``src/`` beside this directory."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs the program on sys.path)
    return workloads


def _percentile(samples, pct: float):
    from repro.sim.stats import percentile  # nearest rank, as fio
    return percentile(samples, pct)


class _Rounds:
    """Runs rounds of one workload and seed.

    Keeps the first round whole; of the others only their model
    fingerprint and what the host metrics need, so memory does not grow
    with the number of rounds."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.first = None
        self.prints = set()
        self.count = 0

    def run(self, **kwargs):
        gc.collect()
        result = self.workload.run_round(self.inputs, **kwargs)
        self.count += 1
        self.prints.add(result.fingerprint())
        if self.first is None:
            self.first = result
        else:
            result.latencies_ns = []
            result.engine_latencies_ns = {}
        return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _engine_p50s(result) -> dict:
    return {f"baselines.{engine}.sim_p50_us": _metric(
        _percentile(result.engine_latencies_ns[engine], 50) / 1e3
        if engine in result.engine_latencies_ns else 0.0, "us")
        for engine in ENGINES}


def _end_to_end(rounds: _Rounds, seconds: float, out):
    from hostspeed import REFERENCE_S, reference_loop_s

    deadline = time.perf_counter() + seconds
    workload = rounds.workload
    rates, setups, slowdowns = [], [], []
    while rounds.count < MIN_ROUNDS or time.perf_counter() < deadline:
        gc.collect()  # free the last round's machine first
        before = reference_loop_s()
        result = rounds.run()
        # > 1 while the host runs slower than the reference host.
        slowdown = (before + reference_loop_s()) / 2 / REFERENCE_S
        slowdowns.append(slowdown)
        rates.append(result.attempted / result.timed_s)
        setups.append(result.setup_s)
    first = rounds.first
    ops = first.attempted
    lat = first.latencies_ns
    p50 = _percentile(lat, 50)
    p99 = _percentile(lat, 99)
    beyond = sum(1 for x in lat if x > p99)
    metrics = {
        "ops_per_s": _metric(statistics.median(
            rate * slow for rate, slow in zip(rates, slowdowns)), "1/s"),
        "setup_s": _metric(statistics.median(
            setup / slow for setup, slow in zip(setups, slowdowns)), "s"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB"),
        "sim_p50_us": _metric(p50 / 1e3, "us"),
        "sim_p99_us": _metric(p99 / 1e3, "us"),
        "sim_kops": _metric(ops * 1e6 / first.sim_ns, "kop/s"),
    }
    out(f"rounds: {rounds.count}; ops per round: {ops}; latency samples: "
        f"{len(lat)}, {beyond} beyond p99")
    out(f"host speed: reference loop {1e3 * REFERENCE_S:.0f} ms x median "
        f"{statistics.median(slowdowns):.3f}; unscaled medians: "
        f"ops_per_s {statistics.median(rates):.6g} 1/s, "
        f"setup_s {statistics.median(setups):.6g} s")
    out(f"error_rate: {first.failed / ops:.6f} "
        f"({first.failed} of {ops} ops failed)")
    if workload.name == "randread-shared":
        p50s = _engine_p50s(first)
        byp = p50s["baselines.bypassd.sim_p50_us"]["value"]
        sync = p50s["baselines.sync.sim_p50_us"]["value"]
        out(f"fidelity (not gated): bypassd sim p50 {byp:.3f} us is "
            f"{100 * (1 - byp / sync):.1f}% below sync's {sync:.3f} us in "
            f"this contended run of {len(workload.tenants)} tenants x "
            f"{workload.threads} threads; the paper's single-thread run "
            f"(Fig. 6) shows about {100 * PAPER_4K_REDUCTION:.0f}% at 4 KB")
    return metrics


def _per_layer(rounds: _Rounds, seconds: float, spans_path: Path, out):
    from hosttrace import LAYERS, HostTracer

    deadline = time.perf_counter() + seconds
    plain = [rounds.run().timed_s]
    traced = []
    tracer = HostTracer()

    def traced_round():
        tracer.reset(keep=not traced)
        with tracer:
            traced.append(rounds.run(tracer=tracer))
        tracer.keep = False
        return tracer.span_count

    spans = traced_round()
    sim_traced = rounds.run(sim_trace=True)
    while time.perf_counter() < deadline:
        plain.append(rounds.run().timed_s)
        traced_round()
    kept = tracer.write_spans(spans_path)
    first = rounds.first
    ops = first.attempted

    def median_self(phase: str):
        return {layer: statistics.median(getattr(r, phase)[layer]
                                         for r in traced)
                for layer in tracer.layers}

    timed_s = median_self("host_self_s")
    setup_s = median_self("setup_self_s")
    round_s = {layer: statistics.median(
        r.host_self_s[layer] + r.setup_self_s[layer] for r in traced)
        for layer in tracer.layers}
    metrics = {f"{layer}.host_self_s": _metric(round_s[layer], "s")
               for layer in LAYERS}
    units = {"sim.events_per_op": "events/op",
             "nvme.commands_per_op": "cmds/op",
             "kernel.syscalls_per_op": "syscalls/op"}
    for name, value in sorted(first.counts.items()):
        unit = units.get(name, "ratio" if name.endswith("_ratio")
                         else "count")
        metrics[name] = _metric(value, unit)
    metrics["sim.host_ns_per_event"] = _metric(
        round_s["sim"] * 1e9 / first.events_total, "ns/event")
    metrics.update(_engine_p50s(first))
    for layer, ns in sim_traced.sim_ns_per_op.items():
        metrics[f"{layer}.sim_ns_per_op"] = _metric(ns, "ns/op")
    metrics["obs.trace_overhead"] = _metric(
        statistics.median(r.timed_s for r in traced)
        / statistics.median(plain), "x")
    metrics["obs.spans"] = _metric(spans, "count")

    out(f"traced rounds: {len(traced)}; untraced rounds: {len(plain)}; "
        f"ops per round: {ops}; spans per traced round: {spans} "
        f"({kept} written to {spans_path.relative_to(ROOT)})")
    out("host self time per layer, median traced round (share of the "
        "column's total):")
    columns = (("timed phase", timed_s), ("set-up", setup_s),
               ("whole round", round_s))
    out(f"  {'layer':<14s}" + "".join(f"{title:>20s}"
                                      for title, _col in columns))
    totals = [sum(col.values()) for _title, col in columns]
    for layer in sorted(round_s, key=lambda name: -round_s[name]):
        out(f"  {layer:<14s}" + "".join(
            f"{col[layer]:10.4f} s {100 * col[layer] / total:5.1f}%"
            for (_title, col), total in zip(columns, totals)))
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        workloads = _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rounds = _Rounds(workload, workload.make_inputs(args.seed))

    def out(line: str) -> None:
        print(line, flush=True)

    out(f"workload: {workload.name}; seed: {args.seed}; "
        f"trace: {args.trace}")
    if args.trace:
        (HERE / "out").mkdir(exist_ok=True)
        path = HERE / "out" / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        metrics = _per_layer(rounds, args.seconds, path, out)
    else:
        metrics = _end_to_end(rounds, args.seconds, out)

    # Every round is the same model run: any difference, traced or
    # not, means the model is not deterministic or tracing changed it.
    first = rounds.first
    correct = first.failed == 0 and len(rounds.prints) == 1
    for error in first.errors:
        out(f"check failed: {error}")
    if len(rounds.prints) != 1:
        out(f"check failed: {len(rounds.prints)} different model results "
            f"from {rounds.count} rounds of one seed")
    for name, metric in metrics.items():
        out(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": first.attempted,
                      "failed": first.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
