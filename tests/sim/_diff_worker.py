"""Subprocess worker for the differential-timeline harness.

Runs a batch of scenarios on the engine its first argument names (the
overhauled ``repro.sim.engine`` for ``new``, the frozen pre-overhaul
``engine_reference.py`` next to this file for ``reference``) and prints
one JSON document of deterministic fingerprints to stdout.  The parent
test (``tests/sim/test_engine_diff.py``) runs it once per engine and
asserts the two documents are byte-identical.

Everything emitted must be a pure function of the simulated timeline:
span-tree fingerprints, final ``sim_time_ns``, telemetry dumps, stat
counters, sanitizer findings.  No wall-clock, no object ids, no paths.

Usage:  python tests/sim/_diff_worker.py {new|reference} '<spec-json>'

where the spec is ``{"scenarios": [...]}`` with each scenario one of::

    {"kind": "quickstart", "trace": bool, "sanitize": bool}
    {"kind": "two_tenant", "monitor": bool}
    {"kind": "chaos", "path": "tests/chaos/corpus/<entry>.json"}
    {"kind": "experiment", "name": "<registry name>", "monitor": bool}
    {"kind": "engine"}   # which module the stack's Simulator came from
"""

import hashlib
import json
import sys

import engine_reference

# The engine binds before anything imports repro: with "reference",
# every ``from ..sim.engine import ...`` in the stack gets the frozen
# engine.
if __name__ == "__main__" and sys.argv[1] == "reference":
    sys.modules["repro.sim.engine"] = engine_reference

from repro import GiB, Machine  # noqa: E402
from repro.apps.fio import FioJob, run_fio  # noqa: E402
from repro.obs.export import chrome_trace_json, tree_fingerprint  # noqa: E402
from repro.obs.monitor import SLO, MonitorConfig  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_quickstart(spec):
    """The README quickstart workload (same as tests/test_determinism)."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                trace=spec.get("trace", False),
                sanitize=spec.get("sanitize", False))
    proc = m.spawn_process("app")
    lib = m.userlib(proc)
    t = proc.new_thread("app-0")
    stamps = []

    def body():
        f = yield from lib.open(t, "/data", write=True, create=True)
        yield from f.append(t, 8192, b"x" * 8192)
        stamps.append(m.now)
        for i in range(4):
            yield from f.pread(t, (i * 2048) % 8192, 4096)
            stamps.append(m.now)
        yield from f.pwrite(t, 0, 4096)
        stamps.append(m.now)
        yield from f.fsync(t)
        stamps.append(m.now)
        yield from f.close(t)

    m.run_process(body())
    out = {"sim_time_ns": m.now, "stamps": stamps}
    if spec.get("trace"):
        out["span_fp"] = tree_fingerprint(m.tracer)
        out["chrome_trace_sha"] = _sha(chrome_trace_json(m.tracer))
    if spec.get("sanitize"):
        out["sanitizer"] = m.sim.sanitizer.report()
    return out


TWO_TENANT_SLOS = MonitorConfig(slos=(
    SLO("device_backlog", "nvme.device.inflight", 2.0, reduce="max",
        window_ns=50_000),
    SLO("fio_p99", "fio.lat_ns", 50_000.0, reduce="p99",
        window_ns=200_000),
))


def run_two_tenant(spec):
    """Two tenants on one device, optionally with the telemetry monitor
    (the observer-process path) attached."""
    monitor = TWO_TENANT_SLOS if spec.get("monitor") else False
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20,
                capture_data=False, trace=True, monitor=monitor)
    job = FioJob(engine="bypassd", rw="randwrite", block_size=4096,
                 file_size=8 << 20, threads=1, processes=2,
                 ops_per_thread=40, seed=42)
    r = run_fio(m, job)
    spans = [s for s in m.tracer.spans if s.category != "slo"]
    out = {
        "sim_time_ns": m.now,
        "latency_sha": _sha(json.dumps(r.latency.samples)),
        "span_fp": tree_fingerprint(spans),
    }
    if spec.get("monitor"):
        out["telemetry"] = m.monitor.telemetry_json(indent=1)
    return out


def run_chaos(spec):
    """Replay one committed chaos reproducer (sanitize + monitor on)."""
    from repro.chaos.executor import run_scenario
    from repro.chaos.scenario import Scenario

    with open(spec["path"], encoding="utf-8") as fh:
        entry = json.load(fh)
    result = run_scenario(Scenario.from_dict(entry["scenario"]),
                          canaries=entry.get("requires_canary", ()))
    return result.to_dict()


def run_experiment(spec):
    """One bench-registry experiment through the real job runner."""
    from repro.bench.runner import (job_config, job_fingerprint, job_seed,
                                    run_job)

    config = job_config(spec["name"], faults=None,
                        monitor=bool(spec.get("monitor")))
    # The tree hash covers source bytes, which are identical for both
    # engines (the engine is a worker argument) — pin it to a constant so
    # the fingerprint never depends on it anyway.
    tree = "engine-diff"
    fp = job_fingerprint(tree, config)
    payload = run_job({"experiment": spec["name"], "fingerprint": fp,
                       "tree": tree, "config": config,
                       "seed": job_seed(fp)})
    payload["timing"].pop("wall_s", None)   # wall clock: host-dependent
    if "error" in payload:
        # keep only the exception type line: tracebacks embed paths
        payload["error"] = payload["error"].strip().splitlines()[-1]
    return payload


def run_engine_probe(spec):
    """The module of the Simulator a Machine actually runs on."""
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)
    return {"simulator": type(m.sim).__module__}


RUNNERS = {
    "quickstart": run_quickstart,
    "two_tenant": run_two_tenant,
    "chaos": run_chaos,
    "experiment": run_experiment,
    "engine": run_engine_probe,
}


def main() -> int:
    spec = json.loads(sys.argv[2])
    results = {}
    for scenario in spec["scenarios"]:
        label = scenario.get("label") or json.dumps(scenario, sort_keys=True)
        results[label] = RUNNERS[scenario["kind"]](scenario)
    json.dump(results, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
