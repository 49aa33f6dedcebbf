"""Self-tests of the benchmark: determinism, seeds and tracing.

    python3 -m pytest perfbench -q

The workloads run at reduced sizes here; the checks are about the
benchmark's machinery, not its numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hosttrace import LAYERS, HostTracer, _resolve  # noqa: E402
from repro import KiB, MiB  # noqa: E402
from workloads import FmapControl, LsmIngest, RandreadShared  # noqa: E402


def _small(name: str):
    if name == "randread-shared":
        workload = RandreadShared()
        workload.ops_per_thread = 40
    elif name == "fmap-control":
        workload = FmapControl()
        workload.base_sizes = (4 * KiB, 1 * MiB, 8 * MiB)
        workload.processes = 4
    else:
        workload = LsmIngest()
        workload.engines = ("bypassd-optappend", "bypassd", "sync")
        workload.puts = 200
        workload.key_space = 150
    return workload


NAMES = ("randread-shared", "fmap-control", "lsm-ingest")


def _model(result):
    """Everything a round reports that is not a host measurement."""
    return (result.fingerprint(), result.latencies_ns,
            result.engine_latencies_ns, result.counts)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_model_results(name):
    workload = _small(name)
    first = workload.run_round(workload.make_inputs(7))
    second = workload.run_round(workload.make_inputs(7))
    assert first.failed == 0, first.errors
    assert first.attempted > 0
    assert _model(first) == _model(second)


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_changes_the_inputs(name):
    workload = _small(name)
    assert workload.make_inputs(7) == workload.make_inputs(7)
    assert workload.make_inputs(7) != workload.make_inputs(8)


@pytest.mark.parametrize("name", NAMES)
def test_tracing_does_not_change_the_model(name):
    workload = _small(name)
    inputs = workload.make_inputs(3)
    plain = workload.run_round(inputs)
    tracer = HostTracer()
    with tracer:
        tracer.reset(keep=True)
        traced = workload.run_round(inputs, tracer=tracer)
    sim_traced = workload.run_round(inputs, sim_trace=True)
    assert _model(traced) == _model(plain)
    assert _model(sim_traced) == _model(plain)
    assert tracer.span_count > 0
    assert len(tracer.spans) == 7 * tracer.span_count
    assert traced.host_self_s["sim"] > 0
    assert sum(sim_traced.sim_ns_per_op.values()) > 0


def test_tracer_restores_every_wrapped_function():
    before = [(owner, name, getattr(owner, name))
              for targets in LAYERS.values() for target in targets
              for owner, name, _fn in _resolve(target)]
    with HostTracer():
        assert any(getattr(owner, name) is not fn
                   for owner, name, fn in before)
    assert all(getattr(owner, name) is fn for owner, name, fn in before)


def test_spans_nest_and_share_op_ids(tmp_path):
    workload = _small("randread-shared")
    tracer = HostTracer()
    with tracer:
        tracer.reset(keep=True)
        workload.run_round(workload.make_inputs(1), tracer=tracer)
    rows = [tracer.spans[i:i + 7] for i in range(0, len(tracer.spans), 7)]
    by_id = {row[0]: row for row in rows}
    for sid, parent, op, _layer, _fn, start, end in rows:
        assert start <= end
        if parent in by_id:
            assert by_id[parent][5] <= start and end <= by_id[parent][6]
    ops = [row for row in rows if tracer.layers[row[3]] == "bench"
           and row[2] > 0]
    assert ops
    op_span = ops[0]
    children = [row for row in rows if row[1] == op_span[0]]
    assert children and all(row[2] == op_span[2] for row in children)
    written = tracer.write_spans(tmp_path / "spans.tsv.gz")
    assert written == len(rows)


def test_command_prints_a_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fmap-control",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        "ops_per_s", "setup_s", "peak_rss_mib", "sim_p50_us",
        "sim_p99_us", "sim_kops"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lsm-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
