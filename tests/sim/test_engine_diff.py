"""Differential-timeline harness: new engine vs the frozen reference.

The engine overhaul (bucketed calendar queue, event pooling, fast-path
dispatch) is only safe if it changed *nothing observable*.  This
harness runs identical workloads on both engines — the overhauled
``repro.sim.engine`` and the pre-overhaul copy in
``tests/sim/engine_reference.py``, selected per-subprocess by the
worker's engine argument — and asserts the resulting
fingerprint documents are **byte-identical**: span-tree fingerprints,
final ``sim_time_ns``, per-op latency digests, full telemetry dumps,
chaos-oracle verdicts.

Three tiers:

- the quick tier (always on) covers the quickstart and two-tenant
  workloads under tracing/monitor/sanitize on and off, every committed
  chaos reproducer, and two cheap bench-registry experiments;
- the committed golden (``tests/golden/engine_timeline.json``) pins
  the quick tier's fingerprints so a timeline change is caught even
  without the reference engine run (refresh with
  ``REPRO_UPDATE_GOLDEN=1`` after an intentional change);
- ``REPRO_ENGINE_DIFF_FULL=1`` extends the diff to the full experiment
  registry (minutes of wall clock: the reference engine runs the
  slowest experiments at pre-overhaul speed).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
WORKER = pathlib.Path(__file__).parent / "_diff_worker.py"
GOLDEN = REPO_ROOT / "tests" / "golden" / "engine_timeline.json"
CORPUS_DIR = REPO_ROOT / "tests" / "chaos" / "corpus"

QUICK_SCENARIOS = [
    {"label": "quickstart", "kind": "quickstart"},
    {"label": "quickstart-trace", "kind": "quickstart", "trace": True},
    {"label": "quickstart-sanitize", "kind": "quickstart",
     "sanitize": True},
    {"label": "quickstart-trace-sanitize", "kind": "quickstart",
     "trace": True, "sanitize": True},
    {"label": "two-tenant", "kind": "two_tenant"},
    {"label": "two-tenant-monitor", "kind": "two_tenant",
     "monitor": True},
    {"label": "experiment-fig12", "kind": "experiment", "name": "fig12"},
    {"label": "experiment-fig11-monitor", "kind": "experiment",
     "name": "fig11", "monitor": True},
] + [
    {"label": f"chaos-{p.stem}", "kind": "chaos",
     "path": str(p.relative_to(REPO_ROOT))}
    for p in sorted(CORPUS_DIR.glob("*.json"))
]


def run_worker(engine: str, scenarios) -> str:
    """Run the worker subprocess on ``engine`` ("new" or "reference")."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(WORKER), engine,
         json.dumps({"scenarios": scenarios})],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=1800)
    assert proc.returncode == 0, \
        f"worker failed on engine={engine}:\n{proc.stderr}"
    return proc.stdout


def _diff_labels(new: str, ref: str) -> str:
    """Human summary of which scenarios diverged (for the assert)."""
    a, b = json.loads(new), json.loads(ref)
    bad = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return f"timelines diverged for: {bad}"


def test_quick_tier_byte_identical_across_engines():
    new = run_worker("new", QUICK_SCENARIOS)
    ref = run_worker("reference", QUICK_SCENARIOS)
    assert new == ref, _diff_labels(new, ref)


def test_quick_tier_matches_committed_golden():
    new = run_worker("new", QUICK_SCENARIOS)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.write_text(new, encoding="utf-8")
    assert GOLDEN.exists(), \
        "golden timeline missing; run with REPRO_UPDATE_GOLDEN=1"
    golden = GOLDEN.read_text(encoding="utf-8")
    assert new == golden, _diff_labels(new, golden)


def test_reference_engine_selected_by_argument():
    """The engine argument really swaps the Simulator the whole stack
    binds to, in-subprocess."""
    probe = [{"label": "probe", "kind": "engine"}]
    new = json.loads(run_worker("new", probe))["probe"]
    ref = json.loads(run_worker("reference", probe))["probe"]
    assert new == {"simulator": "repro.sim.engine"}
    assert ref == {"simulator": "engine_reference"}


@pytest.mark.skipif(not os.environ.get("REPRO_ENGINE_DIFF_FULL"),
                    reason="full-registry diff is minutes of wall clock; "
                           "set REPRO_ENGINE_DIFF_FULL=1")
def test_full_registry_byte_identical_across_engines():
    from repro.bench.runner import registry_names

    scenarios = [
        {"label": f"experiment-{name}-monitor", "kind": "experiment",
         "name": name, "monitor": True}
        for name in registry_names()
    ]
    new = run_worker("new", scenarios)
    ref = run_worker("reference", scenarios)
    assert new == ref, _diff_labels(new, ref)
