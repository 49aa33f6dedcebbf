"""The repo gate: src/repro must lint clean (this is the CI check,
collected by pytest so a violation fails the suite locally too)."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    RULES,
    apply_baseline,
    export_dot,
    load_baseline,
    render_human,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _baselined(real_tree, prefixes):
    result = apply_baseline(real_tree, load_baseline(
        str(REPO_ROOT / "simlint-baseline.json")))
    result.violations = [v for v in result.violations
                         if v.path.startswith(prefixes)]
    return result


def test_src_repro_lints_clean(real_tree):
    result = _baselined(real_tree, ("src/repro/",))
    assert result.ok, "\n" + render_human(result)
    assert len(real_tree.program.modules) > 50


def test_tests_and_scripts_lint_clean_with_baseline(real_tree):
    # CI lints tests/ and scripts/ too; anything flagged there must be
    # fixed or carry a justified baseline entry
    result = _baselined(real_tree, ("tests/", "scripts/"))
    assert result.ok, "\n" + render_human(result)


def test_every_baseline_entry_has_a_real_justification():
    path = REPO_ROOT / "simlint-baseline.json"
    entries = json.loads(path.read_text())["violations"]
    for fp, meta in entries.items():
        just = meta.get("justification", "")
        assert just and just != "grandfathered", \
            f"baseline entry {meta.get('path')}:{meta.get('line')} " \
            f"({meta.get('rule')}) needs a written justification"


def test_cli_exit_codes_and_json(tmp_path):
    env_script = REPO_ROOT / "scripts" / "simlint.py"

    # the one CLI run over the full tree CI gates on
    clean = subprocess.run(
        [sys.executable, str(env_script), "src/repro", "tests", "scripts",
         "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    payload = json.loads(clean.stdout)
    assert payload["violations"] == []

    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    dirty = subprocess.run(
        [sys.executable, str(env_script), str(bad), "--no-baseline"],
        capture_output=True, text=True)
    assert dirty.returncode == 1
    assert "SIM001" in dirty.stdout


def test_cli_list_rules():
    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "simlint.py"),
         "--list-rules"],
        capture_output=True, text=True)
    assert out.returncode == 0
    for rule in RULES:
        assert rule.id in out.stdout


def test_rule_catalogue_is_well_formed():
    ids = [r.id for r in RULES]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 8
    assert "SIM000" in ids and "SIM018" in ids
    for r in RULES:
        assert r.severity in ("error", "warning")
        assert r.summary and r.rationale


def test_cli_graph_exports(real_tree):
    # ``--graph dot`` prints export_dot of the package's program; check
    # it over the session's already linked program, not a second CLI
    # run that parses and links src/repro again
    assert export_dot(real_tree.program).startswith("digraph")
    script = REPO_ROOT / "scripts" / "simlint.py"
    graph = subprocess.run(
        [sys.executable, str(script), "--graph", "json"],
        capture_output=True, text=True)
    assert graph.returncode == 0
    data = json.loads(graph.stdout)
    assert data["package"] == "repro"
    assert "repro.sim.engine" in data["modules"]
