"""Tolerance bands, statuses, attribution escalation, rendering."""

import copy
import json
from pathlib import Path

from repro.sweep import compare as cmp_mod
from repro.sweep.grid import MANIFEST_SCHEMA, SweepManifest
from repro.sweep.jobs import build_job, run_sweep_point


def record(cell="engine=bypassd/wl=rr/faults=none", **metrics):
    base = {"ops": 24.0, "mean_ns": 5000.0, "p50_ns": 4800.0,
            "p99_ns": 9000.0, "p999_ns": 9500.0, "iops": 100000.0,
            "mbps": 400.0, "retries": 0.0, "faults_injected": 0.0,
            "slo_breaches": 0.0}
    base.update(metrics)
    engine, wl, faults = (part.split("=", 1)[1]
                          for part in cell.split("/"))
    return {"schema": 1, "cell": cell,
            "axes": {"engine": engine, "workload": wl, "faults": faults},
            "faults_spec": None, "metrics": base, "tenants": [],
            "counters": {}, "slo": [], "trace": []}


def doc(cells, grid="default"):
    return {"schema": 1, "grid": grid, "cells": cells}


BASELINE = Path(__file__).resolve().parents[2] / "sweep-baseline.json"


def committed_cell(cell):
    return cmp_mod.load_json(BASELINE)["cells"][cell]


class TestJudging:
    def test_within_band_is_ok(self):
        rep = cmp_mod.compare_cell(record(), record(p99_ns=9400.0),
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "ok"
        assert not rep["regressions"] and not rep["improvements"]

    def test_latency_rise_beyond_band_regresses(self):
        rep = cmp_mod.compare_cell(record(), record(p99_ns=20000.0),
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "regressed"
        assert any(r["metric"] == "p99_ns" for r in rep["regressions"])

    def test_latency_fall_is_improvement_not_failure(self):
        rep = cmp_mod.compare_cell(record(p99_ns=20000.0), record(),
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "improved"

    def test_throughput_fall_regresses(self):
        rep = cmp_mod.compare_cell(record(), record(iops=50000.0),
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "regressed"
        assert any(r["metric"] == "iops" for r in rep["regressions"])

    def test_exact_counter_drift_regresses_either_direction(self):
        bands = cmp_mod.resolve_tolerances(None)
        up = cmp_mod.compare_cell(record(), record(retries=1.0), bands)
        down = cmp_mod.compare_cell(record(retries=1.0), record(), bands)
        assert up["status"] == "regressed"
        assert down["status"] == "regressed"

    def test_abs_floor_absorbs_tiny_latency_jitter(self):
        # +1900 ns on a 5000 ns mean is 38% relative but under the
        # 2000 ns absolute floor.
        rep = cmp_mod.compare_cell(record(), record(mean_ns=6900.0),
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "ok"

    def test_manifest_override_replaces_band(self):
        bands = cmp_mod.resolve_tolerances(
            {"p99_ns": {"rel": 5.0, "abs": 0.0, "direction": "high"}})
        rep = cmp_mod.compare_cell(record(), record(p99_ns=20000.0),
                                   bands)
        assert rep["status"] == "ok"

    def test_tenant_metrics_use_suffix_band(self):
        base = record()
        base["tenants"] = [{"ops": 12.0, "mean_ns": 5000.0,
                            "p50_ns": 4800.0, "p99_ns": 9000.0,
                            "p999_ns": 9500.0}]
        cur = record()
        cur["tenants"] = [{"ops": 12.0, "mean_ns": 5000.0,
                           "p50_ns": 4800.0, "p99_ns": 30000.0,
                           "p999_ns": 9500.0}]
        rep = cmp_mod.compare_cell(base, cur,
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "regressed"
        assert any(r["metric"] == "tenant0.p99_ns"
                   for r in rep["regressions"])


class TestExactLayers:
    """Per-layer self times and the trace end are judged exactly, so a
    1 ns change the latency bands absorb still fails the cell."""

    def test_one_ns_on_one_layer_regresses_and_names_it(self):
        cell = "engine=sync/wl=randread-4k/faults=none"
        base = committed_cell(cell)
        cur = copy.deepcopy(base)
        row = next(r for r in cur["trace"]
                   if r[:2] == ["kernel", "block-layer"])
        row[3] += 1
        rep = cmp_mod.compare_cell(base, cur,
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "regressed"
        # No latency band moved: only the layer check sees it.
        assert all(r["metric"].startswith("layers.")
                   for r in rep["regressions"])
        first = rep["regressions"][0]
        assert first["metric"] == "layers.kernel/block-layer"
        assert first["delta"] == 1.0
        text = cmp_mod.render_text(cmp_mod.compare_results(
            doc({cell: base}), doc({cell: cur})))
        assert f"{cell}: REGRESSED: layers.kernel/block-layer" in text

    def test_cost_no_span_covers_regresses_through_trace_end(self):
        base = committed_cell("engine=io_uring/wl=randread-4k/faults=none")
        cur = copy.deepcopy(base)
        last = cur["trace"][-1]
        assert last[5] == 0, "a root span: shifting it moves no self time"
        last[2] += 1
        last[3] += 1
        rep = cmp_mod.compare_cell(base, cur,
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "regressed"
        assert [r["metric"] for r in rep["regressions"]] == \
            ["layers.trace_end_ns"]

    def test_committed_baseline_matches_reality(self):
        """Re-simulating the cell that carries the 128 KiB BypassD
        random read reproduces its committed record exactly, trace
        included."""
        cell = "engine=bypassd/wl=randread-128k/faults=none"
        point = SweepManifest.builtin().point_for(cell, grid="default")
        fresh = run_sweep_point(build_job(point, "t"))["record"]
        assert json.loads(json.dumps(fresh)) == committed_cell(cell)


class TestReport:
    def test_missing_cell_is_fatal(self):
        rep = cmp_mod.compare_results(
            doc({"a": record("engine=x/wl=y/faults=z")}), doc({}))
        assert rep["cells"]["a"]["status"] == "missing"
        assert rep["summary"]["missing"] == 1
        assert not rep["ok"]

    def test_new_cell_is_informational(self):
        rep = cmp_mod.compare_results(
            doc({}), doc({"a": record("engine=x/wl=y/faults=z")}))
        assert rep["cells"]["a"]["status"] == "new"
        assert rep["ok"]

    def test_summary_counts_every_status(self):
        base = doc({"ok": record(), "reg": record(), "gone": record()})
        cur = doc({"ok": record(), "reg": record(p99_ns=20000.0),
                   "extra": record()})
        rep = cmp_mod.compare_results(base, cur)
        s = rep["summary"]
        assert (s["ok"], s["regressed"], s["missing"], s["new"]) == \
            (1, 1, 1, 1)
        assert s["total"] == 4
        assert not rep["ok"]


class TestAttribution:
    TINY = {
        "schema": MANIFEST_SCHEMA,
        "workloads": {
            "rr": {"kind": "fio", "rw": "randread", "block_size": 4096,
                   "tenants": 1, "ops": 24, "file_mib": 2, "seed": 42},
        },
        "faults": {"none": None},
        "grids": {"default": {"engines": ["bypassd"],
                              "workloads": ["rr"],
                              "faults": ["none"]}},
        "tolerances": {},
    }

    def test_injected_retry_blamed_on_retry_layer(self):
        """The acceptance pin: a seeded media-error retry in one cell
        must regress the gate with >= 90% of the latency delta
        attributed to the retry machinery."""
        manifest = SweepManifest.from_dict(self.TINY)
        point = manifest.point_for("engine=bypassd/wl=rr/faults=none",
                                   grid="default")
        clean = run_sweep_point(build_job(point, "t"))
        hurt = run_sweep_point(build_job(
            point, "t",
            effective_faults="seed=7,media_read_error_nth=12"))
        rep = cmp_mod.compare_cell(clean["record"], hurt["record"],
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "regressed"
        attribution = rep["attribution"]
        assert attribution is not None, "trace attribution missing"
        blame = attribution["blame"]
        assert blame["layer"] == "retry"
        assert blame["wait_kind"] == "retry_backoff"
        assert blame["share_of_delta"] >= 0.90
        assert "retry" in rep["blame"]

    def test_attribution_absent_without_traces(self):
        rep = cmp_mod.compare_cell(record(), record(p99_ns=20000.0),
                                   cmp_mod.resolve_tolerances(None))
        assert rep["status"] == "regressed"
        assert rep["attribution"] is None
        assert rep["blame"] is None


class TestDocuments:
    def test_baseline_strips_run_identity_keeps_traces(self):
        results = doc({"a": record("engine=x/wl=y/faults=z")})
        base = cmp_mod.baseline_from_results(results)
        assert base["schema"] == cmp_mod.BASELINE_SCHEMA
        assert base["grid"] == "default"
        assert "trace" in base["cells"]["a"]
        assert "tree" not in base and "fingerprint" not in base

    def test_write_json_is_canonical_and_roundtrips(self, tmp_path):
        trace_doc = {"b": [1, 2], "a": {"z": 1, "y": 2},
                     "rows": [["x", 1, [2, 3]], ["y", 4, [5, 6]]]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        cmp_mod.write_json(p1, trace_doc)
        cmp_mod.write_json(p2, json.loads(p1.read_text()))
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == trace_doc
        # Leaf lists stay one compact element per line: a trace row
        # never indent-explodes into one-line-per-scalar.
        assert '["x",1,[2,3]]' in p1.read_text()


class TestRendering:
    def report(self):
        base = doc({
            "engine=bypassd/wl=rr/faults=none": record(
                "engine=bypassd/wl=rr/faults=none"),
            "engine=sync/wl=rr/faults=none": record(
                "engine=sync/wl=rr/faults=none"),
        })
        cur = doc({
            "engine=bypassd/wl=rr/faults=none": record(
                "engine=bypassd/wl=rr/faults=none", p999_ns=50000.0),
            "engine=sync/wl=rr/faults=none": record(
                "engine=sync/wl=rr/faults=none"),
        })
        return cmp_mod.compare_results(base, cur)

    def test_markdown_heat_table(self):
        md = cmp_mod.render_markdown(self.report())
        assert "### Sweep grid `default`" in md
        assert "| workload / faults | bypassd | sync |" in md
        assert "**REGRESSED (p999_ns" in md
        assert "#### Regressed cells — per-layer blame" in md
        assert "no trace attribution available" in md

    def test_markdown_absent_cell_renders_dash(self):
        rep = cmp_mod.compare_results(
            doc({"engine=a/wl=w/faults=none": record(
                "engine=a/wl=w/faults=none"),
                "engine=b/wl=w/faults=spike": record(
                    "engine=b/wl=w/faults=spike")}),
            doc({"engine=a/wl=w/faults=none": record(
                "engine=a/wl=w/faults=none"),
                "engine=b/wl=w/faults=spike": record(
                    "engine=b/wl=w/faults=spike")}))
        md = cmp_mod.render_markdown(rep)
        # (w, none) x engine b and (w, spike) x engine a don't exist.
        assert "—" in md

    def test_text_verdict_lines(self):
        text = cmp_mod.render_text(self.report())
        assert "sweep-gate: engine=bypassd/wl=rr/faults=none: " \
               "REGRESSED: p999_ns" in text
        assert "1 regressed" in text
