"""Baseline compare: tolerance bands, statuses, and per-layer blame.

A sweep run produces one record per cell (:mod:`repro.sweep.jobs`);
this module diffs a run against a committed baseline manifest
(``sweep-baseline.json``), classifies every cell, and — for cells out
of tolerance — escalates to :func:`repro.obs.diff.attribute_regression`
over the records' embedded trace dumps, so the report names the layer
and wait kind that ate the delta, not just the metric that moved.

Besides the record's metrics, every cell is judged layer by layer: the
embedded trace folds (:func:`repro.obs.diff.self_times`) into self
time per span ``category/label`` — ``kernel/block-layer``,
``nvme/translate``, ... — plus the trace's last ``end_ns``, and the
``layers`` band compares them.  A 1 ns change to one layer's cost
moves that layer's self time even where the latency bands absorb it;
a cost no span covers still moves the trace end.

Tolerance model (per metric, manifest-overridable):

* ``direction: high`` — a *rise* beyond ``max(rel * baseline, abs)``
  regresses (latencies, breach counts).
* ``direction: low`` — a *fall* beyond the band regresses
  (throughput).
* ``direction: exact`` — any drift regresses (op counts, retry and
  injection counters, per-layer self times: these are deterministic,
  so drift means the simulated behaviour changed).

Moves beyond the band in the *good* direction mark the cell
``improved`` — visible in the dashboard, never fatal.  Gate-fatal
statuses are ``regressed`` and ``missing`` (cell in the baseline but
absent from the run).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs.diff import attribute_regression, render_blame, \
    self_times, spans_from_compact

__all__ = [
    "RESULTS_SCHEMA",
    "BASELINE_SCHEMA",
    "DEFAULT_TOLERANCES",
    "GATE_FATAL",
    "resolve_tolerances",
    "flat_metrics",
    "layer_metrics",
    "compare_cell",
    "compare_results",
    "baseline_from_results",
    "write_json",
    "load_json",
    "render_markdown",
    "render_text",
]

RESULTS_SCHEMA = 1
BASELINE_SCHEMA = 1

#: Statuses that make the sweep gate exit non-zero.
GATE_FATAL = ("regressed", "missing")

DEFAULT_TOLERANCES: Dict[str, Dict[str, Any]] = {
    "mean_ns": {"rel": 0.10, "abs": 2_000.0, "direction": "high"},
    "p50_ns": {"rel": 0.10, "abs": 2_000.0, "direction": "high"},
    "p99_ns": {"rel": 0.10, "abs": 5_000.0, "direction": "high"},
    "p999_ns": {"rel": 0.10, "abs": 5_000.0, "direction": "high"},
    "iops": {"rel": 0.10, "abs": 0.0, "direction": "low"},
    "mbps": {"rel": 0.10, "abs": 0.0, "direction": "low"},
    "ops": {"direction": "exact"},
    "retries": {"direction": "exact"},
    "faults_injected": {"direction": "exact"},
    "slo_breaches": {"direction": "exact"},
    # Every per-layer self time and the trace end (layer_metrics).
    "layers": {"direction": "exact"},
}


def resolve_tolerances(overrides: Optional[Dict[str, Dict[str, Any]]]
                       ) -> Dict[str, Dict[str, Any]]:
    """Defaults merged with the manifest's ``tolerances`` section
    (per-metric override, whole-entry replacement)."""
    out = {k: dict(v) for k, v in DEFAULT_TOLERANCES.items()}
    for key, band in (overrides or {}).items():
        out[key] = dict(band)
    return out


def _tolerance_for(key: str,
                   tolerances: Dict[str, Dict[str, Any]]
                   ) -> Optional[Dict[str, Any]]:
    """Band for a flat metric key: exact name first, then the suffix
    after the last dot (``tenant1.p99_ns`` -> ``p99_ns``)."""
    if key in tolerances:
        return tolerances[key]
    if "." in key:
        return tolerances.get(key.rsplit(".", 1)[1])
    return None


def flat_metrics(record: Dict[str, Any]) -> Dict[str, float]:
    """One flat metric dict per record: the aggregate metrics plus
    per-tenant percentiles as ``tenant<i>.<metric>``."""
    out = {k: float(v) for k, v in record.get("metrics", {}).items()}
    for i, tenant in enumerate(record.get("tenants", [])):
        for k, v in tenant.items():
            out[f"tenant{i}.{k}"] = float(v)
    return out


def layer_metrics(record: Dict[str, Any]) -> Dict[str, float]:
    """Self ns per span ``category/label`` in the record's embedded
    trace, plus ``trace_end_ns`` (the last span end); empty for a
    record without a trace."""
    rows = record.get("trace")
    if not rows:
        return {}
    out = {k: float(v) for k, v in self_times(
        spans_from_compact(rows),
        key=lambda s: f"{s.category}/{s.label}").items()}
    out["trace_end_ns"] = float(max(row[3] for row in rows))
    return out


def _judge(key: str, base: float, cur: float,
           band: Dict[str, Any]) -> Optional[Tuple[str, Dict[str, Any]]]:
    """None (in band), or ("regression"|"improvement", detail)."""
    delta = cur - base
    direction = band.get("direction", "high")
    detail = {
        "metric": key,
        "baseline": base,
        "current": cur,
        "delta": delta,
        "delta_pct": (100.0 * delta / base) if base else None,
    }
    if direction == "exact":
        return ("regression", detail) if delta != 0 else None
    limit = max(float(band.get("rel", 0.0)) * abs(base),
                float(band.get("abs", 0.0)))
    if abs(delta) <= limit:
        return None
    worse = delta > 0 if direction == "high" else delta < 0
    return ("regression" if worse else "improvement", detail)


def _attribute(base_record: Dict[str, Any],
               cur_record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    base_rows = base_record.get("trace")
    cur_rows = cur_record.get("trace")
    if not base_rows or not cur_rows:
        return None
    try:
        return attribute_regression(spans_from_compact(base_rows),
                                    spans_from_compact(cur_rows))
    except Exception:
        # Attribution is best-effort enrichment: an unalignable trace
        # pair must not mask the regression verdict itself.
        return None


def compare_cell(base_record: Dict[str, Any],
                 cur_record: Dict[str, Any],
                 tolerances: Dict[str, Dict[str, Any]]
                 ) -> Dict[str, Any]:
    """Classify one cell and, when regressed, attach layer blame."""
    base_flat = flat_metrics(base_record)
    cur_flat = flat_metrics(cur_record)
    checks = [(key, base_flat[key], cur_flat[key],
               _tolerance_for(key, tolerances))
              for key in sorted(base_flat.keys() & cur_flat.keys())]
    base_layers = layer_metrics(base_record)
    cur_layers = layer_metrics(cur_record)
    if base_layers and cur_layers:
        # A layer present on one side only moved from 0 ns.  The trace
        # end goes last, so on a tie the worst regression names a layer.
        keys = sorted((base_layers.keys() | cur_layers.keys())
                      - {"trace_end_ns"}) + ["trace_end_ns"]
        checks += [(f"layers.{key}", base_layers.get(key, 0.0),
                    cur_layers.get(key, 0.0), tolerances.get("layers"))
                   for key in keys]
    regressions: List[Dict[str, Any]] = []
    improvements: List[Dict[str, Any]] = []
    for key, base, cur, band in checks:
        if band is None:
            continue
        verdict = _judge(key, base, cur, band)
        if verdict is None:
            continue
        kind, detail = verdict
        (regressions if kind == "regression" else improvements) \
            .append(detail)
    status = ("regressed" if regressions
              else "improved" if improvements else "ok")
    out: Dict[str, Any] = {
        "status": status,
        "regressions": regressions,
        "improvements": improvements,
        "metrics": {k: cur_flat[k] for k in sorted(cur_flat)},
        "baseline_metrics": {k: base_flat[k] for k in sorted(base_flat)},
        "attribution": None,
        "blame": None,
    }
    if regressions:
        # The trace pair carries the why: fold both span trees through
        # obs.diff and keep the ranked per-layer/wait-kind verdict.
        attribution = _attribute(base_record, cur_record)
        if attribution is not None:
            # The full diff is large and already summarized by the
            # candidates; drop it from the report to keep artifacts
            # reviewable.
            attribution = {k: v for k, v in attribution.items()
                           if k != "diff"}
            out["attribution"] = attribution
            out["blame"] = render_blame(attribution)
    return out


def compare_results(baseline: Dict[str, Any],
                    current: Dict[str, Any],
                    tolerances: Optional[Dict[str, Dict[str, Any]]] = None
                    ) -> Dict[str, Any]:
    """Diff a results dump against a baseline manifest.

    Both are ``{"cells": {cell_id: record}}`` documents
    (:func:`baseline_from_results` shapes a baseline from a run).
    """
    bands = resolve_tolerances(tolerances)
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    cells: Dict[str, Dict[str, Any]] = {}
    for cell in sorted(base_cells.keys() | cur_cells.keys()):
        if cell not in cur_cells:
            cells[cell] = {"status": "missing", "regressions": [],
                           "improvements": [], "attribution": None,
                           "blame": None}
        elif cell not in base_cells:
            cells[cell] = {"status": "new", "regressions": [],
                           "improvements": [], "attribution": None,
                           "blame": None,
                           "metrics": flat_metrics(cur_cells[cell])}
        else:
            cells[cell] = compare_cell(base_cells[cell],
                                       cur_cells[cell], bands)
    summary = {status: 0 for status in
               ("ok", "regressed", "improved", "new", "missing")}
    for row in cells.values():
        summary[row["status"]] += 1
    summary["total"] = len(cells)
    return {
        "schema": RESULTS_SCHEMA,
        "grid": current.get("grid") or baseline.get("grid"),
        "cells": cells,
        "summary": summary,
        "ok": not any(cells[c]["status"] in GATE_FATAL for c in cells),
    }


# ---------------------------------------------------------------------------
# Result / baseline documents
# ---------------------------------------------------------------------------

def baseline_from_results(results: Dict[str, Any]) -> Dict[str, Any]:
    """A committable baseline from a results dump.

    Cell records pass through unchanged — the trace dump stays, the
    compare stage needs it for attribution — but run-identity keys
    (tree hash, fingerprints, wall-clock timing) never enter, so a
    baseline refresh diffs clean when behaviour is unchanged.
    """
    return {
        "schema": BASELINE_SCHEMA,
        "grid": results.get("grid"),
        "cells": {cell: record
                  for cell, record in sorted(
                      results.get("cells", {}).items())},
    }


def _dump_canonical(obj: Any, pad: str = "") -> str:
    """Structure-aware canonical JSON: dicts one sorted key per line;
    lists one *compact* element per line.  A trace dump's ~300 rows
    stay one row per line instead of indent-exploding into thousands,
    so committed baselines and results are small enough to review and
    line-diff cell by cell."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad} {json.dumps(str(k))}: {_dump_canonical(v, pad + ' ')}"
            for k, v in sorted(obj.items()))
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            pad + " " + json.dumps(v, sort_keys=True,
                                   separators=(",", ":"))
            if not isinstance(v, dict)
            else pad + " " + _dump_canonical(v, pad + " ")
            for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    return json.dumps(obj)


def write_json(path, doc: Dict[str, Any]) -> None:
    """Canonical dump: sorted keys, deterministic layout, trailing
    newline.  Deterministic bytes are load-bearing — the --jobs parity
    pin and the nightly baseline-refresh diff both compare files."""
    Path(path).write_text(_dump_canonical(doc) + "\n", encoding="utf-8")


def load_json(path) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_STATUS_MARK = {
    "ok": "ok",
    "improved": "improved",
    "regressed": "REGRESSED",
    "missing": "MISSING",
    "new": "new",
}


def _cell_axes(cell: str) -> Dict[str, str]:
    return dict(item.split("=", 1) for item in cell.split("/"))


def _worst_regression(row: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    regs = row.get("regressions") or []
    return max(regs, key=lambda r: abs(r["delta"]), default=None)


def _cell_label(row: Dict[str, Any]) -> str:
    mark = _STATUS_MARK.get(row["status"], row["status"])
    worst = _worst_regression(row)
    if worst is not None:
        pct = worst.get("delta_pct")
        move = (f"{pct:+.1f}%" if pct is not None
                else f"{worst['delta']:+g}")
        return f"{mark} ({worst['metric']} {move})"
    return mark


def render_markdown(report: Dict[str, Any]) -> str:
    """The sweep grid as a markdown heat table — rows are (workload,
    faults) pairs, columns are engines — plus a blame list for every
    regressed cell.  This is what the consolidated CI dashboard
    embeds."""
    cells = report.get("cells", {})
    engines: List[str] = []
    rows: List[Tuple[str, str]] = []
    for cell in cells:
        axes = _cell_axes(cell)
        if axes["engine"] not in engines:
            engines.append(axes["engine"])
        key = (axes["wl"], axes["faults"])
        if key not in rows:
            rows.append(key)
    engines.sort()
    rows.sort()

    s = report.get("summary", {})
    grid = report.get("grid") or "?"
    lines = [
        f"### Sweep grid `{grid}` — "
        f"{s.get('total', 0)} cells: {s.get('ok', 0)} ok, "
        f"{s.get('regressed', 0)} regressed, "
        f"{s.get('improved', 0)} improved, "
        f"{s.get('new', 0)} new, {s.get('missing', 0)} missing",
        "",
        "| workload / faults | " + " | ".join(engines) + " |",
        "|---|" + "---|" * len(engines),
    ]
    for wl, faults in rows:
        entries = []
        for engine in engines:
            cell = f"engine={engine}/wl={wl}/faults={faults}"
            row = cells.get(cell)
            if row is None:
                entries.append("—")
            elif row["status"] == "regressed":
                entries.append(f"**{_cell_label(row)}**")
            else:
                entries.append(_cell_label(row))
        lines.append(f"| `{wl}` / `{faults}` | " + " | ".join(entries)
                     + " |")

    blamed = [(cell, row) for cell, row in sorted(cells.items())
              if row["status"] in GATE_FATAL]
    if blamed:
        lines.append("")
        lines.append("#### Regressed cells — per-layer blame")
        for cell, row in blamed:
            if row["status"] == "missing":
                lines.append(f"- `{cell}`: missing from this run")
                continue
            worst = _worst_regression(row)
            what = (f"{worst['metric']} "
                    f"{worst['baseline']:g} → {worst['current']:g}"
                    if worst else "out of tolerance")
            why = row.get("blame") or "no trace attribution available"
            lines.append(f"- `{cell}`: {what} — {why}")
    return "\n".join(lines) + "\n"


def render_text(report: Dict[str, Any]) -> str:
    """Plain-text verdict for the gate's stderr: one line per fatal
    cell, metric move first, layer blame after."""
    lines: List[str] = []
    for cell, row in sorted(report.get("cells", {}).items()):
        if row["status"] not in GATE_FATAL:
            continue
        if row["status"] == "missing":
            lines.append(f"sweep-gate: {cell}: MISSING from this run")
            continue
        worst = _worst_regression(row)
        what = (f"{worst['metric']} {worst['baseline']:g} -> "
                f"{worst['current']:g} ({worst['delta']:+g})"
                if worst else "out of tolerance")
        why = row.get("blame") or "no trace attribution available"
        lines.append(f"sweep-gate: {cell}: REGRESSED: {what}; {why}")
    s = report.get("summary", {})
    lines.append(
        f"sweep-gate: {s.get('total', 0)} cells — "
        f"{s.get('ok', 0)} ok, {s.get('regressed', 0)} regressed, "
        f"{s.get('improved', 0)} improved, {s.get('new', 0)} new, "
        f"{s.get('missing', 0)} missing")
    return "\n".join(lines) + "\n"
