"""Run-to-run regression attribution: where did the latency go?

Two same-workload runs (a baseline and a current) rarely differ
uniformly — a regression concentrates in one layer: extra nvme-driver
retry attempts after injected media errors, a page-cache hit-rate
collapse, journal commits serialising.  This module loads two Chrome
traces written by :func:`repro.obs.export.write_chrome_trace`, aligns
them, and attributes the end-to-end latency delta per layer: "p99
grew 18%, of which 92% is nvme-driver retry spans".

Trace attribution works on *aligned span trees*: ops (root spans) are
paired in start order, each pair's delta is decomposed into per-layer
self-time deltas, and a synthetic ``retry`` layer captures the extra
device attempts — each op's wait spans beyond the first, plus the
backoff gaps between them — which otherwise would smear across device
self-time and root self-time.  Each layer's delta is further split by
the stamped ``wait.*`` span attrs (:mod:`repro.sim.trace`) into wait
states versus service, so the report names the wait that grew
("arbiter queueing grew 12 us") instead of just the layer.  All
outputs are plain dicts of ints, floats and strings:
``scripts/trace_diff.py`` prints them as machine-readable JSON.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, \
    Sequence, Tuple

from ..sim.stats import percentile
from ..sim.trace import Span
from .attribution import wait_attrs
from .export import children_map, span_index

__all__ = [
    "load_dump",
    "spans_from_chrome_trace",
    "compact_spans",
    "spans_from_compact",
    "op_roots",
    "self_times",
    "diff_traces",
    "diff_dumps",
    "attribute_regression",
    "render_diff",
    "render_blame",
]

# Root-span categories that represent one end-to-end operation.  "op"
# is the UserLib root, "syscall" the root on pure-kernel engines.
_OP_CATEGORIES = ("op", "syscall")

# Categories whose spans represent a device round-trip wait: one span
# per attempt, so extra spans under one op are retries.
_ATTEMPT_CATEGORIES = ("device",)


# -- loading ----------------------------------------------------------------

def spans_from_chrome_trace(doc: dict) -> List[Span]:
    """Rebuild spans from a Chrome trace JSON document.

    Inverse of :func:`repro.obs.export.chrome_trace_events` for "X"
    events: ts/dur microseconds round back to the original integer
    nanoseconds exactly (they were produced by ``ns / 1000.0``).
    """
    spans: List[Span] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        start = round(ev["ts"] * 1000.0)
        dur = round(ev.get("dur", 0.0) * 1000.0)
        cat = ev.get("cat", "")
        name = ev.get("name", cat)
        label = name[len(cat) + 1:] if name.startswith(f"{cat}/") else ""
        attrs = tuple(sorted(
            (k, v) for k, v in args.items()
            if k not in ("span_id", "parent_id", "trace_id")
        ))
        spans.append(Span(cat, label, start, start + dur,
                          span_id=args.get("span_id", 0),
                          parent_id=args.get("parent_id", 0),
                          trace_id=args.get("trace_id", 0),
                          tid=ev.get("tid", -1), attrs=attrs))
    return spans


def compact_spans(spans: Iterable[Span],
                  attr_prefix: str = "wait.") -> List[list]:
    """Spans as compact JSON-ready rows — the dump format sweep result
    records and committed sweep baselines embed.

    Each row is ``[category, label, start_ns, end_ns, span_id,
    parent_id, [[key, value], ...]]``; only ``attr_prefix`` attrs (the
    stamped wait states the diff needs) are kept, so a baseline stays
    small enough to commit.  Rows are sorted by (start, span_id) so
    two dumps of the same run compare byte for byte.
    """
    rows = []
    for s in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
        attrs = [[k, v] for k, v in s.attrs if k.startswith(attr_prefix)]
        rows.append([s.category, s.label, s.start_ns, s.end_ns,
                     s.span_id, s.parent_id, attrs])
    return rows


def spans_from_compact(rows: Iterable[Sequence]) -> List[Span]:
    """Rebuild :class:`Span` objects from :func:`compact_spans` rows."""
    spans = []
    for cat, label, start, end, span_id, parent_id, attrs in rows:
        spans.append(Span(cat, label, int(start), int(end),
                          span_id=int(span_id), parent_id=int(parent_id),
                          trace_id=0, tid=-1,
                          attrs=tuple((k, int(v)) for k, v in attrs)))
    return spans


def load_dump(path) -> List[Span]:
    """Load the spans of a Chrome trace dump file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")
    return spans_from_chrome_trace(doc)


# -- trace diffing ----------------------------------------------------------

def op_roots(spans: Iterable[Span]) -> List[Span]:
    """Operation roots in start order (ties broken by span_id)."""
    index = span_index(spans)
    roots = [s for s in index.values()
             if (s.parent_id == 0 or s.parent_id not in index)
             and s.category in _OP_CATEGORIES and s.duration_ns > 0]
    return sorted(roots, key=lambda s: (s.start_ns, s.span_id))


def _subtree(root: Span, kids: Dict[int, List[Span]]) -> List[Span]:
    out = [root]
    stack = [root]
    while stack:
        cur = stack.pop()
        for child in kids.get(cur.span_id, []):
            out.append(child)
            stack.append(child)
    return out


def self_times(spans: Iterable[Span],
               key: Callable[[Span], Any] = lambda s: s.category
               ) -> Dict[Any, int]:
    """Positive self time (duration minus children) summed per
    ``key(span)`` — per category by default."""
    spans = list(spans)
    child_time: Dict[int, int] = {}
    ids = {s.span_id for s in spans}
    for s in spans:
        if s.parent_id in ids:
            child_time[s.parent_id] = (child_time.get(s.parent_id, 0)
                                       + s.duration_ns)
    out: Dict[Any, int] = {}
    for s in spans:
        self_ns = s.duration_ns - child_time.get(s.span_id, 0)
        if self_ns > 0:
            k = key(s)
            out[k] = out.get(k, 0) + self_ns
    return out


def _wait_times(tree: List[Span]) -> Dict[Tuple[str, str], int]:
    """Per-(category, wait kind) stamped wait ns in one tree.

    Reads the ``wait.*`` span attrs the models stamp (sq-full stalls,
    arbiter queueing, journal commits, ...), so a layer's growth can
    be split into *which wait state* grew versus actual service.
    """
    out: Dict[Tuple[str, str], int] = {}
    for s in tree:
        for kind, ns in wait_attrs(s).items():
            key = (s.category, kind)
            out[key] = out.get(key, 0) + ns
    return out


def _attempt_window_ns(tree: List[Span]) -> Tuple[int, int]:
    """(attempt count, ns from first attempt start to last attempt end).

    The window includes inter-attempt gaps — the driver's backoff
    sleeps — which is what makes retry attribution add up: the backoff
    otherwise lands in the *root's* self time.
    """
    attempts = sorted(
        (s for s in tree if s.category in _ATTEMPT_CATEGORIES),
        key=lambda s: (s.start_ns, s.span_id),
    )
    if not attempts:
        return 0, 0
    return len(attempts), attempts[-1].end_ns - attempts[0].start_ns


def _latency_digest(durations: List[int]) -> Dict[str, float]:
    if not durations:
        return {"ops": 0, "mean_ns": 0.0, "p50_ns": 0.0, "p99_ns": 0.0,
                "total_ns": 0}
    return {
        "ops": len(durations),
        "mean_ns": round(sum(durations) / len(durations), 1),
        "p50_ns": float(percentile(durations, 50)),
        "p99_ns": float(percentile(durations, 99)),
        "total_ns": sum(durations),
    }


def diff_traces(base_spans: Iterable[Span],
                cur_spans: Iterable[Span]) -> dict:
    """Aligned span-tree diff of two runs of the same workload.

    Ops are paired in start order; unpaired tails are reported, not
    diffed.  Returns a machine-readable dict: end-to-end digests, the
    per-layer (span category) self-time deltas with their share of the
    total latency delta, and the synthetic ``retry`` attribution.
    """
    base_spans = list(base_spans)
    cur_spans = list(cur_spans)
    base_kids = children_map(base_spans)
    cur_kids = children_map(cur_spans)
    base_roots = op_roots(base_spans)
    cur_roots = op_roots(cur_spans)
    paired = min(len(base_roots), len(cur_roots))

    layer_base: Dict[str, int] = {}
    layer_cur: Dict[str, int] = {}
    wait_base: Dict[Tuple[str, str], int] = {}
    wait_cur: Dict[Tuple[str, str], int] = {}
    retry_delta_ns = 0
    extra_attempts = 0
    delta_total_ns = 0
    for b, c in zip(base_roots[:paired], cur_roots[:paired]):
        b_tree = _subtree(b, base_kids)
        c_tree = _subtree(c, cur_kids)
        delta_total_ns += c.duration_ns - b.duration_ns
        for cat, ns in self_times(b_tree).items():
            layer_base[cat] = layer_base.get(cat, 0) + ns
        for cat, ns in self_times(c_tree).items():
            layer_cur[cat] = layer_cur.get(cat, 0) + ns
        for key, ns in _wait_times(b_tree).items():
            wait_base[key] = wait_base.get(key, 0) + ns
        for key, ns in _wait_times(c_tree).items():
            wait_cur[key] = wait_cur.get(key, 0) + ns
        b_n, b_window = _attempt_window_ns(b_tree)
        c_n, c_window = _attempt_window_ns(c_tree)
        if c_n > b_n:
            extra_attempts += c_n - b_n
            retry_delta_ns += max(0, c_window - b_window)

    layers = {}
    for cat in sorted(set(layer_base) | set(layer_cur)):
        base_ns = layer_base.get(cat, 0)
        cur_ns = layer_cur.get(cat, 0)
        # Split the layer's growth into wait states vs service: the
        # stamped waits say *why* a layer grew ("arbiter queueing
        # grew"), not just that it grew.
        kinds = sorted({k for c2, k in set(wait_base) | set(wait_cur)
                        if c2 == cat})
        waits = {}
        wait_base_total = 0
        wait_cur_total = 0
        for kind in kinds:
            wb = wait_base.get((cat, kind), 0)
            wc = wait_cur.get((cat, kind), 0)
            wait_base_total += wb
            wait_cur_total += wc
            waits[kind] = {
                "baseline_ns": wb,
                "current_ns": wc,
                "delta_ns": wc - wb,
                "share_of_delta": (round((wc - wb) / delta_total_ns, 4)
                                   if delta_total_ns else 0.0),
            }
        layers[cat] = {
            "baseline_ns": base_ns,
            "current_ns": cur_ns,
            "delta_ns": cur_ns - base_ns,
            "share_of_delta": (round((cur_ns - base_ns) / delta_total_ns, 4)
                               if delta_total_ns else 0.0),
            "waits": waits,
            "service_delta_ns": ((cur_ns - wait_cur_total)
                                 - (base_ns - wait_base_total)),
        }

    base_digest = _latency_digest([s.duration_ns
                                   for s in base_roots[:paired]])
    cur_digest = _latency_digest([s.duration_ns
                                  for s in cur_roots[:paired]])
    mean_delta = cur_digest["mean_ns"] - base_digest["mean_ns"]
    p99_delta = cur_digest["p99_ns"] - base_digest["p99_ns"]
    return {
        "schema": 1,
        "kind": "trace",
        "baseline": base_digest,
        "current": cur_digest,
        "unpaired": {"baseline": len(base_roots) - paired,
                     "current": len(cur_roots) - paired},
        "delta": {
            "mean_ns": round(mean_delta, 1),
            "mean_pct": (round(100.0 * mean_delta
                               / base_digest["mean_ns"], 2)
                         if base_digest["mean_ns"] else 0.0),
            "p99_ns": p99_delta,
            "p99_pct": (round(100.0 * p99_delta / base_digest["p99_ns"], 2)
                        if base_digest["p99_ns"] else 0.0),
            "total_ns": delta_total_ns,
        },
        "layers": layers,
        "attribution": {
            "retry": {
                "extra_attempts": extra_attempts,
                "delta_ns": retry_delta_ns,
                "share_of_delta": (round(retry_delta_ns / delta_total_ns, 4)
                                   if delta_total_ns > 0 else 0.0),
            },
        },
    }


def diff_dumps(base_path, cur_path) -> dict:
    """Load two Chrome trace dump files and diff them."""
    return diff_traces(load_dump(base_path), load_dump(cur_path))


# -- regression escalation --------------------------------------------------

def attribute_regression(base_spans: Iterable[Span],
                         cur_spans: Iterable[Span],
                         top: int = 5) -> dict:
    """Pin a metric regression on a layer and wait kind.

    The sweep compare pipeline escalates an out-of-tolerance grid cell
    here: the two runs' traces are diffed (:func:`diff_traces`) and
    the candidate blames — every layer, every (layer, wait kind) pair,
    and the synthetic retry layer — are ranked by their share of the
    end-to-end latency delta.  Returns the ranked ``candidates``, the
    single top ``blame``, and the full ``diff`` for drill-down.
    """
    result = diff_traces(base_spans, cur_spans)
    delta_total = result["delta"]["total_ns"]
    candidates: List[dict] = []
    retry = result["attribution"]["retry"]
    if retry["delta_ns"]:
        candidates.append({
            "layer": "retry",
            "wait_kind": "retry_backoff",
            "delta_ns": retry["delta_ns"],
            "share_of_delta": retry["share_of_delta"],
        })
    for cat, row in result["layers"].items():
        waits = row.get("waits") or {}
        for kind, w in waits.items():
            if w["delta_ns"]:
                candidates.append({
                    "layer": cat,
                    "wait_kind": kind,
                    "delta_ns": w["delta_ns"],
                    "share_of_delta": w["share_of_delta"],
                })
        service = row.get("service_delta_ns", 0)
        if service:
            candidates.append({
                "layer": cat,
                "wait_kind": None,
                "delta_ns": service,
                "share_of_delta": (round(service / delta_total, 4)
                                   if delta_total else 0.0),
            })
    candidates.sort(key=lambda c: (-abs(c["delta_ns"]),
                                   c["layer"], c["wait_kind"] or ""))
    candidates = candidates[:top]
    return {
        "schema": 1,
        "blame": candidates[0] if candidates else None,
        "candidates": candidates,
        "delta_total_ns": delta_total,
        "diff": result,
    }


def render_blame(attribution: dict) -> str:
    """One-line human verdict from an :func:`attribute_regression`
    result: ``"92.1% of the delta is retry (wait retry_backoff)"``."""
    blame = attribution.get("blame")
    if blame is None:
        return "no layer delta to attribute"
    kind = blame.get("wait_kind")
    where = (f"{blame['layer']} (wait {kind})" if kind
             else f"{blame['layer']} service time")
    return (f"{100.0 * blame['share_of_delta']:.1f}% of the "
            f"{attribution['delta_total_ns']:+} ns delta is {where}")


# -- rendering --------------------------------------------------------------

def render_diff(result: dict, top: Optional[int] = None) -> str:
    """Human-readable summary of a :func:`diff_traces` result."""
    base, cur, delta = (result["baseline"], result["current"],
                        result["delta"])
    lines: List[str] = [
        f"{base['ops']} ops aligned: mean "
        f"{base['mean_ns']:.0f} -> {cur['mean_ns']:.0f} ns "
        f"({delta['mean_pct']:+.1f}%), p99 "
        f"{base['p99_ns']:.0f} -> {cur['p99_ns']:.0f} ns "
        f"({delta['p99_pct']:+.1f}%)"
    ]
    ranked = sorted(result["layers"].items(),
                    key=lambda kv: -abs(kv[1]["delta_ns"]))
    if top is not None:
        ranked = ranked[:top]
    for cat, row in ranked:
        lines.append(f"  {cat:<12} {row['delta_ns']:>+12} ns  "
                     f"({100.0 * row['share_of_delta']:+.1f}% of delta)")
        # Wait-state split: name the wait that grew, not just the
        # layer ("arbiter queueing grew", not "nvme grew").
        wait_rows = sorted(
            (row.get("waits") or {}).items(),
            key=lambda kv: -abs(kv[1]["delta_ns"]))
        for kind, w in wait_rows:
            if w["delta_ns"] == 0:
                continue
            lines.append(
                f"    wait.{kind:<16} {w['delta_ns']:>+10} ns  "
                f"({100.0 * w['share_of_delta']:+.1f}% of delta)")
        if wait_rows and row.get("service_delta_ns", 0) != 0:
            lines.append(
                f"    service{'':<14} "
                f"{row['service_delta_ns']:>+10} ns")
    retry = result["attribution"]["retry"]
    lines.append(
        f"  retry layer: {retry['extra_attempts']} extra attempts, "
        f"{retry['delta_ns']:+} ns "
        f"({100.0 * retry['share_of_delta']:.1f}% of delta)"
    )
    return "\n".join(lines)
