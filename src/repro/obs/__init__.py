"""repro.obs — cross-cutting observability.

Three pieces (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  log-linear histograms (p50/p99/p999 within one bucket's relative
  error) that absorbs the ad-hoc ``Stats``/counter dicts.
* :mod:`repro.obs.export` — exporters over the hierarchical spans of
  :class:`repro.sim.trace.Tracer`: Chrome ``trace_event`` JSON
  (loadable in Perfetto), collapsed-stack flamegraphs, span-tree
  fingerprints and a pretty-printer.
* :mod:`repro.obs.perf` — the span-measured Table 1 / Figure 7
  breakdown.  (Import it as ``repro.obs.perf``; it is not imported
  here to keep ``repro.machine`` ↔ ``repro.obs`` import-cycle free.)
* :mod:`repro.obs.monitor` — the continuous-telemetry sampler:
  deterministic time-series gauges across every layer plus declarative
  SLO monitors with edge-triggered breach events.
* :mod:`repro.obs.diff` — run-to-run regression attribution: aligned
  span-tree diffing of two trace dumps, per-layer deltas and retry
  attribution (``scripts/trace_diff.py``).
* :mod:`repro.obs.attribution` — per-op latency waterfalls: the exact
  wait/service decomposition of every operation's span tree.
* :mod:`repro.obs.exemplar` — tail exemplars: full span trees and
  waterfalls retained only for ops above a percentile threshold.
* :mod:`repro.obs.hostprof` — the deterministic host profiler mapping
  interpreter self-time onto the architecture layer DAG.
* :mod:`repro.obs.timings` — the ``bench-timings.json`` schema: per
  experiment wall-clock and simulated-time records written by the
  parallel runner and consumed by the CI sharder.
"""

from .attribution import (
    Segment,
    Waterfall,
    build_waterfall,
    render_waterfalls,
    waterfalls,
    waterfalls_json,
)
from .exemplar import (
    Exemplar,
    ExemplarConfig,
    capture_exemplars,
    exemplars_json,
    render_exemplars,
    top_exemplars,
)
from .export import (
    ancestor_chain,
    chrome_trace_json,
    collapsed_stacks,
    flow_events,
    format_tree,
    metrics_json,
    span_index,
    tree_fingerprint,
    write_chrome_trace,
    write_flamegraph,
)
from .hostprof import HostProfile, HostProfiler, profile_call
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .monitor import (
    SLO,
    Breach,
    Monitor,
    MonitorConfig,
    sparkline,
)
from .timings import (
    JobTiming,
    load_timings,
    timing_weights,
    write_timings,
)

__all__ = [
    "JobTiming",
    "load_timings",
    "timing_weights",
    "write_timings",
    "Segment",
    "Waterfall",
    "build_waterfall",
    "render_waterfalls",
    "waterfalls",
    "waterfalls_json",
    "Exemplar",
    "ExemplarConfig",
    "capture_exemplars",
    "exemplars_json",
    "render_exemplars",
    "top_exemplars",
    "HostProfile",
    "HostProfiler",
    "profile_call",
    "flow_events",
    "Breach",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Monitor",
    "MonitorConfig",
    "SLO",
    "sparkline",
    "ancestor_chain",
    "chrome_trace_json",
    "collapsed_stacks",
    "format_tree",
    "metrics_json",
    "span_index",
    "tree_fingerprint",
    "write_chrome_trace",
    "write_flamegraph",
]
