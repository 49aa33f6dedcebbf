"""Measurement helpers: latency distributions, throughput, time series.

Every benchmark in the paper reports one of three things — a latency
distribution (avg / p99.9), a throughput (IOPS, GB/s, kops/s), or a
value over time (Figure 12).  These recorders collect samples in
simulated nanoseconds and convert to the units the paper prints.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LatencyRecorder",
    "ThroughputCounter",
    "TimeSeries",
    "Stats",
    "percentile",
]

NS_PER_US = 1_000.0
NS_PER_S = 1_000_000_000.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (matches fio's reporting convention)."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = sorted(samples)
    if pct == 0.0:
        return ordered[0]
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


class LatencyRecorder:
    """Collects per-operation latency samples (ns)."""

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples: List[int] = []

    def record(self, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"negative latency: {ns}")
        self.samples.append(int(ns))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean_ns(self) -> float:
        if not self.samples:
            raise ValueError(f"{self.name}: no samples")
        return sum(self.samples) / len(self.samples)

    @property
    def mean_us(self) -> float:
        return self.mean_ns / NS_PER_US

    def percentile_ns(self, pct: float) -> float:
        return percentile(self.samples, pct)

    def percentile_us(self, pct: float) -> float:
        return self.percentile_ns(pct) / NS_PER_US

    @property
    def min_ns(self) -> int:
        return min(self.samples)

    @property
    def max_ns(self) -> int:
        return max(self.samples)

    def merge(self, other: "LatencyRecorder") -> None:
        self.samples.extend(other.samples)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean_us": self.mean_us,
            "p50_us": self.percentile_us(50),
            "p99_us": self.percentile_us(99),
            "p999_us": self.percentile_us(99.9),
        }


class ThroughputCounter:
    """Counts completed operations and bytes over a measured interval."""

    def __init__(self, name: str = "throughput"):
        self.name = name
        self.ops = 0
        self.bytes = 0
        self.start_ns: Optional[int] = None
        self.end_ns: Optional[int] = None

    def start(self, now_ns: int) -> None:
        self.start_ns = now_ns

    def stop(self, now_ns: int) -> None:
        self.end_ns = now_ns

    def record(self, nbytes: int = 0, ops: int = 1) -> None:
        self.ops += ops
        self.bytes += nbytes

    @property
    def elapsed_ns(self) -> int:
        if self.start_ns is None or self.end_ns is None:
            raise ValueError(f"{self.name}: interval not closed")
        return self.end_ns - self.start_ns

    @property
    def iops(self) -> float:
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.ops * NS_PER_S / elapsed

    @property
    def kops(self) -> float:
        return self.iops / 1_000.0

    @property
    def gbps(self) -> float:
        """Bandwidth in gigabytes per second (GB = 1e9 bytes, as fio)."""
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.bytes / elapsed  # bytes/ns == GB/s

    @property
    def mbps(self) -> float:
        return self.gbps * 1_000.0


@dataclass
class TimeSeries:
    """Time-ordered (time, value) samples (Figure 12, telemetry gauges).

    ``samples`` is kept sorted by timestamp: ``record`` is O(1) for the
    common monotonic case (a sampler only moves forward in simulated
    time) and falls back to an insertion sort for out-of-order times,
    so ``between`` can bisect instead of scanning.  Windowed SLO
    evaluation over a long run is then O(log n + k) per window rather
    than O(n) — see the reducers below.
    """

    name: str = "series"
    samples: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def points(self) -> List[Tuple[int, float]]:
        """Alias kept for pre-telemetry callers (read-only use)."""
        return self.samples

    def record(self, now_ns: int, value: float) -> None:
        sample = (int(now_ns), float(value))
        if not self.samples or sample[0] >= self.samples[-1][0]:
            self.samples.append(sample)
        else:
            insort(self.samples, sample, key=itemgetter(0))

    def __len__(self) -> int:
        return len(self.samples)

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def between(self, t0_ns: int, t1_ns: int) -> List[float]:
        """Values of samples with ``t0_ns <= t < t1_ns``, by bisection."""
        lo = bisect_left(self.samples, int(t0_ns), key=itemgetter(0))
        hi = bisect_left(self.samples, int(t1_ns), key=itemgetter(0))
        return [v for _, v in self.samples[lo:hi]]

    @property
    def latest(self) -> Optional[Tuple[int, float]]:
        return self.samples[-1] if self.samples else None

    # -- windowed reducers (SLO evaluation) ----------------------------

    def window_mean(self, t0_ns: int, t1_ns: int) -> float:
        vals = self.between(t0_ns, t1_ns)
        if not vals:
            raise ValueError(f"{self.name}: empty window")
        return sum(vals) / len(vals)

    def window_max(self, t0_ns: int, t1_ns: int) -> float:
        vals = self.between(t0_ns, t1_ns)
        if not vals:
            raise ValueError(f"{self.name}: empty window")
        return max(vals)

    def window_percentile(self, t0_ns: int, t1_ns: int,
                          pct: float) -> float:
        return percentile(self.between(t0_ns, t1_ns), pct)

    def summary(self) -> Dict[str, float]:
        """Deterministic whole-series digest (telemetry dumps)."""
        vals = self.values()
        if not vals:
            return {"count": 0.0}
        return {
            "count": float(len(vals)),
            "min": min(vals),
            "max": max(vals),
            "mean": sum(vals) / len(vals),
            "last": vals[-1],
        }


@dataclass
class Stats:
    """Machine-wide health and fault-handling counters.

    One snapshot of everything the robustness paths count: device-side
    command outcomes, kernel-driver recovery actions, UserLib's
    fault-and-fallback protocol, and the injector's own record of what
    it inflicted.  Built duck-typed from a machine so this module stays
    free of model imports.
    """

    commands_served: int = 0
    commands_failed: int = 0
    commands_aborted: int = 0
    dropped_completions: int = 0
    translation_faults: int = 0
    driver_timeouts: int = 0
    driver_aborts: int = 0
    driver_retries: int = 0
    driver_io_errors: int = 0
    userlib_faults_handled: int = 0
    userlib_kernel_fallbacks: int = 0
    userlib_io_retries: int = 0
    userlib_io_errors: int = 0
    userlib_io_timeouts: int = 0
    userlib_async_write_errors: int = 0
    crashes: int = 0
    slo_breaches: int = 0
    injected: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_machine(cls, machine) -> "Stats":
        dev = machine.device
        driver_layers = [machine.blockio, machine.volume]
        libs = getattr(machine, "_userlibs", [])
        return cls(
            commands_served=dev.commands_served,
            commands_failed=dev.commands_failed,
            commands_aborted=dev.commands_aborted,
            dropped_completions=dev.dropped_completions,
            translation_faults=dev.translation_faults,
            driver_timeouts=sum(x.timeouts for x in driver_layers),
            driver_aborts=sum(x.aborts for x in driver_layers),
            driver_retries=sum(x.retries for x in driver_layers),
            driver_io_errors=sum(x.io_errors for x in driver_layers),
            userlib_faults_handled=sum(x.faults_handled for x in libs),
            userlib_kernel_fallbacks=sum(x.kernel_fallbacks for x in libs),
            userlib_io_retries=sum(x.io_retries for x in libs),
            userlib_io_errors=sum(x.io_errors for x in libs),
            userlib_io_timeouts=sum(x.io_timeouts for x in libs),
            userlib_async_write_errors=sum(x.async_write_errors
                                           for x in libs),
            crashes=1 if getattr(machine, "crashed", False) else 0,
            slo_breaches=(machine.monitor.breach_count
                          if getattr(machine, "monitor", None) is not None
                          else 0),
            injected=machine.faults.summary(),
        )

    def summary(self) -> Dict[str, int]:
        """Flat counter dict, injector counts prefixed ``injected_``.

        Deterministic key order; two same-seed runs must compare equal
        key for key (the acceptance criterion for reproducible fault
        schedules).
        """
        out: Dict[str, int] = {
            "commands_served": self.commands_served,
            "commands_failed": self.commands_failed,
            "commands_aborted": self.commands_aborted,
            "dropped_completions": self.dropped_completions,
            "translation_faults": self.translation_faults,
            "driver_timeouts": self.driver_timeouts,
            "driver_aborts": self.driver_aborts,
            "driver_retries": self.driver_retries,
            "driver_io_errors": self.driver_io_errors,
            "userlib_faults_handled": self.userlib_faults_handled,
            "userlib_kernel_fallbacks": self.userlib_kernel_fallbacks,
            "userlib_io_retries": self.userlib_io_retries,
            "userlib_io_errors": self.userlib_io_errors,
            "userlib_io_timeouts": self.userlib_io_timeouts,
            "userlib_async_write_errors": self.userlib_async_write_errors,
            "crashes": self.crashes,
            "slo_breaches": self.slo_breaches,
        }
        for kind, n in sorted(self.injected.items()):
            out[f"injected_{kind}"] = n
        return out

    def to_metrics(self, registry, prefix: str = "machine.") -> None:
        """Mirror this snapshot into a metrics registry as counters.

        Values are *set*, not incremented, so refreshing from a newer
        snapshot is idempotent (see
        :meth:`repro.obs.metrics.MetricsRegistry.absorb_counters`).
        """
        registry.absorb_counters(self.summary(), prefix=prefix)

    def nonzero(self) -> Dict[str, int]:
        return {k: v for k, v in self.summary().items() if v}
