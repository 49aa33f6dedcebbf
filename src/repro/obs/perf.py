"""Span-measured latency breakdowns.

:func:`measure_breakdown` is the one code path behind the paper-facing
latency attribution: it runs a fio-shaped loop on a traced machine
with a *clean measurement window* (setup, open and warm-up happen
before ``tracer.clear()``), then aggregates real spans into per-op
layer times.  ``bench.experiments.table1_latency_breakdown`` and
``fig7_latency_breakdown`` build their tables from it.  Drift in the
per-layer split is the sweep gate's to catch (``repro.sweep.compare``
judges every layer's self time exactly).

Attribution rules (all in ns/op over the measurement window):

* ``device`` — host-side device wait spans (category ``device``); for
  engines that poll completions off-thread (io_uring) those spans do
  not exist and the device-internal ``nvme`` phase spans are used
  instead;
* ``kernel`` — syscall span time minus device wait time (clamped at 0);
* ``user``  — mean latency minus kernel minus device (clamped at 0);
* ``layers`` — per-label means of the intra-kernel spans
  (``mode-switch-enter``, ``vfs-ext4``, ``block-layer``,
  ``nvme-driver``, ``mode-switch-exit``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hw.params import GiB, MiB
from ..machine import Machine

__all__ = ["PerfConfig", "Breakdown", "measure_breakdown"]


@dataclass(frozen=True)
class PerfConfig:
    """One pinned workload for :func:`measure_breakdown`."""

    name: str
    engine: str = "sync"
    rw: str = "randread"
    block_size: int = 4096
    ops: int = 48
    file_size: int = 64 * MiB
    seed: int = 42


@dataclass
class Breakdown:
    """Aggregated, span-measured result of one workload."""

    samples: List[int] = field(default_factory=list)
    user_ns: float = 0.0
    kernel_ns: float = 0.0
    device_ns: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def mean_ns(self) -> float:
        return sum(self.samples) / len(self.samples)


def measure_breakdown(config: PerfConfig,
                      machine: Optional[Machine] = None) -> Breakdown:
    """Run one pinned workload on a traced machine and aggregate the
    spans of its measurement window into a :class:`Breakdown`."""
    from ..apps.workload_utils import materialize_file
    from ..baselines.registry import make_engine

    m = machine if machine is not None else Machine(
        capacity_bytes=4 * GiB, memory_bytes=256 << 20,
        capture_data=False, trace=True)
    if not m.tracer.enabled:
        raise ValueError("measure_breakdown needs a Machine(trace=True)")
    proc = m.spawn_process("perf")
    engine = make_engine(m, proc, config.engine)
    path = f"/perf-{config.name}.dat"
    m.run_process(
        materialize_file(m, proc, engine, path, config.file_size))
    thread = proc.new_thread("perf-0")
    out = Breakdown()
    is_write = config.rw in ("randwrite", "write")
    spdk = config.engine == "spdk"

    def body():
        if spdk:
            f = engine._files[path]
        else:
            f = yield from engine.open(thread, path, write=is_write)
        # Warm the per-thread queue pair / DMA buffer outside the
        # measurement window, then start from a clean trace.
        if is_write:
            yield from f.pwrite(thread, 0, config.block_size)
        else:
            yield from f.pread(thread, 0, config.block_size)
        m.tracer.clear()
        rng = random.Random(f"{config.seed}/{config.name}")
        steps = (config.file_size - config.block_size) \
            // config.block_size + 1
        for _ in range(config.ops):
            offset = rng.randrange(steps) * config.block_size
            t0 = m.now
            if is_write:
                yield from f.pwrite(thread, offset, config.block_size)
            else:
                yield from f.pread(thread, offset, config.block_size)
            out.samples.append(m.now - t0)

    m.sim.process(thread.run(body()))
    m.run()
    if len(out.samples) != config.ops:
        raise AssertionError(f"perf worker recorded {len(out.samples)} "
                             f"of {config.ops} ops")
    ops = config.ops
    tracer = m.tracer
    device_total = tracer.total_ns("device")
    if device_total == 0:
        # Off-thread completion engines (io_uring) have no host wait
        # span; charge the device's own phase spans instead.
        device_total = tracer.total_ns("nvme")
    syscall_total = tracer.total_ns("syscall")
    out.device_ns = device_total / ops
    out.kernel_ns = max(0.0, (syscall_total - device_total) / ops)
    out.user_ns = max(0.0, out.mean_ns - out.kernel_ns - out.device_ns)
    out.layers = {label: ns / ops
                  for label, ns in sorted(
                      tracer.by_label("kernel").items())}

    # Fold the window's latencies into the machine's metrics registry
    # so exports see the same numbers the table reports.
    hist = m.metrics.histogram(f"perf.{config.name}.lat_ns")
    hist.record_many(out.samples)
    return out
