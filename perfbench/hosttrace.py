"""Host-time spans around calls into each layer of ``repro``.

A traced run replaces the public functions of every layer package under
``src/repro`` with timing wrappers, runs the workload, and restores the
originals.  No model code changes: the wrappers live here and are
installed by patching class and module attributes.

* Each wrapped call is a span.  Its parent is the enclosing wrapped
  call on the host stack.  The benchmark's op loop opens a ``bench``
  span per op and sets the op id, so spans of one op share an id.
* A generator function is timed on every resume: the wrapper returns a
  proxy generator that forwards ``send``/``throw``/``close`` and opens
  one span around each step of the real generator.
* Self time is a span's duration minus the time covered by its
  children.  Self time is summed per layer as spans close.
* Spans are kept in memory (a flat ``array``) while ``keep`` is set and
  written out with :meth:`HostTracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

__all__ = ["LAYERS", "BENCH_LAYER", "HostTracer"]

# Layer name -> wrapped targets.  "module:Class" wraps every public
# function defined on the class, "module:Class.name" one method (private
# ones where a layer's work runs in its own simulated process), and
# "module:function" a module-level function wherever it is bound.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim.engine:Simulator.run",
        "repro.sim.engine:Simulator.run_process",
        "repro.sim.cpu:Thread",
        "repro.sim.resources:Semaphore",
        "repro.sim.resources:Resource",
        "repro.sim.resources:Store",
    ),
    "hw.iommu": (
        "repro.hw.iommu:IOMMU",
    ),
    "hw.pagetable": (
        "repro.hw.pagetable:PageTable",
        "repro.hw.pagetable:PageTableNode",
        "repro.hw.pagetable:fte_encode",
    ),
    "core.fmap": (
        "repro.core.fmap:FmapManager",
        "repro.core.filetable:FileTable",
        "repro.core.filetable:build_file_table",
    ),
    "core.userlib": (
        "repro.core.userlib:UserLib",
        "repro.core.userlib:BypassDFile",
    ),
    "nvme": (
        "repro.nvme.device:NVMeDevice.submit",
        "repro.nvme.device:NVMeDevice._complete",
        "repro.nvme.device:NVMeDevice._channel_loop",
        "repro.nvme.device:NVMeDevice._await_translation",
        "repro.nvme.queues:QueuePair",
    ),
    "kernel": (
        "repro.kernel.syscalls:Kernel",
        "repro.kernel.blockio:BlockIOLayer",
        "repro.kernel.blockio:KernelVolume",
        "repro.kernel.pagecache:PageCache",
    ),
    "fs": (
        "repro.fs.ext4.filesystem:Ext4Filesystem",
        "repro.fs.ext4.journal:Journal",
        "repro.fs.ext4.allocator:BlockAllocator",
        "repro.fs.ext4.extents:ExtentTree",
        "repro.fs.ext4.extents:ExtentStatusCache",
    ),
    "baselines": (
        "repro.baselines.registry:BypassDEngine",
        "repro.baselines.sync_io:SyncEngine",
        "repro.baselines.sync_io:KernelFile",
        "repro.baselines.libaio:LibaioEngine",
        "repro.baselines.libaio:LibaioFile",
        "repro.baselines.libaio:AIOContext",
        "repro.baselines.io_uring:IOUringEngine",
        "repro.baselines.io_uring:IOUringFile",
        "repro.baselines.io_uring:IOUringRing",
        "repro.baselines.io_uring:IOUringRing._poll_loop",
    ),
    "apps": (
        "repro.apps.lsm:LSMStore",
        "repro.apps.workload_utils:materialize_file",
    ),
}

# The benchmark's own op loop: one span per op, parent of the op's
# model spans.  Not a layer of the program.
BENCH_LAYER = "bench"

_FIELDS = 7  # span_id, parent_id, op_id, layer, fn, start_ns, end_ns


def _resolve(target: str):
    """(owner, attribute name, function) triples for one target."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    obj_name, _, member = path.partition(".")
    obj = getattr(module, obj_name)
    if inspect.isclass(obj):
        if member:
            return [(obj, member, obj.__dict__[member])]
        return [(obj, name, value) for name, value in vars(obj).items()
                if not name.startswith("_") and inspect.isfunction(value)]
    # A module-level function: patch every loaded module binding it.
    out = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and \
                getattr(mod, obj_name, None) is obj:
            out.append((mod, obj_name, obj))
    return out


class HostTracer:
    """Wall-clock spans and per-layer self time for one traced run."""

    def __init__(self):
        self.layers: List[str] = list(LAYERS) + [BENCH_LAYER]
        self.bench = self.layers.index(BENCH_LAYER)
        self.functions: List[str] = []
        self.self_ns = [0] * len(self.layers)
        self.spans = array("q")
        self.span_count = 0
        self.keep = False
        self.op = 0
        self.suspended = False
        self._stack: List[list] = []
        self._next_id = 0
        self._op_labels: Dict[str, int] = {}
        # (owner, attribute, original, wrapper) for every target.
        self._targets: List[Tuple[object, str, Callable, Callable]] = []
        for layer_idx, layer in enumerate(LAYERS):
            for target in LAYERS[layer]:
                for owner, name, fn in _resolve(target):
                    label = getattr(owner, "__qualname__",
                                    getattr(owner, "__name__", "?"))
                    wrapper = self._wrap(fn, layer_idx, len(self.functions))
                    self.functions.append(f"{label}.{name}")
                    self._targets.append((owner, name, fn, wrapper))

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        for owner, name, _fn, wrapper in self._targets:
            setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, fn, _wrapper in reversed(self._targets):
            setattr(owner, name, fn)

    def __enter__(self) -> "HostTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- spans ----------------------------------------------------------------

    def reset(self, keep: bool) -> None:
        """Zero the per-layer totals before a traced round."""
        self.self_ns = [0] * len(self.layers)
        self.span_count = 0
        self.keep = keep

    def _begin(self, layer: int, fn: int) -> None:
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        stack.append([self._next_id, parent, self.op, layer, fn,
                      time.perf_counter_ns(), 0])

    def _end(self) -> None:
        end = time.perf_counter_ns()
        span = self._stack.pop()
        duration = end - span[5]
        self.self_ns[span[3]] += duration - span[6]
        if self._stack:
            self._stack[-1][6] += duration
        self.span_count += 1
        if self.keep:
            span[6] = end
            self.spans.extend(span)

    def exclude(self, ns: int) -> None:
        """Count ``ns`` of the open span as nobody's self time (the
        benchmark's output checks)."""
        if self._stack:
            self._stack[-1][6] += ns

    def _wrap(self, fn: Callable, layer: int, fn_idx: int) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return tracer._resumes(fn(*args, **kwargs), layer, fn_idx)
            return generator_wrapper

        @functools.wraps(fn)
        def call_wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            tracer._begin(layer, fn_idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end()
        return call_wrapper

    def _resumes(self, gen, layer: int, fn_idx: int, op: int = -1):
        """Drive ``gen`` one step at a time, one span per step.

        With ``op`` >= 0 the steps also run under that op id."""
        value = None
        error = None
        while True:
            outer_op = self.op
            if op >= 0:
                self.op = op
            self._begin(layer, fn_idx)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._end()
                self.op = outer_op
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                error = exc
                value = None

    def op_span(self, op_id: int, gen, label: str = "op"):
        """Run one benchmark op's generator under ``op_id``."""
        fn_idx = self._op_labels.get(label)
        if fn_idx is None:
            fn_idx = self._op_labels[label] = len(self.functions)
            self.functions.append(f"bench.{label}")
        return self._resumes(gen, self.bench, fn_idx, op_id)

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write the kept spans as gzip'd tab-separated text."""
        rows = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span_id\tparent_id\top_id\tlayer\tfunction"
                      "\tstart_ns\tend_ns\n")
            for i in range(0, len(rows), _FIELDS):
                sid, parent, op, layer, fn, start, end = rows[i:i + _FIELDS]
                out.write(f"{sid}\t{parent}\t{op}\t{self.layers[layer]}"
                          f"\t{self.functions[fn]}\t{start}\t{end}\n")
        return len(rows) // _FIELDS
