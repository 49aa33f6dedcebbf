"""The benchmark's workloads: inputs made from a seed, one round each.

A round builds a fresh :class:`~repro.Machine`, sets up (the ``setup_s``
phase), runs the timed phase as closed loops of simulated threads, and
checks every op's output.  Every round of one seed is the same model
run, so its simulated results repeat exactly; only host times vary.

Engines are driven through :func:`repro.baselines.registry.make_engine`
and the engine files' ``open``/``pread``/``pwrite``; the benchmark
hands the program only the offsets, sizes, keys and values it
generated from the seed.
"""

from __future__ import annotations

import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro import GiB, KiB, MiB, Machine
from repro.apps.lsm import LSMStore
from repro.apps import workload_utils
from repro.baselines.registry import make_engine
from repro.hw.pagetable import fte_lba
from repro.obs.attribution import waterfalls

__all__ = ["WORKLOADS", "RoundResult", "WATERFALL_LAYERS"]

PAGE = 4096

# Waterfall segment categories (the model's simulated-time spans) folded
# onto the package layers; ``nvme/translate`` is the IOMMU's ATS walk.
WATERFALL_LAYERS = ("core.userlib", "kernel", "nvme", "hw.iommu")
_CATEGORY_LAYER = {"op": "core.userlib", "user": "core.userlib",
                   "syscall": "kernel", "kernel": "kernel",
                   "device": "nvme", "nvme": "nvme"}


def _waterfall_layer(frame: str) -> str:
    if frame == "nvme/translate":
        return "hw.iommu"
    return _CATEGORY_LAYER[frame.split("/", 1)[0]]


@dataclass
class RoundResult:
    """What one round measured and checked."""

    setup_s: float = 0.0
    timed_s: float = 0.0           # host seconds, output checks excluded
    attempted: int = 0
    failed: int = 0
    latencies_ns: List[int] = field(default_factory=list)
    engine_latencies_ns: Dict[str, List[int]] = field(default_factory=dict)
    sim_ns: int = 0                # simulated length of the timed phase
    events: int = 0                # simulator events in the timed phase
    events_total: int = 0          # ... and in the whole round
    counts: Dict[str, float] = field(default_factory=dict)
    sim_ns_per_op: Dict[str, float] = field(default_factory=dict)
    # Host self time per layer, in the timed phase and in set-up, when
    # the round ran under a HostTracer.
    host_self_s: Dict[str, float] = field(default_factory=dict)
    setup_self_s: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fingerprint(self) -> Tuple:
        """The model's results: equal for every round of one seed."""
        return (self.attempted, self.failed, self.sim_ns, self.events,
                zlib.crc32(repr(self.latencies_ns).encode()),
                tuple(sorted(self.counts.items())))


class _Run:
    """Bookkeeping shared by the op loops of one round."""

    def __init__(self, machine: Machine, tracer):
        self.machine = machine
        self.tracer = tracer
        self.result = RoundResult()
        self.check_ns = 0
        self._op_id = 0

    def op(self, gen, label: str):
        """Wrap one op's generator in a traced span when tracing."""
        self._op_id += 1
        if self.tracer is None:
            return gen
        return self.tracer.op_span(self._op_id, gen, label)

    def loop(self, gen):
        """Wrap a simulated thread's op loop, so the benchmark's own
        host time lands in its ``bench`` layer when tracing."""
        if self.tracer is None:
            return gen
        return self.tracer.op_span(0, gen, "loop")

    def record(self, engine: str, latency_ns: int) -> None:
        self.result.latencies_ns.append(latency_ns)
        self.result.engine_latencies_ns.setdefault(engine, []).append(
            latency_ns)

    def fail(self, message: str) -> None:
        self.result.failed += 1
        if len(self.result.errors) < 20:
            self.result.errors.append(message)

    @contextmanager
    def checking(self):
        """Keep output checks out of the host timing and the trace."""
        t0 = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.suspended = True
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - t0
            if self.tracer is not None:
                self.tracer.suspended = False
                self.tracer.exclude(elapsed)
            self.check_ns += elapsed


def _timed(run: _Run, phases: List[Callable[[], None]]) -> None:
    """Run the timed phase and fill host time, events and sim time."""
    m = run.machine
    tracer = run.tracer
    setup_ns = list(tracer.self_ns) if tracer is not None else []
    seq0, sim0 = m.sim._seq, m.now  # no public event counter exists
    t0 = time.perf_counter_ns()
    for phase in phases:
        phase()
    elapsed = time.perf_counter_ns() - t0
    run.result.timed_s = (elapsed - run.check_ns) / 1e9
    if tracer is not None:
        for layer, before, total in zip(tracer.layers, setup_ns,
                                        tracer.self_ns):
            run.result.setup_self_s[layer] = before / 1e9
            run.result.host_self_s[layer] = (total - before) / 1e9
    run.result.events = m.sim._seq - seq0
    run.result.events_total = m.sim._seq
    run.result.sim_ns = m.now - sim0


def _counts(m: Machine, engines, stores, ops: int,
            before: Dict[str, int]) -> Dict[str, float]:
    """Per-layer counts read from public attributes after a round.

    Per-op ratios use the timed phase only (``before`` holds the
    counters at its start); the others are totals for the round."""
    iotlb = m.iommu.iotlb
    pagecache = m.pagecache
    es_cache = m.fs.es_cache
    fte_ns = m.params.fte_write_ns
    libs = [e.lib for e in engines if hasattr(e, "lib")]
    sqes = submitted = 0
    for engine, threads in engines.items():
        if engine.name == "io_uring":
            sqes += sum(engine.ring_for(th)[0].sqes for th in threads)
        elif engine.name == "libaio":
            submitted += sum(engine.context(th).submitted for th in threads)

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "hw.iotlb_hit_ratio": ratio(iotlb.hits, iotlb.misses),
        "hw.pagewalks": m.iommu.pagewalks,
        "hw.ats_requests": m.iommu.ats_requests,
        "core.fte_writes": sum(
            inode.file_table.build_cost_ns // fte_ns
            for inode in m.fs.inodes.values()
            if inode.file_table is not None),
        "core.cold_fmaps": m.bypassd.cold_fmaps,
        "core.warm_fmaps": m.bypassd.warm_fmaps,
        "core.direct_reads": sum(lib.direct_reads for lib in libs),
        "core.direct_writes": sum(lib.direct_writes for lib in libs),
        "core.kernel_fallbacks": sum(lib.kernel_fallbacks for lib in libs),
        "nvme.commands_per_op": (m.device.commands_served
                                 - before["commands"]) / ops,
        "nvme.translation_faults": m.device.translation_faults,
        "nvme.commands_failed": m.device.commands_failed,
        "kernel.syscalls_per_op": (m.kernel.syscall_count
                                   - before["syscalls"]) / ops,
        "kernel.blockio_requests": m.blockio.requests,
        "kernel.pagecache_hit_ratio": ratio(pagecache.hits,
                                            pagecache.misses),
        "fs.blocks_allocated": m.fs.allocator.allocated,
        "fs.journal_commits": m.fs.journal.commits,
        "fs.journal_blocks_written": m.fs.journal.blocks_written,
        "fs.extent_cache_hit_ratio": ratio(es_cache.hits, es_cache.misses),
        "baselines.io_uring.sqes": sqes,
        "baselines.libaio.submitted": submitted,
        "apps.lsm.flushes": sum(s.flushes for s in stores),
        "apps.lsm.compactions": sum(s.compactions for s in stores),
        "apps.lsm.bloom_skips": sum(s.bloom_skips for s in stores),
    }


def _before(m: Machine) -> Dict[str, int]:
    return {"commands": m.device.commands_served,
            "syscalls": m.kernel.syscall_count}


def _finish(run: _Run, engines, stores, before, sim0: int) -> RoundResult:
    m = run.machine
    res = run.result
    ops = max(1, res.attempted)
    res.counts = _counts(m, engines, stores, ops, before)
    res.counts["sim.events_per_op"] = res.events / ops
    if m.tracer.enabled:
        # Per op as obs.attribution counts ops: one per root span (a
        # userlib op or a syscall) in the timed phase.
        totals = {layer: 0 for layer in WATERFALL_LAYERS}
        roots = 0
        for wf in waterfalls(m.tracer):
            if wf.start_ns < sim0:
                continue
            roots += 1
            for frame, ns in wf.by_layer().items():
                totals[_waterfall_layer(frame)] += ns
        res.sim_ns_per_op = {layer: ns / max(1, roots)
                             for layer, ns in totals.items()}
    return res


# ---------------------------------------------------------------------------
# randread-shared
# ---------------------------------------------------------------------------

class RandreadShared:
    """4 KiB random reads from tenants of mixed engines on one device.

    ``spdk`` is left out: it claims the device exclusively and refuses
    sharing (Table 6).  Each simulated thread thinks for a random 0-2 us
    between reads, so the tenants' interleaving, and with it the
    contention each read meets, depends on the seed.
    """

    name = "randread-shared"
    tenants = ("bypassd", "sync", "bypassd", "libaio", "bypassd",
               "io_uring")
    threads = 3
    ops_per_thread = 680
    file_bytes = 64 * MiB
    block = 4 * KiB
    think_ns = 2000

    def make_inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        pages = self.file_bytes // self.block
        plan = []
        for tenant in range(len(self.tenants)):
            for _ in range(self.threads):
                offsets = [rng.randrange(pages) * self.block
                           for _ in range(self.ops_per_thread)]
                thinks = [rng.randrange(self.think_ns)
                          for _ in range(self.ops_per_thread)]
                plan.append((tenant, offsets, thinks))
        return plan

    def run_round(self, plan, tracer=None,
                  sim_trace: bool = False) -> RoundResult:
        t0 = time.perf_counter_ns()
        m = Machine(capacity_bytes=2 * GiB, memory_bytes=256 * MiB,
                    capture_data=False, trace=sim_trace)
        engines: Dict[object, list] = {}
        procs = []
        for idx, engine_name in enumerate(self.tenants):
            proc = m.spawn_process(f"tenant{idx}")
            engine = make_engine(m, proc, engine_name)
            engines[engine] = []
            path = f"/tenant{idx}.dat"
            m.run_process(workload_utils.materialize_file(
                m, proc, engine, path, self.file_bytes))
            procs.append((proc, engine, path))
        workers = []
        for tenant, offsets, thinks in plan:
            proc, engine, path = procs[tenant]
            thread = proc.new_thread(f"tenant{tenant}-{len(workers)}")
            engines[engine].append(thread)
            workers.append((tenant, engine, thread,
                            m.run_process(self._open(engine, thread, path)),
                            offsets, thinks))
        run = _Run(m, tracer)
        run.result.setup_s = (time.perf_counter_ns() - t0) / 1e9
        done = [0] * len(self.tenants)
        finish: List[int] = []
        before = _before(m)
        sim0 = m.now

        def reader(tenant, engine, thread, f, offsets, thinks):
            for offset, think in zip(offsets, thinks):
                begin = m.now
                run.result.attempted += 1
                try:
                    n, _data = yield from run.op(
                        f.pread(thread, offset, self.block), "pread")
                except Exception as exc:  # a failed op; keep running
                    run.fail(f"{engine.name} pread @{offset}: {exc!r}")
                    continue
                run.record(engine.name, m.now - begin)
                if n != self.block:
                    run.fail(f"{engine.name} short read @{offset}: {n}")
                done[tenant] += 1
                yield from thread.compute(think)
            finish.append(m.now)

        def phase():
            for tenant, engine, thread, f, offsets, thinks in workers:
                m.sim.process(thread.run(run.loop(
                    reader(tenant, engine, thread, f, offsets, thinks))))
            m.run()

        _timed(run, [phase])
        # Idle io_uring pollers keep the clock moving after the last
        # read: the timed window closes at the last reader's finish.
        run.result.sim_ns = max(finish, default=sim0) - sim0
        expected = [0] * len(self.tenants)
        for tenant, _offsets, _thinks in plan:
            expected[tenant] += self.ops_per_thread
        for tenant, want in enumerate(expected):
            if done[tenant] != want:
                run.fail(f"tenant {tenant} completed {done[tenant]} of "
                         f"{want} reads")
        return _finish(run, engines, [], before, sim0)

    @staticmethod
    def _open(engine, thread, path):
        f = yield from engine.open(thread, path)
        thread.release_core()
        return f


# ---------------------------------------------------------------------------
# fmap-control
# ---------------------------------------------------------------------------

class FmapControl:
    """The fmap control path: cold and warm fmaps, shrink and regrow.

    Files span Table 5's range, 4 KiB to just over 1 GiB.  Each file
    gets one cold ``open`` + ``fmap``, then warm ones from many
    processes; its owner then truncates it and regrows it with
    fallocate while the others hold it mapped, and every process
    closes and maps it again.
    """

    name = "fmap-control"
    base_sizes = (4 * KiB, 1 * MiB, 16 * MiB, 64 * MiB, 128 * MiB,
                  256 * MiB, 1 * GiB)
    processes = 80

    def make_inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        # Each size but the 4 KiB one grows by up to an eighth (at most
        # 8 MiB), so the warm fmap's leaf count varies with the seed
        # while the total work stays within a few percent.
        sizes = [self.base_sizes[0]] + [
            base + rng.randrange(min(base // 8, 8 * MiB) // PAGE + 1) * PAGE
            for base in self.base_sizes[1:]]
        files = [(f"/fmap{i}.dat", size) for i, size in enumerate(sizes)]
        # Truncate to 49-51% of the pages: mid-leaf for the large files.
        keeps = [max(1, (size // PAGE) * rng.randrange(49, 52) // 100)
                 for size in sizes]
        orders = []
        for _ in range(2 * self.processes):
            order = list(range(len(files)))
            rng.shuffle(order)
            orders.append(order)
        return files, keeps, orders

    def run_round(self, inputs, tracer=None,
                  sim_trace: bool = False) -> RoundResult:
        files, keeps, orders = inputs
        t0 = time.perf_counter_ns()
        m = Machine(capacity_bytes=4 * GiB, memory_bytes=256 * MiB,
                    capture_data=False, trace=sim_trace)
        owner = m.spawn_process("owner")
        owner_engine = make_engine(m, owner, "bypassd")
        owner_thread = owner.new_thread("owner")
        for path, size in files:
            m.run_process(workload_utils.materialize_file(
                m, owner, None, path, size))
        mappers = []
        engines = {owner_engine: [owner_thread]}
        for idx in range(self.processes):
            proc = m.spawn_process(f"mapper{idx}")
            engine = make_engine(m, proc, "bypassd")
            thread = proc.new_thread(f"mapper{idx}")
            engines[engine] = [thread]
            mappers.append((proc, engine, thread))
        run = _Run(m, tracer)
        run.result.setup_s = (time.perf_counter_ns() - t0) / 1e9
        before = _before(m)
        sim0 = m.now
        inodes = [m.fs.lookup(path) for path, _size in files]
        verified: Dict[int, Tuple] = {}
        owner_files: List = []

        def check_table(idx: int, where: str) -> None:
            """The shared table is dense and holds one FTE per page."""
            inode = inodes[idx]
            table = inode.file_table
            pages = -(-inode.size // PAGE)
            version = (id(table), table.pages, len(table.leaves),
                       table.build_cost_ns)
            if verified.get(idx) == version:
                return
            verified[idx] = version
            try:
                table.check_dense()
            except AssertionError as exc:
                run.fail(f"{files[idx][0]} {where}: {exc}")
                return
            if table.pages != pages or table.entry_count() != pages:
                run.fail(f"{files[idx][0]} {where}: {table.entry_count()} "
                         f"FTEs for {pages} pages")

        def check_view(proc, idx: int, vba: int, where: str) -> None:
            """The process's own mapping reaches the file's blocks."""
            inode = inodes[idx]
            pt = proc.aspace.page_table
            for page in {0, -(-inode.size // PAGE) - 1}:
                walk = pt.walk(vba + page * PAGE)
                mapped = m.fs.bmap(inode, page)
                if not walk.is_fte or mapped is None or \
                        fte_lba(walk.entry) != mapped[0]:
                    run.fail(f"{files[idx][0]} {where}: page {page} of "
                             f"pasid {proc.pasid} maps wrong")

        def open_fmap(proc, engine, thread, idx: int, write: bool):
            begin = m.now
            run.result.attempted += 1
            try:
                f = yield from run.op(
                    engine.open(thread, files[idx][0], write=write), "fmap")
            except Exception as exc:  # a failed op; keep running
                run.fail(f"open+fmap {files[idx][0]}: {exc!r}")
                return None
            run.record("bypassd", m.now - begin)
            with run.checking():
                vba = f.state.vba
                if vba == 0:
                    run.fail(f"fmap {files[idx][0]} returned VBA 0")
                else:
                    check_table(idx, "after fmap")
                    check_view(proc, idx, vba, "after fmap")
            return f

        def cold():
            for idx in range(len(files)):
                f = yield from open_fmap(owner, owner_engine, owner_thread,
                                         idx, write=True)
                owner_files.append(f)

        def warm(proc, engine, thread, order, held):
            for f in held:
                if f is not None:
                    yield from f.close(thread)
            held.clear()
            for idx in order:
                held.append((yield from open_fmap(proc, engine, thread, idx,
                                                  write=False)))

        def shrink_and_regrow():
            k = m.kernel
            for idx, (path, size) in enumerate(files):
                fd = owner_files[idx].state.fd
                yield from k.sys_ftruncate(owner, owner_thread, fd,
                                           keeps[idx] * PAGE)
                with run.checking():
                    check_table(idx, "after truncate")
                yield from k.sys_fallocate(owner, owner_thread, fd, 0, size)
                with run.checking():
                    check_table(idx, "after regrow")
                    proc = mappers[0][0]
                    vba = inodes[idx].fmap_attachments.get(proc.pasid, 0)
                    if vba:
                        check_view(proc, idx, vba, "after regrow")
                    else:
                        run.fail(f"{path}: mapping lost on regrow")

        held = [[] for _ in mappers]

        def warm_phase(first: int):
            def phase():
                for i, (proc, engine, thread) in enumerate(mappers):
                    m.sim.process(thread.run(run.loop(warm(
                        proc, engine, thread, orders[first + i], held[i]))))
                m.run()
            return phase

        _timed(run, [
            lambda: m.run_process(owner_thread.run(run.loop(cold()))),
            warm_phase(0),
            lambda: m.run_process(owner_thread.run(run.loop(
                shrink_and_regrow()))),
            warm_phase(self.processes),
        ])
        return _finish(run, engines, [], before, sim0)


# ---------------------------------------------------------------------------
# lsm-ingest
# ---------------------------------------------------------------------------

class LsmIngest:
    """Puts interleaved with gets on LSM stores, then a full read-back,
    with data capture on so every byte is verified.

    Two stores per engine share one device and run at the same time,
    which makes the contention each op meets depend on the seed.
    """

    name = "lsm-ingest"
    engines = ("bypassd-optappend", "bypassd", "sync") * 2
    puts = 900
    get_every = 2            # one get after every 2 puts, on average
    key_space = 900
    value_bytes = (64, 400)

    def make_inputs(self, seed: int):
        """Per engine: ops as (key, value) puts and (key, expected) gets."""
        rng = random.Random(f"{self.name}/{seed}")
        plans = []
        for engine in self.engines:
            model: Dict[bytes, bytes] = {}
            inserted: List[bytes] = []
            ops = []
            puts = 0
            while puts < self.puts:
                if model and rng.randrange(self.get_every + 1) == 0:
                    if rng.randrange(8) == 0:
                        key = b"absent:%08d" % rng.randrange(10 ** 8)
                    else:
                        key = rng.choice(inserted)
                    ops.append(("get", key, model.get(key)))
                else:
                    key = b"key:%08d" % rng.randrange(self.key_space)
                    value = rng.randbytes(rng.randrange(*self.value_bytes))
                    if key not in model:
                        inserted.append(key)
                    model[key] = value
                    ops.append(("put", key, value))
                    puts += 1
            readback = sorted(model)
            rng.shuffle(readback)
            ops.extend(("get", key, model[key]) for key in readback)
            plans.append((engine, ops))
        return plans

    def run_round(self, plans, tracer=None,
                  sim_trace: bool = False) -> RoundResult:
        t0 = time.perf_counter_ns()
        m = Machine(capacity_bytes=2 * GiB, memory_bytes=256 * MiB,
                    capture_data=True, trace=sim_trace)
        engines: Dict[object, list] = {}
        stores = []
        for idx, (engine_name, _ops) in enumerate(plans):
            proc = m.spawn_process(f"lsm{idx}")
            engine = make_engine(m, proc, engine_name)
            thread = proc.new_thread(f"lsm{idx}")
            engines[engine] = [thread]
            store = m.run_process(thread.run(LSMStore.create(
                m, proc, engine, thread, root=f"/lsm{idx}")))
            stores.append((engine_name, thread, store))
        run = _Run(m, tracer)
        run.result.setup_s = (time.perf_counter_ns() - t0) / 1e9
        before = _before(m)
        sim0 = m.now

        def client(engine_name, thread, store, ops):
            for kind, key, value in ops:
                begin = m.now
                run.result.attempted += 1
                try:
                    if kind == "put":
                        yield from run.op(store.put(key, value), "put")
                    else:
                        got = yield from run.op(store.get(key), "get")
                except Exception as exc:  # a failed op; keep running
                    run.fail(f"{engine_name} {kind} {key!r}: {exc!r}")
                    continue
                run.record(engine_name, m.now - begin)
                if kind == "get" and got != value:
                    run.fail(f"{engine_name} get {key!r} returned "
                             f"{None if got is None else len(got)} bytes, "
                             f"expected "
                             f"{None if value is None else len(value)}")

        def phase():
            for (engine_name, thread, store), (_e, ops) in zip(
                    stores, plans):
                m.sim.process(thread.run(run.loop(
                    client(engine_name, thread, store, ops))))
            m.run()

        _timed(run, [phase])
        return _finish(run, engines, [s for _e, _t, s in stores], before,
                       sim0)


WORKLOADS = {w.name: w for w in (RandreadShared(), FmapControl(),
                                  LsmIngest())}
