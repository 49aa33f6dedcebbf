"""Unit tests for the CPU core model."""

import pytest

from repro.sim.cpu import CPUSet, Thread
from repro.sim.engine import Simulator


def test_compute_advances_time_and_accounts():
    sim = Simulator()
    cpus = CPUSet(sim, 2)
    t = cpus.thread("t")

    def body():
        yield from t.compute(100)
        yield from t.compute(50)

    sim.run_process(body())
    assert sim.now == 150
    assert t.compute_ns == 150
    assert cpus.busy_ns == 150


def test_core_contention_serializes():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    finish = []

    def body(thread):
        yield from thread.compute(100)
        thread.release_core()
        finish.append(sim.now)

    for i in range(3):
        sim.process(body(cpus.thread(f"t{i}")))
    sim.run()
    assert finish == [100, 200, 300]


def test_block_releases_core():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")
    log = []

    def sleeper():
        yield from t1.compute(10)
        ev = sim.timeout(1000)
        yield from t1.block(ev)  # releases the core while sleeping
        log.append(("sleeper", sim.now))

    def worker():
        yield from t2.compute(50)
        t2.release_core()
        log.append(("worker", sim.now))

    sim.process(sleeper())
    sim.process(worker())
    sim.run()
    # Worker ran during the sleeper's wait: 10 + 50 = 60 < 1010.
    assert log == [("worker", 60), ("sleeper", 1010)]
    assert t1.block_ns == 1000


def test_poll_holds_core():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("poller"), cpus.thread("worker")
    log = []

    def poller():
        ev = sim.timeout(100)
        yield from t1.poll(ev)  # holds the core
        t1.release_core()
        log.append(("poller", sim.now))

    def worker():
        yield from t2.compute(10)
        t2.release_core()
        log.append(("worker", sim.now))

    sim.process(poller())
    sim.process(worker())
    sim.run()
    # The worker could not run until the poller released the core.
    assert log == [("poller", 100), ("worker", 110)]
    assert t1.poll_ns == 100


def test_run_queue_time_accounted():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")

    def first():
        yield from t1.compute(100)
        t1.release_core()

    def second():
        yield from t2.compute(10)
        t2.release_core()

    sim.process(first())
    sim.process(second())
    sim.run()
    assert t2.run_queue_ns == 100


def test_thread_run_releases_core_at_end():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")

    def body(thread):
        yield from thread.compute(10)
        # no explicit release

    sim.process(t1.run(body(t1)))
    sim.process(t2.run(body(t2)))
    sim.run()
    assert sim.now == 20
    assert cpus.in_use == 0


def test_utilization():
    sim = Simulator()
    cpus = CPUSet(sim, 2)
    t = cpus.thread("t")

    def body():
        yield from t.compute(100)
        t.release_core()

    sim.run_process(body())
    assert cpus.utilization(100) == pytest.approx(0.5)


def test_sleep_releases_core():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")
    log = []

    def sleeper():
        yield from t1.compute(5)
        yield from t1.sleep(500)
        log.append(("sleeper", sim.now))
        t1.release_core()

    def worker():
        yield from t2.compute(20)
        log.append(("worker", sim.now))
        t2.release_core()

    sim.process(sleeper())
    sim.process(worker())
    sim.run()
    assert log[0] == ("worker", 25)


def test_zero_cores_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        CPUSet(sim, 0)


def test_negative_compute_rejected():
    sim = Simulator()
    t = CPUSet(sim, 1).thread()
    with pytest.raises(ValueError):
        sim.run_process(t.compute(-5))


class _AlwaysAcquire(Thread):
    """compute/poll as they were before the held-core shortcut: always
    through the ``_acquire_core`` sub-generator."""

    def compute(self, ns):
        if ns < 0:
            raise ValueError(f"negative compute time: {ns}")
        yield from self._acquire_core()
        if ns:
            yield self.sim.timeout(int(ns))
        self.compute_ns += int(ns)
        self.cpus.busy_ns += int(ns)

    def poll(self, event):
        yield from self._acquire_core()
        t0 = self.sim.now
        value = yield event
        waited = self.sim.now - t0
        self.poll_ns += waited
        self.cpus.busy_ns += waited
        return value


def _held_core_run(thread_cls):
    """Two threads on one core: compute and poll with and without the
    core held, after a block, and while the other thread waits for the
    core."""
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    a, b = thread_cls(cpus, "a"), thread_cls(cpus, "b")
    log = []

    def body(t, delays):
        first = yield from t.poll(sim.timeout(3, "first"))
        log.append((t.name, sim.now, first, sim.events_scheduled))
        for i, ns in enumerate(delays):
            yield from t.compute(ns)
            value = yield from t.poll(sim.timeout(ns // 2 + 1, ns))
            log.append((t.name, sim.now, value, sim.events_scheduled))
            if i % 2:
                t.release_core()
                value = yield from t.poll(sim.timeout(4, "off-core"))
                log.append((t.name, sim.now, value, sim.events_scheduled))
            yield from t.compute(0)
        got = yield from t.block(sim.timeout(30, "io"))
        yield from t.compute(5)
        log.append((t.name, sim.now, got, sim.events_scheduled))
        t.release_core()

    sim.process(body(a, (100, 40, 7)))
    sim.process(body(b, (10, 60)))
    sim.run()
    accounting = [(t.compute_ns, t.poll_ns, t.block_ns, t.run_queue_ns)
                  for t in (a, b)]
    return log, accounting, cpus.busy_ns, sim.now, sim.events_scheduled


def test_held_core_shortcut_keeps_timeline_and_accounting():
    assert _held_core_run(Thread) == _held_core_run(_AlwaysAcquire)
    log, accounting, busy, _now, _events = _held_core_run(Thread)
    assert accounting[1][3] > 0        # b really queued for the core
    assert busy == sum(c + p for c, p, _b, _q in accounting)


def _compute_run(thread_cls, cores, plans):
    """Threads run their plan of compute() charges on ``cores`` cores,
    dropping the core after every third charge so the next one starts
    off-core; logs the clock, the events posted and the thread's own
    counters after each charge.  The shared ``busy_ns`` is compared at
    the end only: the tuple path charges it when the timer is
    scheduled, so another thread reading it mid-charge would differ."""
    sim = Simulator()
    cpus = CPUSet(sim, cores)
    threads = [thread_cls(cpus, f"t{i}") for i in range(len(plans))]
    log = []

    def body(t, plan):
        for i, ns in enumerate(plan):
            yield from t.compute(ns)
            log.append((t.name, i, sim.now, sim.events_scheduled,
                        t.compute_ns, t.run_queue_ns))
            if i % 3 == 2:
                t.release_core()
        t.release_core()

    for t, plan in zip(threads, plans):
        sim.process(body(t, plan))
    sim.run()
    counters = [(t.compute_ns, t.run_queue_ns, t.poll_ns, t.block_ns)
                for t in threads]
    return log, counters, cpus.busy_ns, sim.now, sim.events_scheduled


@pytest.mark.parametrize("cores, plans", [
    (1, [(0, 0, 0, 0)]),                              # ns of 0
    (1, [(1, 1, 1, 1, 1)]),                           # ns of 1
    (1, [(7, 7, 7, 7, 7, 7, 7)]),                     # ns of 7
    (1, [(2.5, 0.5, 7.9, 1.0, 3)]),                   # float ns
    (2, [(7,), (1,), (0,)]),                          # off-core only
    (1, [(7, 1, 0, 7), (1, 7, 7, 0, 2.5)]),           # contended core
    (2, [(7, 1, 0, 7, 3), (1, 7, 7), (0, 1, 7, 2.5), (7,) * 5]),
], ids=["zero", "one", "seven", "float", "off-core", "contended-1",
        "contended-2"])
def test_compute_fast_path_matches_generator_path(cores, plans):
    """The on-core tuple path of compute() posts the same events at the
    same instants and ends with the same accounting as the generator
    path of the _AlwaysAcquire oracle."""
    fast = _compute_run(Thread, cores, plans)
    assert fast == _compute_run(_AlwaysAcquire, cores, plans)
    if len(plans) > cores:
        assert any(c[1] > 0 for c in fast[1])   # really contended


def test_compute_fast_path_taken_only_on_core_with_positive_ns():
    sim = Simulator()
    t = CPUSet(sim, 1).thread()
    kinds = []

    def body():
        kinds.append(type(t.compute(3)))     # off-core: generator
        yield from t.compute(0)
        kinds.append(type(t.compute(0)))     # zero: generator
        fast = t.compute(5)
        kinds.append(type(fast))
        yield from fast

    sim.run_process(body())
    assert [k.__name__ for k in kinds] == ["generator", "generator", "tuple"]
    assert (sim.now, t.compute_ns) == (5, 5)


def test_negative_compute_rejected_on_core():
    sim = Simulator()
    t = CPUSet(sim, 1).thread()

    def body():
        yield from t.compute(1)
        yield from t.compute(-1)

    with pytest.raises(ValueError):
        sim.run_process(body())
    assert t.compute_ns == 1
