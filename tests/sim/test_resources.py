"""Unit tests for locks, semaphores, resources and stores."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import Lock, Resource, Semaphore, Store


class TestSemaphore:
    def test_acquire_release_counts(self):
        sim = Simulator()
        sem = Semaphore(sim, value=2)
        sem.acquire()
        sem.acquire()
        sim.run()
        assert sem.value == 0
        sem.release()
        assert sem.value == 1

    def test_negative_value_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Semaphore(sim, value=-1)

    def test_fifo_wakeup(self):
        sim = Simulator()
        sem = Semaphore(sim, value=1)
        order = []

        def worker(name):
            yield sem.acquire()
            order.append((name, sim.now))
            yield sim.timeout(10)
            sem.release()

        for name in ("a", "b", "c"):
            sim.process(worker(name))
        sim.run()
        assert order == [("a", 0), ("b", 10), ("c", 20)]

    def test_waiting_count(self):
        sim = Simulator()
        sem = Semaphore(sim, value=0)
        sem.acquire()
        sem.acquire()
        assert sem.waiting == 2
        sem.release()
        assert sem.waiting == 1


class TestLock:
    def test_mutual_exclusion(self):
        sim = Simulator()
        lock = Lock(sim)
        inside = []

        def critical(name):
            yield lock.acquire()
            inside.append(name)
            assert len(inside) == 1
            yield sim.timeout(5)
            inside.remove(name)
            lock.release()

        for name in range(4):
            sim.process(critical(name))
        sim.run()
        assert sim.now == 20

    def test_locked_property(self):
        sim = Simulator()
        lock = Lock(sim)
        assert not lock.locked
        lock.acquire()
        assert lock.locked


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        done = []

        def user(name):
            yield res.request()
            yield sim.timeout(10)
            res.release()
            done.append((name, sim.now))

        for name in range(4):
            sim.process(user(name))
        sim.run()
        # Two run in [0,10), two in [10,20).
        assert [t for _, t in done] == [10, 10, 20, 20]

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_queue_len(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.users == 1
        assert res.queue_len == 2


class TestStore:
    def test_put_get_fifo(self):
        sim = Simulator()
        store = Store(sim)

        def body():
            store.put("x")
            store.put("y")
            a = yield store.get()
            b = yield store.get()
            return (a, b)

        assert sim.run_process(body()) == ("x", "y")

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        def producer():
            yield sim.timeout(25)
            store.put("late")

        proc = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert proc.value == ("late", 25)

    def test_bounded_put_blocks(self):
        sim = Simulator()
        store = Store(sim, capacity=1)

        def producer():
            yield store.put(1)
            yield store.put(2)  # blocks until a get
            return sim.now

        def consumer():
            yield sim.timeout(40)
            yield store.get()

        proc = sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert proc.value == 40

    def test_try_get(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None
        store.put("a")
        assert store.try_get() == "a"
        assert len(store) == 0


class TestStorePutNowait:
    def test_wakes_parked_getters_in_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item, sim.now))

        for name in ("a", "b", "c"):
            sim.process(consumer(name))
        sim.run()                          # all three parked
        sim.timeout(7).add_callback(
            lambda ev: [store.put_nowait(i) for i in (1, 2, 3)])
        sim.run()
        assert got == [("a", 1, 7), ("b", 2, 7), ("c", 3, 7)]
        assert len(store) == 0

    def test_posts_no_event_of_its_own(self):
        sim = Simulator()
        store = Store(sim)
        store.put_nowait("x")              # no getter: just queued
        assert sim.events_scheduled == 0
        assert store.items == ["x"]
        getter = store.get()               # immediate get posts its event
        assert sim.events_scheduled == 1
        parked = Store(sim).get()
        assert sim.events_scheduled == 1   # a parked get posts nothing
        before = sim.events_scheduled
        store.put_nowait("y")
        store.put("z")                     # put posts its own event
        assert sim.events_scheduled == before + 1
        sim.run()
        assert getter.value == "x" and not parked.triggered

    def test_wake_costs_only_the_getters_event(self):
        # put() wakes a getter with two posts (the getter's and its
        # own); put_nowait() with one, in the same place in the queue.
        def wake(put):
            sim = Simulator()
            store = Store(sim)
            order = []
            store.get().add_callback(lambda ev: order.append(ev.value))
            sim.event().succeed()          # a bystander posted earlier
            before = sim.events_scheduled
            put(store, "item")
            sim.run()
            return order, sim.events_scheduled - before

        assert wake(Store.put) == (["item"], 2)
        assert wake(Store.put_nowait) == (["item"], 1)

    def test_full_bounded_store_refuses(self):
        from repro.sim.engine import SimulationError

        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put_nowait(1)
        with pytest.raises(SimulationError, match="full store"):
            store.put_nowait(2)
        assert store.items == [1]
