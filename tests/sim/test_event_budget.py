"""Event budget per op: exact engine-event totals for uncontended reads.

Host cost per simulated op grows with the events the engine dispatches
for it, and wall-clock gates are too noisy to see one extra event per
op.  ``Simulator.events_scheduled`` is exact, so each engine in the
registry gets its total for 200 uncontended 4 KiB random reads pinned
here.  A change that adds (or removes) an event per op fails with the
count; update the table only for a deliberate change to the model's
event structure, never to absorb an unexplained drift.
"""

import random

import pytest

from repro import GiB, MiB, Machine
from repro.apps.workload_utils import materialize_file
from repro.baselines.registry import ENGINE_NAMES, make_engine

READS = 200
FILE_BYTES = 4 * MiB

# Events for READS reads, after one warm-up read.
BUDGET = {
    "sync": 2800,
    "libaio": 3400,
    "io_uring": 3800,
    "spdk": 2000,
    "xrp": 2800,
    "bypassd": 2800,
    "bypassd-optappend": 2800,
}


def events_for_reads(name: str) -> int:
    m = Machine(capacity_bytes=1 * GiB, memory_bytes=128 << 20,
                capture_data=False)
    proc = m.spawn_process()
    engine = make_engine(m, proc, name)
    thread = proc.new_thread()
    rng = random.Random(1)
    offsets = [rng.randrange(FILE_BYTES // 4096) * 4096
               for _ in range(READS)]
    counted = []

    def body():
        yield from materialize_file(m, proc, engine, "/f", FILE_BYTES)
        f = yield from engine.open(thread, "/f")
        yield from f.pread(thread, 0, 4096)
        before = m.sim.events_scheduled
        for offset in offsets:
            n, _ = yield from f.pread(thread, offset, 4096)
            assert n == 4096
        counted.append(m.sim.events_scheduled - before)

    m.run_process(thread.run(body()))
    return counted[0]


def test_every_registry_engine_has_a_budget():
    assert set(BUDGET) == set(ENGINE_NAMES)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_uncontended_read_event_total(name):
    assert events_for_reads(name) == BUDGET[name]


def test_events_scheduled_counts_every_post():
    from repro.sim import Simulator

    sim = Simulator()
    assert sim.events_scheduled == 0
    sim.timeout(5)
    sim.event().succeed()
    sim.event()                      # created, never posted
    assert sim.events_scheduled == 2
    sim.run()
    assert sim.events_scheduled == 2
    assert sim.pending_events == 0
