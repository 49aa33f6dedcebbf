"""A fixed reference loop that measures how fast the host runs now.

On a shared host the speed of pure-Python code drifts by tens of
percent over seconds to minutes, for reasons outside the process.
The benchmark times this loop before and after every round and scales
the round's host times to a host on which the loop takes
``REFERENCE_S`` seconds, so drift cancels while the program's own cost
does not: the loop imports nothing from the program and never changes
with it.

The loop does the kinds of work the model does: it fills lists with
large integers through a function call per entry (as file tables are
built), runs a heap-ordered event loop over generators (as the
simulator does), touches small objects' attributes and dicts, and
packs, joins, sorts and checksums byte records (as the LSM store
does).
"""

from __future__ import annotations

import heapq
import struct
import time
import zlib

__all__ = ["REFERENCE_S", "reference_loop_s"]

# The loop's time on the 2-vCPU machine the committed numbers come from.
REFERENCE_S = 0.08


class _Task:
    __slots__ = ("tid", "steps", "state")

    def __init__(self, tid: int):
        self.tid = tid
        self.steps = 0
        self.state = {}


def _entry(page: int, devid: int) -> int:
    return (page << 12) | (1 << 62) | (devid << 52) | 0x7


def _task(task: _Task):
    while True:
        task.steps += 1
        task.state[task.steps & 63] = task.steps
        yield (task.tid * 7 + task.steps) % 13 + 1


def _work() -> int:
    leaves = [[]] * 32  # a small ring: the loop adds little to peak RSS
    for leaf in range(300):
        entries = [0] * 512
        base = leaf * 512
        for slot in range(512):
            entries[slot] = _entry(base + slot, 1)
        leaves[leaf % 32] = entries
    tasks = [_Task(tid) for tid in range(64)]
    runs = [_task(task) for task in tasks]
    queue = [(tid, tid, tid) for tid in range(64)]
    heapq.heapify(queue)
    seq = 64
    for _ in range(60_000):
        now, _seq, tid = heapq.heappop(queue)
        seq += 1
        heapq.heappush(queue, (now + next(runs[tid]), seq, tid))
    records = []
    for key in range(6000):
        name = b"key:%08d" % (key * 7919 % 6000)
        records.append(struct.pack("<HH", len(name), 96) + name
                       + bytes(96))
    records.sort()
    blob = b"".join(records)
    return (sum(task.steps for task in tasks) + len(leaves)
            + zlib.crc32(blob))


def reference_loop_s() -> float:
    """Host seconds one pass of the reference loop takes right now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
