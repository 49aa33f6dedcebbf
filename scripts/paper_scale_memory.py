#!/usr/bin/env python3
"""paper_scale_memory — host memory of a paper-size BypassD store.

    python scripts/paper_scale_memory.py

Runs the KVell store at the paper's size (Figure 16: 50M x 1 KB
objects, four worker slabs of about 25 GiB each on a 128 GiB device)
on the bypassd engine, YCSB C, 4 threads x 64 ops.  Every slab is
fmapped, so the run's host memory is dominated by the file tables
(Section 4.1: one 4 KiB leaf per 2 MiB of file, about 50k leaves).

Checks, in this one process:

- peak resident memory (``ru_maxrss``) stays under ``RSS_LIMIT_MIB``:
  a leaf filled from one extent is held as a run until a walk reads
  it, so the tables cost memory per extent, not per page;
- the simulated throughput and p99 latency equal the committed values
  below, so the host-side storage left the model alone.

Prints the wall time, peak RSS and simulated results; exit status 0
when every check passes, 1 otherwise.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import GiB, Machine  # noqa: E402
from repro.apps.kvell import KVellConfig, run_kvell  # noqa: E402

RSS_LIMIT_MIB = 100
# The run's simulated results (deterministic for this configuration).
EXPECTED_KOPS = 917.1945312276075
EXPECTED_P99_US = 4.811


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def main() -> int:
    # host wall time of the run, reported only; the model never reads it
    t0 = time.perf_counter()  # simlint: ignore[SIM001]
    machine = Machine(capacity_bytes=128 * GiB, memory_bytes=256 << 20,
                      capture_data=False)
    result = run_kvell(machine, "C", threads=4, ops_per_thread=64,
                       config=KVellConfig(n_objects=50_000_000,
                                          engine="bypassd"))
    wall_s = time.perf_counter() - t0  # simlint: ignore[SIM001]
    rss = peak_rss_mib()
    print("KVell YCSB C, 50M x 1 KB objects, bypassd, 4 threads x 64 ops")
    print(f"  wall time      {wall_s:.2f} s")
    print(f"  peak RSS       {rss:.1f} MiB (limit {RSS_LIMIT_MIB} MiB)")
    print(f"  throughput     {result.kops!r} kops/s "
          f"(expected {EXPECTED_KOPS!r})")
    print(f"  p99 latency    {result.p99_lat_us!r} us "
          f"(expected {EXPECTED_P99_US!r})")
    failures = []
    if rss >= RSS_LIMIT_MIB:
        failures.append(f"peak RSS {rss:.1f} MiB >= {RSS_LIMIT_MIB} MiB")
    if result.kops != EXPECTED_KOPS:
        failures.append(f"throughput {result.kops!r} != {EXPECTED_KOPS!r}")
    if result.p99_lat_us != EXPECTED_P99_US:
        failures.append(
            f"p99 {result.p99_lat_us!r} us != {EXPECTED_P99_US!r} us")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
