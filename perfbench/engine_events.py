#!/usr/bin/env python3
"""Simulator events per 4 KiB random read, one engine at a time.

    python3 perfbench/engine_events.py [--seed N]

``randread-shared`` mixes engines on one device, so its
``sim.events_per_op`` is a blend.  This runs the same read loop with a
single engine and no think time, uncontended (1 process x 1 thread)
and contended (2 processes x 2 threads), and prints events per op and
simulated reads per host second for each engine as a Markdown table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("sync", "libaio", "io_uring", "bypassd")
SHAPES = ((1, 1), (2, 2))  # (processes, threads per process)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import RandreadShared

    print("| engine | shape | events per op | reads per host second |")
    print("|---|---|---|---|")
    for engine in ENGINES:
        for processes, threads in SHAPES:
            workload = RandreadShared()
            workload.tenants = (engine,) * processes
            workload.threads = threads
            workload.ops_per_thread = 4000 // (processes * threads)
            workload.think_ns = 1  # randrange(1) == 0: no think time
            result = workload.run_round(workload.make_inputs(args.seed))
            if result.failed:
                print(f"{engine}: {result.failed} reads failed",
                      file=sys.stderr)
                return 1
            print(f"| `{engine}` | {processes} x {threads} | "
                  f"{result.events / result.attempted:.2f} | "
                  f"{result.attempted / result.timed_s:,.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
