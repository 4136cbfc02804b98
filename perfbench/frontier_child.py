"""Budgeted d=5 frontier record, run as its own process by ``layers.frontier``.

    python3 perfbench/frontier_child.py SEED BUDGET_S MEMORY_BYTES

Caps its own address space at MEMORY_BYTES (RLIMIT_AS), then enumerates the
seeded d=5 uniform-margin system one row prefix at a time
(``layers.trajectory``).  After each completed prefix it prints that row's
trajectory record with the elapsed seconds and its peak RSS.  The last
line says how the run ended: ``finished``, ``over budget`` (SIGALRM after
BUDGET_S seconds) or ``out of memory`` (MemoryError).
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(seed: int, budget_s: float, memory_bytes: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
    start = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    ended = "finished"
    try:
        import bintab as bt

        from layers import trajectory
        from workloads import random_counts

        counts = random_counts(random.Random(seed), 5)
        H = bt.build_H(bt.targets_from_pmf(bt.Pmf.from_counts(counts), digits=3))
        print(json.dumps({"counts": counts}), flush=True)
        for row in trajectory(bt, H):
            row.update(elapsed_s=time.perf_counter() - start, rss_mb=rss_mb())
            print(json.dumps(row), flush=True)
    except OverBudget:
        ended = "over budget"
    except MemoryError:
        ended = "out of memory"
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"ended": ended, "elapsed_s": time.perf_counter() - start, "rss_mb": rss_mb()}), flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]))
