"""How fast the host runs simulator-like code right now.

On a shared host the speed of the same code drifts with other tenants'
load, by up to 1.6x and for minutes at a time, so a pass time read in
a slow period cannot be compared with one read in a fast period.  The
probe here is a fixed miniature of the simulator's inner loop (a heap
of event objects, per-machine 4-vectors stepped through a small numpy
matrix, a dict of counters) that the program's changes cannot touch.
Timed between passes, it tells how far the host was from its speed on
the machine the benchmark was built on; ``run.py`` scales its pass and
set-up times by that factor.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

#: Fastest time of :func:`probe` on the machine the benchmark was built
#: on (a 2-vCPU Xeon VM at 2.1 GHz, in a quiet period).  Scaled times
#: read as host seconds on that machine.
REFERENCE_S = 0.037

MACHINES = 64
EVENTS = 12000


class _Event:
    __slots__ = ("t", "kind", "machine")

    def __init__(self, t: float, kind: int, machine: int) -> None:
        self.t = t
        self.kind = kind
        self.machine = machine

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def _kernel() -> float:
    rng = random.Random(7)
    step = np.eye(4) * 0.99 + 0.0025
    temps = [np.zeros(4) for _ in range(MACHINES)]
    counts: dict = {}
    queue = [_Event(rng.random(), m % 3, m) for m in range(MACHINES)]
    heapq.heapify(queue)
    for _ in range(EVENTS):
        event = heapq.heappop(queue)
        temps[event.machine] = step @ temps[event.machine] + 0.01
        key = (event.machine, event.kind)
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(queue, _Event(event.t + rng.expovariate(10.0), rng.randrange(3), event.machine))
    return float(sum(t.sum() for t in temps)) + len(counts)


def probe() -> float:
    """Host seconds of one run of the fixed kernel."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started
