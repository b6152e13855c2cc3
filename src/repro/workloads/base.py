"""Workload protocol: how threads describe the work they want to do.

A workload is a generator of *bursts*.  Each time a thread finishes its
current burst the scheduler asks the workload for the next one via
:meth:`Workload.next_burst`, which returns:

- a :class:`Burst` — run ``cpu_time`` seconds of work (measured at full
  chip speed; DVFS/TCC stretch the wall-clock time), then optionally
  sleep;
- the :data:`BLOCK` sentinel — the thread blocks until some other
  component wakes it (e.g. a request arriving at a web-server worker);
- ``None`` — the thread exits.

Workloads also carry two static characteristics used by the power and
performance models:

- ``activity``: switching-activity factor relative to cpuburn (1.0);
  determines dynamic power while the thread executes.
- ``cpu_fraction``: fraction of execution sensitive to core frequency;
  1.0 for the paper's "entirely CPU-bound" workloads (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

# Burst and BLOCK are defined by the thread that consumes them, so the
# scheduler needs nothing from this package; they are part of the
# workload protocol and exported from here.
from ..sched.thread import BLOCK, Burst, _BlockSentinel


#: What ``next_burst`` may return.
NextBurst = Union[Burst, _BlockSentinel, None]


class Workload:
    """Base class for workloads.

    Subclasses override :meth:`next_burst`.  The defaults describe a
    fully CPU-bound workload with cpuburn-level activity.
    """

    #: Switching-activity factor relative to cpuburn.
    activity: float = 1.0
    #: Fraction of execution time sensitive to clock frequency.
    cpu_fraction: float = 1.0

    def next_burst(self) -> NextBurst:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass
class SyntheticWorkload(Workload):
    """A workload built from an explicit list of bursts (mostly for tests).

    ``items`` may contain :class:`Burst` instances and :data:`BLOCK`
    sentinels; the workload replays them in order and then exits (or
    loops forever if ``repeat`` is true).
    """

    items: list = field(default_factory=list)
    repeat: bool = False
    activity: float = 1.0
    cpu_fraction: float = 1.0
    _cursor: int = 0

    def next_burst(self) -> NextBurst:
        if self._cursor >= len(self.items):
            if not self.repeat or not self.items:
                return None
            self._cursor = 0
        item = self.items[self._cursor]
        self._cursor += 1
        return item
