"""Kernel thread abstraction and per-thread accounting.

Mirrors the information the paper's FreeBSD implementation works with:
a thread is either a user thread (subject to idle injection by default)
or a kernel thread (exempt by the paper's policy, §3.1), has a position
in the multi-level feedback queue, and accumulates the statistics the
analytical model needs (times scheduled ``S``, CPU time ``R``, number
of injected idles).

The units a workload hands its thread — :class:`Burst` and the
:data:`BLOCK` sentinel — are defined here, where the thread consumes
them, and re-exported by :mod:`repro.workloads.base`, which documents
the workload protocol.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import SchedulerError, WorkloadError

if False:  # pragma: no cover - import cycle breaker, type hints only
    from ..workloads.base import Workload

_tid_counter = itertools.count(1)


class _BlockSentinel:
    """Unique marker object returned by blocking workloads."""

    _instance: Optional["_BlockSentinel"] = None

    def __new__(cls) -> "_BlockSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BLOCK"


#: Sentinel: the thread should block until explicitly woken.
BLOCK = _BlockSentinel()


@dataclass
class Burst:
    """One span of CPU work, possibly followed by a sleep.

    ``cpu_time`` is expressed in seconds of full-speed execution.
    ``on_complete(now)`` fires when the burst's work is done (used to
    record request completions and iteration counts).
    """

    cpu_time: float
    sleep_time: float = 0.0
    on_complete: Optional[Callable[[float], None]] = None
    #: Free-form tag for tracing (e.g. a request id).
    tag: Optional[object] = None

    def __post_init__(self) -> None:
        if self.cpu_time <= 0:
            raise WorkloadError(f"burst cpu_time must be positive, got {self.cpu_time}")
        if self.sleep_time < 0:
            raise WorkloadError(f"burst sleep_time must be >= 0, got {self.sleep_time}")


class ThreadKind(enum.Enum):
    """User threads are injectable; kernel threads are exempt by default."""

    USER = "user"
    KERNEL = "kernel"


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"  # timed sleep
    BLOCKED = "blocked"  # waiting for an external wake
    PINNED = "pinned"  # held off the runqueue during an injected idle
    EXITED = "exited"


@dataclass
class ThreadStats:
    """Accounting used by experiments and the analytical model."""

    #: Wall-clock time spent occupying a core (incl. switch overheads), s.
    cpu_wall_time: float = 0.0
    #: Useful work completed, in full-speed CPU seconds.
    work_done: float = 0.0
    #: Times the thread was dispatched onto a core (the model's S).
    scheduled_count: int = 0
    #: Times an idle quantum was injected instead of running the thread.
    injected_count: int = 0
    #: Total injected idle time attributed to this thread, s.
    injected_time: float = 0.0
    #: Completed bursts (e.g. iterations of a periodic job, requests).
    bursts_completed: int = 0
    #: Quantum expirations (involuntary preemptions).
    preemptions: int = 0
    #: First time the thread ran, s (None until then).
    first_run: Optional[float] = None
    #: Exit time, s (None while alive).
    exit_time: Optional[float] = None


class Thread:
    """A schedulable thread bound to a workload."""

    def __init__(
        self,
        workload: "Workload",
        *,
        name: Optional[str] = None,
        kind: ThreadKind = ThreadKind.USER,
    ):
        self.tid: int = next(_tid_counter)
        self.workload = workload
        self.name = name or f"{workload.name}-{self.tid}"
        self.kind = kind
        self.state = ThreadState.NEW
        #: MLFQ level (0 = highest priority).
        self.queue_level = 0
        #: Restrict execution to one core index (None = run anywhere).
        self.affinity: Optional[int] = None
        #: Unix-style niceness in [-20, 19]; consumed by priority-aware
        #: injection policies (§2.1's "user-granted priority level").
        self.nice: int = 0
        self.stats = ThreadStats()
        self.current_burst: Optional[Burst] = None
        #: Remaining full-speed CPU seconds in the current burst.
        self.remaining_work: float = 0.0
        #: Set by Scheduler.terminate on a RUNNING thread; honoured at
        #: the end of the current slice.
        self.terminate_requested: bool = False

    # ------------------------------------------------------------------
    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.READY

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.EXITED

    def advance_burst(self) -> str:
        """Fetch the next burst from the workload.

        Returns one of ``"run"`` (a burst is loaded), ``"block"`` (the
        workload wants to wait), or ``"exit"``.
        """
        result = self.workload.next_burst()
        if result is None:
            return "exit"
        if result is BLOCK:
            return "block"
        if not isinstance(result, Burst):
            raise SchedulerError(
                f"workload {self.workload.name} returned {result!r}, "
                "expected Burst, BLOCK, or None"
            )
        self.current_burst = result
        self.remaining_work = result.cpu_time
        return "run"

    def complete_burst(self, now: float) -> Optional[Burst]:
        """Mark the current burst finished; fires its callback."""
        burst = self.current_burst
        if burst is None:
            raise SchedulerError(f"thread {self.name} has no burst to complete")
        self.stats.bursts_completed += 1
        self.current_burst = None
        self.remaining_work = 0.0
        if burst.on_complete is not None:
            burst.on_complete(now)
        return burst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Thread {self.tid} {self.name} {self.state.value}>"
