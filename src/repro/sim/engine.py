"""Discrete-event simulation engine.

The engine is a binary heap of ``(time, seq, event)`` entries:
callbacks are scheduled at absolute simulated times and dispatched in
time order.  Ties are broken by insertion order so runs are fully
deterministic.

The scheduler, workloads, and instruments all run on top of this engine;
the thermal model is advanced *lazily* between events by the machine
model (see :mod:`repro.fleet.machine`), so the engine itself knows
nothing about physics.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..telemetry.registry import registry as _metrics_registry


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled.  A cancelled
    event stays in the heap but is skipped at dispatch time (lazy
    deletion), which keeps cancellation O(1).

    ``before``, when set, is called with no arguments immediately
    before ``callback`` (a fleet node's physics gap closer, see
    :class:`repro.fleet.machine._NodeSimView`).
    """

    __slots__ = ("time", "callback", "args", "before", "cancelled", "dispatched")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        before: Optional[Callable[[], Any]] = None,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.before = before
        self.cancelled = False
        self.dispatched = False

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not (self.cancelled or self.dispatched)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("done" if self.dispatched else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    The heap holds ``(time, seq, event)`` tuples; ``seq`` is unique, so
    ordering is decided by the two numbers and never compares events.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._event_count = 0
        # Metrics bind to the registry current at construction time, so
        # a simulator built inside telemetry.isolated() reports there.
        scope = _metrics_registry().scope("sim.engine")
        self._metric_events = scope.counter("events")
        self._metric_virtual_time = scope.counter("virtual_time")
        self._metric_run_wall = scope.timer("run_wall")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events dispatched by completed :meth:`run` /
        :meth:`step` calls."""
        return self._event_count

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not 0 <= delay < math.inf:  # also rejects NaN
            raise SimulationError(f"event delay must be finite and >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not self._now <= time < math.inf:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time:.9f}: needs a finite time at or after "
                f"the clock, {self._now:.9f}"
            )
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def clear(self) -> None:
        """Cancel every pending event and drop what it holds (its
        callback, arguments and ``before`` hook), so objects kept alive
        only by the queue are freed by reference counting."""
        for _, _, event in self._heap:
            event.cancelled = True
            event.callback = event.args = event.before = None
        self._heap.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Dispatch the next pending event.

        Returns True if an event ran, False if the queue was empty.
        Like :meth:`run`, it may not be called from inside a callback.
        """
        return self._dispatch_events(None, 1) == 1

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the queue empties or ``until``.

        If ``until`` is given, all events with ``time <= until`` are
        dispatched and the clock is left exactly at ``until``.
        """
        with self._metric_run_wall.time():
            self._dispatch_events(until, -1)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch_events(self, until: Optional[float], limit: int) -> int:
        """The one dispatch loop: fire live events in (time, seq) order,
        at most ``limit`` of them (-1: no limit), none later than
        ``until``; returns how many fired.

        Each dispatched event costs exactly one ``heappop``: the head is
        inspected in place, and cancelled heads are dropped as they
        surface.  The event count and virtual time are kept in locals
        and published when the call ends, by return or by exception;
        an event whose callback raises is counted, and the clock stays
        at its time.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() or step())")
        start = self._now
        if until is not None:
            if not math.isfinite(until):
                raise SimulationError(f"run(until={until}) needs a finite time")
            if until < start:
                raise SimulationError(f"run(until={until}) but clock already at {start}")
        bound = math.inf if until is None else until
        heap = self._heap
        pop = heapq.heappop
        count = 0
        self._running = True
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if time > bound:
                    break
                pop(heap)
                self._now = time
                event.dispatched = True
                count += 1
                before = event.before
                if before is not None:
                    before()
                event.callback(*event.args)
                if count == limit:
                    break
            if until is not None:
                self._now = until
        finally:
            self._running = False
            self._event_count += count
            self._metric_events.value += count
            # Never negative: the clock only moves forward.
            self._metric_virtual_time.value += self._now - start
        return count
