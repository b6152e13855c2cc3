"""Discrete-event simulation engine.

The engine is a classic calendar queue: callbacks are scheduled at
absolute simulated times and dispatched in time order.  Ties are broken
by insertion order so runs are fully deterministic.

The scheduler, workloads, and instruments all run on top of this engine;
the thermal model is advanced *lazily* between events by the machine
model (see :mod:`repro.fleet.machine`), so the engine itself knows
nothing about physics.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..telemetry.registry import registry as _metrics_registry


@dataclass(order=True)
class _QueueEntry:
    """Internal heap entry. Ordered by (time, sequence number)."""

    time: float
    seq: int
    event: "Event" = field(compare=False)


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled.  A cancelled
    event stays in the heap but is skipped at dispatch time (lazy
    deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "dispatched")

    def __init__(self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.callback = callback
        self.args = args
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

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[_QueueEntry] = []
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
        """Number of events dispatched so far."""
        return self._event_count

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, clock is already at {self._now:.9f}"
            )
        event = Event(time, callback, args)
        heapq.heappush(self._heap, _QueueEntry(time, next(self._seq), event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while self._heap and self._heap[0].event.cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time

    def step(self) -> bool:
        """Dispatch the next pending event.

        Returns True if an event ran, False if the queue was empty.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.event.cancelled:
                continue
            self._dispatch(entry.event)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the queue empties or ``until``.

        If ``until`` is given, all events with ``time <= until`` are
        dispatched and the clock is left exactly at ``until``.

        Each dispatched event costs exactly one ``heappop``: the loop
        inspects the heap head in place instead of going through
        :meth:`peek_next_time` (which pops cancelled entries) and then
        popping again in :meth:`step`.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            with self._metric_run_wall.time():
                heap = self._heap
                while heap:
                    entry = heap[0]
                    if entry.event.cancelled:
                        heapq.heappop(heap)
                        continue
                    if until is not None and entry.time > until:
                        break
                    heapq.heappop(heap)
                    self._dispatch(entry.event)
                if until is not None:
                    if until < self._now:
                        raise SimulationError(
                            f"run(until={until}) but clock already at {self._now}"
                        )
                    self._advance_clock(until)
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        """Advance the clock to an event (already popped) and fire it."""
        self._advance_clock(event.time)
        event.dispatched = True
        self._event_count += 1
        self._metric_events.inc()
        event.callback(*event.args)

    def _advance_clock(self, new_time: float) -> None:
        if new_time < self._now:
            raise SimulationError("clock went backwards")
        if new_time == self._now:
            return
        self._metric_virtual_time.inc(new_time - self._now)
        self._now = new_time
