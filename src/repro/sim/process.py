"""Coroutine-style simulated processes and timer helpers.

The scheduler itself is written in direct callback style for speed, but
workload drivers (request generators, duty-cycled processes, closed-loop
controllers) read much more naturally as generators that ``yield``
delays.  :class:`Process` runs such a generator on a
:class:`~repro.sim.engine.Simulator`.

Example
-------
>>> def blinker(sim, log):
...     while True:
...         log.append(sim.now)
...         yield 1.0
>>> sim = Simulator()
>>> log = []
>>> Process(sim, blinker(sim, log))   # doctest: +ELLIPSIS
<Process ...>
>>> sim.run(until=3.5)
>>> log
[0.0, 1.0, 2.0, 3.0]
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

from ..errors import SimulationError
from .engine import Event, Simulator

#: A simulated process body: a generator yielding delays in seconds.
ProcessBody = Generator[float, None, None]


class Process:
    """Drive a generator as a simulated process.

    The generator yields non-negative delays (seconds); the process
    resumes after each delay.  When the generator returns, the process
    is finished.  Call :meth:`stop` to cancel it early.
    """

    def __init__(self, sim: Simulator, body: ProcessBody, *, start_delay: float = 0.0):
        self._sim = sim
        self._body = body
        self._finished = False
        self._stopped = False
        self._pending: Optional[Event] = sim.schedule(start_delay, self._resume)

    @property
    def finished(self) -> bool:
        """True once the generator has returned or the process was stopped."""
        return self._finished

    def stop(self) -> None:
        """Cancel the process; the generator is closed immediately."""
        if self._finished:
            return
        self._stopped = True
        self._finished = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._body.close()

    def _resume(self) -> None:
        if self._finished:
            return
        self._pending = None
        try:
            delay = next(self._body)
        except StopIteration:
            self._finished = True
            return
        if delay is None or delay < 0:
            self._finished = True
            self._body.close()
            raise SimulationError(f"process yielded invalid delay {delay!r}")
        self._pending = self._sim.schedule(delay, self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._finished else "running"
        return f"<Process {state} at t={self._sim.now:.6f}>"


class PeriodicTask:
    """Invoke a callback at a fixed simulated period.

    Used for instrument sampling (temperature logs) and the closed-loop
    controller.  The first invocation happens after ``phase`` seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        phase: Optional[float] = None,
    ):
        if not (math.isfinite(period) and period > 0):
            raise SimulationError(f"period must be positive and finite, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._cancelled = False
        first = period if phase is None else phase
        self._event: Optional[Event] = sim.schedule(first, self._fire)

    @property
    def period(self) -> float:
        return self._period

    def cancel(self) -> None:
        """Stop future invocations. Idempotent."""
        self._cancelled = True
        self._callback = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback()
        if not self._cancelled:
            self._event = self._sim.schedule(self._period, self._fire)
