"""cpuburn (burnP6) equivalents: maximal-heat CPU-bound loops.

The paper uses Robert Redelmeier's ``cpuburn`` — "a single-threaded
infinite loop containing a compact sequence of x86 instructions
designed to thermally stress test processors" (§3.3) — both as an
endless worst-case thermal load (§3.4) and as a finite loop with a
known runtime for model validation (§3.3, a 7-second finite loop).

Here cpuburn is simply the workload with switching activity 1.0: the
definitional maximum against which Table 1 normalises every other
workload's temperature rise.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import WorkloadError
from .base import Burst, NextBurst, Workload


class CpuBurn(Workload):
    """Endless cpuburn: runs flat-out until the simulation stops."""

    activity = 1.0
    cpu_fraction = 1.0

    def __init__(self, *, chunk: float = 100.0):
        if not 0 < chunk < math.inf:  # also rejects NaN
            raise WorkloadError(f"chunk must be positive and finite, got {chunk}")
        #: Burst granularity, s.  Purely an implementation detail: the
        #: scheduler slices bursts into quanta anyway.
        self.chunk = chunk

    def next_burst(self) -> NextBurst:
        return Burst(cpu_time=self.chunk)

    @property
    def name(self) -> str:
        return "cpuburn"


class FiniteCpuBurn(Workload):
    """cpuburn with a fixed total amount of work, then exit.

    ``total_work`` is the thread's CPU demand ``R`` in full-speed
    seconds — the quantity the analytical model (§2.2) predicts the
    completion time ``D(t)`` from.
    """

    activity = 1.0
    cpu_fraction = 1.0

    def __init__(self, total_work: float):
        if not 0 < total_work < math.inf:
            raise WorkloadError(f"total_work must be positive and finite, got {total_work}")
        self.total_work = float(total_work)
        self._emitted = False

    def next_burst(self) -> NextBurst:
        if self._emitted:
            return None
        self._emitted = True
        return Burst(cpu_time=self.total_work)

    @property
    def name(self) -> str:
        return "cpuburn-finite"


class DutyCycledBurn(Workload):
    """cpuburn that runs for ``burn_time`` then sleeps ``sleep_time``.

    This is the "cool" process of §3.6: "a loop that executed cpuburn
    for six seconds, slept for one minute, and repeated".  Its *average*
    heat output is low even though its instantaneous activity is
    maximal.  ``iterations`` bounds the loop (None = endless).
    """

    activity = 1.0
    cpu_fraction = 1.0

    def __init__(
        self,
        burn_time: float = 6.0,
        sleep_time: float = 60.0,
        *,
        iterations: Optional[int] = None,
    ):
        if not (0 < burn_time < math.inf and 0 <= sleep_time < math.inf):
            raise WorkloadError(
                "burn_time must be positive and sleep_time non-negative, both "
                f"finite; got {burn_time} and {sleep_time}"
            )
        self.burn_time = burn_time
        self.sleep_time = sleep_time
        self.iterations = iterations
        self.completed_iterations = 0

    def _on_iteration(self, _now: float) -> None:
        self.completed_iterations += 1

    def next_burst(self) -> NextBurst:
        if self.iterations is not None and self.completed_iterations >= self.iterations:
            return None
        return Burst(
            cpu_time=self.burn_time,
            sleep_time=self.sleep_time,
            on_complete=self._on_iteration,
        )

    @property
    def name(self) -> str:
        return "cool-burn"
