"""Processor idle (C-) states and residency modelling.

The paper's platform supports C1E, an "enhanced halt" state that drops
core voltage (and does *not* flush caches, §3.2).  Two properties of
real C-states carry the paper's key results and are modelled here:

1. **Promotion**: a core does not enter C1E the instant it idles; it
   halts into C1 and is promoted to C1E only after a residency
   threshold.  Consequently *short* idle intervals (sub-millisecond
   clock gating as in p4tcc, or fragmented natural idle on a busy web
   server) never reach the low-power state, while Dimetrodon's
   millisecond-scale injected quanta do.  This is why the optimal idle
   period is "closer to the order of one ms" (§3.4).

2. **Transition latency**: entry/exit costs in the tens of
   microseconds (§2.2 cites PowerNap) are charged so that extremely
   frequent transitions waste measurable time and energy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple


class CState(enum.Enum):
    """Core activity / idle states."""

    #: Executing instructions.
    C0 = "C0"
    #: Halted; core clocks gated, voltage nominal.
    C1 = "C1"
    #: Enhanced halt; clocks gated and voltage reduced.
    C1E = "C1E"

    # Members are singletons compared by identity, so identity hashing
    # is exact — and skips Enum's Python-level ``__hash__`` on the
    # per-piece paths (the chip's coefficient-table key, residency
    # counters).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class CStateParams:
    """Timing constants of the idle-state machine."""

    #: Residency in C1 before hardware promotes the core to C1E when the
    #: idle length is known to be long (scheduler-hinted idle, as during
    #: an injected idle quantum), s.
    c1e_promotion_threshold: float = 0.2e-3
    #: Promotion threshold for *natural* (unhinted) idle.  On the
    #: paper's FreeBSD 7.2 platform the 1 kHz timer tick and interrupt
    #: traffic keep short natural idle periods shallow; only an idle
    #: that persists well beyond the tick/housekeeping horizon settles
    #: into the deep state (so a race-to-idle *tail* of seconds still
    #: reaches C1E, preserving the §3.3 energy identity).  Fragmented
    #: inter-request idle on a web server (~tens of ms) never promotes,
    #: while a scheduler-hinted injected quantum does — the asymmetry
    #: that lets injection cool a partially idle machine (§3.7).
    natural_promotion_threshold: float = 0.4
    #: Time to enter C1E once promoted (voltage ramp), s.
    c1e_entry_latency: float = 40e-6
    #: Time to resume execution from C1E, s.
    c1e_exit_latency: float = 30e-6
    #: Time to resume execution from C1, s.
    c1_exit_latency: float = 5e-6


@dataclass(frozen=True)
class IdlePiece:
    """A homogeneous slice of an idle interval."""

    duration: float
    state: CState


def idle_profile(duration: float, params: CStateParams) -> List[IdlePiece]:
    """Split an idle interval into C-state residency pieces.

    The core halts into C1 immediately; after the promotion threshold
    it transitions to C1E (the entry latency is spent at C1 power).
    Zero-length pieces are omitted.
    """
    if duration <= 0:
        return []
    shallow = min(duration, params.c1e_promotion_threshold + params.c1e_entry_latency)
    pieces = [IdlePiece(shallow, CState.C1)]
    deep = duration - shallow
    if deep > 0:
        pieces.append(IdlePiece(deep, CState.C1E))
    return pieces


def exit_latency(state: CState, params: CStateParams) -> float:
    """Wake-up latency when leaving ``state`` for C0."""
    if state is CState.C1E:
        return params.c1e_exit_latency
    if state is CState.C1:
        return params.c1_exit_latency
    return 0.0


class ResidencyCounter:
    """Accumulates per-state residency for one core.

    Drives the §3.3-style energy accounting and lets tests assert that
    residencies over a run sum to the run length.
    """

    def __init__(self) -> None:
        self._residency: Dict[CState, float] = {state: 0.0 for state in CState}

    def add(self, state: CState, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative residency {duration}")
        self._residency[state] += duration

    def get(self, state: CState) -> float:
        return self._residency[state]

    def total(self) -> float:
        return sum(self._residency.values())

    def fractions(self) -> Dict[CState, float]:
        """Residency as fractions of total accounted time."""
        total = self.total()
        if total == 0:
            return {state: 0.0 for state in CState}
        return {state: value / total for state, value in self._residency.items()}

    def as_tuples(self) -> List[Tuple[str, float]]:
        return [(state.value, self._residency[state]) for state in CState]
