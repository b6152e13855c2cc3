"""Idle-injection policies.

A policy answers one question, posed every time the scheduler is about
to dispatch a thread: *should we run the idle thread instead, and for
how long?* (§2.2: "each time the scheduler is about to schedule a
thread, with user-defined probability p, it instead runs the idle
thread for a quantum of length L").

Two injection models are provided:

- :class:`BernoulliInjectionPolicy` — the paper's probabilistic model.
  Each decision is an independent coin flip, so the number of idle
  quanta per execution quantum is geometric with mean ``p/(1-p)``.
- :class:`DeterministicInjectionPolicy` — the smoother variant the
  paper conjectures about in §3.4 ("a more deterministic model would
  likely result in smoother curves but with similar overall temperature
  trends").  It keeps per-thread credit so exactly a fraction ``p`` of
  decisions inject, with no clustering.

Policies are assembled into a :class:`PolicyTable`, which is the
per-thread control surface highlighted in §2.1/§3.6: individual threads
can have their own (p, L) or be exempt entirely.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Union

import numpy as np

from ..errors import ConfigurationError


def validate_probability(p: float) -> float:
    """Check an injection probability: must satisfy 0 <= p < 1.

    ``p = 1`` would starve the thread forever (the expected number of
    idle quanta per execution quantum, p/(1-p), diverges).
    """
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"injection probability must be in [0, 1), got {p}")
    return float(p)


def validate_quantum(length: float) -> float:
    """Check an idle quantum length: must be positive."""
    if length <= 0.0:
        raise ConfigurationError(f"idle quantum length must be positive, got {length}")
    return float(length)


class InjectionPolicy:
    """Base class: per-thread decision source."""

    #: Injection probability (fraction of scheduling decisions idled).
    p: float
    #: Idle quantum length, seconds.
    idle_quantum: float

    def should_inject(self, thread_id: int) -> bool:
        """Decide for one scheduling event of thread ``thread_id``."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}(p={self.p:g}, L={self.idle_quantum * 1e3:g}ms)"


class NoInjectionPolicy(InjectionPolicy):
    """Never inject (the race-to-idle baseline)."""

    def __init__(self) -> None:
        self.p = 0.0
        self.idle_quantum = 1e-3  # unused

    def should_inject(self, thread_id: int) -> bool:
        return False


#: Draws :class:`UniformDraws` takes from its generator at a time.  A
#: draw then costs about a fifth of a scalar ``Generator.random()``.
DRAW_BLOCK = 64


class UniformDraws:
    """Uniform [0, 1) draws from a generator, taken a block at a time.

    ``Generator.random(n)`` yields the same numbers as ``n`` scalar
    ``random()`` calls, so :meth:`random` returns exactly the scalar
    sequence while paying the generator call once per block.  Every
    consumer of the generator must draw through the one buffer: a
    direct draw would take numbers the buffer has already read ahead.
    """

    __slots__ = ("_generator", "_values")

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        #: The unread part of the current block, in reverse draw order;
        #: a ``"d"`` array holds it in 8 bytes a draw, a list in 32.
        self._values = array("d")

    def random(self) -> float:
        values = self._values
        if not values:
            values = self._values = array("d", self._generator.random(DRAW_BLOCK).tobytes())
            values.reverse()
        return values.pop()


class BernoulliInjectionPolicy(InjectionPolicy):
    """The paper's probabilistic injection model.

    Each decision takes one draw from ``rng``, a
    :class:`numpy.random.Generator` or a :class:`UniformDraws` over one;
    ``p == 0`` decisions take none.
    """

    def __init__(
        self,
        p: float,
        idle_quantum: float,
        rng: Union[np.random.Generator, UniformDraws],
    ):
        self.p = validate_probability(p)
        self.idle_quantum = validate_quantum(idle_quantum)
        self._random = rng.random

    def should_inject(self, thread_id: int) -> bool:
        if self.p == 0.0:
            return False
        return self._random() < self.p


class DeterministicInjectionPolicy(InjectionPolicy):
    """Credit-based injection: exactly a fraction ``p`` of decisions idle.

    Per-thread credit accumulates ``p`` per decision; a decision injects
    when the credit reaches one.  The long-run injected fraction equals
    ``p`` exactly, with minimal variance (the ablation bench compares
    the temperature ripple against the Bernoulli policy).
    """

    def __init__(self, p: float, idle_quantum: float):
        self.p = validate_probability(p)
        self.idle_quantum = validate_quantum(idle_quantum)
        self._credit: Dict[int, float] = {}

    def should_inject(self, thread_id: int) -> bool:
        if self.p == 0.0:
            return False
        credit = self._credit.get(thread_id, 0.0) + self.p
        if credit >= 1.0:
            self._credit[thread_id] = credit - 1.0
            return True
        self._credit[thread_id] = credit
        return False


class PolicyTable:
    """Per-thread policy lookup with an optional system-wide default.

    This is the software control surface of §2.1: arbitrary per-thread
    precision, plus a global default for system-wide actuation
    (Figure 5 compares exactly these two configurations).
    """

    def __init__(self, default: Optional[InjectionPolicy] = None):
        self.default = default or NoInjectionPolicy()
        self._per_thread: Dict[int, InjectionPolicy] = {}

    def set_thread_policy(self, thread_id: int, policy: InjectionPolicy) -> None:
        """Override the policy for one thread (the paper's syscall)."""
        self._per_thread[thread_id] = policy

    def clear_thread_policy(self, thread_id: int) -> None:
        """Return a thread to the system-wide default policy."""
        self._per_thread.pop(thread_id, None)

    def set_default(self, policy: InjectionPolicy) -> None:
        """Replace the system-wide default policy."""
        self.default = policy

    def lookup(self, thread_id: int) -> InjectionPolicy:
        return self._per_thread.get(thread_id, self.default)

    def exempt_thread(self, thread_id: int) -> None:
        """Pin a thread to 'never inject' regardless of the default
        (the §2.1 high-priority override)."""
        self._per_thread[thread_id] = NoInjectionPolicy()
