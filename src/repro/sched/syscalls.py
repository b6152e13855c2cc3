"""The control interface ("system calls") for Dimetrodon.

The paper controls Dimetrodon via system calls (§3.1).  This module is
the equivalent programmatic surface: a handle that user-level code (the
experiments, the closed-loop controller, an interactive operator) uses
to set per-thread and global injection policies and to query thread
statistics — without touching scheduler internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.policy import (
    BernoulliInjectionPolicy,
    DeterministicInjectionPolicy,
    NoInjectionPolicy,
    UniformDraws,
)
from ..errors import ConfigurationError
from .scheduler import Scheduler
from .thread import Thread

if False:  # pragma: no cover - import cycle breaker, type hints only
    from ..core.injector import IdleInjector


@dataclass(frozen=True)
class ThreadInfo:
    """Snapshot returned by :meth:`DimetrodonControl.thread_info`."""

    tid: int
    name: str
    state: str
    scheduled_count: int
    injected_count: int
    injected_time: float
    cpu_wall_time: float
    work_done: float


class DimetrodonControl:
    """User-facing policy control, mirroring the paper's syscalls.

    Every Bernoulli policy it makes draws through one
    :class:`~repro.core.policy.UniformDraws` over ``rng``, so the coin
    flips follow ``rng``'s scalar sequence in decision order; nothing
    else may draw from ``rng``.
    """

    def __init__(self, scheduler: Scheduler, rng: Optional[np.random.Generator] = None):
        if scheduler.injector is None:
            raise ConfigurationError("scheduler has no idle injector attached")
        self.scheduler = scheduler
        self.injector: "IdleInjector" = scheduler.injector
        self._draws = UniformDraws(rng) if rng is not None else None

    # ------------------------------------------------------------------
    # Policy control
    # ------------------------------------------------------------------
    def _make_policy(self, p: float, idle_quantum: float, deterministic: bool):
        if p == 0.0:
            return NoInjectionPolicy()
        if deterministic:
            return DeterministicInjectionPolicy(p, idle_quantum)
        if self._draws is None:
            raise ConfigurationError(
                "a Bernoulli policy needs an RNG; construct DimetrodonControl "
                "with rng=... or pass deterministic=True"
            )
        return BernoulliInjectionPolicy(p, idle_quantum, self._draws)

    def set_global_policy(
        self, p: float, idle_quantum: float, *, deterministic: bool = False
    ) -> None:
        """Apply (p, L) to every thread without a per-thread override."""
        self.injector.set_default_policy(self._make_policy(p, idle_quantum, deterministic))

    def set_thread_policy(
        self, thread: Thread, p: float, idle_quantum: float, *, deterministic: bool = False
    ) -> None:
        """Apply (p, L) to one thread (the per-thread control of §3.6)."""
        self.injector.set_thread_policy(
            thread, self._make_policy(p, idle_quantum, deterministic)
        )

    def exempt_thread(self, thread: Thread) -> None:
        """Never inject into ``thread`` regardless of the global policy."""
        self.injector.exempt(thread)

    def apply_priority_scaled_policy(
        self,
        threads,
        base_p: float,
        idle_quantum: float,
        *,
        deterministic: bool = False,
        p_max: float = 0.97,
    ) -> None:
        """Scale injection aggressiveness by each thread's niceness.

        §2.1: the thermal manager can act on "a process's user-granted
        priority level".  A nice value of 0 gets ``base_p``; background
        work (positive nice) is injected harder, latency-critical work
        (negative nice) gentler, on a 2x-per-13-nice-points exponential
        — the same flavour of weighting the scheduler itself uses.
        """
        for thread in threads:
            scaled = float(np.clip(base_p * 2.0 ** (thread.nice / 13.0), 0.0, p_max))
            self.set_thread_policy(
                thread, scaled, idle_quantum, deterministic=deterministic
            )

    def clear_thread_policy(self, thread: Thread) -> None:
        """Return ``thread`` to the global default policy."""
        self.injector.table.clear_thread_policy(thread.tid)

    def disable(self) -> None:
        """Turn Dimetrodon off system-wide (race-to-idle behaviour)."""
        self.injector.set_default_policy(NoInjectionPolicy())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def thread_info(self, thread: Thread) -> ThreadInfo:
        stats = thread.stats
        return ThreadInfo(
            tid=thread.tid,
            name=thread.name,
            state=thread.state.value,
            scheduled_count=stats.scheduled_count,
            injected_count=stats.injected_count,
            injected_time=stats.injected_time,
            cpu_wall_time=stats.cpu_wall_time,
            work_done=stats.work_done,
        )

    def all_thread_info(self) -> Dict[int, ThreadInfo]:
        return {t.tid: self.thread_info(t) for t in self.scheduler.threads}
