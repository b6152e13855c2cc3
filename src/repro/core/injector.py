"""The Dimetrodon scheduler hook.

The injector sits in the scheduler's dispatch path.  For every thread
about to be dispatched it consults the policy table and either lets the
dispatch proceed or orders an idle quantum, during which the preempted
thread is pinned off the runqueue (so no other core runs it) and the
core runs the kernel idle thread.

Two idle mechanisms are supported, matching §2.1:

- ``HALT`` — the core enters the platform's idle states (C1 then C1E).
  This is the paper's implementation on its C1E-capable Xeon.
- ``SPIN`` — the core executes a low-activity nop loop.  "On processors
  that do not support low power idle states or clock gating, Dimetrodon
  is still useful as executing an idle loop of nop equivalents allows
  many functional units within the processor to cool."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# IdleMode is defined next to the dispatch code that carries it out and
# re-exported here, the module that chooses it.
from ..sched.scheduler import IdleMode
from ..sched.thread import Thread, ThreadKind
from ..telemetry.registry import registry as _metrics_registry
from .policy import InjectionPolicy, PolicyTable


@dataclass(frozen=True)
class InjectionDecision:
    """Order to idle the core instead of dispatching a thread."""

    #: Length of the idle quantum, seconds.
    length: float
    #: Idle mechanism to use.
    mode: IdleMode
    #: Also idle sibling SMT contexts so the whole core can reach the
    #: deep state (§3.2's "co-scheduling idle quanta").
    co_schedule: bool = False


@dataclass
class InjectorStats:
    """Aggregate counters across all threads."""

    decisions: int = 0
    injections: int = 0
    injected_time: float = 0.0

    @property
    def injection_fraction(self) -> float:
        """Fraction of scheduling decisions that injected idle."""
        if self.decisions == 0:
            return 0.0
        return self.injections / self.decisions


class IdleInjector:
    """Consults the policy table at each scheduling decision.

    Orders are immutable, so :meth:`decide` hands out one held
    :class:`InjectionDecision` per ``(idle_quantum, mode,
    co_schedule_smt)`` setting instead of building one per injection;
    ``mode`` and ``co_schedule_smt`` are read at every decision, so
    changing them between decisions takes effect.
    """

    def __init__(
        self,
        table: Optional[PolicyTable] = None,
        *,
        exempt_kernel_threads: bool = True,
        mode: IdleMode = IdleMode.HALT,
        co_schedule_smt: bool = False,
    ):
        self.table = table or PolicyTable()
        #: §3.1: preempting kernel threads can double-delay interrupt
        #: processing, so they are exempt by default (ablatable).
        self.exempt_kernel_threads = exempt_kernel_threads
        self.mode = mode
        #: Under SMT, idle the sibling contexts together with the
        #: injected one so the core can halt fully (§3.2).
        self.co_schedule_smt = co_schedule_smt
        self.stats = InjectorStats()
        #: Held orders by ``(idle_quantum, id(mode), co_schedule_smt)``:
        #: members are singletons, and ``Enum.__hash__`` runs in Python.
        self._orders: Dict[Tuple[float, int, bool], InjectionDecision] = {}
        scope = _metrics_registry().scope("core.injector")
        self._metric_decisions = scope.counter("decisions")
        self._metric_injections = scope.counter("injections")
        self._metric_injected_time = scope.counter("injected_time")

    def decide(self, thread: Thread, now: float) -> Optional[InjectionDecision]:
        """Return an injection order, or None to dispatch normally."""
        if self.exempt_kernel_threads and thread.kind is ThreadKind.KERNEL:
            return None
        self.stats.decisions += 1
        self._metric_decisions.value += 1
        policy = self.table.lookup(thread.tid)
        if not policy.should_inject(thread.tid):
            return None
        self.stats.injections += 1
        self.stats.injected_time += policy.idle_quantum
        self._metric_injections.value += 1
        # Policies validate the quantum positive, so no inc() check.
        self._metric_injected_time.value += policy.idle_quantum
        mode, co_schedule = self.mode, self.co_schedule_smt
        setting = (policy.idle_quantum, id(mode), co_schedule)
        order = self._orders.get(setting)
        if order is None:
            order = InjectionDecision(policy.idle_quantum, mode, co_schedule)
            self._orders[setting] = order
        return order

    # ------------------------------------------------------------------
    # Convenience pass-throughs (the paper's syscall surface).
    # ------------------------------------------------------------------
    def set_thread_policy(self, thread: Thread, policy: InjectionPolicy) -> None:
        self.table.set_thread_policy(thread.tid, policy)

    def set_default_policy(self, policy: InjectionPolicy) -> None:
        self.table.set_default(policy)

    def exempt(self, thread: Thread) -> None:
        self.table.exempt_thread(thread.tid)
