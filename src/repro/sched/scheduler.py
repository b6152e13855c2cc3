"""The CPU scheduler: per-core dispatch with the Dimetrodon hook.

This reproduces the structure of the paper's modified FreeBSD 4.4BSD
scheduler (§3.1):

- a global multi-level feedback runqueue with a fixed 100 ms timeslice,
- per-core dispatch: when a core needs work it pulls the
  highest-priority READY thread,
- **the Dimetrodon hook**: before dispatching the selected thread, the
  injector is consulted; if it orders an idle quantum, the thread is
  *pinned* (held off the runqueue so no other core runs it) and the
  core runs the kernel idle thread for ``L`` seconds, after which the
  thread is unpinned and made runnable again,
- context-switch and idle-state wake-up costs are charged on every
  dispatch, which is what makes measured throughput land slightly below
  the analytical model (§3.3 reports ≈1 %).

The scheduler only mutates chip core states and schedules events; all
power/thermal integration happens lazily in the machine model (see
:mod:`repro.fleet.machine`), so scheduler logic stays exact regardless
of thermal substeps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..cpu.chip import Chip, Core
from ..errors import SchedulerError
from ..instruments.trace import SchedEvent
from ..sim.engine import Event, Simulator
from ..telemetry.registry import registry as _metrics_registry
from .runqueue import MultiLevelFeedbackQueue
from .thread import Thread, ThreadState

if False:  # pragma: no cover - import cycle breaker, type hints only
    from ..core.injector import IdleInjector

#: Tolerance for "this burst is finished" comparisons, in work-seconds.
_WORK_EPSILON = 1e-12


class IdleMode(enum.Enum):
    """What the core does during an injected idle quantum (§2.1): halt
    into the platform's idle states, or spin in a nop loop.  The
    injector (:mod:`repro.core.injector`) chooses the mode; the
    scheduler carries it out."""

    HALT = "halt"
    SPIN = "spin"


@dataclass
class CoreSlot:
    """Scheduler-side state for one hardware thread context.

    With SMT disabled (the paper's configuration, §3.2) there is one
    slot per core; with SMT enabled each core contributes ``smt`` slots
    that share its thermal/power state.
    """

    core: Core
    context: int = 0
    current: Optional[Thread] = None
    #: True while an injected idle quantum occupies this context.
    injected: bool = False
    #: True while the context is naturally idle (empty runqueue).
    idle: bool = False
    slice_end: Optional[Event] = None
    #: (start, exec_wall, speed, overhead) of the running slice.
    slice_info: tuple = (0.0, 0.0, 1.0, 0.0)
    #: The other contexts of this slot's core, set once by the
    #: :class:`Scheduler` that owns the slot (empty with SMT off).
    siblings: Tuple["CoreSlot", ...] = field(default=(), repr=False, compare=False)


@dataclass
class SchedulerStats:
    """Aggregate dispatch statistics."""

    dispatches: int = 0
    injected_quanta: int = 0
    natural_idle_entries: int = 0
    #: Sibling contexts preempted to co-schedule an idle quantum (SMT).
    co_scheduled_idles: int = 0
    #: Threads preempted mid-slice (SMT co-scheduling or termination).
    forced_preemptions: int = 0


class Scheduler:
    """Dispatches threads onto cores; hosts the Dimetrodon hook."""

    def __init__(
        self,
        sim: Simulator,
        chip: Chip,
        *,
        quantum: float = 0.100,
        context_switch_cost: float = 30e-6,
        injector: Optional["IdleInjector"] = None,
        runqueue: Optional[MultiLevelFeedbackQueue] = None,
    ):
        if quantum <= 0:
            raise SchedulerError(f"quantum must be positive, got {quantum}")
        if context_switch_cost < 0:
            raise SchedulerError("context switch cost cannot be negative")
        self.sim = sim
        self.chip = chip
        self.quantum = quantum
        self.context_switch_cost = context_switch_cost
        self.injector = injector
        # Note: an empty runqueue is falsy, so test identity, not truth.
        self.runqueue = runqueue if runqueue is not None else MultiLevelFeedbackQueue()
        self.slots: List[CoreSlot] = [
            CoreSlot(core=core, context=context)
            for core in chip.cores
            for context in range(core.smt)
        ]
        for slot in self.slots:
            slot.siblings = tuple(
                other
                for other in self.slots
                if other.core is slot.core and other.context != slot.context
            )
        self.threads: List[Thread] = []
        self.stats = SchedulerStats()
        scope = _metrics_registry().scope("sched.scheduler")
        self._metric_dispatches = scope.counter("dispatches")
        self._metric_injected_quanta = scope.counter("injected_quanta")
        self._metric_preemptions = scope.counter("forced_preemptions")
        #: Callbacks fired as ``callback(thread, now)`` when a thread exits.
        self.exit_listeners: List[Callable[[Thread, float], None]] = []
        #: Structured-event listeners (see repro.instruments.trace).
        self.event_listeners: List[Callable[..., None]] = []
        self._started = False

    def _emit(
        self, kind: str, slot: Optional[CoreSlot] = None, thread: Optional[Thread] = None
    ) -> None:
        """Publish a scheduler event to the attached tracers.

        Every call site tests :attr:`event_listeners` first, so an
        untraced dispatch builds no event."""
        event = SchedEvent(
            time=self.sim.now,
            kind=kind,
            core=slot.core.index if slot else None,
            context=slot.context if slot else None,
            tid=thread.tid if thread else None,
            thread=thread.name if thread else None,
        )
        for listener in self.event_listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark all cores idle at the current time. Call once, before run."""
        if self._started:
            raise SchedulerError("scheduler already started")
        self._started = True
        now = self.sim.now
        for slot in self.slots:
            slot.idle = True
            slot.core.set_context_idle(slot.context, now)

    def siblings(self, slot: CoreSlot) -> Tuple[CoreSlot, ...]:
        """The other hardware contexts sharing ``slot``'s core."""
        return slot.siblings

    def add_thread(self, thread: Thread, *, start_at: float = 0.0) -> Thread:
        """Register a thread; it becomes runnable at ``start_at``."""
        if thread.state is not ThreadState.NEW or thread in self.threads:
            raise SchedulerError(f"thread {thread.name} was already added")
        self.threads.append(thread)
        self.sim.schedule_at(max(start_at, self.sim.now), self._thread_start, thread)
        return thread

    def spawn(self, workload, **thread_kwargs) -> Thread:
        """Convenience: build a thread around ``workload`` and add it."""
        thread = Thread(workload, **thread_kwargs)
        return self.add_thread(thread)

    # ------------------------------------------------------------------
    # Public control
    # ------------------------------------------------------------------
    def wake(self, thread: Thread) -> None:
        """Wake a BLOCKED thread (used by request queues etc.)."""
        if thread.state is not ThreadState.BLOCKED:
            return
        if self.event_listeners:
            self._emit("wake", None, thread)
        self.runqueue.on_wakeup(thread)
        self._load_and_queue(thread)

    def preempt(self, thread: Thread) -> bool:
        """Forcibly preempt a RUNNING thread mid-slice.

        Partial progress is accounted and the thread goes back on the
        runqueue READY (it may be re-dispatched anywhere its affinity
        allows).  Returns True if the thread was actually running.
        Used by migration policies and SMT co-scheduling.
        """
        for slot in self.slots:
            if slot.current is thread:
                self._preempt(slot)
                self._dispatch(slot)
                return True
        return False

    def running_on(self, thread: Thread) -> Optional[CoreSlot]:
        """The slot currently executing ``thread``, if any."""
        for slot in self.slots:
            if slot.current is thread:
                return slot
        return None

    def terminate(self, thread: Thread) -> None:
        """Kill a thread (the moral equivalent of SIGKILL).

        A RUNNING thread finishes its current slice first (the kernel
        can only act at the next scheduling point); every other state
        exits immediately.  Idempotent.
        """
        if not thread.alive:
            return
        if thread.state is ThreadState.RUNNING:
            thread.terminate_requested = True
            return
        if thread.state is ThreadState.READY:
            self.runqueue.remove(thread)
        # SLEEPING / BLOCKED / PINNED / NEW: their pending events check
        # the state before re-queuing, so marking EXITED suffices.
        self._exit_thread(thread)

    def _exit_thread(self, thread: Thread) -> None:
        if self.event_listeners:
            self._emit("exit", None, thread)
        thread.state = ThreadState.EXITED
        thread.stats.exit_time = self.sim.now
        for listener in self.exit_listeners:
            listener(thread, self.sim.now)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------
    def _thread_start(self, thread: Thread) -> None:
        self._load_and_queue(thread)

    def _load_and_queue(self, thread: Thread) -> None:
        """Fetch the thread's next burst and queue/block/exit accordingly."""
        action = thread.advance_burst()
        if action == "exit":
            self._exit_thread(thread)
            return
        if action == "block":
            thread.state = ThreadState.BLOCKED
            return
        thread.state = ThreadState.READY
        self.runqueue.enqueue(thread)
        self._kick_idle_cores()

    def _timed_wake(self, thread: Thread) -> None:
        if thread.state is not ThreadState.SLEEPING:
            return
        self.runqueue.on_wakeup(thread)
        self._load_and_queue(thread)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _kick_idle_cores(self) -> None:
        """Give newly-runnable work to idle (but not injected) cores.

        Only a dispatch changes the runqueue, so emptiness is tested on
        entry and after each dispatch."""
        runqueue = self.runqueue
        if not runqueue:
            return
        for slot in self.slots:
            if slot.current is None and not slot.injected:
                self._dispatch(slot)
                if not runqueue:
                    return

    def _dispatch(self, slot: CoreSlot) -> None:
        """Pick the next thread for ``slot`` and :meth:`_decide` on it.

        A slot that gives up a thread which is the queue's only
        candidate for it (a quantum expiry in :meth:`_end_slice`, an
        unpinning in :meth:`_end_injection`) skips this: the runqueue's
        ``hand_back`` confirms the dequeue would return that thread and
        the decision is taken on it directly."""
        if slot.current is not None or slot.injected:
            return
        thread = self.runqueue.dequeue(core_index=slot.core.index)
        if thread is None:
            # Natural idle: the context halts until work is kicked to it.
            if not slot.idle:
                slot.idle = True
                slot.core.set_context_idle(slot.context, self.sim.now)
                self.stats.natural_idle_entries += 1
                if self.event_listeners:
                    self._emit("idle", slot)
            return
        self._decide(slot, thread)

    def _decide(self, slot: CoreSlot, thread: Thread) -> None:
        """The Dimetrodon hook: consult the injector about the thread
        chosen for ``slot``, then inject idle or run it."""
        decision = self.injector.decide(thread, self.sim.now) if self.injector else None
        if decision is not None:
            self._inject_idle(slot, thread, decision)
        else:
            self._run_thread(slot, thread)

    def _inject_idle(self, slot: CoreSlot, thread: Thread, decision) -> None:
        """Pin the chosen thread and run the idle thread for L seconds."""
        now = self.sim.now
        thread.state = ThreadState.PINNED
        thread.stats.injected_count += 1
        thread.stats.injected_time += decision.length
        self.stats.injected_quanta += 1
        self._metric_injected_quanta.value += 1
        slot.injected = True
        slot.idle = False
        if self.event_listeners:
            self._emit("inject", slot, thread)
        if decision.mode is IdleMode.SPIN:
            # Nop loop: the context stays in C0 at low switching activity.
            nop = self.chip.power_model.params.nop_loop_fraction
            slot.core.set_context_running(slot.context, None, nop, now)
        else:
            # The scheduler knows this idle period lasts L: hinted idle.
            slot.core.set_context_idle(slot.context, now, hinted=True)
            if decision.co_schedule and slot.core.smt > 1:
                self._co_schedule_idle(slot, decision.length)
        self.sim.schedule(decision.length, self._end_injection, slot, thread)

    def _co_schedule_idle(self, slot: CoreSlot, length: float) -> None:
        """Idle the sibling hardware contexts for the same quantum.

        §3.2: "In order to cause the entire core to enter the C1E low
        power state we need to halt all thread contexts on the core.
        This is feasible but requires additional care in co-scheduling
        idle quanta" — this is that care.  A sibling that is running is
        preempted mid-slice (its partial progress is accounted) and its
        thread goes back on the runqueue, NOT pinned: only the thread
        that triggered the injection absorbs the policy's slowdown.
        """
        now = self.sim.now
        for sibling in slot.siblings:
            if sibling.injected:
                continue  # already idling for its own quantum
            # Mark injected *before* preempting so the requeue kick
            # cannot immediately re-dispatch onto this context.
            sibling.injected = True
            sibling.idle = False
            if sibling.current is not None:
                self._preempt(sibling)
            sibling.core.set_context_idle(sibling.context, now, hinted=True)
            self.stats.co_scheduled_idles += 1
            self.sim.schedule(length, self._end_injection, sibling, None)

    def _preempt(self, slot: CoreSlot) -> None:
        """Stop the running slice immediately, accounting partial work."""
        thread = slot.current
        if thread is None:
            return
        now = self.sim.now
        start, exec_wall, speed, overhead = slot.slice_info
        elapsed_exec = max(0.0, now - start - overhead)
        progress = min(elapsed_exec, exec_wall) * speed
        if slot.slice_end is not None:
            slot.slice_end.cancel()
        slot.current = None
        slot.slice_end = None
        thread.stats.cpu_wall_time += min(now - start, overhead + exec_wall)
        thread.stats.work_done += progress
        thread.remaining_work -= progress
        self.stats.forced_preemptions += 1
        self._metric_preemptions.value += 1
        if self.event_listeners:
            self._emit("preempt", slot, thread)

        if thread.terminate_requested:
            self._exit_thread(thread)
        elif thread.remaining_work <= _WORK_EPSILON:
            self._finish_burst(thread)
        else:
            thread.state = ThreadState.READY
            self.runqueue.enqueue(thread)
            self._kick_idle_cores()

    def _end_injection(self, slot: CoreSlot, thread: Optional[Thread]) -> None:
        """Unpin the thread and make it runnable again (§3.1).

        ``thread`` is None for a co-scheduled sibling context, which
        merely idled and has nothing to unpin.
        """
        slot.injected = False
        if self.event_listeners:
            self._emit("inject_end", slot, thread)
        if thread is not None and thread.state is ThreadState.PINNED:
            thread.state = ThreadState.READY
            if self.runqueue.hand_back(thread, slot.core.index):
                self._decide(slot, thread)
            else:
                self.runqueue.enqueue(thread)
                self._dispatch(slot)
        else:
            self._dispatch(slot)
        # The unpinned thread may have been picked up by this core; if
        # not, offer it to any other idle core.
        self._kick_idle_cores()

    def _run_thread(self, slot: CoreSlot, thread: Thread) -> None:
        now = self.sim.now
        if thread.remaining_work <= _WORK_EPSILON:
            raise SchedulerError(f"dispatching {thread.name} with no work")
        core = slot.core
        overhead = self.context_switch_cost + core.wake_latency(now)
        siblings = slot.siblings
        contention = False
        if siblings:
            contention = any(s.current is not None for s in siblings)
        speed = self.chip.slice_speed(thread.workload.cpu_fraction, core, contention)
        exec_wall = min(self.quantum, thread.remaining_work / speed)

        thread.state = ThreadState.RUNNING
        thread.stats.scheduled_count += 1
        if thread.stats.first_run is None:
            thread.stats.first_run = now
        self.stats.dispatches += 1
        self._metric_dispatches.value += 1

        slot.current = thread
        slot.idle = False
        slot.slice_info = (now, exec_wall, speed, overhead)
        core.set_context_running(slot.context, thread, thread.workload.activity, now)
        if self.event_listeners:
            self._emit("run", slot, thread)
        slot.slice_end = self.sim.schedule(overhead + exec_wall, self._end_slice, slot)

    def _end_slice(self, slot: CoreSlot) -> None:
        now = self.sim.now
        thread = slot.current
        if thread is None:
            raise SchedulerError("slice ended on an empty core")
        _start, exec_wall, speed, overhead = slot.slice_info
        slot.current = None
        slot.slice_end = None
        if self.event_listeners:
            self._emit("slice_end", slot, thread)

        progress = exec_wall * speed
        thread.stats.cpu_wall_time += overhead + exec_wall
        thread.stats.work_done += progress
        thread.remaining_work -= progress

        if thread.terminate_requested:
            self._exit_thread(thread)
            self._dispatch(slot)
            return

        if thread.remaining_work <= _WORK_EPSILON:
            self._finish_burst(thread)
        else:
            # Quantum expired: feedback-penalise and requeue.
            thread.stats.preemptions += 1
            runqueue = self.runqueue
            runqueue.on_quantum_expired(thread)
            thread.state = ThreadState.READY
            if runqueue.hand_back(thread, slot.core.index):
                self._decide(slot, thread)
                return
            runqueue.enqueue(thread)
        self._dispatch(slot)

    def _finish_burst(self, thread: Thread) -> None:
        """Complete the current burst and route to sleep/next/exit."""
        burst = thread.complete_burst(self.sim.now)
        if burst.sleep_time > 0:
            thread.state = ThreadState.SLEEPING
            self.sim.schedule(burst.sleep_time, self._timed_wake, thread)
        else:
            self._load_and_queue(thread)
