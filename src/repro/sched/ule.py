"""A ULE-flavoured runqueue: per-CPU queues with work stealing.

The paper modified the 4.4BSD scheduler "for simplicity of
implementation, however the mechanism generalizes to ULE and other
schedulers" (§3.1 footnote).  This module backs that claim with code:
:class:`UleRunqueue` is a drop-in replacement for the global MLFQ that
mirrors ULE's architecture —

- a runqueue *per CPU* (cache affinity: a thread is re-enqueued on the
  CPU it last ran on),
- *current*/*next* queue pairs per CPU: wakers (interactive threads)
  join the current queue and are dispatched before batch threads, which
  drop to the next queue on quantum expiry and swap in when current
  drains,
- *work stealing*: an idle CPU with an empty queue pulls from the most
  loaded one (respecting affinity).

The Dimetrodon hook lives in the dispatcher, not the queue, so idle
injection works unchanged on top — which is exactly the generality the
paper asserts, and what ``tests/test_sched_ule.py`` verifies against
the analytical model.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from ..errors import SchedulerError
from .thread import Thread, ThreadState


class _CpuQueue:
    """One CPU's current/next queue pair."""

    def __init__(self) -> None:
        self.current: Deque[Thread] = deque()
        self.next: Deque[Thread] = deque()

    def __len__(self) -> int:
        return len(self.current) + len(self.next)

    def push(self, thread: Thread, *, interactive: bool) -> None:
        (self.current if interactive else self.next).append(thread)

    def pop(self) -> Optional[Thread]:
        if not self.current and self.next:
            # Queue swap: the batch backlog becomes the current queue.
            self.current, self.next = self.next, self.current
        if self.current:
            return self.current.popleft()
        return None

    def remove(self, thread: Thread) -> bool:
        for queue in (self.current, self.next):
            try:
                queue.remove(thread)
                return True
            except ValueError:
                continue
        return False

    def peek_all(self) -> Iterator[Thread]:
        yield from self.current
        yield from self.next


class UleRunqueue:
    """Per-CPU queues with affinity-aware placement and stealing.

    Implements the same protocol as
    :class:`~repro.sched.runqueue.MultiLevelFeedbackQueue` (``enqueue``,
    ``dequeue(core_index)``, ``hand_back(thread, core_index)``,
    ``remove``, ``on_quantum_expired``, ``on_wakeup``, containment/len),
    so the scheduler can use either.  ``hand_back`` accepts only when
    every CPU queue is empty and the thread would be placed on, and
    popped from, CPU ``core_index % num_cores`` itself, so the round
    trip it skips would have stolen nothing.
    """

    def __init__(self, num_cores: int = 4):
        if num_cores < 1:
            raise SchedulerError("ULE runqueue needs at least one CPU")
        self.num_cores = num_cores
        self._queues: List[_CpuQueue] = [_CpuQueue() for _ in range(num_cores)]
        self._enqueued: set = set()
        #: Last CPU each thread ran on / was queued to (cache affinity).
        self._last_cpu: Dict[int, int] = {}
        #: Threads flagged interactive by a recent wakeup.
        self._interactive: set = set()
        self.steals = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._enqueued)

    def __contains__(self, thread: Thread) -> bool:
        return thread.tid in self._enqueued

    def __iter__(self) -> Iterator[Thread]:
        for queue in self._queues:
            yield from queue.peek_all()

    # ------------------------------------------------------------------
    def _placement(self, thread: Thread) -> int:
        if thread.affinity is not None:
            return thread.affinity % self.num_cores
        home = self._last_cpu.get(thread.tid)
        if home is None:
            return min(range(self.num_cores), key=lambda c: len(self._queues[c]))
        # Mild balancing: abandon the home CPU if it is clearly busier.
        least = min(range(self.num_cores), key=lambda c: len(self._queues[c]))
        if len(self._queues[home]) > len(self._queues[least]) + 1:
            return least
        return home

    def enqueue(self, thread: Thread) -> None:
        if thread.state is not ThreadState.READY:
            raise SchedulerError(
                f"cannot enqueue {thread.name} in state {thread.state.value}"
            )
        if thread.tid in self._enqueued:
            raise SchedulerError(f"thread {thread.name} is already enqueued")
        cpu = self._placement(thread)
        interactive = thread.tid in self._interactive
        self._interactive.discard(thread.tid)
        self._queues[cpu].push(thread, interactive=interactive)
        self._last_cpu[thread.tid] = cpu
        self._enqueued.add(thread.tid)

    def dequeue(self, core_index: Optional[int] = None) -> Optional[Thread]:
        if core_index is None:
            core_index = 0
        core_index %= self.num_cores
        thread = self._pop_eligible(core_index, core_index)
        if thread is None:
            # Steal from the most loaded CPU with an eligible thread.
            order = sorted(
                (c for c in range(self.num_cores) if c != core_index),
                key=lambda c: -len(self._queues[c]),
            )
            for victim in order:
                thread = self._pop_eligible(victim, core_index)
                if thread is not None:
                    self.steals += 1
                    break
        if thread is not None:
            self._enqueued.discard(thread.tid)
            self._last_cpu[thread.tid] = core_index
        return thread

    def hand_back(self, thread: Thread, core_index: int) -> bool:
        """True when ``enqueue(thread)`` then ``dequeue(core_index)``
        would return ``thread`` from its own CPU's queue; applies their
        side effects (the interactive flag is spent, the thread's last
        CPU is ``core_index % num_cores``)."""
        if self._enqueued:
            return False
        cpu = core_index % self.num_cores
        affinity = thread.affinity
        if affinity is None:
            if self._last_cpu.get(thread.tid) != cpu:
                return False
        elif affinity != cpu:
            return False
        self._interactive.discard(thread.tid)
        self._last_cpu[thread.tid] = cpu
        return True

    def _pop_eligible(self, cpu: int, running_on: int) -> Optional[Thread]:
        queue = self._queues[cpu]
        # Fast path: pop respecting affinity; skip ineligible threads.
        skipped: List[Thread] = []
        result: Optional[Thread] = None
        while True:
            thread = queue.pop()
            if thread is None:
                break
            if thread.affinity is not None and thread.affinity != running_on:
                skipped.append(thread)
                continue
            result = thread
            break
        for thread in skipped:  # put ineligible threads back in order
            queue.push(thread, interactive=False)
        return result

    def remove(self, thread: Thread) -> bool:
        if thread.tid not in self._enqueued:
            return False
        for queue in self._queues:
            if queue.remove(thread):
                self._enqueued.discard(thread.tid)
                return True
        raise SchedulerError(f"queue bookkeeping corrupt for {thread.name}")

    # ------------------------------------------------------------------
    # Feedback hooks (protocol-compatible with the MLFQ)
    # ------------------------------------------------------------------
    def on_quantum_expired(self, thread: Thread) -> None:
        """CPU hogs are batch: they join the *next* queue on requeue."""
        self._interactive.discard(thread.tid)

    def on_wakeup(self, thread: Thread) -> None:
        """Sleepers/blockers are interactive: current queue on requeue."""
        self._interactive.add(thread.tid)
