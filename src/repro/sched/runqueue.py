"""A 4.4BSD-flavoured multi-level feedback runqueue.

The paper modified the FreeBSD 7.2 4.4BSD scheduler: a multi-level
feedback queue with a fixed 100 ms timeslice.  We keep the essential
dynamics — CPU hogs drift to lower priority levels, threads that sleep
or block get boosted back to the top on wake-up — with a global queue
shared by all cores (as in 4.4BSD).

The queue holds only READY threads.  PINNED threads (idle-injected) are
*off* the queue entirely, which is exactly the paper's mechanism: "we
pin the thread that would have run on the runqueue (so it is not run by
another processor)".

The scheduler drives a runqueue through ``enqueue``, ``dequeue``,
``remove``, the feedback hooks ``on_quantum_expired`` and
``on_wakeup``, and ``hand_back``.  ``hand_back(thread, core_index)``
is the one-candidate shortcut: when the thread a core just gave up
would come straight back out of ``enqueue`` followed by
``dequeue(core_index)``, it applies exactly those two calls' side
effects and returns True, so the scheduler decides on the thread
without queueing it; otherwise it changes nothing and returns False.
:class:`~repro.sched.ule.UleRunqueue` implements the same protocol.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from ..errors import SchedulerError
from .thread import Thread, ThreadState


class MultiLevelFeedbackQueue:
    """Global runqueue with ``num_levels`` priority levels."""

    def __init__(self, num_levels: int = 4):
        if num_levels < 1:
            raise SchedulerError("runqueue needs at least one level")
        self.num_levels = num_levels
        self._levels: List[Deque[Thread]] = [deque() for _ in range(num_levels)]
        self._enqueued: set = set()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._enqueued)

    def __contains__(self, thread: Thread) -> bool:
        return thread.tid in self._enqueued

    def __iter__(self) -> Iterator[Thread]:
        for level in self._levels:
            yield from level

    # ------------------------------------------------------------------
    def enqueue(self, thread: Thread) -> None:
        """Add a READY thread at its current level (at the tail)."""
        if thread.state is not ThreadState.READY:
            raise SchedulerError(
                f"cannot enqueue {thread.name} in state {thread.state.value}"
            )
        if thread.tid in self._enqueued:
            raise SchedulerError(f"thread {thread.name} is already enqueued")
        level = min(max(thread.queue_level, 0), self.num_levels - 1)
        thread.queue_level = level
        self._levels[level].append(thread)
        self._enqueued.add(thread.tid)

    def dequeue(self, core_index: Optional[int] = None) -> Optional[Thread]:
        """Pop the highest-priority eligible thread (RR within a level).

        When ``core_index`` is given, threads pinned to a different
        core by their CPU affinity are skipped.
        """
        for level in self._levels:
            for thread in level:
                if (
                    core_index is not None
                    and thread.affinity is not None
                    and thread.affinity != core_index
                ):
                    continue
                level.remove(thread)
                self._enqueued.discard(thread.tid)
                return thread
        return None

    def remove(self, thread: Thread) -> bool:
        """Remove a specific thread; returns True if it was queued."""
        if thread.tid not in self._enqueued:
            return False
        for level in self._levels:
            try:
                level.remove(thread)
            except ValueError:
                continue
            self._enqueued.discard(thread.tid)
            return True
        raise SchedulerError(f"queue bookkeeping corrupt for {thread.name}")

    def hand_back(self, thread: Thread, core_index: int) -> bool:
        """Return ``thread`` to core ``core_index`` without queueing it.

        True when ``enqueue(thread)`` followed by ``dequeue(core_index)``
        would return ``thread``: the queue is empty and the thread's
        affinity allows the core.  The level clamp ``enqueue`` applies is
        then the only side effect.
        """
        if self._enqueued:
            return False
        if thread.affinity is not None and thread.affinity != core_index:
            return False
        thread.queue_level = min(max(thread.queue_level, 0), self.num_levels - 1)
        return True

    # ------------------------------------------------------------------
    # Feedback rules
    # ------------------------------------------------------------------
    def on_quantum_expired(self, thread: Thread) -> None:
        """A thread that burned its full quantum drifts down one level."""
        thread.queue_level = min(thread.queue_level + 1, self.num_levels - 1)

    def on_wakeup(self, thread: Thread) -> None:
        """A thread that slept or blocked is boosted back to the top."""
        thread.queue_level = 0
