"""Tests for the state the dispatch path holds instead of re-deriving:
the chip's per-setting speed table, the scheduler's sibling tuples and
its tracer-guarded event hook; and for the runqueue's hand-back, which
lets a decision with one candidate skip the queue."""

import copy
import dataclasses
import random

import pytest

from repro.core import IdleMode, ThermalMigrationPolicy
from repro.cpu import Chip
from repro.cpu.tcc import TccSetting
from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.instruments import SchedulerTracer
from repro.sched import Thread, ThreadState
from repro.sched.runqueue import MultiLevelFeedbackQueue
from repro.sched.ule import UleRunqueue
from repro.workloads import (
    Burst,
    CpuBurn,
    DutyCycledBurn,
    FiniteCpuBurn,
    SyntheticWorkload,
    WebServer,
)


def memory_bound(cpu_fraction, burst=0.03, sleep=0.01):
    """An endless workload of short bursts at ``cpu_fraction``."""
    return SyntheticWorkload(
        items=[Burst(cpu_time=burst, sleep_time=sleep)], repeat=True, cpu_fraction=cpu_fraction
    )


# ----------------------------------------------------------------------
# Speed table
# ----------------------------------------------------------------------
def test_slice_speed_matches_speed_factor_under_every_setting():
    chip = Chip(num_cores=2, smt=2)
    points = chip.dvfs_table.points
    settings = [
        lambda: None,
        lambda: chip.set_operating_point(points[0]),
        lambda: chip.set_tcc(TccSetting(duty=0.5)),
        lambda: chip.set_core_operating_point(1, points[len(points) // 2]),
        lambda: chip.set_core_operating_point(1, None),
        lambda: (chip.set_tcc(TccSetting(duty=1.0)), chip.set_operating_point(points[-1])),
    ]
    for apply in settings:
        apply()
        for core in chip.cores:
            for fraction in (0.0, 0.25, 1.0):
                for contention in (False, True):
                    # Twice: the second read comes from the table.
                    for _ in range(2):
                        assert chip.slice_speed(fraction, core, contention) == chip.speed_factor(
                            fraction, core=core, smt_contention=contention
                        )


class SliceChecker:
    """Scheduler listener: every dispatched slice's speed against a fresh
    :meth:`Chip.speed_factor` of the chip's setting at that instant."""

    def __init__(self, machine):
        self.scheduler = machine.scheduler
        self.chip = machine.chip
        self.checked = 0
        self.contention = set()

    def __call__(self, event):
        if event.kind != "run":
            return
        (slot,) = [
            s
            for s in self.scheduler.slots
            if s.core.index == event.core and s.context == event.context
        ]
        contention = any(
            other.current is not None
            for other in self.scheduler.slots
            if other.core is slot.core and other is not slot
        )
        expected = self.chip.speed_factor(
            slot.current.workload.cpu_fraction, core=slot.core, smt_contention=contention
        )
        assert slot.slice_info[2] == expected
        self.checked += 1
        self.contention.add(contention)


@pytest.mark.parametrize("smt", [1, 2])
def test_speed_table_follows_the_chip_setting_mid_run(smt):
    machine = Machine(fast_config(seed=3).scaled(num_cores=2, smt=smt))
    checker = SliceChecker(machine)
    machine.scheduler.event_listeners.append(checker)
    machine.scheduler.spawn(CpuBurn(), name="burn")
    machine.scheduler.spawn(DutyCycledBurn(0.15, 0.05), name="duty")
    machine.scheduler.spawn(memory_bound(0.3), name="mem")
    machine.control.set_global_policy(0.3, 0.02)

    chip = machine.chip
    points = chip.dvfs_table.points
    changes = [
        lambda: chip.set_operating_point(points[0]),
        lambda: chip.set_tcc(TccSetting(duty=0.625)),
        lambda: chip.set_core_operating_point(1, points[len(points) // 2]),
        lambda: chip.set_core_operating_point(1, None),
        # Back to the first setting: its kept table must still be right.
        lambda: (chip.set_tcc(TccSetting(duty=1.0)), chip.set_operating_point(points[-1])),
    ]
    checked = []
    for change in changes:
        machine.run(0.6)
        checked.append(checker.checked)
        change()
    machine.run(0.6)
    checked.append(checker.checked)

    # Slices ran under every setting, and all were checked.
    assert all(b > a for a, b in zip([0] + checked, checked))
    if smt == 2:
        # Three threads on four contexts: both sibling states occur.
        assert checker.contention == {False, True}
    else:
        assert checker.contention == {False}


def test_cpu_fraction_out_of_range_raises_on_first_dispatch():
    machine = Machine(fast_config())
    machine.scheduler.spawn(memory_bound(0.5))
    machine.run(0.2)  # the speed table now holds entries
    bad = machine.scheduler.spawn(memory_bound(1.5), name="bad")
    with pytest.raises(ConfigurationError, match="cpu_fraction"):
        machine.run(0.2)
    assert bad.stats.scheduled_count == 0


# ----------------------------------------------------------------------
# Sibling tuples
# ----------------------------------------------------------------------
@pytest.mark.parametrize("smt", [1, 2])
def test_siblings_are_the_other_contexts_of_the_core(smt):
    machine = Machine(fast_config().scaled(num_cores=2, smt=smt))
    scheduler = machine.scheduler
    for slot in scheduler.slots:
        expected = [o for o in scheduler.slots if o.core is slot.core and o is not slot]
        assert list(scheduler.siblings(slot)) == expected
        assert scheduler.siblings(slot) is scheduler.siblings(slot)


# ----------------------------------------------------------------------
# Tracer hook
# ----------------------------------------------------------------------
def co_scheduled_run(listen):
    """A small SMT-2 machine co-scheduling Bernoulli-injected idle; returns
    its outcome and, when ``listen``, the tracer that watched it."""
    machine = Machine(fast_config(seed=11).scaled(num_cores=2, smt=2), co_schedule_smt=True)
    tracer = SchedulerTracer()
    if listen:
        machine.scheduler.event_listeners.append(tracer)
    scheduler = machine.scheduler
    threads = [
        scheduler.spawn(CpuBurn(), name="burn"),
        scheduler.spawn(DutyCycledBurn(0.12, 0.08), name="duty"),
        scheduler.spawn(memory_bound(0.4), name="mem"),
        scheduler.spawn(FiniteCpuBurn(0.5), name="finite"),
    ]
    machine.control.set_global_policy(0.35, 0.015)
    machine.run(2.0)
    outcome = (
        dataclasses.asdict(scheduler.stats),
        [dataclasses.asdict(t.stats) for t in threads],
        machine.energy(),
        machine.core_temps.tolist(),
        machine.injector.stats,
    )
    return outcome, tracer


def test_tracing_changes_nothing_and_sees_every_kind():
    quiet, _ = co_scheduled_run(listen=False)
    traced, tracer = co_scheduled_run(listen=True)
    assert traced == quiet
    counts = tracer.counts()
    for kind in ("run", "inject", "inject_end", "slice_end", "idle", "preempt", "exit"):
        assert counts.get(kind, 0) > 0, kind
    stats = quiet[0]
    assert counts["run"] == stats["dispatches"]
    assert counts["preempt"] == stats["forced_preemptions"]


# ----------------------------------------------------------------------
# One candidate: the runqueue's hand-back
# ----------------------------------------------------------------------
def traced_machine(tracer, seed, queue, *, num_cores=2, smt=1, **machine_kwargs):
    config = fast_config(seed=seed).scaled(num_cores=num_cores, smt=smt, scheduler_queue=queue)
    machine = Machine(config, **machine_kwargs)
    machine.scheduler.event_listeners.append(tracer)
    return machine


def spawn_mix(machine, p=0.4, idle_quantum=0.01):
    scheduler = machine.scheduler
    scheduler.spawn(CpuBurn(), name="burn")
    scheduler.spawn(DutyCycledBurn(0.12, 0.08), name="duty")
    scheduler.spawn(memory_bound(0.4), name="mem")
    scheduler.spawn(FiniteCpuBurn(0.6), name="finite")
    machine.control.set_global_policy(p, idle_quantum)


def single_burn(tracer, queue):
    machine = traced_machine(tracer, 5, queue)
    machine.scheduler.spawn(CpuBurn(), name="burn")
    machine.control.set_global_policy(0.5, 0.02)
    machine.run(3.0)
    return machine


def mixed(tracer, queue):
    machine = traced_machine(tracer, 6, queue)
    spawn_mix(machine)
    machine.run(3.0)
    return machine


def affinity(tracer, queue):
    """A pinned thread, then both threads re-pinned mid-slice away from
    the core they run on."""
    machine = traced_machine(tracer, 7, queue)
    scheduler = machine.scheduler
    pinned = scheduler.spawn(CpuBurn(), name="pinned")
    pinned.affinity = 1
    roaming = scheduler.spawn(CpuBurn(), name="roaming")
    scheduler.spawn(DutyCycledBurn(0.05, 0.3), name="duty")
    machine.control.set_global_policy(0.3, 0.015)
    machine.run(1.05)
    moved = 0
    for thread in (pinned, roaming):
        slot = scheduler.running_on(thread)
        if slot is not None:
            # No preempt: the slice ends on a core the thread may not use.
            thread.affinity = 1 - slot.core.index
            moved += 1
    assert moved > 0
    machine.run(2.0)
    return machine


def smt_co_scheduled(tracer, queue):
    machine = traced_machine(tracer, 8, queue, smt=2, co_schedule_smt=True)
    spawn_mix(machine, p=0.35, idle_quantum=0.015)
    machine.run(2.0)
    return machine


def spin(tracer, queue):
    machine = traced_machine(tracer, 9, queue, idle_mode=IdleMode.SPIN)
    spawn_mix(machine)
    machine.run(2.0)
    return machine


def migration(tracer, queue):
    machine = traced_machine(tracer, 10, queue)
    hot = machine.scheduler.spawn(CpuBurn(), name="hot")
    hot.affinity = 0
    machine.scheduler.spawn(memory_bound(0.5), name="mem")
    machine.scheduler.spawn(DutyCycledBurn(0.05, 0.1), name="duty")
    machine.control.set_global_policy(0.3, 0.01)
    policy = ThermalMigrationPolicy(
        machine.sim, machine.scheduler, lambda: machine.core_temps, period=0.5, min_delta=0.05
    )
    machine.run(6.0)
    assert policy.migrations > 0
    return machine


def web(tracer, queue):
    machine = traced_machine(tracer, 12, queue, num_cores=4)
    WebServer(machine.scheduler, machine.rng.stream("web"))
    machine.control.set_global_policy(0.3, 0.01)
    machine.run(3.0)
    return machine


HAND_BACK_SCENARIOS = [single_burn, mixed, affinity, smt_co_scheduled, spin, migration, web]


def traced_outcome(scenario, queue):
    """Run ``scenario`` on a ``queue`` runqueue with a tracer attached and
    return everything the scheduler decided.  Thread ids come from a
    process-wide counter, so events name threads by spawn order."""
    tracer = SchedulerTracer()
    machine = scenario(tracer, queue)
    scheduler = machine.scheduler
    assert tracer.dropped == 0
    order = {thread.tid: i for i, thread in enumerate(scheduler.threads)}
    events = [dataclasses.replace(event, tid=order.get(event.tid)) for event in tracer.events]
    return (
        events,
        dataclasses.asdict(scheduler.stats),
        [dataclasses.asdict(thread.stats) for thread in scheduler.threads],
        dataclasses.asdict(machine.injector.stats),
        getattr(scheduler.runqueue, "steals", None),
        machine.energy(),
        machine.core_temps.tolist(),
    )


@pytest.mark.parametrize("queue", ["bsd", "ule"])
@pytest.mark.parametrize("scenario", HAND_BACK_SCENARIOS, ids=lambda f: f.__name__)
def test_hand_back_equals_the_queue_round_trip(scenario, queue, monkeypatch):
    runqueue_class = {"bsd": MultiLevelFeedbackQueue, "ule": UleRunqueue}[queue]
    answers = []
    hand_back = runqueue_class.hand_back

    def counted(self, thread, core_index):
        answers.append(hand_back(self, thread, core_index))
        return answers[-1]

    monkeypatch.setattr(runqueue_class, "hand_back", counted)
    direct = traced_outcome(scenario, queue)
    # The old path: every decision goes through enqueue and dequeue.
    monkeypatch.setattr(runqueue_class, "hand_back", lambda self, thread, core_index: False)
    queued = traced_outcome(scenario, queue)
    assert direct == queued
    assert any(answers), "no decision took the hand-back"
    if scenario is not single_burn:
        assert not all(answers), "no hand-back was declined"


def queue_state(queue):
    """Everything a runqueue holds, by thread id."""
    if isinstance(queue, UleRunqueue):
        return (
            [([t.tid for t in q.current], [t.tid for t in q.next]) for q in queue._queues],
            sorted(queue._enqueued),
            dict(queue._last_cpu),
            sorted(queue._interactive),
            queue.steals,
        )
    return ([[t.tid for t in level] for level in queue._levels], sorted(queue._enqueued))


def thread_state(thread):
    return (thread.tid, thread.queue_level, thread.affinity, thread.state)


def ready_thread(affinity=None, level=0):
    thread = Thread(CpuBurn())
    thread.state = ThreadState.READY
    thread.affinity = affinity
    thread.queue_level = level
    return thread


@pytest.mark.parametrize("make_queue", [MultiLevelFeedbackQueue, lambda: UleRunqueue(2)])
def test_hand_back_declines_on_a_queued_thread_and_on_a_wrong_affinity(make_queue):
    queue = make_queue()
    other = ready_thread()
    queue.enqueue(other)
    thread = ready_thread()
    before = (queue_state(queue), thread_state(thread))
    assert not queue.hand_back(thread, 0)
    assert (queue_state(queue), thread_state(thread)) == before

    queue = make_queue()
    thread = ready_thread(affinity=1)
    before = (queue_state(queue), thread_state(thread))
    assert not queue.hand_back(thread, 0)
    assert (queue_state(queue), thread_state(thread)) == before
    assert queue.hand_back(thread, 1)


@pytest.mark.parametrize("kind", ["bsd", "ule"])
def test_hand_back_leaves_the_round_trips_state(kind):
    """Random queue histories: whenever ``hand_back`` accepts, the queue
    and thread equal what ``enqueue`` then ``dequeue`` leaves, and that
    dequeue returns the thread; when it declines, nothing changed."""
    rng = random.Random(4)
    accepted = declined = 0
    for _ in range(1000):
        queue = MultiLevelFeedbackQueue(3) if kind == "bsd" else UleRunqueue(3)
        threads = [ready_thread(level=rng.randrange(-1, 5)) for _ in range(4)]
        for thread in threads:
            thread.affinity = rng.choice([None, None, 0, 1, 2, 4])
        queued = set()
        for _ in range(rng.randrange(0, 12)):
            thread = rng.choice(threads)
            op = rng.random()
            if thread.tid not in queued and op < 0.5:
                queue.enqueue(thread)
                queued.add(thread.tid)
            elif op < 0.7:
                popped = queue.dequeue(rng.randrange(0, 4))
                if popped is not None:
                    queued.discard(popped.tid)
            elif op < 0.85:
                queue.on_wakeup(thread)
            else:
                queue.on_quantum_expired(thread)
        candidates = [t for t in threads if t.tid not in queued]
        if not candidates:
            continue
        thread = rng.choice(candidates)
        core = rng.randrange(0, 4)
        shortcut = copy.deepcopy((queue, thread))
        queue.enqueue(thread)
        expected = queue.dequeue(core)
        before = (queue_state(shortcut[0]), thread_state(shortcut[1]))
        if shortcut[0].hand_back(shortcut[1], core):
            accepted += 1
            assert expected is thread
            assert queue_state(shortcut[0]) == queue_state(queue)
            assert thread_state(shortcut[1]) == thread_state(thread)
        else:
            declined += 1
            assert (queue_state(shortcut[0]), thread_state(shortcut[1])) == before
    assert accepted > 20 and declined > 20
