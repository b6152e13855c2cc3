"""Tests for the state the dispatch path holds instead of re-deriving:
the chip's per-setting speed table, the scheduler's sibling tuples and
its tracer-guarded event hook."""

import dataclasses

import pytest

from repro.cpu import Chip
from repro.cpu.tcc import TccSetting
from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.instruments import SchedulerTracer
from repro.workloads import Burst, CpuBurn, DutyCycledBurn, FiniteCpuBurn, SyntheticWorkload


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
