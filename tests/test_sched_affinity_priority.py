"""Tests for CPU affinity, priority-scaled policies, and per-core DVFS."""

import pytest

from repro.cpu import CState
from repro.experiments import Machine, fast_config
from repro.workloads import CpuBurn, FiniteCpuBurn


# ----------------------------------------------------------------------
# Affinity
# ----------------------------------------------------------------------
def test_affine_thread_runs_only_on_its_core():
    machine = Machine(fast_config())
    thread = machine.scheduler.spawn(CpuBurn(), name="pinned")
    thread.affinity = 2
    seen_cores = set()
    machine.scheduler.event_listeners.append(
        lambda e: seen_cores.add(e.core) if e.kind == "run" and e.tid == thread.tid else None
    )
    machine.run(3.0)
    assert seen_cores == {2}


def test_unaffine_threads_fill_other_cores():
    machine = Machine(fast_config())
    pinned = machine.scheduler.spawn(CpuBurn())
    pinned.affinity = 0
    others = [machine.scheduler.spawn(FiniteCpuBurn(1.0)) for _ in range(3)]
    machine.run(2.0)
    # The three free threads finished in parallel on cores 1-3.
    assert all(t.stats.exit_time < 1.05 for t in others)


def test_affinity_to_busy_core_waits():
    machine = Machine(fast_config())
    hog = machine.scheduler.spawn(CpuBurn())
    hog.affinity = 0
    late = machine.scheduler.spawn(FiniteCpuBurn(0.5), name="late")
    late.affinity = 0
    machine.run(3.0)
    # Both share core 0: the finite thread takes ~2x its work to finish.
    assert late.stats.exit_time is None or late.stats.exit_time > 0.9
    # Core 0 executed for the whole run; cores 1-3 never ran anything.
    assert machine.chip.cores[0].residency.get(CState.C0) == pytest.approx(3.0)
    for core in machine.chip.cores[1:]:
        assert core.residency.get(CState.C0) == 0.0


# ----------------------------------------------------------------------
# Priority-scaled policies
# ----------------------------------------------------------------------
def test_priority_scaling_maps_nice_to_p():
    machine = Machine(fast_config())
    low = machine.scheduler.spawn(CpuBurn(), name="background")
    low.nice = 19
    normal = machine.scheduler.spawn(CpuBurn(), name="normal")
    high = machine.scheduler.spawn(CpuBurn(), name="critical")
    high.nice = -19
    machine.control.apply_priority_scaled_policy(
        [low, normal, high], base_p=0.4, idle_quantum=0.01, deterministic=True
    )
    table = machine.injector.table
    p_low = table.lookup(low.tid).p
    p_norm = table.lookup(normal.tid).p
    p_high = table.lookup(high.tid).p
    assert p_low > p_norm > p_high
    assert p_norm == pytest.approx(0.4)
    assert p_low <= 0.97


def test_priority_scaling_behavioural():
    machine = Machine(fast_config())
    background = machine.scheduler.spawn(FiniteCpuBurn(0.5), name="bg")
    background.nice = 19
    critical = machine.scheduler.spawn(FiniteCpuBurn(0.5), name="crit")
    critical.nice = -19
    machine.control.apply_priority_scaled_policy(
        [background, critical], base_p=0.5, idle_quantum=0.05, deterministic=True
    )
    while any(t.alive for t in (background, critical)) and machine.now < 30:
        machine.run(0.5)
    assert critical.stats.exit_time < background.stats.exit_time
    assert critical.stats.injected_count < background.stats.injected_count


# ----------------------------------------------------------------------
# Per-core DVFS vs per-thread injection (the §2.1 comparison)
# ----------------------------------------------------------------------
def test_per_core_dvfs_slows_only_that_core():
    machine = Machine(fast_config())
    slow = machine.scheduler.spawn(FiniteCpuBurn(1.0), name="slowed")
    slow.affinity = 0
    fast = machine.scheduler.spawn(FiniteCpuBurn(1.0), name="fast")
    fast.affinity = 1
    machine.chip.set_core_operating_point(0, machine.chip.dvfs_table.min_point)
    machine.run(3.0)
    assert fast.stats.exit_time == pytest.approx(1.0, abs=0.02)
    assert slow.stats.exit_time == pytest.approx(1.0 / 0.708, abs=0.05)


def test_per_core_dvfs_cools_like_per_thread_injection():
    """Hypothetical per-core DVFS and per-thread injection both spare
    the co-located cool thread; injection needs no special hardware."""

    def run(mode):
        machine = Machine(fast_config())
        hot = machine.scheduler.spawn(CpuBurn(), name="hot")
        hot.affinity = 0
        cool = machine.scheduler.spawn(FiniteCpuBurn(20.0), name="cool")
        cool.affinity = 1
        if mode == "dvfs":
            machine.chip.set_core_operating_point(0, machine.chip.dvfs_table.min_point)
        elif mode == "inject":
            machine.control.set_thread_policy(hot, 0.6, 0.025, deterministic=True)
        machine.run(60.0)
        return machine.mean_core_temp_over_window(10.0), cool.stats.work_done

    base_temp, base_cool = run("none")
    dvfs_temp, dvfs_cool = run("dvfs")
    inject_temp, inject_cool = run("inject")
    # Both techniques cool the system...
    assert dvfs_temp < base_temp - 0.5
    assert inject_temp < base_temp - 0.5
    # ...while the cool thread's progress is untouched in all runs.
    assert dvfs_cool == pytest.approx(base_cool, rel=0.01)
    assert inject_cool == pytest.approx(base_cool, rel=0.01)
