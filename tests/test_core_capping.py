"""Tests for idle-injection power capping."""

import pytest

from repro.core import PowerCapController
from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.fleet import FleetMachine
from repro.workloads import CpuBurn


def build(machine, cap, **kwargs):
    return PowerCapController(
        machine.sim,
        machine.control,
        machine.powermeter,
        cap_watts=cap,
        **kwargs,
    )


def test_validation():
    machine = Machine(fast_config())
    with pytest.raises(ConfigurationError):
        build(machine, 0.0)
    with pytest.raises(ConfigurationError):
        build(machine, 50.0, idle_quantum=0.0)


def test_cap_is_enforced_under_full_load():
    machine = Machine(fast_config())
    for _ in range(4):
        machine.scheduler.spawn(CpuBurn())
    # Unconstrained package power is ~65-75 W; cap at 45 W.
    controller = build(machine, 45.0, idle_quantum=0.01)
    machine.run(100.0)
    assert controller.compliance(tolerance=2.0, skip=40) > 0.9
    assert 38.0 < controller.mean_power(skip=40) < 47.0
    assert controller.p > 0.1


def test_cap_is_enforced_on_a_fleet_node():
    """A fleet node's meter integrates pending physics before every
    read, so the controller sees whole windows and holds the cap."""
    fleet = FleetMachine([fast_config()])
    node = fleet.nodes[0]
    for _ in range(4):
        node.scheduler.spawn(CpuBurn())
    controller = PowerCapController(
        node.sim, node.control, node.powermeter, cap_watts=45.0, idle_quantum=0.01
    )
    fleet.run(100.0)
    assert controller.compliance(tolerance=2.0, skip=40) > 0.9
    assert 38.0 < controller.mean_power(skip=40) < 47.0
    assert controller.p > 0.1


def test_cap_inactive_when_under_cap():
    machine = Machine(fast_config())
    controller = build(machine, 45.0)  # idle machine burns ~14 W
    machine.run(20.0)
    assert controller.p == 0.0
    assert controller.compliance() == 1.0


def test_short_quanta_retain_throughput_at_same_cap():
    """The §4 conjecture (Gandhi et al. rearchitected with short
    quanta): at an identical power cap the package temperature is set
    by the cap itself, and the benefit of shorter idle quanta shows up
    as *retained throughput* — less energy is wasted on the leakage
    ripple of long on/off cycles, so more of the capped watts do work."""

    def run(idle_quantum):
        machine = Machine(fast_config())
        for _ in range(4):
            machine.scheduler.spawn(CpuBurn())
        controller = build(machine, 48.0, idle_quantum=idle_quantum)
        machine.run(100.0)
        return machine.total_work_done(), machine.mean_core_temp_over_window(), controller

    work_short, temp_short, ctl_short = run(0.005)
    work_long, temp_long, ctl_long = run(0.100)
    # Both hold the cap...
    assert ctl_short.compliance(tolerance=2.5, skip=40) > 0.85
    assert ctl_long.compliance(tolerance=2.5, skip=40) > 0.85
    # ...at essentially the same temperature (same watts, same heat)...
    assert temp_short == pytest.approx(temp_long, abs=1.0)
    # ...but short quanta deliver measurably more work.
    assert work_short > work_long * 1.005


def test_history_and_stop():
    machine = Machine(fast_config())
    controller = build(machine, 45.0, period=1.0)
    machine.run(5.5)
    assert len(controller.history) == 5
    controller.stop()
    machine.run(5.0)
    assert len(controller.history) == 5


def test_mean_power_empty():
    machine = Machine(fast_config())
    controller = build(machine, 45.0)
    assert controller.compliance() == 0.0
    assert controller.mean_power() != controller.mean_power()  # NaN
