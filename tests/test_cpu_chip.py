"""Tests for the multicore chip model."""

import numpy as np
import pytest

from repro.cpu import Chip, CState, CStateParams, PowerParams, TccSetting
from repro.errors import ConfigurationError
from scalar_oracle import power_function


@pytest.fixture
def chip():
    return Chip(num_cores=4)


def test_chip_defaults(chip):
    assert chip.num_cores == 4
    assert chip.operating_point is chip.dvfs_table.max_point
    assert chip.tcc.duty == 1.0
    for core in chip.cores:
        assert not core.running


def test_core_running_transitions(chip):
    core = chip.cores[0]
    core.set_running(object(), activity=0.8, now=1.0)
    assert core.running
    assert core.cstate_at(5.0) is CState.C0
    core.set_idle(now=2.0)
    assert not core.running
    assert core.idle_since == 2.0


def test_cstate_promotion_timeline_hinted(chip):
    core = chip.cores[0]
    core.set_idle(now=10.0, hinted=True)
    threshold = (
        chip.cstate_params.c1e_promotion_threshold
        + chip.cstate_params.c1e_entry_latency
    )
    assert core.cstate_at(10.0 + threshold / 2) is CState.C1
    assert core.cstate_at(10.0 + threshold * 1.01) is CState.C1E
    assert core.promotion_time() == pytest.approx(10.0 + threshold)


def test_cstate_promotion_timeline_natural(chip):
    """Natural idle promotes later than scheduler-hinted idle."""
    core = chip.cores[0]
    core.set_idle(now=10.0)
    threshold = (
        chip.cstate_params.natural_promotion_threshold
        + chip.cstate_params.c1e_entry_latency
    )
    assert core.cstate_at(10.0 + threshold / 2) is CState.C1
    assert core.cstate_at(10.0 + threshold * 1.01) is CState.C1E
    hinted_threshold = chip.cstate_params.c1e_promotion_threshold
    assert threshold > hinted_threshold


def test_running_core_has_no_promotion(chip):
    core = chip.cores[0]
    core.set_running(None, 1.0, now=0.0)
    assert core.promotion_time() is None
    assert core.wake_latency(5.0) == 0.0


def test_wake_latency_depends_on_depth(chip):
    core = chip.cores[0]
    core.set_idle(now=0.0)
    shallow = core.wake_latency(0.0005)
    deep = core.wake_latency(1.0)
    assert deep > shallow > 0.0


def test_c1e_disabled_keeps_cores_shallow():
    chip = Chip(num_cores=2, c1e_enabled=False)
    core = chip.cores[0]
    core.set_idle(now=0.0)
    assert core.cstate_at(10.0) is CState.C1
    assert chip.cstate_breakpoints(0.0, 10.0) == []


def test_c1e_disabled_core_wakes_from_c1():
    """One rule decides the C-state for power, breakpoints and wake
    latency: without C1E a long-idle core pays C1's exit latency."""
    chip = Chip(num_cores=1, c1e_enabled=False)
    core = chip.cores[0]
    core.set_idle(now=0.0)
    assert core.cstate_at(1.0) is CState.C1
    assert core.promotion_time() is None
    assert core.wake_latency(1.0) == chip.cstate_params.c1_exit_latency


def test_cstate_breakpoints_for_idle_cores(chip):
    chip.cores[0].set_idle(now=0.0, hinted=True)
    chip.cores[1].set_running(None, 1.0, now=0.0)
    chip.cores[2].set_idle(now=0.5, hinted=True)
    chip.cores[3].set_idle(now=-10.0)  # promoted long ago
    threshold = (
        chip.cstate_params.c1e_promotion_threshold
        + chip.cstate_params.c1e_entry_latency
    )
    points = chip.cstate_breakpoints(0.0, 1.0)
    assert points == [pytest.approx(threshold), pytest.approx(0.5 + threshold)]


def test_breakpoints_exclude_interval_edges(chip):
    chip.cores[0].set_idle(now=0.0)
    threshold = chip.cores[0].promotion_time()
    assert chip.cstate_breakpoints(threshold, threshold + 1.0) == []


def test_power_vector_layout(chip):
    temps = np.full(6, 40.0)
    states = [CState.C0, CState.C1E, CState.C1E, CState.C1E]
    chip.cores[0].set_running(None, 1.0, now=0.0)
    power = chip.power_vector(states, temps)
    assert power.shape == (6,)
    assert power[0] > power[1] > 0.0
    assert power[4] == chip.power_model.params.uncore_power
    assert power[5] == 0.0


def test_power_vector_uses_per_core_temps(chip):
    states = [CState.C1E] * 4
    cool = chip.power_vector(states, np.array([30.0, 30, 30, 30, 30, 30]))
    hot = chip.power_vector(states, np.array([60.0, 30, 30, 30, 30, 30]))
    assert hot[0] > cool[0]
    assert hot[1] == pytest.approx(cool[1])


def test_power_function_freezes_cstates(chip):
    chip.cores[0].set_running(None, 1.0, now=0.0)
    for core in chip.cores[1:]:
        core.set_idle(now=-1.0)
    cstates, fn = power_function(chip, 0.0)
    assert cstates == [CState.C0, CState.C1E, CState.C1E, CState.C1E]
    temps = np.full(6, 45.0)
    assert np.allclose(fn(temps), chip.power_vector(cstates, temps))


def test_speed_factor_full_speed(chip):
    assert chip.speed_factor() == 1.0


def test_speed_factor_dvfs(chip):
    chip.set_operating_point(chip.dvfs_table.min_point)
    assert chip.speed_factor(1.0) == pytest.approx(
        chip.dvfs_table.speed_scale(chip.dvfs_table.min_point)
    )


def test_speed_factor_memory_bound_insensitive_to_dvfs(chip):
    chip.set_operating_point(chip.dvfs_table.min_point)
    # Fully memory-bound work does not slow down with frequency.
    assert chip.speed_factor(0.0) == pytest.approx(1.0)
    # Mixed work slows less than CPU-bound work.
    assert chip.speed_factor(0.5) > chip.speed_factor(1.0)


def test_speed_factor_tcc(chip):
    chip.set_tcc(TccSetting(duty=0.25))
    assert chip.speed_factor(1.0) == pytest.approx(0.25)


def test_speed_factor_validates_cpu_fraction(chip):
    with pytest.raises(ConfigurationError):
        chip.speed_factor(1.5)


def test_set_operating_point_rejects_foreign_point(chip):
    from repro.cpu import OperatingPoint

    with pytest.raises(ConfigurationError):
        chip.set_operating_point(OperatingPoint(3e9, 1.3))


def test_record_residency(chip):
    states = [CState.C0, CState.C1, CState.C1E, CState.C0]
    chip.record_residency(states, 2.0)
    chip.record_residency(tuple(states), 0.5)
    assert chip.cores[0].residency.get(CState.C0) == 2.5
    assert chip.cores[1].residency.get(CState.C1) == 2.5
    assert chip.cores[2].residency.get(CState.C1E) == 2.5
    assert chip.cores[3].residency.total() == 2.5
    # One entry per C-state tuple, shared by every core.
    assert chip.cores[0].residency_log == {tuple(states): 2.5}
    with pytest.raises(ValueError):
        chip.record_residency(states, -1.0)


def test_chip_needs_a_core():
    with pytest.raises(ConfigurationError):
        Chip(num_cores=0)


def test_custom_power_params():
    chip = Chip(PowerParams(core_dynamic_max=5.0))
    assert chip.power_model.params.core_dynamic_max == 5.0
