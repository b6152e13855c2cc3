"""Tests for the assembled machine (physics co-simulation)."""

import numpy as np
import pytest

from repro.cpu import CState
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, Machine, fast_config, full_config
from repro.workloads import CpuBurn, FiniteCpuBurn


def test_machine_starts_at_idle_equilibrium():
    machine = Machine(fast_config())
    temps = machine.core_temps
    assert np.allclose(temps, machine.idle_core_temps, atol=1e-6)
    # Idle baseline: low thirties for this calibration.
    assert 30.0 < machine.idle_mean_temp < 38.0


def test_machine_idle_stays_at_equilibrium():
    machine = Machine(fast_config())
    machine.run(20.0)
    assert np.allclose(machine.core_temps, machine.idle_core_temps, atol=0.2)


def test_cpuburn_heats_to_calibrated_rise():
    machine = Machine(fast_config())
    for _ in range(4):
        machine.scheduler.spawn(CpuBurn())
    machine.run(80.0)
    rise = machine.temp_rise_over_idle()
    # Calibration target: ~20 C rise over idle (paper's Figure 2 axis).
    assert 16.0 < rise < 25.0


def test_heating_is_monotone_through_transient():
    machine = Machine(fast_config())
    for _ in range(4):
        machine.scheduler.spawn(CpuBurn())
    machine.run(40.0)
    series = machine.templog.samples.mean(axis=1)
    diffs = np.diff(series)
    # Allow tiny numerical wiggles, but the transient must trend upward.
    assert (diffs > -0.05).all()
    assert series[-1] > series[0] + 10.0


def test_energy_accounting_consistent_with_power_trace():
    machine = Machine(fast_config())
    for _ in range(2):
        machine.scheduler.spawn(FiniteCpuBurn(1.0))
    machine.run(5.0)
    energy = machine.energy(0.0, 5.0)
    assert energy == pytest.approx(machine.powermeter.energy(), rel=1e-9)
    mean_power = energy / 5.0
    assert 10.0 < mean_power < 80.0


def test_power_sane_bounds_under_full_load():
    machine = Machine(fast_config())
    for _ in range(4):
        machine.scheduler.spawn(CpuBurn())
    machine.run(60.0)
    steady_power = machine.powermeter.average_power(50.0, 60.0)
    # Calibration: cpuburn package power ~ 65-80 W.
    assert 60.0 < steady_power < 85.0


def test_idle_power_calibration():
    machine = Machine(fast_config())
    machine.run(10.0)
    idle_power = machine.powermeter.average_power(5.0, 10.0)
    # All-idle package power in the mid-teens (paper's trace: ~15-20 W).
    assert 10.0 < idle_power < 22.0


def test_c1e_disable_ablation_runs_hotter_idle():
    base = Machine(fast_config())
    base.run(5.0)
    ablated = Machine(fast_config().scaled(c1e_enabled=False))
    ablated.run(5.0)
    p_base = base.powermeter.average_power(2.0, 5.0)
    p_ablated = ablated.powermeter.average_power(2.0, 5.0)
    assert p_ablated > p_base + 2.0


def test_noisy_sensors_quantize():
    machine = Machine(fast_config().scaled(noisy_sensors=True))
    machine.run(3.0)
    samples = machine.templog.samples
    assert np.allclose(samples, np.round(samples))


def test_seed_reproducibility():
    def run(seed):
        machine = Machine(fast_config(seed))
        machine.control.set_global_policy(0.5, 0.01)
        for _ in range(4):
            machine.scheduler.spawn(CpuBurn())
        machine.run(10.0)
        return machine.templog.samples.copy(), machine.total_work_done()

    temps_a, work_a = run(3)
    temps_b, work_b = run(3)
    temps_c, work_c = run(4)
    assert np.array_equal(temps_a, temps_b)
    assert work_a == work_b
    assert not np.array_equal(temps_a, temps_c)


def test_full_config_differs_only_in_time_scale():
    fast_machine = Machine(fast_config())
    full_machine = Machine(full_config())
    # Same steady-state physics: idle temperatures agree.
    assert fast_machine.idle_mean_temp == pytest.approx(
        full_machine.idle_mean_temp, abs=0.1
    )


def test_now_property_tracks_clock():
    machine = Machine(fast_config())
    machine.run(2.5)
    assert machine.now == pytest.approx(2.5)
    machine.run(1.0)
    assert machine.now == pytest.approx(3.5)


def test_window_defaults_only_on_none():
    """Only ``None`` selects the config's measurement window; a zero or
    negative window is an error, not a silent fallback."""
    machine = Machine(fast_config())
    machine.run(5.0)
    assert machine.mean_core_temp_over_window(None) == machine.templog.mean_over_window(
        machine.config.measure_window
    )
    for window in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            machine.temp_rise_over_idle(window)
