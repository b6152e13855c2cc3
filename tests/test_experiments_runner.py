"""Tests for characterization/finite runs and sweeps.

These use shortened durations: the shapes they assert are
steady-state-dominated and survive the compression.
"""

import pytest

from repro.core.pareto import pareto_boundary
from repro.cpu import TccSetting, xeon_e5520_table
from repro.experiments import fast_config, run_characterization, run_finite_cpuburn
from repro.errors import ExecutionError
from repro.experiments.sweeps import Sweep, run_sweeps
from repro.runtime import ParallelRunner

CFG = fast_config()
SHORT = 40.0  # seconds of simulated time, enough for fast-mode steady state


def short_run(**kwargs):
    return run_characterization(CFG, duration=SHORT, **kwargs)


def short_sweep(sweep):
    (result,) = run_sweeps(CFG, [sweep], duration=SHORT)
    return result


# ----------------------------------------------------------------------
# Characterization
# ----------------------------------------------------------------------
def test_baseline_characterization():
    result = short_run()
    assert result.p == 0.0
    assert result.workload == "cpuburn"
    assert result.temp_rise > 12.0
    assert result.work == pytest.approx(4 * SHORT, rel=0.01)
    assert result.details["injection_fraction"] == 0.0


def test_injection_reduces_both_temp_and_work():
    base = short_run()
    injected = short_run(p=0.5, idle_quantum=0.025, deterministic=True)
    assert injected.temp_rise < base.temp_rise
    assert injected.work < base.work
    # Idle fraction ~20%: work reduced accordingly.
    assert injected.work == pytest.approx(base.work * 0.8, rel=0.03)


def test_spec_workload_runs_cooler():
    burn = short_run()
    astar = short_run(workload="astar")
    assert astar.temp_rise < burn.temp_rise
    ratio = astar.temp_rise / burn.temp_rise
    # Steady-state calibration target is 0.717 (Table 1); a short run
    # truncates the feedback-dominated tail of cpuburn's transient, so
    # the measured ratio biases a little high.
    assert 0.70 < ratio < 0.88


def test_vfs_operating_point_run():
    base = short_run()
    slow = short_run(operating_point=xeon_e5520_table().min_point)
    assert slow.work == pytest.approx(base.work * 0.708, rel=0.02)
    assert slow.temp_rise < base.temp_rise


def test_tcc_run():
    base = short_run()
    gated = short_run(tcc=TccSetting(duty=0.5))
    assert gated.work == pytest.approx(base.work * 0.5, rel=0.02)
    assert gated.temp_rise < base.temp_rise


# ----------------------------------------------------------------------
# Finite runs
# ----------------------------------------------------------------------
def test_finite_run_baseline():
    result = run_finite_cpuburn(CFG, total_cpu=2.0)
    assert result.mean_runtime == pytest.approx(2.0, rel=0.01)
    assert result.mean_schedules == pytest.approx(20.0)
    assert len(result.runtimes) == 4


def test_finite_run_with_injection_slower():
    base = run_finite_cpuburn(CFG, total_cpu=2.0)
    injected = run_finite_cpuburn(
        CFG, total_cpu=2.0, p=0.5, idle_quantum=0.05, deterministic=True
    )
    assert injected.mean_runtime > base.mean_runtime * 1.3


def test_finite_run_window_extension():
    result = run_finite_cpuburn(CFG, total_cpu=1.0, window=5.0)
    assert result.window == 5.0
    assert result.energy > 0


def test_finite_run_rejects_bad_input():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_finite_cpuburn(CFG, total_cpu=0.0)


def test_characterization_rejects_non_positive_duration(monkeypatch):
    """An explicit duration=0.0 is an error, not a request for the
    config default; a non-finite one is rejected too, before any
    machine is built."""
    from repro.errors import ConfigurationError
    from repro.experiments import runner

    with pytest.raises(ConfigurationError):
        run_characterization(CFG, duration=0.0)
    with pytest.raises(ConfigurationError):
        run_characterization(CFG, duration=-5.0)
    monkeypatch.setattr(runner, "Machine", lambda *a, **k: pytest.fail("machine built"))
    for duration in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="finite"):
            run_characterization(CFG, duration=duration)


def test_characterization_none_duration_uses_config_default():
    cfg = CFG.scaled(characterization_duration=SHORT)
    result = run_characterization(cfg)
    assert result.duration == SHORT


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def test_dimetrodon_sweep_structure():
    sweep = short_sweep(Sweep.dimetrodon(ps=(0.25, 0.75), ls_ms=(5.0, 50.0)))
    assert len(sweep.points) == 4
    assert sweep.technique == "dimetrodon"
    for point in sweep.points:
        assert 0.0 <= point.temp_reduction <= 1.0
        assert 0.0 <= point.throughput_reduction <= 1.0
        assert {"p", "L_ms"} == set(point.params)


def test_dimetrodon_sweep_monotone_in_p():
    sweep = short_sweep(Sweep.dimetrodon(ps=(0.25, 0.75), ls_ms=(25.0,)))
    low, high = sweep.points
    assert high.temp_reduction > low.temp_reduction
    assert high.throughput_reduction > low.throughput_reduction


def test_vfs_sweep():
    table = xeon_e5520_table()
    sweep = short_sweep(Sweep.vfs(points=[table.min_point]))
    point = sweep.points[0]
    assert point.throughput_reduction == pytest.approx(0.292, abs=0.02)
    assert point.temp_reduction > 0.35


def test_tcc_sweep_is_sub_proportional():
    sweep = short_sweep(Sweep.tcc(duties=[TccSetting(duty=0.5)]))
    point = sweep.points[0]
    # p4tcc at 50% duty: throughput halves, temperature drops less.
    assert point.throughput_reduction == pytest.approx(0.5, abs=0.02)
    assert point.temp_reduction < point.throughput_reduction + 0.02


def test_pareto_of_sweep_prefers_short_quanta():
    """On the boundary at matched throughput, shorter L wins (Fig. 3)."""
    sweep = short_sweep(Sweep.dimetrodon(ps=(0.5,), ls_ms=(5.0, 100.0)))
    short, long = sweep.points
    assert short.params["L_ms"] == 5.0
    assert short.efficiency > long.efficiency


def test_grid_shares_one_baseline_per_workload():
    """Sweeps on one workload share its baseline; results come back in
    definition order, each scored against its own workload."""
    events = []
    runner = ParallelRunner(progress=events.append)
    grid = [
        Sweep.dimetrodon(ps=(0.5,), ls_ms=(25.0,)),
        Sweep.dimetrodon("astar", ps=(0.5,), ls_ms=(25.0,)),
        Sweep.tcc(duties=[TccSetting(duty=0.5)]),
    ]
    burn, astar, tcc = run_sweeps(CFG, grid, duration=SHORT, runner=runner)
    assert [s.technique for s in (burn, astar, tcc)] == ["dimetrodon", "dimetrodon", "p4tcc"]
    assert tcc.baseline is burn.baseline
    assert astar.workload == "astar" and astar.baseline.workload == "astar"
    assert runner.metrics.submitted == runner.metrics.executed == 5
    assert {e.total for e in events} == {5}


def test_grid_records_point_holes_but_not_a_lost_baseline():
    """Under keep-going a failed point is a hole in ``missing``; a
    failed baseline is fatal for every sweep scored against it."""
    bad_point = Sweep("dimetrodon", "cpuburn", [({"p": 2.0}, {"p": 2.0})])
    (sweep,) = run_sweeps(
        CFG, [bad_point], duration=SHORT, runner=ParallelRunner(keep_going=True)
    )
    assert sweep.missing == [{"p": 2.0}]
    assert sweep.points == [] and sweep.baseline is not None

    with pytest.raises(ExecutionError, match="baseline"):
        run_sweeps(
            CFG,
            [Sweep.dimetrodon("mcf", ps=(0.5,), ls_ms=(25.0,))],
            duration=SHORT,
            runner=ParallelRunner(keep_going=True),
        )
