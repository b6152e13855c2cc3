"""Smoke + shape tests for the per-figure experiment entry points.

Durations and grids are cut down hard; the full-size versions run in
``benchmarks/``.  What is asserted here is structure and the robust
directional shapes, not the calibrated magnitudes.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import fast_config
from repro.experiments.figures import (
    fig1_power_trace,
    fig2_temperature_timeseries,
    fig3_efficiency,
    fig4_technique_comparison,
    fig5_per_thread_control,
    fig6_webserver_qos,
)
from repro.runtime import ParallelRunner

CFG = fast_config()
SHORT = 4.0  # simulated seconds per sweep run where only structure matters


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig1():
    return fig1_power_trace(CFG, work_per_thread=1.0, p=0.5, idle_quantum=0.1)


def test_fig1_dimetrodon_slower(fig1):
    assert fig1.completion_dim > 1.5 * fig1.completion_race


def test_fig1_energy_parity(fig1):
    """§2.2: equal windows, equal energy (within a few percent)."""
    assert fig1.energy_dim / fig1.energy_race == pytest.approx(1.0, abs=0.05)


def test_fig1_power_levels_staircase(fig1):
    levels = fig1.power_levels
    assert len(levels) == 5
    assert all(b > a for a, b in zip(levels, levels[1:]))


def test_fig1_race_trace_is_flat_then_idle(fig1):
    watts = fig1.power_race
    # While running: near the top level; after completion: near idle.
    assert watts[:40].mean() > 45.0
    assert watts[-5:].mean() < 20.0


def test_fig1_dimetrodon_trace_varies(fig1):
    # The injected trace bounces between staircase levels.
    active = fig1.power_dim[: int(len(fig1.power_dim) * 0.5)]
    assert active.std() > 5.0


def test_fig1_render(fig1):
    text = fig1.render()
    assert "Figure 1" in text
    assert "race-to-idle" in text


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig2():
    return fig2_temperature_timeseries(CFG, ps=(0.0, 0.5), duration=60.0)


def test_fig2_injection_lowers_curve(fig2):
    assert fig2.final_rise[0.5] < 0.6 * fig2.final_rise[0.0]


def test_fig2_probabilistic_ripple(fig2):
    """§3.4: fluctuations come from the probabilistic implementation."""
    assert fig2.ripple_std[0.5] > fig2.ripple_std[0.0]


def test_fig2_series_shape(fig2):
    times, rise = fig2.series[0.0]
    assert len(times) == len(rise)
    assert rise[0] == pytest.approx(0.0, abs=0.3)
    assert rise[-1] > 15.0


def test_fig2_render(fig2):
    assert "Figure 2" in fig2.render()


# ----------------------------------------------------------------------
# Figure 3 (tiny grid)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig3():
    return fig3_efficiency(CFG, ps=(0.5,), ls_ms=(5.0, 100.0))


def test_fig3_short_quanta_more_efficient(fig3):
    curve = fig3.curve(0.5)
    assert curve[0][0] == 5.0
    assert curve[0][1] > curve[1][1]


def test_fig3_efficiencies_above_one(fig3):
    assert all(eff > 1.0 for _, eff in fig3.curve(0.5))


def test_fig3_render(fig3):
    text = fig3.render()
    assert "p=0.5" in text
    assert "L [ms]" in text


# ----------------------------------------------------------------------
# Figure 4 (tiny grid: 4 injection points plus the VFS and TCC ladders)
# ----------------------------------------------------------------------
def run_fig4(jobs):
    events = []
    runner = ParallelRunner(jobs=jobs, progress=events.append)
    result = fig4_technique_comparison(
        CFG.scaled(characterization_duration=SHORT),
        ps=(0.25, 0.75),
        ls_ms=(5.0, 25.0),
        runner=runner,
    )
    return result, runner, events


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(jobs=1)


def test_fig4_is_one_batch_simulating_each_spec_once(fig4):
    result, runner, events = fig4
    grid = 1 + 4 + len(result.vfs.points) + len(result.tcc.points)
    keys = [event.spec.key for event in events]
    assert len(keys) == len(set(keys)) == grid
    assert runner.metrics.submitted == runner.metrics.executed == grid
    assert all(event.total == grid for event in events)
    assert result.vfs.baseline is result.dimetrodon.baseline is result.tcc.baseline


def test_fig4_parallel_equals_serial(fig4):
    serial, _, _ = fig4
    parallel, _, _ = run_fig4(jobs=2)
    assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)


# ----------------------------------------------------------------------
# Figure 5 (reduced)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig5():
    return fig5_per_thread_control(
        CFG, configs=((0.75, 0.1),), duration=60.0
    )


def test_fig5_per_thread_protects_cool_process(fig5):
    per_thread = dict(fig5.series("per-thread"))
    global_policy = dict(fig5.series("global"))
    assert list(per_thread.values())[0] > 0.97
    assert list(global_policy.values())[0] < 0.9


def test_fig5_both_modes_reduce_temperature(fig5):
    for pt in fig5.points:
        assert pt.temp_reduction > 0.3


def test_fig5_render(fig5):
    assert "Figure 5" in fig5.render()


# ----------------------------------------------------------------------
# Figure 6 (reduced)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig6():
    return fig6_webserver_qos(
        CFG, configs=((0.5, 0.05), (0.65, 0.1)), duration=60.0
    )


def test_fig6_baseline_load_and_rise(fig6):
    assert 0.15 < fig6.offered_load_per_core < 0.3
    assert 3.0 < fig6.baseline_rise < 10.0


def test_fig6_moderate_injection_keeps_qos(fig6):
    moderate = min(fig6.points, key=lambda q: q.temp_reduction)
    assert moderate.temp_reduction > 0.15
    assert moderate.qos_good > 0.95
    assert moderate.qos_tolerable > 0.95


def test_fig6_aggressive_injection_collapses_qos(fig6):
    aggressive = max(fig6.points, key=lambda q: q.temp_reduction)
    assert aggressive.qos_good < 0.5


def test_fig6_tolerable_never_below_good(fig6):
    for pt in fig6.points:
        assert pt.qos_tolerable >= pt.qos_good - 1e-9


def test_fig6_render(fig6):
    assert "Figure 6" in fig6.render()
