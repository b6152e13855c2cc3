"""Tests for the power meter, temperature log, and statistics helpers."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.instruments import (
    PowerMeter,
    TemperatureLog,
    efficiency,
    relative_reduction,
    summarize,
    throughput_reduction,
)
from repro.sim import RngRegistry, Simulator


# ----------------------------------------------------------------------
# PowerMeter
# ----------------------------------------------------------------------
def test_energy_accumulates_segments():
    meter = PowerMeter()
    meter.record_segment(0.0, 1.0, 50.0)
    meter.record_segment(1.0, 2.0, 20.0)
    assert meter.energy() == pytest.approx(90.0)
    assert meter.num_segments == 2


def test_energy_window_prorates():
    meter = PowerMeter()
    meter.record_segment(0.0, 2.0, 10.0)
    meter.record_segment(2.0, 2.0, 30.0)
    assert meter.energy(1.0, 3.0) == pytest.approx(10.0 + 30.0)
    assert meter.energy(0.5, 1.5) == pytest.approx(10.0)


def test_energy_empty():
    assert PowerMeter().energy() == 0.0


@pytest.mark.parametrize(
    "start, end", [(float("nan"), 1.0), (0.0, float("nan")), (2.0, 1.0)]
)
def test_energy_rejects_nan_and_reversed_windows(start, end):
    meter = PowerMeter()
    meter.record_segment(0.0, 4.0, 25.0)
    with pytest.raises(AnalysisError):
        meter.energy(start, end)


def test_average_power():
    meter = PowerMeter()
    meter.record_segment(0.0, 4.0, 25.0)
    assert meter.average_power(0.0, 4.0) == pytest.approx(25.0)
    with pytest.raises(AnalysisError):
        meter.average_power(1.0, 1.0)


def test_iter_segments():
    from repro.instruments import PowerSegment

    meter = PowerMeter()
    meter.record_segment(0.0, 1.0, 50.0)
    meter.record_segment(1.0, 0.5, 20.0)
    segments = list(meter.iter_segments())
    assert segments == [
        PowerSegment(start=0.0, duration=1.0, power=50.0),
        PowerSegment(start=1.0, duration=0.5, power=20.0),
    ]


def test_zero_duration_segment_ignored():
    meter = PowerMeter()
    meter.record_segment(0.0, 0.0, 99.0)
    assert meter.num_segments == 0


def test_resample_constant_power():
    meter = PowerMeter()
    meter.record_segment(0.0, 1.0, 40.0)
    times, watts = meter.resample(0.25)
    assert len(times) == 4
    assert np.allclose(watts, 40.0)


def test_resample_step_change():
    meter = PowerMeter()
    meter.record_segment(0.0, 0.5, 10.0)
    meter.record_segment(0.5, 0.5, 30.0)
    times, watts = meter.resample(0.5)
    assert np.allclose(watts, [10.0, 30.0])
    # A window straddling the step averages the two.
    times2, watts2 = meter.resample(1.0)
    assert np.allclose(watts2, [20.0])


def test_resample_energy_preserved():
    rng = np.random.default_rng(1)
    meter = PowerMeter()
    t = 0.0
    for _ in range(200):
        duration = float(rng.uniform(0.001, 0.05))
        meter.record_segment(t, duration, float(rng.uniform(10, 80)))
        t += duration
    period = 0.01
    times, watts = meter.resample(period)
    assert watts.sum() * period == pytest.approx(meter.energy(0, times[-1] + period / 2), rel=1e-6)


def test_resample_validation():
    meter = PowerMeter()
    with pytest.raises(AnalysisError):
        meter.resample(0.0)
    assert meter.resample(1.0)[0].size == 0


def test_clamp_gain_error_applied():
    rng = RngRegistry(5).stream("clamp")
    meter = PowerMeter(clamp_gain_error=0.05, rng=rng)
    assert meter.gain != 1.0
    meter.record_segment(0.0, 1.0, 50.0)
    _, watts = meter.resample(1.0)
    assert watts[0] == pytest.approx(50.0 * meter.gain)
    # Exact energy accounting is NOT affected by clamp gain.
    assert meter.energy() == pytest.approx(50.0)


def test_clamp_needs_rng():
    with pytest.raises(AnalysisError):
        PowerMeter(clamp_gain_error=0.05)


# ----------------------------------------------------------------------
# TemperatureLog
# ----------------------------------------------------------------------
def test_templog_samples_on_period():
    sim = Simulator()
    values = iter(range(100))
    log = TemperatureLog(sim, lambda: np.array([float(next(values))]), period=1.0)
    sim.run(until=3.5)
    assert list(log.times) == [0.0, 1.0, 2.0, 3.0]
    assert log.samples.shape == (4, 1)


def test_templog_window_mean():
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([sim.now, 2 * sim.now]), period=1.0)
    sim.run(until=10.0)
    # Samples at 0..10; window of 2 s -> samples at 8, 9, 10.
    assert log.mean_over_window(2.0) == pytest.approx((9 + 18) / 2)
    per_core = log.per_core_mean_over_window(2.0)
    assert per_core[0] == pytest.approx(9.0)
    assert per_core[1] == pytest.approx(18.0)


def test_templog_core_series():
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([1.0, 2.0]), period=0.5)
    sim.run(until=1.0)
    assert np.allclose(log.core_series(1), [2.0, 2.0, 2.0])


def test_templog_stop():
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([1.0]), period=1.0)
    sim.run(until=2.0)
    log.stop()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert len(log.times) == 3


def test_templog_errors():
    sim = Simulator()
    for period in (0.0, float("nan"), float("inf")):
        with pytest.raises(AnalysisError):
            TemperatureLog(sim, lambda: np.array([1.0]), period=period)
    with pytest.raises(AnalysisError):
        TemperatureLog(sim, lambda: np.array([1.0]), period=1.0, num_cores=0)
    log = TemperatureLog(sim, lambda: np.array([1.0]), period=1.0)
    with pytest.raises(AnalysisError):
        log.mean_over_window(1.0)  # no samples yet
    for window in (0.0, -2.0):  # a bad window is rejected before any lookup
        with pytest.raises(ConfigurationError):
            log.mean_over_window(window)


def test_templog_empty_log_has_declared_width():
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([1.0, 2.0]), period=1.0, num_cores=2)
    assert log.samples.shape == (0, 2)
    # Without a declared width the empty array is (0, 0), as before.
    bare = TemperatureLog(sim, lambda: np.array([1.0, 2.0]), period=1.0)
    assert bare.samples.shape == (0, 0)


def test_templog_empty_core_series_raises_analysis_error():
    """core_series on an empty log used to die with a bare IndexError
    from the (0, 0) samples array."""
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([1.0, 2.0]), period=1.0, num_cores=2)
    with pytest.raises(AnalysisError, match="no temperature samples"):
        log.core_series(0)


def test_templog_core_out_of_range_raises_analysis_error():
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([1.0, 2.0]), period=1.0)
    sim.run(until=1.0)
    assert log.num_cores == 2  # learned from the first sample
    with pytest.raises(AnalysisError, match="out of range"):
        log.core_series(2)


# ----------------------------------------------------------------------
# stats helpers
# ----------------------------------------------------------------------
def test_relative_reduction_paper_example():
    """§3.4's worked example: 60 -> 50 over an idle floor of 40 is 50%."""
    assert relative_reduction(60.0, 50.0, 40.0) == pytest.approx(0.5)


def test_relative_reduction_validates_span():
    with pytest.raises(AnalysisError):
        relative_reduction(40.0, 39.0, 40.0)


def test_throughput_reduction():
    assert throughput_reduction(100.0, 80.0) == pytest.approx(0.2)
    with pytest.raises(AnalysisError):
        throughput_reduction(0.0, 1.0)


def test_efficiency_helper():
    assert efficiency(0.4, 0.2) == pytest.approx(2.0)
    assert efficiency(0.1, 0.0) == float("inf")
    assert efficiency(0.0, 0.0) == 0.0


def test_summarize():
    summary = summarize([1.0, 2.0, 3.0])
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["n"] == 3
    assert summary["min"] == 1.0
    assert summary["max"] == 3.0
    with pytest.raises(AnalysisError):
        summarize([])


def test_templog_buffer_growth_past_initial_capacity():
    """More samples than the initial buffer capacity (64): the log grows
    geometrically and keeps every sample in order."""
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([sim.now, -sim.now]), period=1.0)
    sim.run(until=199.0)
    assert log.samples.shape == (200, 2)
    assert np.array_equal(log.times, np.arange(200.0))
    assert np.array_equal(log.core_series(0), np.arange(200.0))
    assert np.array_equal(log.core_series(1), -np.arange(200.0))


def test_templog_window_mean_cache_invalidated_by_new_samples():
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([sim.now]), period=1.0)
    sim.run(until=5.0)
    first = log.mean_over_window(2.0)  # samples at 3, 4, 5
    assert first == pytest.approx(4.0)
    # Repeated queries hit the cache and stay equal.
    assert log.mean_over_window(2.0) == first
    sim.run(until=7.0)
    assert log.mean_over_window(2.0) == pytest.approx(6.0)


def test_templog_cached_window_mean_is_a_copy():
    sim = Simulator()
    log = TemperatureLog(sim, lambda: np.array([1.0, 3.0]), period=1.0)
    sim.run(until=4.0)
    per_core = log.per_core_mean_over_window(2.0)
    per_core[:] = 99.0  # mutating the returned array must not poison the cache
    assert log.per_core_mean_over_window(2.0)[0] == pytest.approx(1.0)


def test_templog_ragged_sample_raises_analysis_error():
    sim = Simulator()
    widths = iter([2, 2, 3])
    log = TemperatureLog(sim, lambda: np.zeros(next(widths)), period=1.0)
    with pytest.raises(AnalysisError, match="ragged"):
        sim.run(until=2.0)
