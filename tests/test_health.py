"""Tests for the thermal health monitoring layer.

The Hypothesis property tests pin the hysteresis semantics the docs
promise: events fire only on state *transitions*, a latch re-arms only
below ``threshold − hysteresis``, the warning and critical latches are
independent, per-state dwell times partition the observed span, and the
since-boot flag set grows monotonically.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.health import (
    AlertEvent,
    HealthMonitor,
    HealthParams,
    HealthState,
    HealthThresholds,
    HealthTracker,
    HysteresisClassifier,
    ThresholdLatch,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.registry import isolated
from repro.thermal.sensors import SensorBank

#: Reference thresholds used throughout: warning 35, critical 40, 2 °C
#: hysteresis (re-arm at <33 and <38 respectively).
THRESHOLDS = HealthThresholds(warning=35.0, critical=40.0, hysteresis=2.0)

#: Readings spanning well below re-arm to well above critical.
temps = st.floats(min_value=20.0, max_value=55.0, allow_nan=False)
temp_seqs = st.lists(temps, min_size=1, max_size=60)


# ======================================================================
# ThresholdLatch / HysteresisClassifier
# ======================================================================
def test_latch_engages_at_threshold_and_rearms_below_band():
    latch = ThresholdLatch(40.0, 2.0)
    assert not latch.update(39.9)
    assert latch.update(40.0)  # >= threshold engages
    assert latch.update(38.0)  # inside the band: still engaged
    assert latch.update(39.9)
    assert not latch.update(37.9)  # < threshold - hysteresis re-arms
    assert latch.update(40.5)


@given(temp_seqs)
@settings(max_examples=200, deadline=None)
def test_latch_rearm_only_below_threshold_minus_hysteresis(seq):
    """Once engaged, the latch stays engaged for every reading in
    ``[threshold − hysteresis, ∞)`` — no chatter inside the band."""
    latch = ThresholdLatch(40.0, 2.0)
    previously_engaged = False
    for value in seq:
        engaged = latch.update(value)
        if previously_engaged and value >= 40.0 - 2.0:
            assert engaged
        if value >= 40.0:
            assert engaged
        if value < 40.0 - 2.0:
            assert not engaged
        previously_engaged = engaged


@given(temp_seqs)
@settings(max_examples=200, deadline=None)
def test_classifier_latches_are_independent(seq):
    """The classifier is exactly two independent latches: its state
    always equals what two standalone latches fed the same readings
    say (warning can stay engaged after critical re-arms and vice
    versa — the bands never interact)."""
    classifier = HysteresisClassifier(THRESHOLDS)
    warning = ThresholdLatch(THRESHOLDS.warning, THRESHOLDS.hysteresis)
    critical = ThresholdLatch(THRESHOLDS.critical, THRESHOLDS.hysteresis)
    for value in seq:
        state = classifier.classify(value)
        w, c = warning.update(value), critical.update(value)
        if c:
            assert state is HealthState.CRITICAL
        elif w:
            assert state is HealthState.WARNING
        else:
            assert state is HealthState.NOMINAL
        engaged = classifier.engaged_states()
        assert (HealthState.WARNING in engaged) == w
        assert (HealthState.CRITICAL in engaged) == c


def test_thresholds_validate():
    with pytest.raises(ConfigurationError):
        HealthThresholds(warning=40.0, critical=40.0)
    with pytest.raises(ConfigurationError):
        HealthThresholds(warning=35.0, critical=40.0, hysteresis=-1.0)
    assert THRESHOLDS.to_dict() == {
        "warning_c": 35.0,
        "critical_c": 40.0,
        "hysteresis_c": 2.0,
    }


# ======================================================================
# HealthTracker properties
# ======================================================================
@given(temp_seqs)
@settings(max_examples=200, deadline=None)
def test_events_only_on_transitions(seq):
    """observe() returns an event iff the state changed, and the event
    log chains exactly (each event's ``previous`` is the prior state)."""
    tracker = HealthTracker(THRESHOLDS)
    state = HealthState.NOMINAL
    returned = 0
    for i, value in enumerate(seq):
        event = tracker.observe(float(i + 1), value)
        if event is None:
            assert tracker.state is state
        else:
            returned += 1
            assert event.previous is state
            assert event.state is not state
            assert event.state is tracker.state
            state = event.state
    assert len(tracker.events) == returned
    for prev, nxt in zip(tracker.events, tracker.events[1:]):
        assert nxt.previous is prev.state


@given(temp_seqs, st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_dwell_times_partition_elapsed_span(seq, gaps):
    """After finalize, per-state dwell sums to exactly the observed
    span, whatever the (irregular) observation times were."""
    tracker = HealthTracker(THRESHOLDS, start_time=0.0)
    now = 0.0
    for value, gap in zip(seq, gaps):
        now += gap
        tracker.observe(now, value)
    end = now + 1.5
    tracker.finalize(end)
    tracker.finalize(end)  # idempotent
    assert sum(tracker.dwell.values()) == pytest.approx(end, abs=1e-9)
    assert tracker.elapsed == pytest.approx(end, abs=1e-9)
    assert tracker.time_in_warning == tracker.dwell[HealthState.WARNING]
    assert tracker.time_in_critical == tracker.dwell[HealthState.CRITICAL]


@given(temp_seqs)
@settings(max_examples=200, deadline=None)
def test_since_boot_flags_are_monotone(seq):
    """The since-boot set only ever grows, and a critical reading sets
    the warning flag too (severity is cumulative)."""
    tracker = HealthTracker(THRESHOLDS)
    seen = frozenset()
    for i, value in enumerate(seq):
        tracker.observe(float(i + 1), value)
        assert tracker.since_boot >= seen
        seen = tracker.since_boot
        if value >= THRESHOLDS.critical:
            assert HealthState.CRITICAL in seen
            assert HealthState.WARNING in seen
        if value >= THRESHOLDS.warning:
            assert HealthState.WARNING in seen


# ======================================================================
# HealthTracker scripted behaviour
# ======================================================================
def test_tracker_scripted_episode():
    """One warning→critical→recovery episode with exact bookkeeping."""
    t = HealthTracker(THRESHOLDS, machine=3, start_time=0.0)
    assert t.observe(1.0, 30.0) is None  # nominal
    warn = t.observe(2.0, 36.0)  # -> warning
    assert warn is not None and warn.state is HealthState.WARNING
    assert warn.escalation and warn.machine == 3
    assert t.observe(3.0, 39.0) is None  # still warning (below critical)
    crit = t.observe(4.0, 41.0)  # -> critical
    assert crit.state is HealthState.CRITICAL and crit.escalation
    assert t.observe(5.0, 38.5) is None  # inside critical band: holds
    back = t.observe(6.0, 36.0)  # re-armed critical, warning holds
    assert back.state is HealthState.WARNING and not back.escalation
    clear = t.observe(7.0, 30.0)  # -> nominal
    assert clear.state is HealthState.NOMINAL and not clear.escalation
    t.finalize(8.0)

    assert t.warning_alerts == 1
    assert t.critical_alerts == 1
    assert t.alerts == 2
    assert t.recoveries == 2
    assert t.worst_excursion == 41.0
    assert t.since_boot == frozenset({HealthState.WARNING, HealthState.CRITICAL})
    # Dwell: nominal [0,2)+[7,8), warning [2,4)+[6,7), critical [4,6).
    assert t.dwell[HealthState.NOMINAL] == pytest.approx(3.0)
    assert t.dwell[HealthState.WARNING] == pytest.approx(3.0)
    assert t.dwell[HealthState.CRITICAL] == pytest.approx(2.0)

    summary = t.summary()
    assert summary["alerts"] == {
        "warning": 1,
        "critical": 1,
        "recoveries": 2,
        "events": 4,
    }
    assert summary["since_boot"] == {"warning": True, "critical": True}
    assert summary["worst_excursion_c"] == 41.0
    assert summary["state"] == "nominal"


def test_tracker_rejects_time_going_backwards():
    t = HealthTracker(THRESHOLDS)
    t.observe(2.0, 30.0)
    with pytest.raises(SimulationError):
        t.observe(1.0, 30.0)
    with pytest.raises(SimulationError):
        t.finalize(1.0)


def test_alert_event_escalation_flag():
    up = AlertEvent(1.0, 0, HealthState.CRITICAL, HealthState.WARNING, 41.0)
    down = AlertEvent(2.0, 0, HealthState.WARNING, HealthState.CRITICAL, 37.0)
    assert up.escalation and not down.escalation


# ======================================================================
# HealthParams
# ======================================================================
def test_params_validation_and_thresholds():
    with pytest.raises(ConfigurationError):
        HealthParams(warning_rise=5.0, critical_rise=4.0)
    for period in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            HealthParams(period=period)
    for field in ("hysteresis", "quantization", "noise_std"):
        for value in (-0.5, math.nan):
            with pytest.raises(ConfigurationError):
                HealthParams(**{field: value})
    params = HealthParams()
    thresholds = params.thresholds(30.0)
    assert thresholds.warning == pytest.approx(33.5)
    assert thresholds.critical == pytest.approx(35.5)
    assert params.to_dict()["period_s"] == 1.0


def test_params_noisy_sensor_bank_needs_rng():
    params = HealthParams(noisy=True)
    with pytest.raises(ConfigurationError):
        params.sensor_bank([0, 1])
    rng = RngRegistry(0).stream("health-sensors")
    bank = params.sensor_bank([0, 1], rng)
    assert bank.read(np.array([30.2, 31.7])).shape == (2,)


def test_quantized_sensor_bank_is_deterministic():
    bank = SensorBank.quantized([0, 1], quantization=1.0)
    first = bank.read(np.array([30.4, 31.6]))
    second = bank.read(np.array([30.4, 31.6]))
    assert np.array_equal(first, second)
    assert np.array_equal(first, np.array([30.0, 32.0]))


# ======================================================================
# HealthMonitor (simulated daemon)
# ======================================================================
def _monitored_sim(temps_by_second, *, period=1.0):
    """A bare simulator whose 'machine' replays a scripted temperature
    trajectory (°C at t = 1, 2, ...)."""
    sim = Simulator()
    current = {"temps": np.array([temps_by_second[0]])}

    def step(i):
        def apply():
            current["temps"] = np.array([temps_by_second[i]])

        return apply

    for i in range(len(temps_by_second)):
        # Update just before the monitor samples at t = i + 1.
        sim.schedule(i + 1 - 0.5 * period, step(i))
    monitor = HealthMonitor(
        sim,
        SensorBank.ideal([0]),
        lambda: current["temps"],
        thresholds=THRESHOLDS,
        period=period,
        machine=7,
    )
    return sim, monitor


def test_monitor_emits_state_change_events_only():
    trajectory = [30.0, 36.0, 41.0, 41.0, 36.0, 30.0, 30.0]
    with isolated() as registry:
        sim, monitor = _monitored_sim(trajectory)
        events = []
        monitor.subscribe(events.append)
        samples = []
        monitor.add_sample_listener(lambda now, temp, state: samples.append(state))
        sim.run(until=len(trajectory) + 0.25)
        monitor.stop()
        monitor.finalize()

        assert [e.state for e in events] == [
            HealthState.WARNING,
            HealthState.CRITICAL,
            HealthState.WARNING,
            HealthState.NOMINAL,
        ]
        assert all(e.machine == 7 for e in events)
        assert events == monitor.events
        assert len(samples) == len(trajectory)
        assert monitor.state is HealthState.NOMINAL
        # Telemetry: additive counters in the shared health scope.
        assert registry.value("health.samples") == len(trajectory)
        assert registry.value("health.alerts") == 2
        assert registry.value("health.alerts.warning") == 1
        assert registry.value("health.alerts.critical") == 1
        assert registry.value("health.recoveries") == 2


def test_monitor_reads_through_quantized_sensors():
    """The monitor classifies the quantised reading, not the truth:
    34.6 °C rounds to 35 °C and trips the warning threshold."""
    sim = Simulator()
    monitor = HealthMonitor(
        sim,
        SensorBank.quantized([0], quantization=1.0),
        lambda: np.array([34.6]),
        thresholds=THRESHOLDS,
    )
    sim.run(until=1.5)
    monitor.stop()
    assert monitor.state is HealthState.WARNING
    assert monitor.tracker.worst_excursion == 35.0


def test_monitor_stop_halts_sampling():
    sim = Simulator()
    monitor = HealthMonitor(
        sim,
        SensorBank.ideal([0]),
        lambda: np.array([30.0]),
        thresholds=THRESHOLDS,
    )
    sim.run(until=2.5)
    monitor.stop()
    sim.run(until=10.0)
    assert monitor.tracker.samples == 2


def test_monitor_rejects_bad_period():
    for period in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            HealthMonitor(
                Simulator(),
                SensorBank.ideal([0]),
                lambda: np.array([30.0]),
                thresholds=THRESHOLDS,
                period=period,
            )
