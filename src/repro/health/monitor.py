"""Online thermal health monitoring with hysteresis alerting.

Production thermal tooling treats continuous monitoring as the
foundation of thermal management: a daemon polls the temperature
sensors on a fixed cadence, classifies each machine against warning and
critical thresholds, and alerts *on state changes only* — an operator
wants one page when a machine trips critical, not one per poll.  This
module brings that discipline into the simulator:

- :class:`HysteresisClassifier` — the pure warning/critical state
  machine.  Each threshold carries an independent N-degree hysteresis
  band: once a threshold has fired it stays engaged until the reading
  drops below ``threshold − hysteresis`` (explicit re-arm), which is
  what keeps a reading that jitters around a threshold from producing
  alert chatter.
- :class:`HealthTracker` — classification plus bookkeeping: the
  state-change-only :class:`AlertEvent` log, the "currently in state"
  vs "has occurred since boot" flag sets, per-state dwell times that
  partition the observed span, and the worst excursion seen.
  It is pure Python over ``(time, temperature)`` observations, which is
  what the Hypothesis property tests drive.
- :class:`HealthMonitor` — the simulated daemon: a
  :class:`~repro.sim.process.PeriodicTask` that reads temperatures
  **through a** :class:`~repro.thermal.sensors.SensorBank` (quantised,
  optionally noisy — the management plane never sees true node state),
  classifies the hottest core, feeds the tracker, publishes telemetry
  counters, and notifies subscribers.  The alert-driven reactive DTM
  baseline (:class:`~repro.core.dtm.AlertDrivenController`) is such a
  subscriber.

Thresholds are usually configured as *rises over the idle baseline*
(:class:`HealthParams`) because every experiment in this repo scores
temperature that way; :meth:`HealthParams.thresholds` pins them to
absolute °C once the machine's idle temperature is known.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..sim.process import PeriodicTask
from ..telemetry.registry import registry as _metrics_registry
from ..thermal.sensors import SensorBank


class HealthState(enum.IntEnum):
    """Thermal health of one machine, ordered by severity."""

    NOMINAL = 0
    WARNING = 1
    CRITICAL = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class HealthThresholds:
    """Absolute trip temperatures with a shared hysteresis width.

    ``hysteresis`` applies *independently* to each threshold: the
    warning latch re-arms below ``warning − hysteresis`` and the
    critical latch below ``critical − hysteresis``; the two never
    interact (a machine can drop out of critical and stay in warning).
    """

    warning: float
    critical: float
    hysteresis: float = 1.0

    def __post_init__(self) -> None:
        if self.hysteresis < 0:
            raise ConfigurationError("health hysteresis must be non-negative")
        if not self.critical > self.warning:
            raise ConfigurationError(
                f"critical threshold ({self.critical} C) must exceed the "
                f"warning threshold ({self.warning} C)"
            )

    def to_dict(self) -> Dict[str, float]:
        return {
            "warning_c": float(self.warning),
            "critical_c": float(self.critical),
            "hysteresis_c": float(self.hysteresis),
        }


class ThresholdLatch:
    """One threshold with hysteresis: engages at ``threshold``, re-arms
    only when the reading drops below ``threshold − hysteresis``."""

    __slots__ = ("threshold", "hysteresis", "engaged")

    def __init__(self, threshold: float, hysteresis: float):
        self.threshold = float(threshold)
        self.hysteresis = float(hysteresis)
        self.engaged = False

    def update(self, value: float) -> bool:
        if self.engaged:
            if value < self.threshold - self.hysteresis:
                self.engaged = False
        elif value >= self.threshold:
            self.engaged = True
        return self.engaged


class HysteresisClassifier:
    """The pure warning/critical state machine (no time, no events)."""

    def __init__(self, thresholds: HealthThresholds):
        self.thresholds = thresholds
        self._warning = ThresholdLatch(thresholds.warning, thresholds.hysteresis)
        self._critical = ThresholdLatch(thresholds.critical, thresholds.hysteresis)

    def classify(self, value: float) -> HealthState:
        """Update both latches with ``value`` and return the state."""
        warning = self._warning.update(value)
        critical = self._critical.update(value)
        if critical:
            return HealthState.CRITICAL
        if warning:
            return HealthState.WARNING
        return HealthState.NOMINAL

    def engaged_states(self) -> FrozenSet[HealthState]:
        """The latches currently engaged (a CRITICAL reading engages
        the warning latch too — severity is cumulative)."""
        states = set()
        if self._warning.engaged:
            states.add(HealthState.WARNING)
        if self._critical.engaged:
            states.add(HealthState.CRITICAL)
        return frozenset(states)


@dataclass(frozen=True)
class AlertEvent:
    """One state *change* — the only thing the monitor ever emits."""

    time: float
    machine: int
    state: HealthState
    previous: HealthState
    temperature: float

    @property
    def escalation(self) -> bool:
        """True when severity increased (an alert, not a recovery)."""
        return self.state > self.previous


class HealthTracker:
    """Hysteresis classification plus dwell/flag/event bookkeeping.

    Feed it time-ordered ``observe(now, temperature)`` calls; it
    returns an :class:`AlertEvent` exactly when the classified state
    changed and ``None`` otherwise (the no-chatter guarantee).  Dwell
    accounting attributes the interval since the previous observation
    to the state that held over it, so after :meth:`finalize` the
    per-state dwell times partition ``[start, finalize]`` exactly.
    """

    def __init__(
        self,
        thresholds: HealthThresholds,
        *,
        machine: int = 0,
        start_time: float = 0.0,
    ):
        self.thresholds = thresholds
        self.machine = int(machine)
        self.classifier = HysteresisClassifier(thresholds)
        self.state = HealthState.NOMINAL
        #: States ever latched since boot (monotone; NOMINAL implicit).
        self.since_boot: FrozenSet[HealthState] = frozenset()
        self.events: List[AlertEvent] = []
        self.dwell: Dict[HealthState, float] = {s: 0.0 for s in HealthState}
        self.samples = 0
        #: Hottest reading ever observed, °C (None before any sample).
        self.worst_excursion: Optional[float] = None
        self._start = float(start_time)
        self._last = float(start_time)

    # ------------------------------------------------------------------
    def observe(self, now: float, temperature: float) -> Optional[AlertEvent]:
        """Classify one reading; returns an event iff the state changed."""
        now = float(now)
        if now < self._last:
            raise SimulationError(
                f"health observations must be time-ordered "
                f"(got t={now} after t={self._last})"
            )
        self.dwell[self.state] += now - self._last
        self._last = now
        self.samples += 1
        temperature = float(temperature)
        if self.worst_excursion is None or temperature > self.worst_excursion:
            self.worst_excursion = temperature
        new_state = self.classifier.classify(temperature)
        self.since_boot = self.since_boot | self.classifier.engaged_states()
        if new_state == self.state:
            return None
        event = AlertEvent(
            time=now,
            machine=self.machine,
            state=new_state,
            previous=self.state,
            temperature=temperature,
        )
        self.state = new_state
        self.events.append(event)
        return event

    def finalize(self, now: float) -> None:
        """Close the open dwell interval at ``now`` (idempotent)."""
        now = float(now)
        if now < self._last:
            raise SimulationError(
                f"cannot finalize at t={now} before last observation "
                f"t={self._last}"
            )
        self.dwell[self.state] += now - self._last
        self._last = now

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Observed span so far: ``sum(dwell.values())`` equals this."""
        return self._last - self._start

    def time_in(self, state: HealthState) -> float:
        return self.dwell[state]

    @property
    def time_in_warning(self) -> float:
        return self.dwell[HealthState.WARNING]

    @property
    def time_in_critical(self) -> float:
        return self.dwell[HealthState.CRITICAL]

    @property
    def warning_alerts(self) -> int:
        """Escalations into WARNING (from NOMINAL)."""
        return sum(
            1 for e in self.events if e.state is HealthState.WARNING and e.escalation
        )

    @property
    def critical_alerts(self) -> int:
        """Escalations into CRITICAL (always escalations)."""
        return sum(1 for e in self.events if e.state is HealthState.CRITICAL)

    @property
    def recoveries(self) -> int:
        """De-escalations (CRITICAL→WARNING counts, so does →NOMINAL)."""
        return sum(1 for e in self.events if not e.escalation)

    @property
    def alerts(self) -> int:
        return self.warning_alerts + self.critical_alerts

    def summary(self) -> Dict[str, object]:
        """JSON-safe snapshot (strict JSON: no NaN/Inf, None = no data)."""
        worst = self.worst_excursion
        return {
            "machine": self.machine,
            "state": self.state.label,
            "since_boot": {
                "warning": HealthState.WARNING in self.since_boot,
                "critical": HealthState.CRITICAL in self.since_boot,
            },
            "alerts": {
                "warning": self.warning_alerts,
                "critical": self.critical_alerts,
                "recoveries": self.recoveries,
                "events": len(self.events),
            },
            "dwell_s": {s.label: float(self.dwell[s]) for s in HealthState},
            "worst_excursion_c": (
                float(worst) if worst is not None and np.isfinite(worst) else None
            ),
            "samples": self.samples,
        }


@dataclass(frozen=True)
class HealthParams:
    """Monitoring configuration, with thresholds as rises over idle.

    The defaults are tuned so the §3.7 web workload's baseline rack
    trips critical near its steady state (peak rise ≈ 6.5 °C on the
    fast preset) while a Dimetrodon-injected rack, cooled by roughly
    half, stays below — monitoring shows preventive injection avoiding
    the emergencies the reactive baseline merely responds to.
    """

    #: Warning threshold as °C rise over the idle baseline.
    warning_rise: float = 3.5
    #: Critical threshold as °C rise over the idle baseline.
    critical_rise: float = 5.5
    #: Hysteresis band width, °C (re-arm below threshold − hysteresis).
    hysteresis: float = 1.0
    #: Monitor sampling period, s.
    period: float = 1.0
    #: Sensor quantisation step, °C (coretemp-like 1 °C by default;
    #: the monitor never reads true node state).
    quantization: float = 1.0
    #: Draw per-read Gaussian sensor noise (needs a per-machine RNG).
    noisy: bool = False
    #: Noise standard deviation when ``noisy``, °C.
    noise_std: float = 0.25

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0):
            raise ConfigurationError(
                f"health monitor period must be positive and finite, got {self.period}"
            )
        if not self.critical_rise > self.warning_rise:
            raise ConfigurationError(
                "critical rise must exceed warning rise "
                f"({self.critical_rise} vs {self.warning_rise})"
            )
        if not self.hysteresis >= 0:  # also rejects NaN
            raise ConfigurationError("health hysteresis must be non-negative")
        if not (self.quantization >= 0 and self.noise_std >= 0):
            raise ConfigurationError(
                "sensor quantization/noise must be non-negative"
            )

    def thresholds(self, idle_mean: float) -> HealthThresholds:
        """Pin the rises to absolute °C for a machine's idle baseline."""
        return HealthThresholds(
            warning=float(idle_mean) + self.warning_rise,
            critical=float(idle_mean) + self.critical_rise,
            hysteresis=self.hysteresis,
        )

    def sensor_bank(
        self,
        node_indices: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ) -> SensorBank:
        """The monitor's own sensor view: quantised, optionally noisy.

        A noisy bank needs ``rng`` — callers pass a dedicated seeded
        per-machine stream (e.g. ``rng.stream("health-sensors")``) so
        monitor reads never perturb the temperature log's noise
        sequence and identical seeds reproduce identical alert streams.
        """
        if self.noisy:
            if rng is None:
                raise ConfigurationError(
                    "noisy health monitoring needs a per-machine RNG stream"
                )
            return SensorBank.coretemp(
                node_indices,
                rng,
                quantization=self.quantization,
                noise_std=self.noise_std,
            )
        return SensorBank.quantized(node_indices, quantization=self.quantization)

    def to_dict(self) -> Dict[str, object]:
        return {
            "warning_rise_c": self.warning_rise,
            "critical_rise_c": self.critical_rise,
            "hysteresis_c": self.hysteresis,
            "period_s": self.period,
            "quantization_c": self.quantization,
            "noisy": self.noisy,
            "noise_std_c": self.noise_std,
        }


class HealthMonitor:
    """The in-sim health daemon for one machine.

    Parameters
    ----------
    sim:
        The machine's simulator surface (a
        :class:`~repro.sim.engine.Simulator` or a fleet node's sim
        view — anything with ``now`` and ``schedule``).
    sensors:
        The :class:`~repro.thermal.sensors.SensorBank` the monitor
        reads through.  Readings are quantised/noisy per the bank;
        the monitor never sees true node state.
    temps_source:
        Callable returning the machine's current true node
        temperatures; the sensor bank turns them into readings.
    thresholds:
        Absolute trip temperatures (:class:`HealthThresholds`).
    period:
        Sampling period, seconds.
    machine:
        Index recorded on emitted :class:`AlertEvent`\\ s.

    Classification uses the *hottest* sensor reading — the hottest core
    governs a machine's thermal health, exactly like a trip sensor.
    Subscribers (:meth:`subscribe`) see state-change events only;
    per-sample hooks (:meth:`add_sample_listener`) exist for
    controllers that act while a state persists, e.g. descending the
    TCC ladder each period a machine stays critical.

    Telemetry (shared ``health.*`` scope, additive across machines):
    ``samples``, ``alerts``, ``alerts.warning``, ``alerts.critical``,
    ``recoveries``.
    """

    def __init__(
        self,
        sim,
        sensors: SensorBank,
        temps_source: Callable[[], Sequence[float]],
        *,
        thresholds: HealthThresholds,
        period: float = 1.0,
        machine: int = 0,
    ):
        if not (math.isfinite(period) and period > 0):
            raise ConfigurationError(
                f"health monitor period must be positive and finite, got {period}"
            )
        self.sensors = sensors
        self.period = float(period)
        self._sim = sim
        self._temps_source = temps_source
        self.tracker = HealthTracker(
            thresholds, machine=machine, start_time=sim.now
        )
        self._listeners: List[Callable[[AlertEvent], None]] = []
        self._sample_listeners: List[Callable[[float, float, HealthState], None]] = []
        scope = _metrics_registry().scope("health")
        self._metric_samples = scope.counter("samples")
        self._metric_alerts = scope.counter("alerts")
        self._metric_warning = scope.counter("alerts.warning")
        self._metric_critical = scope.counter("alerts.critical")
        self._metric_recoveries = scope.counter("recoveries")
        self._task = PeriodicTask(sim, self.period, self._sample)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._sim.now

    @property
    def thresholds(self) -> HealthThresholds:
        return self.tracker.thresholds

    @property
    def state(self) -> HealthState:
        return self.tracker.state

    @property
    def events(self) -> List[AlertEvent]:
        return self.tracker.events

    def subscribe(self, callback: Callable[[AlertEvent], None]) -> None:
        """Receive every state-change :class:`AlertEvent` as it fires."""
        self._listeners.append(callback)

    def add_sample_listener(
        self, callback: Callable[[float, float, HealthState], None]
    ) -> None:
        """Receive ``(now, reading, state)`` on every sample."""
        self._sample_listeners.append(callback)

    # ------------------------------------------------------------------
    def _sample(self) -> None:
        reading = np.asarray(self.sensors.read(self._temps_source()), dtype=float)
        temperature = float(reading.max())
        now = self._sim.now
        event = self.tracker.observe(now, temperature)
        self._metric_samples.value += 1
        if event is not None:
            if event.state is HealthState.CRITICAL:
                self._metric_critical.value += 1
                self._metric_alerts.value += 1
            elif event.state is HealthState.WARNING and event.escalation:
                self._metric_warning.value += 1
                self._metric_alerts.value += 1
            if not event.escalation:
                self._metric_recoveries.value += 1
            for listener in self._listeners:
                listener(event)
        for listener in self._sample_listeners:
            listener(now, temperature, self.tracker.state)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop sampling (does not close dwell — call :meth:`finalize`)."""
        self._task.cancel()

    def finalize(self, now: Optional[float] = None) -> None:
        """Close dwell accounting at ``now`` (default: simulated now)."""
        self.tracker.finalize(self._sim.now if now is None else now)

    def summary(self) -> Dict[str, object]:
        return self.tracker.summary()
