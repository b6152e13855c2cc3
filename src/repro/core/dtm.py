"""Reactive (worst-case) dynamic thermal management baselines.

The paper positions Dimetrodon against "traditional DTM techniques
[that] focus on reducing worst-case thermal emergencies but do not
contribute to lowering overall temperatures" (§1).  This module
implements that tradition twice:

- :class:`ReactiveThrottleController` — a trip-point controller with
  an omniscient temperature read: it engages the thermal control
  circuit (clock modulation, the hardware's emergency knob) when a
  critical temperature is crossed and releases below a hysteresis
  band — the behaviour of a p4tcc/PROCHOT-style governor.
- :class:`AlertDrivenController` — the same ladder driven by a
  :class:`~repro.health.monitor.HealthMonitor` instead of a direct
  temperature callable: it sees only quantised sensor readings at the
  monitor's period, engages on critical alerts, deepens while the
  machine *stays* critical, and releases when the monitor's hysteresis
  re-arms — a realistic software DTM daemon rather than a hardware
  trip circuit.

Both exist as *contrast* baselines: they bound the maximum temperature
but, unlike preventive injection, do nothing until the emergency is
already happening.

Throttle accounting is both sample-counted (``samples_over_trip``) and
time-weighted (``time_throttled``, per-duty dwell): sample counts
under-represent throttling when controller periods differ, so
experiment tables report the dwell numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cpu.chip import Chip
from ..cpu.tcc import TCC_OFF, TccSetting, setpoints
from ..errors import ConfigurationError
from ..health.monitor import HealthMonitor, HealthState
from ..sim.engine import Simulator
from ..sim.process import PeriodicTask


@dataclass
class ThrottleEvent:
    """One controller action, for analysis and tests."""

    time: float
    temperature: float
    duty: float


@dataclass
class ThrottleStats:
    """Aggregate reactive-DTM behaviour over a run.

    ``samples_*`` count controller decisions; ``time_throttled`` and
    ``duty_dwell`` weight them by how long each duty actually held
    (closed by :meth:`ReactiveThrottleController.finalize`).
    """

    engagements: int = 0
    samples_over_trip: int = 0
    samples_total: int = 0
    #: Simulated seconds spent at any duty < 1.0.
    time_throttled: float = 0.0
    #: Simulated seconds spent at each duty level (1.0 included).
    duty_dwell: Dict[float, float] = field(default_factory=dict)

    def account(self, duty: float, seconds: float) -> None:
        """Attribute ``seconds`` of dwell to ``duty``."""
        if seconds < 0:
            raise ConfigurationError(
                f"cannot account {seconds}s of throttle dwell"
            )
        if seconds == 0:
            return
        duty = float(duty)
        self.duty_dwell[duty] = self.duty_dwell.get(duty, 0.0) + seconds
        if duty < 1.0:
            self.time_throttled += seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "engagements": self.engagements,
            "samples_over_trip": self.samples_over_trip,
            "samples_total": self.samples_total,
            "time_throttled_s": self.time_throttled,
            "duty_dwell_s": {
                f"{duty:g}": dwell
                for duty, dwell in sorted(self.duty_dwell.items())
            },
        }


class _LadderController:
    """Shared TCC-ladder mechanics: level bookkeeping, duty application,
    history, and time-weighted dwell accounting."""

    def __init__(
        self,
        chip: Chip,
        *,
        ladder: Optional[Sequence[TccSetting]],
        start_time: float,
    ):
        self.chip = chip
        #: Duty ladder, deepest first index 0 ... lightest last.
        steps = list(ladder) if ladder is not None else setpoints(8)
        self.ladder = sorted(steps, key=lambda s: s.duty)
        self._level = len(self.ladder)  # index into ladder; == len -> off
        self.stats = ThrottleStats()
        self.history: List[ThrottleEvent] = []
        self._last_account = float(start_time)

    @property
    def current_duty(self) -> float:
        if self._level >= len(self.ladder):
            return 1.0
        return self.ladder[self._level].duty

    @property
    def throttling(self) -> bool:
        return self._level < len(self.ladder)

    def _account(self, now: float) -> None:
        """Close the dwell interval at the duty that held until ``now``."""
        self.stats.account(self.current_duty, now - self._last_account)
        self._last_account = now

    def finalize(self, now: float) -> None:
        """Close dwell accounting at ``now`` (idempotent)."""
        self._account(float(now))

    def _apply(self, now: float, temp: float) -> None:
        setting = (
            self.ladder[self._level] if self._level < len(self.ladder) else TCC_OFF
        )
        self.chip.set_tcc(setting)
        self.history.append(
            ThrottleEvent(time=now, temperature=temp, duty=setting.duty)
        )

    def params(self) -> Dict[str, object]:
        """Controller parameters for manifest reproducibility."""
        return {"ladder_duties": [s.duty for s in self.ladder]}


class ReactiveThrottleController(_LadderController):
    """Trip-point clock-modulation governor (worst-case DTM)."""

    def __init__(
        self,
        sim: Simulator,
        chip: Chip,
        read_temperature: Callable[[], float],
        *,
        trip_temp: float,
        hysteresis: float = 2.0,
        period: float = 0.1,
        ladder: Optional[Sequence[TccSetting]] = None,
    ):
        if hysteresis < 0:
            raise ConfigurationError("hysteresis must be non-negative")
        if period <= 0:
            raise ConfigurationError("controller period must be positive")
        super().__init__(chip, ladder=ladder, start_time=sim.now)
        self.read_temperature = read_temperature
        self.trip_temp = float(trip_temp)
        self.hysteresis = float(hysteresis)
        self.period = float(period)
        self._sim = sim
        self._task = PeriodicTask(sim, period, self._step)

    def stop(self) -> None:
        self._task.cancel()

    # ------------------------------------------------------------------
    def _step(self) -> None:
        temp = float(self.read_temperature())
        now = self._sim.now
        self.stats.samples_total += 1
        self._account(now)
        if temp >= self.trip_temp:
            self.stats.samples_over_trip += 1
            if self._level > 0:
                if not self.throttling:
                    self.stats.engagements += 1
                self._level -= 1  # deeper modulation
                self._apply(now, temp)
        elif temp < self.trip_temp - self.hysteresis:
            if self._level < len(self.ladder):
                self._level += 1  # relax one notch
                self._apply(now, temp)

    def params(self) -> Dict[str, object]:
        params = super().params()
        params.update(
            {
                "trip_temp_c": self.trip_temp,
                "hysteresis_c": self.hysteresis,
                "period_s": self.period,
            }
        )
        return params


class AlertDrivenController(_LadderController):
    """Reactive DTM driven by health alerts instead of omniscient reads.

    The controller never touches true node state: it observes the
    :class:`~repro.health.monitor.HealthMonitor`'s per-sample
    ``(now, reading, state)`` stream — quantised sensor data at the
    monitor's period.  On the first CRITICAL sample it engages the
    lightest ladder step (counted as an engagement); while the machine
    *stays* critical it descends one notch per sample; as soon as the
    monitor's hysteresis re-arms (the state drops out of CRITICAL) it
    releases fully to :data:`~repro.cpu.tcc.TCC_OFF`.  The release
    threshold is therefore the monitor's
    ``critical − hysteresis`` — the controller adds no second
    hysteresis of its own.
    """

    def __init__(
        self,
        chip: Chip,
        monitor: HealthMonitor,
        *,
        ladder: Optional[Sequence[TccSetting]] = None,
    ):
        if ladder is None:
            # Drop the ladder's 100% rung: engaging must actually
            # modulate (the trip controller tolerates a no-op first
            # notch because it descends every 100 ms; this one gets a
            # notch per monitor period, so a wasted rung costs a full
            # period of unmitigated criticality).
            ladder = [s for s in setpoints(8) if s.duty < 1.0]
        super().__init__(chip, ladder=ladder, start_time=monitor.now)
        self.monitor = monitor
        monitor.add_sample_listener(self._on_sample)

    # ------------------------------------------------------------------
    def _on_sample(self, now: float, temperature: float, state: HealthState) -> None:
        self.stats.samples_total += 1
        self._account(now)
        if state is HealthState.CRITICAL:
            self.stats.samples_over_trip += 1
            if self._level > 0:
                if not self.throttling:
                    self.stats.engagements += 1
                self._level -= 1  # deeper while critical persists
                self._apply(now, temperature)
        elif self.throttling:
            self._level = len(self.ladder)  # monitor re-armed: release
            self._apply(now, temperature)

    def params(self) -> Dict[str, object]:
        params = super().params()
        thresholds = self.monitor.thresholds
        params.update(
            {
                "kind": "alert-driven",
                "trip_temp_c": thresholds.critical,
                "release_temp_c": thresholds.critical - thresholds.hysteresis,
                "monitor_period_s": self.monitor.period,
            }
        )
        return params
