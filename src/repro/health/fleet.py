"""Rack-level aggregation over per-machine health monitors.

:class:`FleetHealth` owns one :class:`~repro.health.monitor.HealthMonitor`
per machine and rolls their trackers up into the fleet-level numbers
experiments report: total alert counts, summed time-in-warning /
time-in-critical, the worst excursion anywhere in the rack, and how
many machines have latched warning/critical since boot.  It also
carries the monitoring configuration (thresholds, hysteresis, period,
sensor model) and — when an alert-driven controller is active — the
controller's parameters, so :meth:`summary` alone makes a
health-bearing run reproducible from its manifest.

This module deliberately knows nothing about :mod:`repro.fleet`: it
aggregates monitors, and the fleet layer (or a single-server
experiment) constructs them.  That keeps ``health`` below ``fleet`` in
the dependency stack so ``core`` can import it too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .monitor import AlertEvent, HealthMonitor, HealthParams, HealthState


class FleetHealth:
    """Per-machine monitors plus fleet-level rollups.

    Parameters
    ----------
    monitors:
        One :class:`HealthMonitor` per machine, in machine order.
    params:
        The :class:`HealthParams` every monitor was built from.
    idle_mean:
        The idle baseline (°C) the rise thresholds were pinned to.
    """

    def __init__(
        self,
        monitors: Sequence[HealthMonitor],
        *,
        params: HealthParams,
        idle_mean: float,
    ):
        self.monitors: List[HealthMonitor] = list(monitors)
        self.params = params
        self.idle_mean = float(idle_mean)
        #: Controller parameters (ladder, period, ...) when an
        #: alert-driven DTM policy is wired to these monitors; recorded
        #: into :meth:`summary` for manifest reproducibility.
        self.controller_info: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.monitors)

    def __getitem__(self, index: int) -> HealthMonitor:
        return self.monitors[index]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        for monitor in self.monitors:
            monitor.stop()

    def finalize(self, now: Optional[float] = None) -> None:
        """Close every monitor's dwell accounting (see
        :meth:`HealthMonitor.finalize`)."""
        for monitor in self.monitors:
            monitor.finalize(now)

    def set_controller_info(self, info: Dict[str, Any]) -> None:
        self.controller_info = dict(info)

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    @property
    def alerts(self) -> int:
        """Total escalations (warning + critical) across the rack."""
        return sum(m.tracker.alerts for m in self.monitors)

    @property
    def warning_alerts(self) -> int:
        return sum(m.tracker.warning_alerts for m in self.monitors)

    @property
    def critical_alerts(self) -> int:
        return sum(m.tracker.critical_alerts for m in self.monitors)

    @property
    def recoveries(self) -> int:
        return sum(m.tracker.recoveries for m in self.monitors)

    @property
    def time_in_warning(self) -> float:
        """Summed machine-seconds spent in WARNING across the rack."""
        return float(sum(m.tracker.time_in_warning for m in self.monitors))

    @property
    def time_in_critical(self) -> float:
        """Summed machine-seconds spent in CRITICAL across the rack."""
        return float(sum(m.tracker.time_in_critical for m in self.monitors))

    @property
    def worst_excursion(self) -> Optional[float]:
        """Hottest reading observed anywhere, °C (None if no samples)."""
        worsts = [
            m.tracker.worst_excursion
            for m in self.monitors
            if m.tracker.worst_excursion is not None
        ]
        return max(worsts) if worsts else None

    def machines_since_boot(self, state: HealthState) -> int:
        """How many machines have latched ``state`` since boot."""
        return sum(1 for m in self.monitors if state in m.tracker.since_boot)

    def events(self) -> List[AlertEvent]:
        """Every state change in the rack, time-ordered."""
        merged: List[AlertEvent] = []
        for monitor in self.monitors:
            merged.extend(monitor.tracker.events)
        merged.sort(key=lambda e: (e.time, e.machine))
        return merged

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe health section for :class:`RunManifest`: the
        monitoring ``config``, rack-wide ``totals`` and one
        ``machines_detail`` entry per monitor (a compact manifest keeps
        only the first two).

        ``config`` alone reproduces the monitoring setup: the rise
        thresholds and the absolute °C they pinned to, hysteresis,
        monitor period, sensor quantisation/noise, and the active
        controller's parameters when one is wired.
        """
        thresholds = self.params.thresholds(self.idle_mean)
        config: Dict[str, Any] = dict(self.params.to_dict())
        config["idle_mean_c"] = self.idle_mean
        config["thresholds"] = thresholds.to_dict()
        config["machines"] = len(self.monitors)
        if self.controller_info is not None:
            config["controller"] = self.controller_info
        return {
            "config": config,
            "totals": {
                "alerts": self.alerts,
                "warning_alerts": self.warning_alerts,
                "critical_alerts": self.critical_alerts,
                "recoveries": self.recoveries,
                "events": sum(len(m.tracker.events) for m in self.monitors),
                "time_in_warning_s": self.time_in_warning,
                "time_in_critical_s": self.time_in_critical,
                "worst_excursion_c": self.worst_excursion,
                "machines_warning_since_boot": self.machines_since_boot(
                    HealthState.WARNING
                ),
                "machines_critical_since_boot": self.machines_since_boot(
                    HealthState.CRITICAL
                ),
            },
            "machines_detail": [m.summary() for m in self.monitors],
        }
