"""The assembled testbed: chip + thermal + scheduler + instruments.

A :class:`Machine` is the simulated equivalent of the paper's 1U server
(§3.2).  It is a fleet of one: node 0 of a
:class:`~repro.fleet.machine.FleetMachine`, where the server is wired
(:class:`~repro.fleet.machine.FleetNode`) and its physics integrated.
Every callback scheduled on :attr:`Machine.sim` first records the
thermal gap since the machine's last event — split at C-state
promotion instants so idle power is time-accurate — and the recorded
pieces are integrated whenever temperatures or energy are read.

The machine starts from *thermal equilibrium at idle* — the paper's
baseline "idle temperature" — so temperature-rise metrics are
well-defined from t = 0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.injector import IdleMode
from ..fleet.machine import FleetMachine
from ..health import HealthMonitor, HealthParams
from .config import ExperimentConfig


class Machine:
    """A fully wired simulated server (a one-machine fleet)."""

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        idle_mode: IdleMode = IdleMode.HALT,
        co_schedule_smt: bool = False,
    ):
        self.config = config or ExperimentConfig()
        self.fleet = FleetMachine(
            [self.config],
            idle_mode=idle_mode,
            co_schedule_smt=co_schedule_smt,
        )
        node = self.node = self.fleet.nodes[0]
        #: Node 0's view of the shared simulator: callbacks scheduled on
        #: it see physics integrated up to their firing instant.
        self.sim = node.simview
        self.rng = node.rng
        self.chip = node.chip
        self.network = self.fleet.network
        self.injector = node.injector
        self.scheduler = node.scheduler
        self.control = node.control
        self.powermeter = node.powermeter
        self.sensors = node.sensors
        self.templog = node.templog
        #: Per-core idle temperatures — the paper's baseline, °C.
        self.idle_core_temps = self.fleet.idle_core_temps

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    @property
    def health(self) -> Optional[HealthMonitor]:
        """The thermal health monitor, once :meth:`attach_health` ran."""
        return self.node.health

    def attach_health(
        self, params: Optional[HealthParams] = None
    ) -> HealthMonitor:
        """Attach a thermal health monitor to this machine.

        The monitor samples through its own quantised (optionally
        noisy) :class:`~repro.thermal.sensors.SensorBank` — never the
        true integrator state — and classifies against thresholds
        pinned to this machine's idle baseline.  Call once; the monitor
        is also exposed as :attr:`health`.
        """
        self.fleet.attach_health(params)
        return self.node.health

    # ------------------------------------------------------------------
    # Running and measurements
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.fleet.run(duration)

    @property
    def now(self) -> float:
        return self.fleet.now

    @property
    def core_temps(self) -> np.ndarray:
        """Current true per-core temperatures, °C."""
        return self.node.core_temps

    @property
    def idle_mean_temp(self) -> float:
        """Mean per-core idle (baseline) temperature, °C."""
        return self.node.idle_mean_temp

    def mean_core_temp_over_window(self, window: Optional[float] = None) -> float:
        """Mean core temperature over the trailing window (``None``: the
        config's measurement window — the paper's last-30 s average)."""
        return self.node.mean_core_temp_over_window(window)

    def temp_rise_over_idle(self, window: Optional[float] = None) -> float:
        """Mean core temperature rise over the idle baseline, °C."""
        return self.node.temp_rise_over_idle(window)

    def total_work_done(self) -> float:
        """Total useful work completed by all threads, CPU-seconds."""
        return self.node.total_work_done()

    def energy(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Package energy over [start, end], J."""
        return self.node.energy(start, end)
