"""Named scheduling policies for the fleet experiments.

A *policy* is the front door plus (optionally) a migration manager or
per-machine DTM controllers:

==============  ========================================  ==================
name            placement                                 migration / DTM
==============  ========================================  ==================
round-robin     blind cyclic                              —
coolest         coolest-first (Chrobak et al.)            —
threshold       cool bucket round-robin, else coolest     —
migrate         blind cyclic                              hot→cool, costed
cache-aware     blind cyclic                              THEAS-style costed
alert-reactive  cyclic, drains critical machines          TCC on critical alerts
==============  ========================================  ==================

``migrate`` and ``cache-aware`` deliberately keep round-robin
placement so the cross-technique comparison isolates what migration
alone buys; combining thermal placement with migration is one
constructor call away for anyone who wants it.

:func:`build_policy` is the single entry point the experiment and CLI
use; unknown names raise :class:`~repro.errors.ConfigurationError`
listing the registry.  Every bundle creates the ``fleet.migrations``
and ``fleet.migration_cost_ms`` counters even when it has no migration
manager, so every policy's run manifest carries the same counter set
(zeros mean "policy cannot migrate", not "counter missing").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ...core.dtm import AlertDrivenController
from ...errors import ConfigurationError
from ...health import FleetHealth
from ...telemetry.registry import registry as _metrics_registry
from ...workloads.loadshapes import ArrivalProcess
from ...workloads.webserver import WebServer
from ..balancer import Balancer, RoundRobinBalancer
from ..machine import FleetMachine
from .migration import CacheAwareMigrationPolicy, MigrationCostModel, MigrationPolicy
from .placement import AlertDrainBalancer, ThermalBalancer

#: How far (°C) above the rack's idle baseline the threshold strategy
#: places its cool/hot boundary.
DEFAULT_THRESHOLD_RISE = 2.0

#: Registry order is presentation order in the comparison table.
POLICY_NAMES = (
    "round-robin",
    "coolest",
    "threshold",
    "migrate",
    "cache-aware",
    "alert-reactive",
)


@dataclass
class PolicyBundle:
    """A constructed scheduling policy: balancer plus optional migration
    manager and per-machine alert-driven DTM controllers."""

    name: str
    balancer: Balancer
    migration: Optional[MigrationPolicy] = None
    controllers: List[AlertDrivenController] = field(default_factory=list)

    def stop(self) -> None:
        self.balancer.stop()
        if self.migration is not None:
            self.migration.stop()

    def finalize(self, now: float) -> None:
        """Close the controllers' time-weighted throttle accounting."""
        for controller in self.controllers:
            controller.finalize(now)

    @property
    def migrations(self) -> int:
        return 0 if self.migration is None else self.migration.migrations

    @property
    def migration_cost_seconds(self) -> float:
        return 0.0 if self.migration is None else self.migration.total_cost_seconds

    @property
    def throttle_engagements(self) -> int:
        return sum(c.stats.engagements for c in self.controllers)

    @property
    def time_throttled_seconds(self) -> float:
        """Summed machine-seconds of clock modulation across the rack."""
        return float(sum(c.stats.time_throttled for c in self.controllers))


def build_policy(
    name: str,
    fleet: FleetMachine,
    servers: Sequence[WebServer],
    *,
    rate: float,
    rng: np.random.Generator,
    cost_model: Optional[MigrationCostModel] = None,
    arrivals: Optional[ArrivalProcess] = None,
    health: Optional[FleetHealth] = None,
) -> PolicyBundle:
    """Construct the named policy over ``fleet``/``servers``.

    ``cost_model`` overrides the default :class:`MigrationCostModel`
    for the migrating policies (ignored by placement-only ones).
    ``arrivals`` replaces the front door's fixed-rate Poisson stream
    with a shaped :class:`~repro.workloads.loadshapes.ArrivalProcess`
    (the ``scenarios`` experiment's diurnal/surge/bursty traffic).
    ``health`` (the rack's :class:`~repro.health.FleetHealth`) is
    required by ``alert-reactive``, which drives one
    :class:`~repro.core.dtm.AlertDrivenController` per machine off its
    monitors and drains placement weight from critical machines; the
    other policies ignore it.
    """
    if name not in POLICY_NAMES:
        raise ConfigurationError(
            f"unknown scheduling policy {name!r} "
            f"(known: {', '.join(POLICY_NAMES)})"
        )
    if name == "alert-reactive" and health is None:
        raise ConfigurationError(
            "the alert-reactive policy needs the rack's health monitors "
            "(FleetMachine.attach_health)"
        )
    # Uniform counter set across policies: a round-robin manifest shows
    # fleet.migrations == 0 rather than omitting the counter.
    scope = _metrics_registry().scope("fleet")
    scope.counter("migrations")
    scope.counter("migration_cost_ms")

    migration: Optional[MigrationPolicy] = None
    controllers: List[AlertDrivenController] = []
    if name == "alert-reactive":
        balancer: Balancer = AlertDrainBalancer(
            fleet, servers, rate=rate, rng=rng, health=health, arrivals=arrivals
        )
        controllers = [
            AlertDrivenController(node.chip, health[j])
            for j, node in enumerate(fleet.nodes)
        ]
        health.set_controller_info(controllers[0].params())
    elif name == "coolest":
        balancer = ThermalBalancer(
            fleet, servers, rate=rate, rng=rng, strategy="coolest", arrivals=arrivals
        )
    elif name == "threshold":
        threshold = float(np.mean(fleet.idle_core_temps)) + DEFAULT_THRESHOLD_RISE
        balancer = ThermalBalancer(
            fleet,
            servers,
            rate=rate,
            rng=rng,
            strategy="threshold",
            threshold=threshold,
            arrivals=arrivals,
        )
    else:
        balancer = RoundRobinBalancer(
            fleet, servers, rate=rate, rng=rng, arrivals=arrivals
        )
        if name == "migrate":
            migration = MigrationPolicy(fleet, servers, cost_model=cost_model)
        elif name == "cache-aware":
            migration = CacheAwareMigrationPolicy(
                fleet, servers, cost_model=cost_model
            )
    return PolicyBundle(
        name=name, balancer=balancer, migration=migration, controllers=controllers
    )

