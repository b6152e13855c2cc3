"""Inter-chip thermal-aware scheduling over the fleet layer.

Dimetrodon manages heat *within* a machine by deferring work in time;
a cluster can also move work in *space*.  This package supplies both
halves and a registry the ``fleet`` experiments select from:

- :mod:`~repro.fleet.scheduling.placement` — temperature-aware arrival
  routing (:class:`ThermalBalancer`: coolest-first and threshold);
- :mod:`~repro.fleet.scheduling.migration` — periodic hot→cool queue
  migration under an explicit cost model (:class:`MigrationPolicy`,
  :class:`CacheAwareMigrationPolicy`);
- :mod:`~repro.fleet.scheduling.registry` — named policy bundles
  (:func:`build_policy`, :data:`POLICY_NAMES`).

See docs/fleet.md ("Scheduling policies") for the design, including
why policies read sampled telemetry instead of oracle temperatures.
"""

from .migration import (
    ZERO_COST,
    CacheAwareMigrationPolicy,
    FleetMigrationEvent,
    MigrationCostModel,
    MigrationPolicy,
)
from .placement import (
    STRATEGIES,
    AlertDrainBalancer,
    ThermalBalancer,
    sampled_machine_temps,
)
from .registry import (
    DEFAULT_THRESHOLD_RISE,
    POLICY_NAMES,
    PolicyBundle,
    build_policy,
)

__all__ = [
    "AlertDrainBalancer",
    "CacheAwareMigrationPolicy",
    "DEFAULT_THRESHOLD_RISE",
    "FleetMigrationEvent",
    "MigrationCostModel",
    "MigrationPolicy",
    "POLICY_NAMES",
    "PolicyBundle",
    "STRATEGIES",
    "ThermalBalancer",
    "ZERO_COST",
    "build_policy",
    "sampled_machine_temps",
]
