"""Fleet-scale simulation: racks of servers on one event queue with
structure-of-arrays batched physics.

- :class:`~repro.fleet.machine.FleetMachine` — N fully wired servers
  (chip, scheduler, injector, instruments each) whose thermal states
  advance together through one
  :class:`~repro.thermal.rcnetwork.FleetThermalIntegrator`;
- :class:`~repro.fleet.balancer.RoundRobinBalancer` — Poisson request
  arrivals spread round-robin over per-machine web servers;
- :mod:`~repro.fleet.scheduling` — thermal-aware placement and costed
  inter-chip migration policies (:func:`build_policy` registry);
- :mod:`~repro.fleet.cells` — one rack run as a batchable, cacheable
  unit of work (:func:`~repro.fleet.cells.run_rack_cell`, executed
  through the :mod:`repro.runtime` pool/cache/journal stack);
- :mod:`~repro.fleet.grid` — the one rack-grid driver: an experiment
  is a function returning a :class:`~repro.fleet.grid.RackGrid` (row
  labels mapped to rack cell parameters, preset sizes, baselines,
  columns, Pareto scoring, manifest shape), made an entry point by
  :func:`~repro.fleet.grid.rack_experiment`, which runs the grid
  through :func:`~repro.fleet.grid.run_grid`.  Three such definitions
  are CLI experiments:
  :func:`~repro.fleet.experiment.fleet_experiment` (``fleet``: a rack
  with and without idle injection under a selectable scheduling
  policy), :func:`~repro.fleet.experiment.fleet_compare_experiment`
  (``fleet-compare``: Dimetrodon vs DVFS vs TCC vs placement vs
  migration, fig4 at rack scale) and
  :func:`~repro.fleet.scenarios.scenarios_experiment` (``scenarios``:
  injection x load shape x policy with windowed SLO scoring, see
  docs/scenarios.md).

See docs/fleet.md for the architecture and equivalence guarantees.
"""

from .balancer import Balancer, RoundRobinBalancer
from .cells import (
    SCENARIO_SHAPES,
    RackCellResult,
    build_scenario_arrivals,
    rack_cell_spec,
    replica_configs,
    run_rack_cell,
)
from .experiment import fleet_compare_experiment, fleet_experiment
from .grid import RackGrid, RackGridResult
from .machine import FleetMachine, FleetNode
from .scenarios import scenarios_experiment
from .scheduling import (
    POLICY_NAMES,
    CacheAwareMigrationPolicy,
    MigrationCostModel,
    MigrationPolicy,
    PolicyBundle,
    ThermalBalancer,
    build_policy,
)

__all__ = [
    "Balancer",
    "CacheAwareMigrationPolicy",
    "FleetMachine",
    "FleetNode",
    "MigrationCostModel",
    "MigrationPolicy",
    "POLICY_NAMES",
    "PolicyBundle",
    "RackCellResult",
    "RackGrid",
    "RackGridResult",
    "RoundRobinBalancer",
    "SCENARIO_SHAPES",
    "ThermalBalancer",
    "build_policy",
    "build_scenario_arrivals",
    "fleet_compare_experiment",
    "fleet_experiment",
    "rack_cell_spec",
    "replica_configs",
    "run_rack_cell",
    "scenarios_experiment",
]
