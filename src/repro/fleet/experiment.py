"""The ``fleet`` and ``fleet-compare`` CLI experiments: web racks.

``fleet`` mirrors fig6 rack-wide: a baseline rack (no injection) and a
Dimetrodon rack (global policy ``p``, idle quantum ``L``) serve the
§3.7 SPECWeb-like workload behind the same scheduling policy, and the
report shows QoS retention against temperature reduction.

``fleet-compare`` re-stages Figure 4's comparison at rack scale and
adds the techniques only a cluster has: thermal-aware placement and
inter-chip migration (``repro.fleet.scheduling``), plus intra-chip
heat-and-run (:class:`~repro.core.migration.ThermalMigrationPolicy`).
Every technique serves the same workload on an identical rack; the
report scores each by temperature (mean and peak rise over idle)
against QoS retention and marks the Pareto-efficient techniques — the
non-domination analysis §3.4 applies to parameter sweeps, applied
across techniques.  Expectations mirror the paper's: DVFS trades
throughput steeply but wins deep reductions; TCC pays QoS for little
cooling; placement/migration are nearly QoS-free but shallow (they
spread heat, they don't remove it); injection sits in between; and
injection + migration compose.  The ``alert-reactive`` row is the §1
contrast made concrete: a monitor-driven DTM daemon that throttles
only *after* a critical alert fires — its alert count and
time-in-critical columns show the emergencies preventive injection
never lets happen.

Both are :class:`~repro.fleet.grid.RackGrid` definitions made entry
points by :func:`~repro.fleet.grid.rack_experiment`: every rack is an
independent rack cell, so ``runner`` (``--jobs``, ``--cache-dir``,
``--resume``, ``--keep-going``) applies (see
docs/running-experiments.md).
"""

from __future__ import annotations

from typing import Optional

from ..experiments.config import ExperimentConfig
from ..experiments.reporting import percent
from ..health import HealthParams
from ..workloads.webserver import offered_load_per_core
from .grid import RackGrid, rack_experiment, rack_size

#: Header -> record key of the columns both tables share.
_THERMAL = {"rise [C]": "rise", "peak [C]": "peak", "QoS good": "qos_good", "QoS tol.": "qos_tol"}


@rack_experiment
def fleet_experiment(
    config: ExperimentConfig,
    *,
    machines: Optional[int] = None,
    duration: Optional[float] = None,
    p: float = 0.65,
    idle_quantum: float = 0.050,
    warmup: float = 5.0,
    policy: str = "round-robin",
    health_params: Optional[HealthParams] = None,
) -> RackGrid:
    """Rack-wide QoS vs temperature reduction under idle injection.

    ``machines``/``duration`` default by preset: the fast preset runs a
    16-machine rack for ``warmup + measure_window + 5`` seconds,
    ``--full`` a 256-machine rack (the "hundreds of servers" scale).
    Every machine is a 4-core server from the shared config, node ``j``
    seeded ``config.seed + j``.  ``policy`` (``--policy``) is used by
    *both* racks, so the report shows what injection buys under that
    policy; ``health_params`` (the ``--health-*`` flags) overrides the
    monitoring thresholds of both.
    """
    machines, duration = rack_size(
        config, machines=machines, duration=duration, warmup=warmup, fast=16, full=256
    )
    load = percent(offered_load_per_core(config.num_cores))
    return RackGrid(
        name="fleet",
        config=config,
        machines=machines,
        duration=duration,
        warmup=warmup,
        idle_quantum=idle_quantum,
        health=health_params,
        rows={"baseline": {"policy": policy}, "dimetrodon": {"p": p, "policy": policy}},
        required=("baseline", "dimetrodon"),
        columns={
            "rack": "label",
            "p": "p",
            "L [ms]": "L_ms",
            **_THERMAL,
            "mean resp [s]": "mean_resp",
            "alerts": "alerts",
            "crit [s]": "crit",
            "migr": "migr",
            "energy [kJ]": "energy",
            "work [CPU-s]": "work",
        },
        title=lambda res: (
            f"Fleet: {machines} machines x {duration:.0f}s web serving "
            f"(policy {policy}, load/core {load}, "
            f"temp reduction {percent(res.temp_reduction(res.rows[1]))})"
        ),
    )


@rack_experiment
def fleet_compare_experiment(
    config: ExperimentConfig,
    *,
    machines: Optional[int] = None,
    duration: Optional[float] = None,
    p: float = 0.65,
    idle_quantum: float = 0.050,
    warmup: float = 5.0,
    health_params: Optional[HealthParams] = None,
) -> RackGrid:
    """Rack-wide cross-technique comparison (fig4 at fleet scale).

    Each technique gets a fresh, identically seeded rack, so rows
    differ only by the technique.  The comparison rack is smaller than
    the plain ``fleet`` experiment's (9 racks): 4 machines on the fast
    preset, 64 with ``--full``.  Technique knobs enter a row only when
    they deviate from the executor defaults, so the baseline keys
    identically to the same rack built by any other experiment and
    shares its cache entry.  Under ``--keep-going`` a failed
    non-baseline row is dropped (the failure report names it); a lost
    baseline is an error, since every other row is scored against it.
    """
    machines, duration = rack_size(
        config, machines=machines, duration=duration, warmup=warmup, fast=4, full=64
    )
    load = percent(offered_load_per_core(config.num_cores))
    return RackGrid(
        name="fleet-compare",
        config=config,
        machines=machines,
        duration=duration,
        warmup=warmup,
        idle_quantum=idle_quantum,
        health=health_params,
        rows={
            "baseline": {},
            "dimetrodon": {"p": p},
            "dvfs-min": {"dvfs_min": True},
            "tcc-50": {"tcc_duty": 0.5},
            "alert-reactive": {"policy": "alert-reactive"},
            "heat-and-run": {"heat_and_run": True},
            "coolest": {"policy": "coolest"},
            "migrate": {"policy": "migrate"},
            "dimetrodon+migrate": {"p": p, "policy": "migrate"},
        },
        required=("baseline",),
        columns={
            "technique": "label",
            **_THERMAL,
            "alerts": "alerts",
            "crit [s]": "crit",
            "thr [s]": "thr",
            "migr": "migr",
            "energy [kJ]": "energy",
            "pareto": "pareto",
        },
        title=lambda res: (
            f"Fleet technique comparison: {machines} machines x "
            f"{duration:.0f}s web serving (p={p}, load/core {load}; "
            f"* = Pareto-efficient)"
        ),
        metrics_scope="fleet.compare",
    )
