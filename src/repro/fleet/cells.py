"""Rack cells: one rack run as a batchable, cacheable unit of work.

The fleet experiments (``fleet``, ``fleet-compare``, ``scenarios``)
are grids of *fully independent* rack simulations — each cell builds
its own :class:`~repro.fleet.machine.FleetMachine` from its own
config and shares no state with any other cell.  This module expresses
one rack run as the :mod:`repro.runtime` unit of work:

- :func:`rack_cell_spec` builds a picklable
  :class:`~repro.runtime.parallel.RunSpec` (kind ``"rack-cell"``)
  whose cache key covers the experiment config and every cell
  parameter (policy, load shape, injection, health thresholds, SLO
  window length);
- :func:`run_rack_cell` is the registered executor: it rebuilds the
  rack from the declarative parameters (arrival shapes come from
  :func:`build_scenario_arrivals`, node programming from scalar flags
  — nothing unpicklable crosses a process boundary), runs and
  monitors it, and scores its pooled requests over the one web scoring
  span into a :class:`RackCellResult`;
- :class:`RackCellResult` is the serialisable cell result — the
  :class:`RackRun` measurement, the health rollup and the windowed SLO
  report, all simulated data — which the result cache stores as JSON,
  so cached replay is bit-identical to execution.

The foot of the module declares the kind in one
:func:`~repro.runtime.kinds.register_executor` call: executor, result
type, and the source trees keying it — the physics modules plus
:data:`FLEET_MODULES`, so editing a scheduling policy invalidates
exactly the rack cells, not the figure sweeps.

Because each cell rebuilds its rack from ``(config, params)`` alone,
a ``jobs=N`` fan-out is bit-identical to a serial loop, and the
pool/cache/journal/retry/timeout stack (``--jobs``, ``--cache-dir``,
``--resume``, ``--timeout``, ``--keep-going``) applies to fleet
experiments exactly as it does to figure sweeps.  The experiments
themselves are grid definitions run by :mod:`repro.fleet.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..analysis.slo import SloReport, WindowScore, score_windows
from ..core.migration import ThermalMigrationPolicy
from ..cpu.tcc import TccSetting
from ..errors import ConfigurationError
from ..experiments.config import ExperimentConfig
from ..health import HealthParams
from ..runtime.hashing import PHYSICS_MODULES
from ..runtime.kinds import register_executor
from ..runtime.parallel import RunSpec
from ..sim.rng import RngRegistry
from ..telemetry.registry import registry as _metrics_registry
from ..workloads.loadshapes import (
    ArrivalProcess,
    ConstantLoad,
    DiurnalLoad,
    MergedArrivals,
    ParetoBurstArrivals,
    PoissonArrivals,
    StepLoad,
    TraceArrivals,
    synthesize_request_trace,
)
from ..workloads.webserver import QOS_GOOD, QOS_TOLERABLE, RequestLog, WebServer, scoring_span
from .machine import FleetMachine
from .scheduling.registry import build_policy

#: The executor kind rack cells run under (see ``repro.runtime``).
RACK_CELL_KIND = "rack-cell"

#: Paths (relative to the ``repro`` package) that rack cells depend on
#: beyond one machine's physics: the fleet layer (balancers, scheduling
#: policies, the experiments themselves), health monitoring, and the SLO
#: scorer.  Disjoint from :data:`~repro.runtime.hashing.PHYSICS_MODULES`
#: (``fleet/machine.py`` is physics), so editing them never invalidates
#: cached figure sweeps.
FLEET_MODULES = ("fleet", "health", "analysis")

#: Load-shape registry; its order is presentation order in reports.
SCENARIO_SHAPES = ("constant", "diurnal", "surge", "bursty", "trace")


def build_scenario_arrivals(
    name: str,
    *,
    rate: float,
    duration: float,
    rng: np.random.Generator,
) -> ArrivalProcess:
    """Construct the named shape's arrival process for a rack sized for
    ``rate`` requests/s aggregate, over a ``duration``-second run.

    ``rng`` is consumed only by the ``trace`` shape (to synthesize the
    frozen trace); the live shapes draw from the balancer's stream at
    run time.  Unknown names raise :class:`ConfigurationError` listing
    the registry.
    """
    if name == "constant":
        return PoissonArrivals(ConstantLoad(rate))
    if name == "diurnal":
        # One full day/night cycle compressed into the run: the trough
        # is where injection gets free headroom, the crest where it
        # must pay the deferred work back.
        return PoissonArrivals(
            DiurnalLoad(rate, amplitude=0.6, period=duration, phase=0.0)
        )
    if name == "surge":
        # Flash crowd: double the nominal rate for the middle fifth.
        return PoissonArrivals(
            StepLoad(
                0.75 * rate,
                2.0 * rate,
                start=0.4 * duration,
                duration=0.2 * duration,
            )
        )
    if name == "bursty":
        # 70% smooth Poisson baseline + 30% of the load arriving as
        # Pareto-sized bursts (heavy-tailed bunching).
        burst_mean = 40.0
        return MergedArrivals(
            PoissonArrivals(ConstantLoad(0.7 * rate)),
            ParetoBurstArrivals(
                burst_rate=0.3 * rate / burst_mean,
                mean_burst_size=burst_mean,
                alpha=1.5,
                in_burst_rate=max(4.0 * rate, 100.0),
            ),
        )
    if name == "trace":
        # Freeze a composed diurnal+surge shape into a concrete trace:
        # every policy/p cell replays bit-identical arrival times.
        shape = DiurnalLoad(
            0.7 * rate, amplitude=0.5, period=duration
        ) + StepLoad(
            0.0, 0.6 * rate, start=0.5 * duration, duration=0.15 * duration
        )
        trace = synthesize_request_trace(rng, duration=duration, shape=shape)
        return TraceArrivals(trace)
    raise ConfigurationError(
        f"unknown load shape {name!r} (known: {', '.join(SCENARIO_SHAPES)})"
    )


# ----------------------------------------------------------------------
# The serialisable cell result
# ----------------------------------------------------------------------
@dataclass
class RackRun:
    """Rack-wide measurements from one rack run."""

    qos_good: float
    qos_tolerable: float
    mean_response: float
    mean_temp: float
    peak_temp: float
    energy: float
    work_done: float
    requests: int
    migrations: int = 0
    migration_cost_s: float = 0.0
    #: Health-monitor rollups (warning + critical escalations, summed
    #: machine-seconds in each state) and, for the alert-reactive
    #: policy, the controllers' time-weighted throttle dwell.
    alerts: int = 0
    critical_alerts: int = 0
    time_in_warning_s: float = 0.0
    time_in_critical_s: float = 0.0
    throttle_engagements: int = 0
    time_throttled_s: float = 0.0


@dataclass
class RackCellResult:
    """Everything downstream scoring needs from one rack run, in plain
    picklable/JSON-codable data (no live fleet, no request logs)."""

    #: The rack-wide measurement (QoS, temperatures, energy, alerts).
    run: RackRun
    #: The rack's idle baseline (°C) — identical for every cell of a
    #: grid that shares a config, carried per cell for self-containment.
    idle_mean_temp: float
    #: The full health-monitor summary (JSON-safe), per-machine detail
    #: included; the grid decides how much of it a manifest keeps.
    health: Dict[str, Any]
    #: Intra-chip heat-and-run migrations summed over nodes (the
    #: inter-chip count lives in ``run.migrations``).
    core_migrations: int = 0
    #: Windowed SLO report (only when the cell was asked to score one).
    slo: Optional[SloReport] = None
    #: Whole-run p95 response time over answered requests in the
    #: scoring span, seconds (None when not scored or nothing answered).
    p95_response: Optional[float] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RackCellResult":
        """Rebuild a cell from its ``dataclasses.asdict`` form (the
        result cache's decoder for this type)."""
        data = dict(payload)
        data["run"] = RackRun(**data["run"])
        slo = data.get("slo")
        if slo is not None:
            data["slo"] = SloReport(**{**slo, "windows": [WindowScore(**w) for w in slo["windows"]]})
        return cls(**data)


# ----------------------------------------------------------------------
# Spec construction
# ----------------------------------------------------------------------
def replica_configs(config: ExperimentConfig, machines: int) -> List[ExperimentConfig]:
    """A rack's node configs: node ``j`` is ``config`` seeded
    ``config.seed + j``, so node 0 is seeded as the server
    ``Machine(config)`` returns and the other nodes are replicas with
    decorrelated workload randomness."""
    return [config.with_seed(config.seed + j) for j in range(machines)]


def rack_cell_spec(config: Any, **params: Any) -> RunSpec:
    """A :class:`RunSpec` for one rack cell.

    ``params`` are :func:`run_rack_cell` keyword arguments; every one
    of them participates in the cache key, alongside the config and the
    fingerprint of the kind's code.
    """
    return RunSpec(kind=RACK_CELL_KIND, config=config, params=params)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    """Collapse numpy scalars so executed and cache-replayed results
    are structurally identical (the cache stores JSON numbers)."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _peak_temp(fleet: FleetMachine, *, start: float) -> float:
    """Hottest sampled core temperature anywhere in the rack from
    ``start`` on (the rack's worst thermal excursion, fig2's peak
    measured fleet-wide)."""
    peaks = [
        float(node.templog.samples[node.templog.times >= start].max())
        for node in fleet.nodes
        if np.any(node.templog.times >= start)
    ]
    return max(peaks) if peaks else fleet.idle_mean_temp


def run_rack_cell(
    config: Any,
    *,
    machines: int,
    duration: float,
    warmup: float,
    p: float,
    idle_quantum: float,
    policy: str = "round-robin",
    shape: Optional[str] = None,
    dvfs_min: bool = False,
    tcc_duty: Optional[float] = None,
    heat_and_run: bool = False,
    health: Optional[HealthParams] = None,
    slo_window: Optional[float] = None,
) -> RackCellResult:
    """Build, load-balance, monitor, run, and score one rack — the
    ``rack-cell`` executor.

    ``policy`` names the scheduling policy (``repro.fleet.scheduling``
    registry).  ``shape`` names a load shape from
    :data:`SCENARIO_SHAPES`, sized for the rack's nominal aggregate
    rate (``machines`` times one web server's arrival rate, what the
    balancer is told); None keeps the web servers' default fixed-rate
    Poisson front door.  ``dvfs_min``/``tcc_duty``/``heat_and_run``
    program every node before the rack starts (the technique knobs of
    ``fleet-compare``); heat-and-run reads only the node's sampled
    telemetry, never live physics.  Every rack runs with health
    monitors attached (``health`` overrides the default
    :class:`~repro.health.HealthParams`): the alert-reactive policy
    requires them.

    QoS is scored rack-wide over fig6's span,
    :func:`~repro.workloads.webserver.scoring_span`: the requests of
    every server, pooled into one
    :class:`~repro.workloads.webserver.RequestLog` and scored by its
    ``qos_fraction``/``mean_response_time``.  ``slo_window`` is a
    window length: when given, the same span is also scored in windows
    of that length *inside the cell*, with its p95 response time, so
    only the report — not the request log — crosses the process
    boundary.  The span is not validated here; grids check it up front.
    """
    fleet = FleetMachine(replica_configs(config, machines))
    monitors = fleet.attach_health(health)
    servers = [
        WebServer(node.scheduler, node.rng.stream("web"), external_arrivals=True)
        for node in fleet.nodes
    ]
    rate = machines * servers[0].arrival_rate
    arrivals = None
    if shape is not None:
        # A fresh, identically seeded stream per cell: the trace shape
        # synthesizes the same frozen trace in every cell (bit-identical
        # replay), and the live shapes draw from the balancer's own
        # per-rack stream at run time.
        trace_rng = RngRegistry(config.seed).stream("scenario-trace")
        arrivals = build_scenario_arrivals(
            shape, rate=rate, duration=duration, rng=trace_rng
        )
    bundle = build_policy(
        policy,
        fleet,
        servers,
        rate=rate,
        rng=RngRegistry(config.seed).stream("fleet-balancer"),
        arrivals=arrivals,
        health=monitors,
    )
    core_policies: List[ThermalMigrationPolicy] = []
    for node in fleet.nodes:
        if dvfs_min:
            node.chip.set_operating_point(node.chip.dvfs_table.min_point)
        if tcc_duty is not None:
            node.chip.set_tcc(TccSetting(duty=tcc_duty))
        if heat_and_run:
            def read_temps(node=node):
                sample = node.templog.latest()
                return node.idle_core_temps if sample is None else sample

            core_policies.append(
                ThermalMigrationPolicy(
                    node.sim, node.scheduler, read_temps, period=1.0, min_delta=0.5
                )
            )
    if p > 0:
        for node in fleet.nodes:
            node.control.set_global_policy(p, idle_quantum)
    fleet.run(duration)
    bundle.stop()
    bundle.finalize(fleet.now)
    monitors.stop()
    monitors.finalize()
    for core_policy in core_policies:
        core_policy.stop()
    _metrics_registry().scope("fleet").counter("cells").inc()

    start, end = scoring_span(duration, warmup)
    log = RequestLog([r for s in servers for r in s.log.requests])
    scored = log.arrived_in(start, end)
    run = RackRun(
        **_plain(
            dict(
                qos_good=log.qos_fraction(QOS_GOOD, start=start, end=end),
                qos_tolerable=log.qos_fraction(QOS_TOLERABLE, start=start, end=end),
                mean_response=log.mean_response_time(start=start, end=end),
                mean_temp=fleet.mean_core_temp_over_window(),
                peak_temp=_peak_temp(fleet, start=warmup),
                energy=fleet.total_energy(),
                work_done=fleet.total_work_done(),
                requests=len(scored),
                migrations=bundle.migrations,
                migration_cost_s=bundle.migration_cost_seconds,
                alerts=monitors.alerts,
                critical_alerts=monitors.critical_alerts,
                time_in_warning_s=monitors.time_in_warning,
                time_in_critical_s=monitors.time_in_critical,
                throttle_engagements=bundle.throttle_engagements,
                time_throttled_s=bundle.time_throttled_seconds,
            )
        )
    )

    slo: Optional[SloReport] = None
    p95: Optional[float] = None
    if slo_window is not None:
        slo = score_windows(log.requests, start=start, end=end, window=slo_window)
        answered = [r.response_time for r in scored if r.response_time is not None]
        p95 = float(np.percentile(answered, 95.0)) if answered else None

    result = RackCellResult(
        run=run,
        idle_mean_temp=float(fleet.idle_mean_temp),
        health=_plain(monitors.summary()),
        core_migrations=int(sum(hr.migrations for hr in core_policies)),
        slo=slo,
        p95_response=p95,
    )
    fleet.close()
    return result


register_executor(
    RACK_CELL_KIND,
    run_rack_cell,
    result=RackCellResult,
    code=PHYSICS_MODULES + FLEET_MODULES,
)
