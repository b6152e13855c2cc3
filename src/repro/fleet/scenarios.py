"""The ``scenarios`` CLI experiment: injection × load shape × policy.

The paper evaluates the web workload at one operating point — a fixed
Poisson arrival rate (§3.7).  Production traffic is not flat, and the
regimes where preventive injection's "defer work now" trade-off bites
are exactly the time-varying ones: a diurnal trough gives injection
free thermal headroom, a flash crowd punishes any deferred capacity,
and heavy-tailed bursts stress the backlog the paper warns about
("deferring idle cycles ... increases processor load and heat").

This experiment sweeps injection probability × load shape across the
scheduling-policy registry (:mod:`repro.fleet.scheduling`), serving
every cell on an identically seeded rack.  Each run is scored with the
windowed SLO scorer (:mod:`repro.analysis.slo`): per-window
good/tolerable/failed fractions over half-open windows, worst-window
and time-in-violation summaries — the numbers a whole-run average
hides.  Per shape, the non-baseline cells form a QoS-vs-temperature
Pareto frontier (:func:`~repro.core.pareto.pareto_boundary`), and the
full per-window series lands in the run manifest via the result's
``manifest_payload()`` (``--metrics``).

Load shapes (registry: :data:`~repro.fleet.cells.SCENARIO_SHAPES`):

``constant``   the paper's fixed-rate reference point;
``diurnal``    one sinusoidal day/night cycle compressed into the run;
``surge``      a flash crowd: 2x the nominal rate for the middle fifth;
``bursty``     Poisson baseline + Pareto-sized request bursts;
``trace``      a frozen trace synthesized once from a composed
               diurnal+surge shape and replayed bit-identically for
               every policy and ``p`` (trace-driven arrivals).

Like ``fleet`` and ``fleet-compare``, this is a
:class:`~repro.fleet.grid.RackGrid` definition made an entry point by
:func:`~repro.fleet.grid.rack_experiment`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..experiments.config import ExperimentConfig
from ..experiments.reporting import percent
from ..health import HealthParams
from ..workloads.webserver import (
    QOS_GOOD,
    QOS_TOLERABLE,
    offered_load_per_core,
    scoring_span,
)
from .cells import SCENARIO_SHAPES
from .grid import RackGrid, RackGridResult, rack_experiment, rack_size

#: Default policy subset for the sweep (the full registry makes the
#: grid 5x larger for little extra signal; ``--policy`` narrows to one).
DEFAULT_POLICIES = ("round-robin", "coolest", "migrate")

#: Default injection probabilities (0 is the per-shape baseline and is
#: always included even if the caller drops it).
DEFAULT_P_VALUES = (0.0, 0.4, 0.8)


def _json_safe(value: Optional[float]) -> Optional[float]:
    """NaN/Inf become None (JSON null), everything else passes through."""
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def _pareto_lines(res: RackGridResult) -> List[str]:
    """One ``pareto[shape]: ...`` line per shape with a frontier."""
    lines = []
    for shape in res.shapes:
        frontier = res.pareto(shape)
        if frontier:
            cells = ", ".join(
                f"{pt.params['policy']}@p={pt.params['p']:g} "
                f"(cool {percent(pt.temp_reduction)}, "
                f"QoS cost {percent(pt.throughput_reduction)})"
                for pt in frontier
            )
            lines.append(f"pareto[{shape}]: {cells}")
    return lines


def _manifest_payload(res: RackGridResult, window: float) -> Dict[str, Any]:
    """JSON-safe artifact for the run manifest: per-cell window series
    + summaries and the per-shape Pareto tables.

    Contains no NaN/Inf anywhere (``None`` is the no-data marker), so
    the manifest stays strict JSON (``allow_nan=False`` clean).
    """
    runs = []
    for row in res.rows:
        run = row.run
        runs.append(
            {
                "shape": row.shape,
                "policy": row.policy,
                "p": row.p,
                "summary": row.report.summary(),
                "series": row.report.series(),
                "mean_temp": _json_safe(run.mean_temp),
                "peak_temp": _json_safe(run.peak_temp),
                "rise": _json_safe(res.rise(row)),
                "energy": _json_safe(run.energy),
                "requests": run.requests,
                "migrations": run.migrations,
                "p95_response": _json_safe(row.cell.p95_response),
                "alerts": run.alerts,
                "critical_alerts": run.critical_alerts,
                "time_in_warning_s": _json_safe(run.time_in_warning_s),
                "time_in_critical_s": _json_safe(run.time_in_critical_s),
            }
        )
    grid = res.grid
    return {
        "machines": grid.machines,
        "duration": grid.duration,
        "warmup": grid.warmup,
        "window": window,
        "idle_quantum": grid.idle_quantum,
        "idle_mean_temp": _json_safe(res.idle_mean_temp),
        "good_threshold": QOS_GOOD,
        "tolerable_threshold": QOS_TOLERABLE,
        "shapes": res.shapes,
        "policies": res.policies,
        "p_values": res.p_values,
        "runs": runs,
        "pareto": {
            shape: [
                {
                    "policy": pt.params["policy"],
                    "p": pt.params["p"],
                    "temp_reduction": _json_safe(pt.temp_reduction),
                    "qos_reduction": _json_safe(pt.throughput_reduction),
                    "efficient": pt.params["label"] in res.efficient,
                }
                for pt in res.tradeoffs(shape)
            ]
            for shape in res.shapes
        },
    }


@rack_experiment
def scenarios_experiment(
    config: ExperimentConfig,
    *,
    machines: Optional[int] = None,
    duration: Optional[float] = None,
    shapes: Optional[Sequence[str]] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    p_values: Sequence[float] = DEFAULT_P_VALUES,
    idle_quantum: float = 0.050,
    warmup: float = 5.0,
    window: Optional[float] = None,
    policy: Optional[str] = None,
    health_params: Optional[HealthParams] = None,
) -> RackGrid:
    """Sweep injection probability × load shape × scheduling policy.

    Every cell runs a fresh, identically seeded rack, so cells differ
    only by (shape, policy, p); its row label is ``shape,policy,p=P``.
    The fast preset runs a 2-machine rack (the grid is the cost driver,
    not the rack), ``--full`` 16 machines.  ``policy`` (the CLI
    ``--policy``) narrows the policy axis to one name; otherwise
    :data:`DEFAULT_POLICIES` is swept.  ``p = 0`` is always included —
    it is each shape's QoS/thermal baseline for the Pareto frontier.

    Scoring: each cell pools its rack's requests arriving in the web
    scoring span ``[warmup, duration - 5s)`` and scores them whole-run
    and in half-open windows of ``window`` seconds (default: a fifth of
    the span) *inside the cell*, so only the window series — never the
    raw request log — crosses a process boundary.  Under
    ``--keep-going`` a failed cell drops its row — the frontier of a
    shape that lost its baseline is simply empty.
    """
    machines, duration = rack_size(
        config, machines=machines, duration=duration, warmup=warmup, fast=2, full=16
    )
    if window is None:
        start, end = scoring_span(duration, warmup)
        window = max(1.0, (end - start) / 5.0)
    if policy is not None:
        policies = (policy,)
    shapes = tuple(shapes) if shapes is not None else SCENARIO_SHAPES
    p_values = tuple(p_values)
    if 0.0 not in p_values:
        p_values = (0.0,) + p_values
    load = percent(offered_load_per_core(config.num_cores))
    return RackGrid(
        name="scenarios",
        config=config,
        machines=machines,
        duration=duration,
        warmup=warmup,
        idle_quantum=idle_quantum,
        health=health_params,
        rows={
            f"{shape},{name},p={p}": {
                "p": p,
                "policy": name,
                "shape": shape,
                "slo_window": window,
            }
            for shape in shapes
            for name in policies
            for p in p_values
        },
        columns={
            "shape": "shape",
            "policy": "policy",
            "p": "p",
            "rise [C]": "rise",
            "peak [C]": "peak",
            "QoS good": "slo_good",
            "QoS tol.": "slo_tol",
            "worst win": "slo_worst",
            "viol [s]": "slo_violation",
            "p95 [s]": "slo_p95",
            "alerts": "alerts",
            "crit [s]": "crit",
            "migr": "migr",
            "pareto": "pareto",
        },
        title=lambda res: (
            f"Scenarios: {machines} machines x {duration:.0f}s, "
            f"{len(shapes)} shapes x {len(policies)} policies x "
            f"{len(p_values)} p values "
            f"(window {window:.1f}s, nominal load/core {load}; "
            f"* = Pareto-efficient within its shape)"
        ),
        compact_health=True,
        footer=_pareto_lines,
        artifact=lambda res: _manifest_payload(res, window),
        metrics_scope="scenarios",
    )
