"""The rack-grid driver: every fleet experiment is a grid definition.

``fleet``, ``fleet-compare`` and ``scenarios`` are grids of identical,
identically seeded racks that differ only in a few
:func:`~repro.fleet.cells.run_rack_cell` parameters.  Each experiment
is a function decorated with :func:`rack_experiment` that returns a
:class:`RackGrid` — plain data plus small projections:

- the ordered row labels, each mapped to the parameters it changes
  (injection ``p``, scheduling ``policy``, load ``shape``, technique
  knobs, SLO scoring window);
- the rack size, resolved by the one preset rule :func:`rack_size`;
- the rows whose loss under ``--keep-going`` is fatal;
- the table columns (header -> :meth:`RackGridResult.record` key;
  the ``pareto`` key marks each shape's Pareto-efficient rows), title
  and optional footer;
- how the health section is shaped (keyed by row label, or compact
  per cell);
- optionally a manifest artifact and a telemetry scope.

:func:`run_grid` is the one place that builds the rack-cell specs,
runs them through a :class:`~repro.runtime.parallel.ParallelRunner`
(pool, cache, journal), checks the required rows survived, and wraps
the cells in a :class:`RackGridResult`, which scores tradeoffs against
each shape's baseline, renders the table, and builds the manifest
payloads.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.slo import SloReport
from ..core.pareto import TradeoffPoint, pareto_boundary
from ..errors import ConfigurationError
from ..experiments.config import ExperimentConfig
from ..experiments.reporting import format_table, percent
from ..health import HealthParams
from ..runtime.parallel import ParallelRunner, RunSpec, run_required
from ..telemetry.registry import registry as _metrics_registry
from ..workloads.webserver import QOS_TOLERABLE, check_scoring_span
from .cells import SCENARIO_SHAPES, RackCellResult, RackRun, rack_cell_spec
from .scheduling.registry import POLICY_NAMES


def rack_size(
    config: ExperimentConfig,
    *,
    machines: Optional[int],
    duration: Optional[float],
    warmup: float,
    fast: int,
    full: int,
) -> Tuple[int, float]:
    """Resolve ``(machines, duration)`` for the preset: ``fast`` or
    ``full`` machines (the longer paper-faithful characterization also
    gets the paper-scale rack), and a run of warmup + one measurement
    window + the tolerable-QoS drain."""
    if machines is None:
        machines = full if config.characterization_duration >= 300.0 else fast
    if duration is None:
        duration = warmup + config.measure_window + QOS_TOLERABLE
    return machines, duration


@dataclass(frozen=True)
class RackGrid:
    """One rack experiment as data (see the module docstring)."""

    name: str
    config: ExperimentConfig
    machines: int
    duration: float
    warmup: float
    idle_quantum: float
    #: Row label -> the :func:`run_rack_cell` parameters it sets beyond
    #: the rack size (``p`` defaults to 0, ``policy`` to round-robin).
    #: Each shape's first ``p = 0`` row is its baseline.
    rows: Dict[str, Dict[str, Any]]
    #: Table header -> :meth:`RackGridResult.record` key, in order (the
    #: ``pareto`` key marks each shape's Pareto-efficient rows).
    columns: Dict[str, str]
    title: Callable[["RackGridResult"], str]
    health: Optional[HealthParams] = None
    #: Labels whose loss under ``--keep-going`` is an error.
    required: Sequence[str] = ()
    #: Health section: one compact totals row per cell instead of the
    #: full summary keyed by row label.
    compact_health: bool = False
    footer: Optional[Callable[["RackGridResult"], List[str]]] = None
    artifact: Optional[Callable[["RackGridResult"], Dict[str, Any]]] = None
    #: Telemetry scope counting racks (and SLO windows/requests).
    metrics_scope: Optional[str] = None

    def __post_init__(self) -> None:
        check_scoring_span(self.duration, self.warmup)
        for label in self.rows:
            params = self.params(label)
            if params["policy"] not in POLICY_NAMES:
                raise ConfigurationError(
                    f"unknown scheduling policy {params['policy']!r} "
                    f"(known: {', '.join(POLICY_NAMES)})"
                )
            if params.get("shape") not in (None, *SCENARIO_SHAPES):
                raise ConfigurationError(
                    f"unknown load shape {params['shape']!r} "
                    f"(known: {', '.join(SCENARIO_SHAPES)})"
                )

    def params(self, label: str) -> Dict[str, Any]:
        """Row ``label``'s complete :func:`run_rack_cell` keywords."""
        if label not in self.rows:
            raise ConfigurationError(
                f"{self.name} has no row {label!r} (known: {', '.join(self.rows)})"
            )
        params = dict(
            machines=self.machines,
            duration=self.duration,
            warmup=self.warmup,
            idle_quantum=self.idle_quantum,
            p=0.0,
            policy="round-robin",
        )
        params.update(self.rows[label])
        if self.health is not None:
            params["health"] = self.health
        return params

    def spec(self, label: str) -> RunSpec:
        return rack_cell_spec(self.config, **self.params(label))


@dataclass
class RackRow:
    """One grid row: its label, the axes it varies, and its cell."""

    label: str
    shape: Optional[str]
    policy: str
    p: float
    cell: RackCellResult

    @property
    def run(self) -> RackRun:
        return self.cell.run

    @property
    def report(self) -> Optional[SloReport]:
        return self.cell.slo


def run_grid(grid: RackGrid, runner: Optional[ParallelRunner] = None) -> "RackGridResult":
    """Run every row of ``grid`` as a rack cell through ``runner``'s
    pool/cache/journal stack (a serial, uncached runner when None;
    ``--jobs`` results are bit-identical to serial).  Under
    ``--keep-going`` a failed row is dropped; a failed required row is
    an :class:`~repro.errors.ExecutionError`."""
    labels = list(grid.rows)
    results = run_required(
        grid.name,
        [grid.spec(label) for label in labels],
        runner,
        required={labels.index(label): label for label in grid.required},
    )
    cells = dict(zip(labels, results))
    rows = []
    for label, cell in cells.items():
        if cell is None:
            continue
        params = grid.params(label)
        rows.append(RackRow(label, params.get("shape"), params["policy"], params["p"], cell))
        if grid.metrics_scope is not None:
            metrics = _metrics_registry().scope(grid.metrics_scope)
            metrics.counter("racks").inc()
            if cell.slo is not None:
                metrics.counter("windows").inc(len(cell.slo.windows))
                metrics.counter("requests").inc(cell.slo.total_arrivals)
    return RackGridResult(grid, rows)


def rack_experiment(define: Callable[..., RackGrid]) -> Callable[..., "RackGridResult"]:
    """Make grid definition ``define`` an experiment entry point.

    The entry point takes ``define``'s arguments plus ``runner`` (an
    optional :class:`~repro.runtime.parallel.ParallelRunner`) and runs
    the defined grid through :func:`run_grid`.  Its signature is
    ``define``'s plus ``runner``, so the CLI derives ``--policy`` and
    ``--health-*`` support from the definition itself;
    ``experiment.grid`` is ``define`` (a grid without running it).
    """

    @functools.wraps(define)
    def experiment(config: ExperimentConfig, *, runner=None, **options):
        return run_grid(define(config, **options), runner)

    signature = inspect.signature(define)
    runner = inspect.Parameter(
        "runner", inspect.Parameter.KEYWORD_ONLY, default=None, annotation="Optional[ParallelRunner]"
    )
    experiment.__signature__ = signature.replace(
        parameters=[*signature.parameters.values(), runner],
        return_annotation="RackGridResult",
    )
    experiment.grid = define
    return experiment


def _pct(fraction: Optional[float]) -> str:
    return "n/a" if fraction is None else percent(fraction)


@dataclass
class RackGridResult:
    """A run grid: its surviving rows plus scoring and rendering."""

    grid: RackGrid
    rows: List[RackRow] = field(default_factory=list)

    # -- the grid's axes -----------------------------------------------
    def _axis(self, name: str) -> list:
        return list(dict.fromkeys(self.grid.params(label).get(name) for label in self.grid.rows))

    @property
    def shapes(self) -> list:
        return self._axis("shape")

    @property
    def policies(self) -> List[str]:
        return self._axis("policy")

    @property
    def p_values(self) -> List[float]:
        return self._axis("p")

    @property
    def idle_mean_temp(self) -> float:
        return self.rows[0].cell.idle_mean_temp if self.rows else 0.0

    # -- scoring -------------------------------------------------------
    def shape_rows(self, shape: Optional[str] = None) -> List[RackRow]:
        return [row for row in self.rows if row.shape == shape]

    def baseline_for(self, shape: Optional[str] = None) -> Optional[RackRow]:
        """The shape's first ``p = 0`` row, or None when it did not
        survive ``--keep-going``."""
        label = next(
            (
                label
                for label in self.grid.rows
                if self.grid.params(label).get("shape") == shape
                and self.grid.params(label)["p"] == 0.0
            ),
            None,
        )
        return next((row for row in self.rows if row.label == label), None)

    def rise(self, row: RackRow) -> float:
        return row.run.mean_temp - self.idle_mean_temp

    def temp_reduction(self, row: RackRow) -> float:
        """Fraction of the baseline's rise over idle that ``row`` removes."""
        base = self.rise(self.baseline_for(row.shape))
        return (base - self.rise(row)) / base if base > 0 else 0.0

    def tradeoffs(self, shape: Optional[str] = None) -> List[TradeoffPoint]:
        """(temp reduction, QoS-good reduction) per non-baseline row of
        ``shape`` with QoS data (empty without a baseline)."""
        baseline = self.baseline_for(shape)
        if baseline is None or not baseline.run.qos_good > 0:
            return []
        return [
            TradeoffPoint(
                temp_reduction=self.temp_reduction(row),
                throughput_reduction=1.0 - row.run.qos_good / baseline.run.qos_good,
                params={"label": row.label, "policy": row.policy, "p": row.p},
            )
            for row in self.shape_rows(shape)
            if row is not baseline and not math.isnan(row.run.qos_good)
        ]

    def pareto(self, shape: Optional[str] = None) -> List[TradeoffPoint]:
        """The shape's Pareto-efficient rows (cooling >= 0 only)."""
        return pareto_boundary([pt for pt in self.tradeoffs(shape) if pt.temp_reduction >= 0])

    @functools.cached_property
    def efficient(self) -> frozenset:
        """Labels of every shape's Pareto-efficient rows."""
        return frozenset(pt.params["label"] for shape in self.shapes for pt in self.pareto(shape))

    # -- presentation --------------------------------------------------
    def record(self, row: RackRow) -> Dict[str, Any]:
        """Every value a grid table can show for ``row``, by column key.

        ``qos_good``/``qos_tol`` are relative to the shape's baseline;
        the ``slo_*`` values come from the cell's windowed SLO report
        and are present only for scored cells."""
        run, baseline = row.run, self.baseline_for(row.shape)
        record = {
            "label": row.label,
            "shape": row.shape,
            "policy": row.policy,
            "p": row.p,
            "L_ms": self.grid.idle_quantum * 1e3 if row.p > 0 else 0.0,
            "rise": self.rise(row),
            "peak": run.peak_temp - self.idle_mean_temp,
            "mean_resp": run.mean_response,
            "alerts": run.alerts,
            "crit": run.time_in_critical_s,
            "thr": run.time_throttled_s,
            "migr": run.migrations + row.cell.core_migrations,
            "energy": run.energy / 1e3,
            "work": run.work_done,
            "pareto": "*" if row.label in self.efficient else "",
        }
        if baseline is not None:
            for key, metric in (("qos_good", "qos_good"), ("qos_tol", "qos_tolerable")):
                base = getattr(baseline.run, metric)
                record[key] = percent(getattr(run, metric) / base if base > 0 else 0.0)
        if row.report is not None:
            summary = row.report.summary()
            record.update(
                slo_good=_pct(summary["good_fraction"]),
                slo_tol=_pct(summary["tolerable_fraction"]),
                slo_worst=_pct(summary["worst_window_good"]),
                slo_violation=summary["time_in_violation_s"],
                slo_p95="n/a" if row.cell.p95_response is None else row.cell.p95_response,
            )
        return record

    def render(self) -> str:
        keys = self.grid.columns.values()
        table = [[self.record(row)[key] for key in keys] for row in self.rows]
        footer = self.grid.footer(self) if self.grid.footer else []
        title = self.grid.title(self)
        return "\n".join([format_table(list(self.grid.columns), table, title=title), *footer])

    def health_payload(self) -> Dict[str, Any]:
        """The manifest's ``health`` section for this grid."""
        if not self.grid.compact_health:
            return {row.label: row.cell.health for row in self.rows}
        return {
            "config": self.rows[0].cell.health.get("config") if self.rows else None,
            "cells": [
                {
                    "shape": row.shape,
                    "policy": row.policy,
                    "p": row.p,
                    "totals": row.cell.health.get("totals"),
                }
                for row in self.rows
            ],
        }

    def manifest_payload(self) -> Optional[Dict[str, Any]]:
        """The grid's manifest artifact, if it defines one."""
        return self.grid.artifact(self) if self.grid.artifact else None

