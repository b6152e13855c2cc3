"""Table 1 and the §3.3 model-validation experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.models import predicted_runtime
from ..core.pareto import PowerLawFit, fit_power_law
from ..errors import ConfigurationError
from ..runtime import ParallelRunner, finite_cpuburn_spec, run_required
from ..units import MS
from ..workloads.spec import TABLE1_FIT, TABLE1_RISE_PERCENT, all_benchmarks
from .config import ExperimentConfig
from .reporting import format_table, percent
from .sweeps import Sweep, run_sweeps


# ======================================================================
# Table 1 — real workload results
# ======================================================================
@dataclass
class Table1Row:
    workload: str
    rise_percent: float
    paper_rise_percent: float
    alpha: float
    beta: float
    paper_alpha: float
    paper_beta: float


@dataclass
class Table1Result:
    rows: List[Table1Row]

    def render(self) -> str:
        rows = [
            [
                row.workload,
                row.rise_percent,
                row.paper_rise_percent,
                row.alpha,
                row.beta,
                row.paper_alpha,
                row.paper_beta,
            ]
            for row in self.rows
        ]
        return format_table(
            ["workload", "rise %", "paper %", "alpha", "beta", "paper a", "paper b"],
            rows,
            title="Table 1: SPEC CPU2006 thermal profiles and T(r)=a*r^b fits "
            "(fit over r in [0, 0.5])",
        )


def table1_spec_workloads(
    config: ExperimentConfig,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    ps: Sequence[float] = (0.25, 0.5, 0.75),
    ls_ms: Sequence[float] = (2.0, 10.0, 50.0),
    fit_r_max: float = 0.5,
    runner: Optional[ParallelRunner] = None,
) -> Table1Result:
    """Reproduce Table 1: per-benchmark rise (% of cpuburn) and fits.

    One ``(p, L)`` sweep per workload, cpuburn first as in the paper;
    each benchmark's rise is relative to cpuburn's baseline rise.
    """
    known = all_benchmarks()
    names = list(benchmarks) if benchmarks is not None else known
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown Table 1 benchmark(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(known)})"
        )
    grid = [Sweep.dimetrodon(name, ps, ls_ms) for name in ["cpuburn", *names]]
    burn, *rest = run_sweeps(config, grid, runner=runner)
    rows = [_make_row("cpuburn", 100.0, _safe_fit(burn.points, fit_r_max))]
    for sweep in rest:
        rise_percent = 100.0 * sweep.baseline.temp_rise / burn.baseline.temp_rise
        fit = _safe_fit(sweep.points, fit_r_max)
        rows.append(_make_row(sweep.workload, rise_percent, fit))
    return Table1Result(rows=rows)


def _safe_fit(points, r_max: float) -> Optional[PowerLawFit]:
    try:
        return fit_power_law(points, r_max=r_max)
    except Exception:
        return None


def _make_row(name: str, rise_percent: float, fit: Optional[PowerLawFit]) -> Table1Row:
    paper_alpha, paper_beta = TABLE1_FIT[name]
    return Table1Row(
        workload=name,
        rise_percent=rise_percent,
        paper_rise_percent=TABLE1_RISE_PERCENT[name],
        alpha=fit.alpha if fit else float("nan"),
        beta=fit.beta if fit else float("nan"),
        paper_alpha=paper_alpha,
        paper_beta=paper_beta,
    )


# ======================================================================
# §3.3 — throughput model validation
# ======================================================================
@dataclass
class ThroughputValidationRow:
    p: float
    l_ms: float
    predicted: float
    measured: float

    @property
    def deviation(self) -> float:
        """Relative throughput shortfall vs the model (paper: ≈1 %)."""
        return self.measured / self.predicted - 1.0


@dataclass
class ThroughputValidationResult:
    total_cpu: float
    rows: List[ThroughputValidationRow]

    @property
    def mean_deviation(self) -> float:
        return float(np.mean([row.deviation for row in self.rows]))

    def render(self) -> str:
        rows = [
            [row.p, row.l_ms, row.predicted, row.measured, percent(row.deviation)]
            for row in self.rows
        ]
        table = format_table(
            ["p", "L [ms]", "D(t) model [s]", "measured [s]", "deviation"],
            rows,
            title="Throughput model validation (runtime of finite cpuburn)",
        )
        return table + f"\nmean deviation: {percent(self.mean_deviation)} (paper: ~+1.0%)"


def validate_throughput_model(
    config: ExperimentConfig,
    *,
    total_cpu: float = 5.0,
    ps: Sequence[float] = (0.25, 0.5, 0.75),
    ls_ms: Sequence[float] = (25.0, 50.0, 75.0, 100.0),
    repetitions: int = 3,
    runner: Optional[ParallelRunner] = None,
) -> ThroughputValidationResult:
    """Measured completion time vs D(t) = R + S·(p/(1-p))·L (§3.3).

    The Bernoulli injection count per run is a sum of geometrics with
    substantial variance, so (like the paper's 100 trials per
    configuration) each configuration is repeated with different seeds
    and the runtimes averaged.
    """
    # The whole (p, L, repetition) grid is independent: fan it out as
    # one batch, then regroup per configuration.
    grid = [(p, l_ms) for p in ps for l_ms in ls_ms]
    specs = [
        finite_cpuburn_spec(
            config.with_seed(config.seed + 1000 * rep + 1),
            total_cpu=total_cpu,
            p=p,
            idle_quantum=l_ms * MS,
        )
        for p, l_ms in grid
        for rep in range(repetitions)
    ]
    results = run_required("validate-throughput", specs, runner)

    rows: List[ThroughputValidationRow] = []
    for slot, (p, l_ms) in enumerate(grid):
        runtimes: List[float] = []
        for rep in range(repetitions):
            runtimes.extend(results[slot * repetitions + rep].runtimes)
        predicted = predicted_runtime(total_cpu, config.quantum, p, l_ms * MS)
        rows.append(
            ThroughputValidationRow(
                p=p, l_ms=l_ms, predicted=predicted, measured=float(np.mean(runtimes))
            )
        )
    return ThroughputValidationResult(total_cpu=total_cpu, rows=rows)


# ======================================================================
# §3.3 — energy model validation
# ======================================================================
@dataclass
class EnergyValidationRow:
    p: float
    l_ms: float
    energy_race: float
    energy_dimetrodon: float

    @property
    def ratio(self) -> float:
        return self.energy_dimetrodon / self.energy_race


@dataclass
class EnergyValidationResult:
    total_cpu: float
    rows: List[EnergyValidationRow]

    @property
    def mean_deviation(self) -> float:
        return float(np.mean([row.ratio - 1.0 for row in self.rows]))

    @property
    def mean_abs_deviation(self) -> float:
        return float(np.mean([abs(row.ratio - 1.0) for row in self.rows]))

    def render(self) -> str:
        rows = [
            [row.p, row.l_ms, row.energy_race, row.energy_dimetrodon, f"{row.ratio:.4f}"]
            for row in self.rows
        ]
        table = format_table(
            ["p", "L [ms]", "race E [J]", "dimetrodon E [J]", "ratio"],
            rows,
            title="Energy validation: equal windows, Dimetrodon vs race-to-idle",
        )
        return table + (
            f"\nmean deviation {percent(self.mean_deviation)}, "
            f"mean |deviation| {percent(self.mean_abs_deviation)} "
            "(paper: -0.37% / 1.67%)"
        )


def validate_energy_model(
    config: ExperimentConfig,
    *,
    total_cpu: float = 5.0,
    ps: Sequence[float] = (0.25, 0.5, 0.75),
    ls_ms: Sequence[float] = (50.0, 100.0),
    runner: Optional[ParallelRunner] = None,
) -> EnergyValidationResult:
    """Dimetrodon vs race-to-idle energy over identical windows (§3.3).

    The paper runs a ~7 s finite cpuburn loop, measures power with the
    clamp, and finds Dimetrodon consumes 97.6–103.7 % of race-to-idle.
    """
    # Two batches: the race-to-idle runs need the Dimetrodon runs'
    # windows, so they cannot join the first fan-out.
    batch = ParallelRunner() if runner is None else runner
    grid = [(p, l_ms) for p in ps for l_ms in ls_ms]
    dims = run_required(
        "validate-energy",
        [
            finite_cpuburn_spec(config, total_cpu=total_cpu, p=p, idle_quantum=l_ms * MS)
            for p, l_ms in grid
        ],
        batch,
    )
    races = run_required(
        "validate-energy",
        [finite_cpuburn_spec(config, total_cpu=total_cpu, p=0.0, window=dim.window) for dim in dims],
        batch,
    )
    rows = [
        EnergyValidationRow(
            p=p, l_ms=l_ms, energy_race=race.energy, energy_dimetrodon=dim.energy
        )
        for (p, l_ms), dim, race in zip(grid, dims, races)
    ]
    return EnergyValidationResult(total_cpu=total_cpu, rows=rows)
