"""One entry point per figure of the paper's evaluation (§3).

Each ``figN`` function runs the experiment on a supplied
:class:`~repro.experiments.config.ExperimentConfig` and returns a
result object whose ``render()`` reproduces the figure's content as
text (series and summary statistics).  The benchmark harness under
``benchmarks/`` wraps these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pareto import (
    PowerLawFit,
    crossover_reduction,
    fit_power_law,
    pareto_boundary,
)
from ..errors import ExecutionError
from ..health import HealthParams
from ..instruments.stats import relative_reduction
from ..runtime import ParallelRunner, RunSpec
from ..workloads.webserver import check_scoring_span
from .config import ExperimentConfig
from .reporting import format_series, format_table, percent
from .runner import (
    HOT_COOL_MIX_KIND,
    POWER_TRACE_KIND,
    TRANSIENT_KIND,
    WEB_QOS_KIND,
    resolve_duration,
)
from .sweeps import FIG3_LS_MS, FIG3_PS, FIG4_LS_MS, FIG4_PS, Sweep, SweepResult, run_sweeps


def _run_all(
    figure: str, specs: Sequence[RunSpec], runner: Optional[ParallelRunner]
) -> List[Any]:
    """Every spec's result, in order, through ``runner`` (None: a
    serial uncached one).  A figure needs all of its runs: one
    abandoned under keep-going fails the figure."""
    results = (runner if runner is not None else ParallelRunner()).run(specs)
    missing = sum(result is None for result in results)
    if missing:
        raise ExecutionError(
            f"{figure}: {missing} of {len(specs)} runs failed terminally and "
            "left no result (see the failure report)"
        )
    return results


# ======================================================================
# Figure 1 — race-to-idle vs Dimetrodon power trace
# ======================================================================
@dataclass
class Fig1Result:
    """Power traces of a finite multi-threaded CPU-bound job."""

    times_race: np.ndarray
    power_race: np.ndarray
    times_dim: np.ndarray
    power_dim: np.ndarray
    completion_race: float
    completion_dim: float
    energy_race: float
    energy_dim: float
    power_levels: List[float]

    def render(self) -> str:
        lines = [
            "Figure 1: race-to-idle vs Dimetrodon power trace",
            f"completion: race-to-idle {self.completion_race:.2f}s, "
            f"Dimetrodon {self.completion_dim:.2f}s",
            f"energy over common window: race {self.energy_race:.0f}J, "
            f"Dimetrodon {self.energy_dim:.0f}J "
            f"(ratio {self.energy_dim / self.energy_race:.3f})",
            "package power levels (0..4 cores active): "
            + ", ".join(f"{level:.1f}W" for level in self.power_levels),
            format_series("race-to-idle P(t) [W]", self.times_race, self.power_race),
            format_series("dimetrodon  P(t) [W]", self.times_dim, self.power_dim),
        ]
        return "\n".join(lines)


def fig1_power_trace(
    config: ExperimentConfig,
    *,
    work_per_thread: float = 1.5,
    p: float = 0.5,
    idle_quantum: float = 0.100,
    sample_period: float = 0.020,
    runner: Optional[ParallelRunner] = None,
) -> Fig1Result:
    """Run the same finite 4-thread cpuburn with and without injection
    and return the sampled package power traces."""
    params = dict(
        work_per_thread=work_per_thread,
        p=p,
        idle_quantum=idle_quantum,
        sample_period=sample_period,
    )
    (trace,) = _run_all("fig1", [RunSpec(POWER_TRACE_KIND, config, params)], runner)
    traces = ("times_race", "power_race", "times_dim", "power_dim")
    return Fig1Result(
        **{**vars(trace), **{name: np.asarray(getattr(trace, name)) for name in traces}}
    )


# ======================================================================
# Figure 2 — temperature rise over time for different p (L = 100 ms)
# ======================================================================
@dataclass
class Fig2Result:
    """Mean-core temperature-rise time series per idle proportion."""

    idle_quantum: float
    series: Dict[float, Tuple[np.ndarray, np.ndarray]]
    final_rise: Dict[float, float]
    ripple_std: Dict[float, float]
    #: Per-p health-monitor summaries (alerts, dwell) — more injection
    #: should mean fewer thermal alerts; None entries when unmonitored.
    health: Dict[float, Dict[str, object]] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"Figure 2: core temperature rise over idle vs time "
            f"(L={self.idle_quantum * 1e3:.0f}ms)"
        ]
        rows = []
        for p in sorted(self.series):
            summary = self.health.get(p) or {}
            alerts = summary.get("alerts") or {}
            dwell = summary.get("dwell_s") or {}
            rows.append(
                (
                    p,
                    self.final_rise[p],
                    self.ripple_std[p],
                    int(alerts.get("warning", 0)) + int(alerts.get("critical", 0)),
                    float(dwell.get("critical", 0.0)),
                )
            )
        lines.append(
            format_table(
                ["p", "final rise [C]", "ripple std [C]", "alerts", "crit [s]"],
                rows,
            )
        )
        for p in sorted(self.series):
            times, rise = self.series[p]
            lines.append(format_series(f"p={p:g} rise(t)", times, rise))
        return "\n".join(lines)

    def health_payload(self) -> Dict[str, object]:
        """Per-p monitor summaries for the manifest's health section."""
        return {f"p={p:g}": self.health.get(p) for p in sorted(self.series)}


def fig2_temperature_timeseries(
    config: ExperimentConfig,
    *,
    ps: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    idle_quantum: float = 0.100,
    duration: Optional[float] = None,
    health_params: Optional[HealthParams] = None,
    runner: Optional[ParallelRunner] = None,
) -> Fig2Result:
    """cpuburn heating transients for several idle proportions.

    Every machine carries a thermal health monitor: the ``crit [s]``
    column shows injection's preventive effect — higher ``p`` shrinks
    time-in-critical toward zero (alert *counts* can rise with ``p``
    as the trace oscillates around the threshold instead of sitting
    above it).  ``health_params`` overrides the monitoring thresholds
    (the CLI's ``--health-*`` flags).
    """
    run_for = resolve_duration(duration, config)
    params = dict(idle_quantum=idle_quantum, duration=run_for, health=health_params)
    specs = [RunSpec(TRANSIENT_KIND, config, dict(params, p=p)) for p in ps]
    series: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
    final_rise: Dict[float, float] = {}
    ripple: Dict[float, float] = {}
    health: Dict[float, Dict[str, object]] = {}
    for p, run in zip(ps, _run_all("fig2", specs, runner)):
        times, rise = np.asarray(run.times), np.asarray(run.rise)
        series[p] = (times, rise)
        tail = rise[times >= times[-1] - config.measure_window]
        final_rise[p] = float(tail.mean())
        ripple[p] = float(tail.std())
        health[p] = run.health
    return Fig2Result(
        idle_quantum=idle_quantum,
        series=series,
        final_rise=final_rise,
        ripple_std=ripple,
        health=health,
    )


# ======================================================================
# Figure 3 — efficiency vs idle quantum length
# ======================================================================
@dataclass
class Fig3Result:
    """Efficiency (temperature:throughput) over the (p, L) grid."""

    sweep: SweepResult

    @property
    def efficiency(self) -> Dict[Tuple[float, float], float]:
        """``(p, L_ms)`` -> ratio, over the sweep's completed points."""
        return {
            (pt.params["p"], pt.params["L_ms"]): pt.efficiency for pt in self.sweep.points
        }

    def curve(self, p: float) -> List[Tuple[float, float]]:
        pairs = [
            (l_ms, eff) for (pp, l_ms), eff in self.efficiency.items() if pp == p
        ]
        return sorted(pairs)

    def render(self) -> str:
        efficiency = self.efficiency
        ps = sorted({p for p, _ in efficiency})
        ls = sorted({l for _, l in efficiency})
        rows = []
        for l_ms in ls:
            rows.append([l_ms] + [efficiency.get((p, l_ms), float("nan")) for p in ps])
        return format_table(
            ["L [ms]"] + [f"p={p:g}" for p in ps],
            rows,
            title="Figure 3: efficiency (temp reduction : throughput reduction)",
        )


def fig3_efficiency(
    config: ExperimentConfig,
    *,
    ps: Sequence[float] = FIG3_PS,
    ls_ms: Sequence[float] = FIG3_LS_MS,
    runner: Optional[ParallelRunner] = None,
) -> Fig3Result:
    (sweep,) = run_sweeps(config, [Sweep.dimetrodon(ps=ps, ls_ms=ls_ms)], runner=runner)
    return Fig3Result(sweep=sweep)


# ======================================================================
# Figure 4 — technique comparison (Dimetrodon vs VFS vs p4tcc)
# ======================================================================
@dataclass
class Fig4Result:
    dimetrodon: SweepResult
    vfs: SweepResult
    tcc: SweepResult
    fit: PowerLawFit
    #: r where VFS overtakes Dimetrodon (paper: ≈0.30), None if never.
    crossover: Optional[float]

    def render(self) -> str:
        lines = ["Figure 4: wide-range sweeps vs other techniques"]
        for sweep in (self.dimetrodon, self.vfs, self.tcc):
            boundary = pareto_boundary(sweep.points)
            rows = [
                [
                    ", ".join(f"{k}={v:g}" for k, v in pt.params.items()),
                    percent(pt.temp_reduction),
                    percent(pt.throughput_reduction),
                    pt.efficiency,
                ]
                for pt in boundary
            ]
            lines.append(
                format_table(
                    ["config", "temp red.", "tput red.", "efficiency"],
                    rows,
                    title=f"{sweep.technique} pareto boundary",
                )
            )
        lines.append(f"dimetrodon fit: {self.fit.describe()}")
        if self.crossover is not None:
            lines.append(
                f"VFS overtakes Dimetrodon at r = {percent(self.crossover)} "
                "(paper: ~30%)"
            )
        else:
            lines.append("no Dimetrodon/VFS crossover in the overlapping range")
        return "\n".join(lines)


def fig4_technique_comparison(
    config: ExperimentConfig,
    *,
    ps: Sequence[float] = FIG4_PS,
    ls_ms: Sequence[float] = FIG4_LS_MS,
    runner: Optional[ParallelRunner] = None,
) -> Fig4Result:
    grid = [Sweep.dimetrodon(ps=ps, ls_ms=ls_ms), Sweep.vfs(), Sweep.tcc()]
    dim, vfs, tcc = run_sweeps(config, grid, runner=runner)
    fit = fit_power_law(dim.points, r_max=0.95)
    crossover = crossover_reduction(dim.points, vfs.points)
    return Fig4Result(dimetrodon=dim, vfs=vfs, tcc=tcc, fit=fit, crossover=crossover)


# ======================================================================
# Figure 5 — per-thread vs global control
# ======================================================================
@dataclass
class Fig5Point:
    mode: str  # "per-thread" | "global"
    p: float
    idle_quantum: float
    temp_reduction: float
    cool_throughput: float  # relative to uninjected run


@dataclass
class Fig5Result:
    points: List[Fig5Point]
    baseline_rise: float

    def series(self, mode: str) -> List[Tuple[float, float]]:
        return sorted(
            (pt.temp_reduction, pt.cool_throughput)
            for pt in self.points
            if pt.mode == mode
        )

    def render(self) -> str:
        rows = [
            [pt.mode, pt.p, pt.idle_quantum * 1e3, percent(pt.temp_reduction), percent(pt.cool_throughput)]
            for pt in sorted(self.points, key=lambda q: (q.mode, q.temp_reduction))
        ]
        return format_table(
            ["mode", "p", "L [ms]", "temp red.", "cool throughput"],
            rows,
            title="Figure 5: global vs thread-specific control "
            f"(baseline rise {self.baseline_rise:.1f}C)",
        )


def fig5_per_thread_control(
    config: ExperimentConfig,
    *,
    configs: Sequence[Tuple[float, float]] = (
        (0.25, 0.010),
        (0.5, 0.010),
        (0.5, 0.050),
        (0.75, 0.050),
        (0.75, 0.100),
        (0.9, 0.100),
    ),
    burn_time: Optional[float] = None,
    sleep_time: Optional[float] = None,
    duration: Optional[float] = None,
    runner: Optional[ParallelRunner] = None,
) -> Fig5Result:
    """The §3.6 demonstration: a duty-cycled "cool" process co-located
    with four hot calculix instances, under global vs per-thread policy."""
    run_for = resolve_duration(duration, config)
    # Scale the paper's 6 s / 60 s duty cycle to the run length so a
    # handful of cool iterations always fit.  The sleep fraction is
    # compressed relative to the paper's 1:10 so that the global
    # policy's per-iteration slowdown is visible within a short run.
    scale = run_for / 300.0
    burn = burn_time if burn_time is not None else max(6.0 * scale, 1.0)
    sleep = sleep_time if sleep_time is not None else max(24.0 * scale, 4.0 * burn)

    runs = [("global", 0.0, 0.010)] + [
        (mode, p, idle_quantum)
        for mode in ("per-thread", "global")
        for p, idle_quantum in configs
    ]
    specs = [
        RunSpec(
            HOT_COOL_MIX_KIND,
            config,
            dict(
                mode=mode,
                p=p,
                idle_quantum=idle_quantum,
                burn_time=burn,
                sleep_time=sleep,
                duration=run_for,
            ),
        )
        for mode, p, idle_quantum in runs
    ]
    base, *mixes = _run_all("fig5", specs, runner)
    baseline_rise = base.mean_temp - base.idle_temp
    points = [
        Fig5Point(
            mode=mode,
            p=p,
            idle_quantum=idle_quantum,
            temp_reduction=relative_reduction(base.mean_temp, mix.mean_temp, base.idle_temp),
            cool_throughput=mix.cool_work / base.cool_work,
        )
        for (mode, p, idle_quantum), mix in zip(runs[1:], mixes)
    ]
    return Fig5Result(points=points, baseline_rise=baseline_rise)


# ======================================================================
# Figure 6 — web server QoS vs temperature reduction
# ======================================================================
@dataclass
class Fig6Point:
    p: float
    idle_quantum: float
    temp_reduction: float
    qos_good: float  # relative to baseline QoS
    qos_tolerable: float
    mean_response: float


@dataclass
class Fig6Result:
    points: List[Fig6Point]
    baseline_rise: float
    baseline_good: float
    baseline_tolerable: float
    offered_load_per_core: float

    def render(self) -> str:
        rows = [
            [
                pt.p,
                pt.idle_quantum * 1e3,
                percent(pt.temp_reduction),
                percent(pt.qos_good),
                percent(pt.qos_tolerable),
                pt.mean_response,
            ]
            for pt in sorted(self.points, key=lambda q: q.temp_reduction)
        ]
        title = (
            "Figure 6: web workload QoS vs temperature reduction "
            f"(baseline rise {self.baseline_rise:.1f}C, "
            f"load/core {percent(self.offered_load_per_core)})"
        )
        return format_table(
            ["p", "L [ms]", "temp red.", "QoS good", "QoS tolerable", "mean resp [s]"],
            rows,
            title=title,
        )


def fig6_webserver_qos(
    config: ExperimentConfig,
    *,
    configs: Sequence[Tuple[float, float]] = (
        (0.25, 0.025),
        (0.5, 0.025),
        (0.75, 0.025),
        (0.9, 0.025),
        (0.5, 0.050),
        (0.65, 0.050),
        (0.75, 0.050),
        (0.5, 0.100),
        (0.65, 0.100),
    ),
    duration: Optional[float] = None,
    warmup: float = 5.0,
    runner: Optional[ParallelRunner] = None,
) -> Fig6Result:
    """SPECWeb-like QoS under injection (§3.7)."""
    run_for = resolve_duration(duration, config)
    check_scoring_span(run_for, warmup)
    runs = [(0.0, 0.1)] + list(configs)
    specs = [
        RunSpec(
            WEB_QOS_KIND,
            config,
            dict(p=p, idle_quantum=idle_quantum, duration=run_for, warmup=warmup),
        )
        for p, idle_quantum in runs
    ]
    base, *webs = _run_all("fig6", specs, runner)
    points = [
        Fig6Point(
            p=p,
            idle_quantum=idle_quantum,
            temp_reduction=relative_reduction(base.mean_temp, web.mean_temp, base.idle_temp),
            qos_good=web.qos_good / base.qos_good if base.qos_good > 0 else 0.0,
            qos_tolerable=(
                web.qos_tolerable / base.qos_tolerable if base.qos_tolerable > 0 else 0.0
            ),
            mean_response=web.mean_response,
        )
        for (p, idle_quantum), web in zip(runs[1:], webs)
    ]
    return Fig6Result(
        points=points,
        baseline_rise=base.mean_temp - base.idle_temp,
        baseline_good=base.qos_good,
        baseline_tolerable=base.qos_tolerable,
        offered_load_per_core=base.offered_load_per_core,
    )
