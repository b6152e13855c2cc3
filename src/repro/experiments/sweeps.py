"""Static-policy sweeps as data, and the one driver that runs them.

Figures 3 and 4 and Table 1 (§3.4) are all sweeps of one static
technique — idle injection ``(p, L)``, a VFS operating point, or a
p4tcc duty — over a workload, every point scored against the
unconstrained run of the same workload.  These produce the clouds of
trade-off points from which Figures 3 and 4 extract Pareto boundaries
and §3.4/Table 1 fit power laws.

An experiment is a *grid*: an ordered list of :class:`Sweep`
definitions.  :func:`run_sweeps` is the one place that turns a grid
into run specs — one baseline per workload, one spec per point — and
runs them as a single :class:`~repro.runtime.ParallelRunner` batch, so
``--jobs N`` sees the whole experiment and no baseline is simulated
twice.  With no runner the batch executes serially in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.pareto import TradeoffPoint
from ..cpu.dvfs import OperatingPoint, xeon_e5520_table
from ..cpu.tcc import TccSetting, setpoints
from ..instruments.stats import relative_reduction, throughput_reduction
from ..runtime import ParallelRunner, RunSpec, characterization_spec, run_required
from ..units import MS
from .config import ExperimentConfig
from .reporting import format_table
from .runner import CharacterizationResult

#: Figure 3's grid: idle proportions and quanta lengths.
FIG3_PS = (0.1, 0.25, 0.5, 0.75)
FIG3_LS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)

#: Figure 4's wide grid (coarser per-axis, broader coverage).
FIG4_PS = (0.05, 0.1, 0.25, 0.4, 0.5, 0.65, 0.75, 0.9)
FIG4_LS_MS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0)


@dataclass(frozen=True)
class Sweep:
    """One technique on one workload over a list of points.

    Each point pairs its reported params (``{"p", "L_ms"}``,
    ``{"freq_ghz", "voltage"}`` or ``{"duty"}``) with the
    :func:`~repro.experiments.runner.run_characterization` keywords
    that realise it.
    """

    technique: str
    workload: str
    points: Sequence[Tuple[Dict[str, float], Dict[str, Any]]]

    @classmethod
    def dimetrodon(
        cls,
        workload: str = "cpuburn",
        ps: Sequence[float] = FIG3_PS,
        ls_ms: Sequence[float] = FIG3_LS_MS,
        *,
        deterministic: bool = False,
    ) -> "Sweep":
        """Idle injection over the ``(p, L)`` grid."""
        return cls("dimetrodon", workload, [
            (
                {"p": p, "L_ms": l_ms},
                {"p": p, "idle_quantum": l_ms * MS, "deterministic": deterministic},
            )
            for p in ps
            for l_ms in ls_ms
        ])

    @classmethod
    def vfs(
        cls,
        workload: str = "cpuburn",
        points: Optional[Sequence[OperatingPoint]] = None,
    ) -> "Sweep":
        """Static voltage/frequency setpoints (Figure 4's VFS)."""
        table = points if points is not None else list(xeon_e5520_table())
        return cls("vfs", workload, [
            (
                {"freq_ghz": point.frequency / 1e9, "voltage": point.voltage},
                {"operating_point": point},
            )
            for point in table
        ])

    @classmethod
    def tcc(
        cls,
        workload: str = "cpuburn",
        duties: Optional[Sequence[TccSetting]] = None,
    ) -> "Sweep":
        """Thermal-control-circuit duty setpoints (Figure 4's p4tcc)."""
        settings = duties if duties is not None else setpoints(8)[:-1]
        return cls("p4tcc", workload, [
            ({"duty": setting.duty}, {"tcc": setting}) for setting in settings
        ])


@dataclass
class SweepResult:
    """A baseline plus a cloud of trade-off points."""

    technique: str
    workload: str
    baseline: CharacterizationResult
    points: List[TradeoffPoint] = field(default_factory=list)
    #: Raw per-configuration results, keyed like the point params.
    runs: List[CharacterizationResult] = field(default_factory=list)
    #: Params of grid runs abandoned under keep-going (no result).
    missing: List[Dict[str, float]] = field(default_factory=list)

    def tradeoff(self, run: CharacterizationResult, params: Dict[str, float]) -> TradeoffPoint:
        """Convert a run into the paper's (r, T) coordinates."""
        r = relative_reduction(
            self.baseline.mean_temp, run.mean_temp, self.baseline.idle_temp
        )
        t = throughput_reduction(self.baseline.work, run.work)
        return TradeoffPoint(temp_reduction=r, throughput_reduction=t, params=params)

    def add(self, run: CharacterizationResult, params: Dict[str, float]) -> TradeoffPoint:
        point = self.tradeoff(run, params)
        self.points.append(point)
        self.runs.append(run)
        return point


def run_sweeps(
    config: ExperimentConfig,
    sweeps: Sequence[Sweep],
    *,
    duration: Optional[float] = None,
    runner: Optional[ParallelRunner] = None,
) -> List[SweepResult]:
    """Run a grid of sweeps as one batch; results in definition order.

    The batch holds each workload's baseline once, just before the
    points of the first sweep on that workload.  A keep-going runner
    may hand back ``None`` for abandoned runs: point holes are recorded
    in :attr:`SweepResult.missing` and the sweep degrades gracefully,
    but a missing *baseline* is fatal — every trade-off point is
    relative to it.
    """
    specs: List[RunSpec] = []
    baseline_slot: Dict[str, int] = {}
    first_slot: List[int] = []
    for sweep in sweeps:
        if sweep.workload not in baseline_slot:
            baseline_slot[sweep.workload] = len(specs)
            specs.append(
                characterization_spec(config, workload=sweep.workload, duration=duration)
            )
        first_slot.append(len(specs))
        specs.extend(
            characterization_spec(
                config, workload=sweep.workload, **run, duration=duration
            )
            for _, run in sweep.points
        )
    results = run_required(
        "sweep",
        specs,
        runner,
        required={slot: f"{workload} baseline" for workload, slot in baseline_slot.items()},
    )

    swept: List[SweepResult] = []
    for sweep, first in zip(sweeps, first_slot):
        result = SweepResult(
            technique=sweep.technique,
            workload=sweep.workload,
            baseline=results[baseline_slot[sweep.workload]],
        )
        for (params, _), run in zip(sweep.points, results[first:]):
            if run is None:
                result.missing.append(params)
            else:
                result.add(run, params)
        swept.append(result)
    return swept


# ----------------------------------------------------------------------
# CI smoke sweep
# ----------------------------------------------------------------------
@dataclass
class SmokeResult:
    """A deliberately tiny sweep used to exercise the batch runtime
    end-to-end (CLI ``smoke`` experiment; CI runs it with ``--jobs 2``)."""

    sweep: SweepResult

    def render(self) -> str:
        rows = [
            [pt.params["p"], pt.params["L_ms"], pt.temp_reduction, pt.throughput_reduction]
            for pt in self.sweep.points
        ]
        return format_table(
            ["p", "L [ms]", "temp red.", "tput red."],
            rows,
            title="Smoke sweep: tiny (p, L) grid through the batch runtime "
            f"(baseline rise {self.sweep.baseline.temp_rise:.1f}C)",
        )


def smoke_sweep(
    config: ExperimentConfig,
    *,
    runner: Optional[ParallelRunner] = None,
) -> SmokeResult:
    """A 5-run Dimetrodon sweep with 10 s-simulated runs (~seconds of
    wall clock): enough to verify pool execution and caching, far too
    short to measure steady-state physics."""
    grid = [Sweep.dimetrodon(ps=(0.25, 0.5), ls_ms=(5.0, 25.0))]
    (sweep,) = run_sweeps(config, grid, duration=10.0, runner=runner)
    return SmokeResult(sweep=sweep)
