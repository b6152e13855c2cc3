"""Single-configuration experiment runs.

The paper's basic measurement (§3.4) is: run a workload on all cores
under a static (p, L) policy for 300 s, then report the mean core
temperature over the last 30 s (relative to the idle baseline) and the
throughput (relative to the unconstrained run).  This module implements
that run, a batch of such runs sharing one fleet, and the finite-work
variant used for model validation (§3.3), and declares both kinds
(:mod:`repro.runtime.kinds`) at its foot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.injector import IdleMode
from ..cpu.dvfs import OperatingPoint
from ..cpu.tcc import TccSetting
from ..errors import ConfigurationError
from ..fleet.machine import FleetMachine, FleetNode, physics_of
from ..runtime.kinds import register_executor
from ..sched.thread import Thread
from ..workloads.cpuburn import CpuBurn, FiniteCpuBurn
from ..workloads.spec import SpecWorkload
from .config import ExperimentConfig
from .machine import Machine


def make_cpu_workload(name: str):
    """Factory for all-core CPU-bound workloads by name."""
    if name == "cpuburn":
        return CpuBurn()
    return SpecWorkload(name)


def resolve_duration(duration: Optional[float], config: ExperimentConfig) -> float:
    """An explicit run duration, or the config's default when None.

    A zero, negative or non-finite duration is a configuration mistake,
    not a request for the default — reject it before a machine is built
    rather than silently running for ``config.characterization_duration``.
    """
    if duration is None:
        return config.characterization_duration
    if not 0 < duration < math.inf:
        raise ConfigurationError(f"duration must be positive and finite, got {duration}")
    return float(duration)


@dataclass
class CharacterizationResult:
    """Outcome of one static-policy characterisation run."""

    workload: str
    p: float
    idle_quantum: float
    duration: float
    #: Mean core temperature over the trailing measurement window, °C.
    mean_temp: float
    #: Mean core temperature rise over the idle baseline, °C.
    temp_rise: float
    #: Mean per-core idle (baseline) temperature, °C.
    idle_temp: float
    #: Total useful work completed, CPU-seconds.
    work: float
    #: Package energy over the run, J.
    energy: float
    #: Extra per-run details (injection stats, settings).
    details: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Characterization:
    """One characterization run's parameters, checked and resolved:
    the run starts on a fleet node (:meth:`start`) and is read back
    from it (:meth:`result`), whether the node serves one run or a
    batch."""

    config: ExperimentConfig
    workload: str = "cpuburn"
    p: float = 0.0
    idle_quantum: float = 0.025
    #: None: the config's characterization duration.
    duration: Optional[float] = None
    deterministic: bool = False
    idle_mode: IdleMode = IdleMode.HALT
    operating_point: Optional[OperatingPoint] = None
    tcc: Optional[TccSetting] = None

    def __post_init__(self) -> None:
        self.duration = resolve_duration(self.duration, self.config)

    @property
    def fleet_key(self) -> Tuple[Any, ...]:
        """Runs with equal keys can share one fleet: same physics, run
        length and idle mode."""
        return (physics_of(self.config), self.duration, self.idle_mode)

    def start(self, node: FleetNode) -> None:
        """Program the node's policy and spawn one workload per core."""
        if self.operating_point is not None:
            node.chip.set_operating_point(self.operating_point)
        if self.tcc is not None:
            node.chip.set_tcc(self.tcc)
        if self.p > 0:
            node.control.set_global_policy(
                self.p, self.idle_quantum, deterministic=self.deterministic
            )
        for i in range(self.config.num_cores):
            node.scheduler.spawn(make_cpu_workload(self.workload), name=f"{self.workload}-{i}")

    def result(self, node: FleetNode) -> CharacterizationResult:
        """The §3.4 metrics of the node's finished run."""
        mean_temp = node.mean_core_temp_over_window()
        return CharacterizationResult(
            workload=self.workload,
            p=self.p,
            idle_quantum=self.idle_quantum,
            duration=self.duration,
            mean_temp=mean_temp,
            temp_rise=mean_temp - node.idle_mean_temp,
            idle_temp=node.idle_mean_temp,
            work=node.total_work_done(),
            energy=node.energy(),
            details={
                "injected_quanta": float(node.scheduler.stats.injected_quanta),
                "dispatches": float(node.scheduler.stats.dispatches),
                "injection_fraction": node.injector.stats.injection_fraction,
            },
        )


def run_characterizations(
    runs: Sequence[Tuple[ExperimentConfig, Mapping[str, Any]]],
) -> List[CharacterizationResult]:
    """Run a batch of characterizations, each ``(config, params)`` with
    :func:`run_characterization`'s keywords; results in batch order.

    Runs that can share a fleet (same physics, duration and idle mode)
    run as the nodes of one :class:`~repro.fleet.machine.FleetMachine`,
    node ``j`` built from its own run's config, so the fleet's drains
    advance them together.  A node's floats never depend on its
    neighbours, so every result equals the same run executed alone.
    """
    plans = [_Characterization(config, **params) for config, params in runs]
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault(plan.fleet_key, []).append(index)
    results: List[Optional[CharacterizationResult]] = [None] * len(plans)
    for members in groups.values():
        first = plans[members[0]]
        fleet = FleetMachine([plans[i].config for i in members], idle_mode=first.idle_mode)
        for index, node in zip(members, fleet.nodes):
            plans[index].start(node)
        fleet.run(first.duration)
        for index, node in zip(members, fleet.nodes):
            results[index] = plans[index].result(node)
        fleet.close()
    return results


def run_characterization(config: ExperimentConfig, **params: Any) -> CharacterizationResult:
    """Run ``num_cores`` instances of a CPU-bound workload under a
    static policy and measure the §3.4 metrics: a batch of one.

    ``params``: ``workload`` (default ``"cpuburn"``), ``p``,
    ``idle_quantum``, ``duration`` (None: the config's), ``deterministic``,
    ``idle_mode``, ``operating_point``, ``tcc``.
    """
    (result,) = run_characterizations([(config, params)])
    return result


@dataclass
class FiniteRunResult:
    """Outcome of a run-to-completion experiment (model validation)."""

    p: float
    idle_quantum: float
    total_cpu: float
    #: Per-thread completion times (start -> exit), s.
    runtimes: List[float]
    #: Package energy over the measured window, J.
    energy: float
    #: Wall-clock window the energy was measured over, s.
    window: float
    #: Mean times each thread was dispatched (the model's S).
    mean_schedules: float

    @property
    def mean_runtime(self) -> float:
        return float(np.mean(self.runtimes))


def run_finite_cpuburn(
    config: ExperimentConfig,
    *,
    total_cpu: float,
    p: float = 0.0,
    idle_quantum: float = 0.050,
    deterministic: bool = False,
    window: Optional[float] = None,
    max_duration: float = 3600.0,
) -> FiniteRunResult:
    """Run one finite cpuburn per core to completion.

    ``window``: if given, energy is measured over exactly this window
    (the §3.3 methodology compares equal windows across policies);
    otherwise the window runs to the last thread exit.
    """
    if total_cpu <= 0:
        raise ConfigurationError("total_cpu must be positive")
    machine = Machine(config)
    if p > 0:
        machine.control.set_global_policy(p, idle_quantum, deterministic=deterministic)

    threads: List[Thread] = []
    for i in range(config.num_cores):
        threads.append(
            machine.scheduler.spawn(FiniteCpuBurn(total_cpu), name=f"burn-{i}")
        )

    # Run until every thread exits (in chunks so instruments keep pace).
    while any(t.alive for t in threads):
        if machine.now > max_duration:
            raise ConfigurationError(
                f"finite run did not complete within {max_duration}s"
            )
        machine.run(1.0)

    finish = max(t.stats.exit_time for t in threads)
    measure_window = window if window is not None else finish
    if window is not None and machine.now < window:
        machine.run(window - machine.now)  # idle tail for race-to-idle
    energy = machine.energy(0.0, measure_window)

    runtimes = [t.stats.exit_time for t in threads]
    mean_schedules = float(np.mean([t.stats.scheduled_count for t in threads]))
    return FiniteRunResult(
        p=p,
        idle_quantum=idle_quantum,
        total_cpu=total_cpu,
        runtimes=runtimes,
        energy=energy,
        window=measure_window,
        mean_schedules=mean_schedules,
    )


register_executor(
    "characterization",
    run_characterization,
    result=CharacterizationResult,
    batch=run_characterizations,
)
register_executor("finite_cpuburn", run_finite_cpuburn, result=FiniteRunResult)
