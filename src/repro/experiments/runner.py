"""Single-machine experiment runs, and the one loop that runs them.

The paper's basic measurement (§3.4) is: run a workload on all cores
under a static (p, L) policy for 300 s, then report the mean core
temperature over the last 30 s (relative to the idle baseline) and the
throughput (relative to the unconstrained run).  Figures 2, 5 and 6
are sets of the same kind of single-server run with another workload
or read-out: a heating transient under a health monitor, the §3.6
hot/cool mix, the §3.7 web server.

Each such run is a *plan*: its parameters, checked and resolved, plus
``start(node)`` (program a fleet node, per-run settings such as a
health monitor included) and ``result(node)`` (read the finished node
back).  :func:`run_plans` runs plans with equal physics and run length
as the nodes of one :class:`~repro.fleet.machine.FleetMachine`, so its
drains advance them together; a node's floats never depend on its
neighbours, so every result equals the same plan run alone.

Figure 1 and the §3.3 model validations run to completion in chunks
and stay solo executors on a :func:`~repro.experiments.machine.Machine`.
The foot of the module declares every kind
(:mod:`repro.runtime.kinds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cpu.dvfs import OperatingPoint
from ..cpu.tcc import TccSetting
from ..errors import ConfigurationError
from ..fleet.machine import FleetMachine, FleetNode, physics_of
from ..health import HealthParams
from ..runtime.hashing import PHYSICS_MODULES
from ..runtime.kinds import register_executor
from ..sched.thread import Thread
from ..workloads.cpuburn import CpuBurn, FiniteCpuBurn
from ..workloads.mixes import build_hot_cool_mix
from ..workloads.spec import SpecWorkload
from ..workloads.webserver import (
    QOS_GOOD,
    QOS_TOLERABLE,
    WebServer,
    check_scoring_span,
    scoring_span,
)
from .config import ExperimentConfig
from .machine import Machine

#: The run kinds declared here besides ``characterization`` and
#: ``finite_cpuburn``: Figure 1's trace pair, Figure 2's transient,
#: Figure 5's mix and Figure 6's web run.
POWER_TRACE_KIND = "power_trace"
TRANSIENT_KIND = "transient"
HOT_COOL_MIX_KIND = "hot_cool_mix"
WEB_QOS_KIND = "web_qos"


def make_cpu_workload(name: str):
    """Factory for all-core CPU-bound workloads by name."""
    if name == "cpuburn":
        return CpuBurn()
    return SpecWorkload(name)


def _require_length(name: str, value: float) -> float:
    """``value`` as a float, if positive and finite; else a
    :class:`ConfigurationError` naming it."""
    if not 0 < value < math.inf:  # also rejects NaN
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    return float(value)


def resolve_duration(duration: Optional[float], config: ExperimentConfig) -> float:
    """An explicit run duration, or the config's default when None.

    A zero, negative or non-finite duration is a configuration mistake,
    not a request for the default — reject it before a machine is built
    rather than silently running for ``config.characterization_duration``.
    """
    if duration is None:
        return config.characterization_duration
    return _require_length("duration", duration)


# ======================================================================
# Running plans
# ======================================================================
def run_plans(plans: Sequence[_Plan]) -> List[Any]:
    """Run single-machine plans; results in plan order.

    Plans with equal physics (:func:`~repro.fleet.machine.physics_of`)
    and run length run as the nodes of one
    :class:`~repro.fleet.machine.FleetMachine`, node ``j`` built from
    its own plan's config, which is closed once every node is read.
    """
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault((physics_of(plan.config), plan.duration), []).append(index)
    results: List[Any] = [None] * len(plans)
    for (_, duration), members in groups.items():
        fleet = FleetMachine([plans[i].config for i in members])
        for index, node in zip(members, fleet.nodes):
            plans[index].start(node)
        fleet.run(duration)
        for index, node in zip(members, fleet.nodes):
            results[index] = plans[index].result(node)
        fleet.close()
    return results


def _plan_executors(
    plan: Callable[..., _Plan],
) -> Tuple[Callable[..., Any], Callable[..., List[Any]]]:
    """A plan type's ``(solo, batch)`` executors: ``batch`` runs
    ``plan(config, **params)`` for each ``(config, params)`` through
    :func:`run_plans`; ``solo(config, **params)`` is a batch of one."""

    def batch(runs: Sequence[Tuple[ExperimentConfig, Mapping[str, Any]]]) -> List[Any]:
        return run_plans([plan(config, **params) for config, params in runs])

    def solo(config: ExperimentConfig, **params: Any) -> Any:
        (result,) = batch([(config, params)])
        return result

    return solo, batch


@dataclass
class _Plan:
    """A single-machine run's config and resolved length; subclasses add
    their parameters, ``start`` and ``result``."""

    config: ExperimentConfig
    #: None: the config's characterization duration.
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        self.duration = resolve_duration(self.duration, self.config)


def _set_global_policy(node: FleetNode, p: float, idle_quantum: float, **kwargs: Any) -> None:
    if p > 0:
        node.control.set_global_policy(p, idle_quantum, **kwargs)


# ======================================================================
# §3.4 characterization (Figures 3-4, Table 1)
# ======================================================================
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
class _Characterization(_Plan):
    """One characterization run: a CPU-bound workload on every core
    under a static technique."""

    workload: str = "cpuburn"
    p: float = 0.0
    idle_quantum: float = 0.025
    deterministic: bool = False
    operating_point: Optional[OperatingPoint] = None
    tcc: Optional[TccSetting] = None

    def start(self, node: FleetNode) -> None:
        """Program the node's policy and spawn one workload per core."""
        if self.operating_point is not None:
            node.chip.set_operating_point(self.operating_point)
        if self.tcc is not None:
            node.chip.set_tcc(self.tcc)
        _set_global_policy(node, self.p, self.idle_quantum, deterministic=self.deterministic)
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

    Runs that can share a fleet (same physics and duration) run as the
    nodes of one fleet (:func:`run_plans`), so every result
    equals the same run executed alone.
    """
    return run_plans([_Characterization(config, **params) for config, params in runs])


def run_characterization(config: ExperimentConfig, **params: Any) -> CharacterizationResult:
    """Run ``num_cores`` instances of a CPU-bound workload under a
    static policy and measure the §3.4 metrics: a batch of one.

    ``params``: ``workload`` (default ``"cpuburn"``), ``p``,
    ``idle_quantum``, ``duration`` (None: the config's), ``deterministic``,
    ``operating_point``, ``tcc``.
    """
    (result,) = run_characterizations([(config, params)])
    return result


# ======================================================================
# Figure 2: heating transients under a health monitor
# ======================================================================
@dataclass
class TransientResult:
    """One cpuburn heating transient: the mean-core temperature rise
    over idle at every temperature-log sample, and the health monitor's
    summary."""

    times: List[float]
    rise: List[float]
    health: Dict[str, Any]


@dataclass
class _Transient(_Plan):
    """cpuburn on every core under a global ``(p, L)`` policy, watched
    by a health monitor (None: default :class:`HealthParams`)."""

    p: float = 0.0
    idle_quantum: float = 0.100
    health: Optional[HealthParams] = None

    def start(self, node: FleetNode) -> None:
        node.attach_health(self.health)
        _set_global_policy(node, self.p, self.idle_quantum)
        for i in range(self.config.num_cores):
            node.scheduler.spawn(make_cpu_workload("cpuburn"), name=f"burn-{i}")

    def result(self, node: FleetNode) -> TransientResult:
        monitor = node.health
        monitor.stop()
        monitor.finalize()
        rise = node.templog.samples.mean(axis=1) - node.idle_mean_temp
        return TransientResult(
            times=node.templog.times.tolist(),
            rise=rise.tolist(),
            # A node's monitor is numbered by its place in the fleet; a
            # run reports itself as machine 0, as it would alone.
            health={**monitor.summary(), "machine": 0},
        )


# ======================================================================
# Figure 5: the §3.6 hot/cool mix
# ======================================================================
@dataclass
class HotCoolMixResult:
    """Temperatures and the cool process's work after one mix run."""

    mean_temp: float
    idle_temp: float
    cool_work: float


@dataclass
class _HotCoolMix(_Plan):
    """Four hot calculix threads beside a duty-cycled cool process,
    injected globally or on the hot threads only."""

    mode: str = "global"  # "global" | "per-thread"
    p: float = 0.0
    idle_quantum: float = 0.010
    burn_time: float = 6.0
    sleep_time: float = 60.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("global", "per-thread"):
            raise ConfigurationError(
                f"mix mode must be 'global' or 'per-thread', got {self.mode!r}"
            )

    def start(self, node: FleetNode) -> None:
        self._mix = build_hot_cool_mix(
            node.scheduler, burn_time=self.burn_time, sleep_time=self.sleep_time
        )
        if self.mode == "global":
            _set_global_policy(node, self.p, self.idle_quantum)
        elif self.p > 0:
            for thread in self._mix.hot_threads:
                node.control.set_thread_policy(thread, self.p, self.idle_quantum)

    def result(self, node: FleetNode) -> HotCoolMixResult:
        return HotCoolMixResult(
            mean_temp=node.mean_core_temp_over_window(),
            idle_temp=node.idle_mean_temp,
            cool_work=self._mix.cool_thread.stats.work_done,
        )


# ======================================================================
# Figure 6: the §3.7 web server
# ======================================================================
@dataclass
class WebQosResult:
    """QoS and temperatures of one web-serving run; QoS is
    scored over requests arriving between the warmup and the drain."""

    mean_temp: float
    idle_temp: float
    qos_good: float
    qos_tolerable: float
    mean_response: float
    offered_load_per_core: float


@dataclass
class _WebQos(_Plan):
    """The SPECWeb-like server under a global ``(p, L)`` policy."""

    p: float = 0.0
    idle_quantum: float = 0.100
    warmup: float = 5.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_scoring_span(self.duration, self.warmup)

    def start(self, node: FleetNode) -> None:
        self._server = WebServer(node.scheduler, node.rng.stream("web"))
        _set_global_policy(node, self.p, self.idle_quantum)

    def result(self, node: FleetNode) -> WebQosResult:
        log = self._server.log
        start, end = scoring_span(self.duration, self.warmup)
        span = dict(start=start, end=end)
        return WebQosResult(
            mean_temp=node.mean_core_temp_over_window(),
            idle_temp=node.idle_mean_temp,
            qos_good=log.qos_fraction(QOS_GOOD, **span),
            qos_tolerable=log.qos_fraction(QOS_TOLERABLE, **span),
            mean_response=log.mean_response_time(**span),
            offered_load_per_core=self._server.offered_load_per_core,
        )


# ======================================================================
# Run-to-completion: Figure 1 and the §3.3 validations
# ======================================================================
@dataclass
class PowerTraceResult:
    """Figure 1's pair of runs of one finite job, without and with
    injection: sampled package power over a common window."""

    times_race: List[float]
    power_race: List[float]
    times_dim: List[float]
    power_dim: List[float]
    completion_race: float
    completion_dim: float
    #: Package energy over the common window, J.
    energy_race: float
    energy_dim: float
    #: Package power with 0..num_cores cores active, W.
    power_levels: List[float]


def run_power_trace(
    config: ExperimentConfig,
    *,
    work_per_thread: float = 1.5,
    p: float = 0.5,
    idle_quantum: float = 0.100,
    sample_period: float = 0.020,
) -> PowerTraceResult:
    """Run the same finite all-core cpuburn with and without injection
    and sample both package power traces.

    Both runs go in one executor: the energy window they share ends
    after the later completion, so neither run's result is its own.
    """

    def run(inject: bool) -> Tuple[FleetNode, float]:
        machine = Machine(config)
        if inject:
            machine.control.set_global_policy(p, idle_quantum)
        threads = [
            machine.scheduler.spawn(FiniteCpuBurn(work_per_thread), name=f"burn-{i}")
            for i in range(config.num_cores)
        ]
        while any(t.alive for t in threads):
            machine.run(0.5)
        return machine, max(t.stats.exit_time for t in threads)

    race_machine, race_done = run(inject=False)
    dim_machine, dim_done = run(inject=True)
    # Idle out both machines to a common window for energy parity (the
    # run loop advances in chunks, so take the later of the two clocks).
    window = max(race_machine.now, dim_machine.now) + 0.2
    race_machine.run(window - race_machine.now)
    dim_machine.run(window - dim_machine.now)

    times_race, power_race = race_machine.powermeter.resample(sample_period, end=window)
    times_dim, power_dim = dim_machine.powermeter.resample(sample_period, end=window)

    # The staircase levels: package power with k of n cores active,
    # estimated at the run's typical temperature.
    temp = float(np.mean(dim_machine.core_temps))
    model = dim_machine.chip.power_model
    levels = [
        float(
            model.package_power_estimate(
                k, config.num_cores, temp, dim_machine.chip.operating_point
            )
        )
        for k in range(config.num_cores + 1)
    ]
    return PowerTraceResult(
        times_race=times_race.tolist(),
        power_race=power_race.tolist(),
        times_dim=times_dim.tolist(),
        power_dim=power_dim.tolist(),
        completion_race=race_done,
        completion_dim=dim_done,
        energy_race=race_machine.energy(0.0, window),
        energy_dim=dim_machine.energy(0.0, window),
        power_levels=levels,
    )


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
    otherwise the window runs to the last thread exit.  Every length
    must be positive and finite: a NaN ``max_duration`` would never
    stop the run.
    """
    _require_length("total_cpu", total_cpu)
    _require_length("max_duration", max_duration)
    if window is not None:
        _require_length("window", window)
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


run_transient, run_transients = _plan_executors(_Transient)
run_hot_cool_mix, run_hot_cool_mixes = _plan_executors(_HotCoolMix)
run_web_qos, run_web_qos_batch = _plan_executors(_WebQos)

register_executor(
    "characterization",
    run_characterization,
    result=CharacterizationResult,
    batch=run_characterizations,
)
register_executor(
    TRANSIENT_KIND,
    run_transient,
    result=TransientResult,
    # The transient's monitors are part of its result.
    code=PHYSICS_MODULES + ("health",),
    batch=run_transients,
)
register_executor(
    HOT_COOL_MIX_KIND, run_hot_cool_mix, result=HotCoolMixResult, batch=run_hot_cool_mixes
)
register_executor(WEB_QOS_KIND, run_web_qos, result=WebQosResult, batch=run_web_qos_batch)
register_executor(POWER_TRACE_KIND, run_power_trace, result=PowerTraceResult)
register_executor("finite_cpuburn", run_finite_cpuburn, result=FiniteRunResult)
