"""Dimetrodon reproduction: preventive thermal management via idle
cycle injection, on a fully simulated server testbed.

Reproduces Bailis, Reddi, Gandhi, Brooks & Seltzer, *Dimetrodon:
Processor-level Preventive Thermal Management via Idle Cycle
Injection*, DAC 2011 — including every substrate the paper's
evaluation depends on: a discrete-event OS scheduler, a multicore
power model with C-states/DVFS/clock-modulation, an RC thermal model
with leakage feedback, and the paper's workloads.

Quickstart
----------
>>> from repro import fast_config, Machine, CpuBurn
>>> machine = Machine(fast_config())
>>> for i in range(4):
...     _ = machine.scheduler.spawn(CpuBurn(), name=f"burn-{i}")
>>> machine.control.set_global_policy(p=0.5, idle_quantum=0.010)
>>> machine.run(80.0)
>>> machine.temp_rise_over_idle()  # doctest: +SKIP
11.3
"""

from .analysis import CoolingModel, ReliabilityModel
from .core import (
    BernoulliInjectionPolicy,
    DeterministicInjectionPolicy,
    IdleInjector,
    IdleMode,
    NoInjectionPolicy,
    PolicyTable,
    PowerCapController,
    ReactiveThrottleController,
    ThermalSetpointController,
    TradeoffPoint,
    fit_power_law,
    pareto_boundary,
    predicted_energy,
    predicted_runtime,
    predicted_throughput_factor,
)
from .cpu import Chip, CState, CStateParams, DvfsTable, PowerModel, PowerParams, TccSetting
from .experiments import (
    ExperimentConfig,
    Machine,
    Sweep,
    default_config,
    fast_config,
    fig1_power_trace,
    fig2_temperature_timeseries,
    fig3_efficiency,
    fig4_technique_comparison,
    fig5_per_thread_control,
    fig6_webserver_qos,
    full_config,
    run_characterization,
    run_finite_cpuburn,
    run_sweeps,
    table1_spec_workloads,
    validate_energy_model,
    validate_throughput_model,
)
from .fleet import (
    FleetMachine,
    MigrationPolicy,
    RoundRobinBalancer,
    ThermalBalancer,
    build_policy,
    fleet_compare_experiment,
    fleet_experiment,
)
from .runtime import (
    ParallelRunner,
    ResultCache,
    RunnerMetrics,
    RunSpec,
    characterization_spec,
    finite_cpuburn_spec,
)
from .sched import DimetrodonControl, Scheduler, Thread, ThreadKind
from .sim import Simulator
from .telemetry import MetricsRegistry, RunManifest
from .thermal import ThermalNetwork, ThermalParams
from .workloads import (
    CpuBurn,
    DutyCycledBurn,
    FiniteCpuBurn,
    SpecWorkload,
    TraceWorkload,
    WebServer,
    Workload,
)

__version__ = "1.0.0"

__all__ = [
    "BernoulliInjectionPolicy",
    "Chip",
    "CoolingModel",
    "PowerCapController",
    "ReactiveThrottleController",
    "ReliabilityModel",
    "TraceWorkload",
    "CpuBurn",
    "CState",
    "CStateParams",
    "DeterministicInjectionPolicy",
    "DimetrodonControl",
    "DutyCycledBurn",
    "DvfsTable",
    "ExperimentConfig",
    "FiniteCpuBurn",
    "FleetMachine",
    "MigrationPolicy",
    "IdleInjector",
    "IdleMode",
    "Machine",
    "MetricsRegistry",
    "NoInjectionPolicy",
    "ParallelRunner",
    "PolicyTable",
    "PowerModel",
    "PowerParams",
    "ResultCache",
    "RoundRobinBalancer",
    "RunManifest",
    "RunSpec",
    "RunnerMetrics",
    "Scheduler",
    "Simulator",
    "SpecWorkload",
    "Sweep",
    "TccSetting",
    "ThermalBalancer",
    "ThermalNetwork",
    "ThermalParams",
    "ThermalSetpointController",
    "Thread",
    "ThreadKind",
    "TradeoffPoint",
    "WebServer",
    "Workload",
    "build_policy",
    "characterization_spec",
    "default_config",
    "fast_config",
    "finite_cpuburn_spec",
    "fig1_power_trace",
    "fig2_temperature_timeseries",
    "fig3_efficiency",
    "fig4_technique_comparison",
    "fig5_per_thread_control",
    "fig6_webserver_qos",
    "fit_power_law",
    "fleet_compare_experiment",
    "fleet_experiment",
    "full_config",
    "pareto_boundary",
    "predicted_energy",
    "predicted_runtime",
    "predicted_throughput_factor",
    "run_characterization",
    "run_finite_cpuburn",
    "run_sweeps",
    "table1_spec_workloads",
    "validate_energy_model",
    "validate_throughput_model",
    "__version__",
]
