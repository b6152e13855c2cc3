"""Experiment harness: configs, the assembled machine, runs and sweeps."""

from .config import ExperimentConfig, default_config, fast_config, full_config
from .figures import (
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    Fig6Result,
    fig1_power_trace,
    fig2_temperature_timeseries,
    fig3_efficiency,
    fig4_technique_comparison,
    fig5_per_thread_control,
    fig6_webserver_qos,
)
from .machine import Machine
from .runner import (
    CharacterizationResult,
    FiniteRunResult,
    resolve_duration,
    run_characterization,
    run_characterizations,
    run_finite_cpuburn,
)
from .sweeps import SmokeResult, Sweep, SweepResult, run_sweeps, smoke_sweep
from .tables import (
    EnergyValidationResult,
    Table1Result,
    ThroughputValidationResult,
    table1_spec_workloads,
    validate_energy_model,
    validate_throughput_model,
)

__all__ = [
    "CharacterizationResult",
    "EnergyValidationResult",
    "ExperimentConfig",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "FiniteRunResult",
    "Machine",
    "SmokeResult",
    "Sweep",
    "SweepResult",
    "Table1Result",
    "ThroughputValidationResult",
    "default_config",
    "fast_config",
    "fig1_power_trace",
    "fig2_temperature_timeseries",
    "fig3_efficiency",
    "fig4_technique_comparison",
    "fig5_per_thread_control",
    "fig6_webserver_qos",
    "full_config",
    "resolve_duration",
    "run_characterization",
    "run_characterizations",
    "run_finite_cpuburn",
    "run_sweeps",
    "smoke_sweep",
    "table1_spec_workloads",
    "validate_energy_model",
    "validate_throughput_model",
]
