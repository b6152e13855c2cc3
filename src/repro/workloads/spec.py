"""Synthetic SPEC CPU2006 workload profiles.

The paper characterises six SPEC CPU2006 benchmarks by one thermal
observable — the per-core temperature rise over idle as a percentage of
cpuburn's rise (Table 1) — and notes that all of them are "entirely
CPU-bound" with the standard quantum length, so the throughput model
applies unchanged (§3.5).

We reproduce each benchmark as a CPU-bound loop whose switching
activity factor is *calibrated* so that its simulated steady-state
temperature rise matches Table 1's percentage.  The calibration solves
the nonlinear steady state (leakage feedback included) with a bisection
on the activity factor — see :func:`activity_for_rise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..cpu.chip import Chip
from ..cpu.cstates import CState
from ..cpu.power import PowerCoefficients
from ..errors import ConfigurationError
from ..thermal.floorplan import build_network
from ..thermal.params import ThermalParams
from ..thermal.rcnetwork import ThermalIntegrator
from .base import Burst, NextBurst, Workload

#: Table 1, "Rise (%)": average per-core temperature increase over the
#: idle temperature, relative to unmodified cpuburn.
TABLE1_RISE_PERCENT: Dict[str, float] = {
    "cpuburn": 100.0,
    "calculix": 99.3,
    "namd": 87.2,
    "dealII": 84.4,
    "bzip2": 84.4,
    "gcc": 80.3,
    "astar": 71.7,
}

#: Table 1's fitted Pareto constants, for comparison in EXPERIMENTS.md.
TABLE1_FIT: Dict[str, tuple] = {
    "cpuburn": (1.092, 1.541),
    "calculix": (1.282, 1.697),
    "namd": (1.248, 1.546),
    "dealII": (1.324, 1.688),
    "bzip2": (1.529, 1.811),
    "gcc": (1.425, 1.848),
    "astar": (1.351, 1.416),
}


#: Settle tolerance for calibration; loop gains near one make tighter
#: tolerances needlessly slow for a bisection target of 1e-3 °C.
_SETTLE_TOL = 1e-4


def _steady_busy_temp(activity: float, chip: Chip, network) -> float:
    """Mean steady core temperature with all cores at ``activity``."""
    n = chip.num_cores
    model = chip.power_model
    dynamic, leak = model.core_coefficients(CState.C0, chip.operating_point, activity=activity)
    busy = PowerCoefficients(
        base=np.array([dynamic] * n + [model.params.uncore_power, 0.0]),
        leak_coef=np.array([leak] * n + [0.0, 0.0]),
        leak_ref_temp=model.params.leak_ref_temp,
        leak_t_slope=model.params.leak_t_slope,
        leak_exp_cap=model.params.leak_exp_cap,
    )
    temps = ThermalIntegrator(network).settle(busy, tolerance=_SETTLE_TOL)
    return float(np.mean(temps[:n]))


def _steady_idle_temp(chip: Chip, network) -> float:
    """Mean steady core temperature with all cores in C1E."""
    n = chip.num_cores
    idle = chip.power_coefficients((CState.C1E,) * n)
    temps = ThermalIntegrator(network).settle(idle, tolerance=_SETTLE_TOL)
    return float(np.mean(temps[:n]))


def activity_for_rise(
    rise_fraction: float,
    *,
    chip: Optional[Chip] = None,
    thermal_params: Optional[ThermalParams] = None,
    tolerance: float = 1e-3,
) -> float:
    """Activity factor whose steady rise is ``rise_fraction`` of cpuburn's.

    Bisection on the (monotone) activity → rise map, solving the full
    nonlinear steady state including leakage feedback.
    """
    if not 0.0 < rise_fraction <= 1.0:
        raise ConfigurationError("rise_fraction must be in (0, 1]")
    chip = chip or Chip()
    params = thermal_params or ThermalParams()
    network = build_network(params, chip.num_cores)
    idle = _steady_idle_temp(chip, network)
    target = rise_fraction * (_steady_busy_temp(1.0, chip, network) - idle)
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        rise = _steady_busy_temp(mid, chip, network) - idle
        if abs(rise - target) < tolerance:
            return mid
        if rise < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class SpecProfile:
    """A named benchmark with its calibrated activity factor."""

    name: str
    rise_percent: float
    activity: float


_PROFILE_CACHE: Dict[str, SpecProfile] = {}


def spec_profile(name: str) -> SpecProfile:
    """Calibrated profile for a Table 1 benchmark (cached)."""
    if name not in TABLE1_RISE_PERCENT:
        raise ConfigurationError(
            f"unknown SPEC benchmark {name!r}; choose from {sorted(TABLE1_RISE_PERCENT)}"
        )
    profile = _PROFILE_CACHE.get(name)
    if profile is None:
        rise = TABLE1_RISE_PERCENT[name]
        if name == "cpuburn":
            activity = 1.0
        else:
            activity = activity_for_rise(rise / 100.0)
        profile = SpecProfile(name=name, rise_percent=rise, activity=activity)
        _PROFILE_CACHE[name] = profile
    return profile


class SpecWorkload(Workload):
    """An endless CPU-bound loop with a benchmark's thermal profile."""

    cpu_fraction = 1.0

    def __init__(self, benchmark: str, *, chunk: float = 100.0):
        profile = spec_profile(benchmark)
        self.benchmark = benchmark
        self.activity = profile.activity
        self.chunk = chunk

    def next_burst(self) -> NextBurst:
        return Burst(cpu_time=self.chunk)

    @property
    def name(self) -> str:
        return self.benchmark


def all_benchmarks() -> list:
    """Table 1 benchmark names, hottest first (excluding cpuburn)."""
    names = [n for n in TABLE1_RISE_PERCENT if n != "cpuburn"]
    return sorted(names, key=lambda n: -TABLE1_RISE_PERCENT[n])
