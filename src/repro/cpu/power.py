"""Processor power model: activity-dependent dynamic power plus
temperature- and voltage-dependent leakage.

Calibration targets (from the paper's measurements of its 80 W-rated
Xeon E5520, Figure 1 and §3.2–3.4):

- all-core cpuburn package power ≈ 72 W,
- all-idle (C1E) package power ≈ 16–20 W,
- visible "staircase" between those levels as individual cores idle.

The leakage model is the standard architectural approximation: an
exponential in temperature (factor *e* every ``leak_t_slope`` °C) and
quadratic in supply voltage.  Leakage–temperature feedback is the first
of the three nonlinearities that produce the paper's convex
temperature/throughput Pareto frontier (see DESIGN.md §1); its strength
is an explicit parameter so the ablation bench can sweep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .cstates import CState
from .dvfs import DvfsTable, OperatingPoint
from .tcc import TCC_OFF, TccSetting


@dataclass(frozen=True)
class PowerParams:
    """Constants of the package power model."""

    #: Per-core dynamic power at maximum frequency/voltage and
    #: activity factor 1.0 (cpuburn), W.
    core_dynamic_max: float = 7.33
    #: Per-core leakage at ``leak_ref_temp`` and maximum voltage, W.
    #: 45 nm parts at high junction temperature leak 30–40 % of core
    #: power; the high share (with its exponential temperature slope)
    #: is what gives early injected idle cycles their outsized cooling
    #: payoff (DESIGN.md §1, nonlinearity 1).
    core_leakage_ref: float = 9.74
    #: Reference temperature for ``core_leakage_ref``, °C.
    leak_ref_temp: float = 58.0
    #: Temperature increase for leakage to grow by factor e, °C.
    leak_t_slope: float = 11.5
    #: Cap on the leakage exponential's argument.  The exponential is a
    #: local model around the calibrated operating range (leakage also
    #: self-limits as mobility degrades, and real parts throttle); the
    #: cap bounds configurations hotter than the paper ever ran — e.g.
    #: SMT with two cpuburn contexts per core — at a finite, hot
    #: equilibrium instead of a numerical runaway.
    leak_exp_cap: float = 0.7
    #: Residual dynamic power fraction in C1 (halted, clocks gated).
    #: Set relatively high because C1 here stands for *shallow OS idle*
    #: as a whole: on the paper's FreeBSD 7.2 platform the 1 kHz timer
    #: tick, interrupt exits, and scheduler work keep a "halted" core
    #: far from its floor unless it stays down long enough to be
    #: promoted (the C1E path).
    c1_dynamic_fraction: float = 0.25
    #: Leakage multiplier in C1E (reduced voltage), relative to the
    #: leakage at the current operating point's voltage.
    c1e_leakage_factor: float = 0.15
    #: Uncore power (memory controller, QPI, caches' clock grid), W.
    #: Deposited on the spreader node; always on.
    uncore_power: float = 13.0
    #: Dynamic power fraction of an executed NOP/spin loop relative to
    #: cpuburn (used when idle injection falls back to a nop loop on
    #: hardware without usable idle states, §2.1).
    nop_loop_fraction: float = 0.35
    #: With two busy SMT contexts, aggregate switching activity is
    #: scaled by this factor (shared pipelines: 2 x cpuburn burns
    #: ~1.25x one context, not 2x).
    smt_activity_factor: float = 0.62
    #: Per-context execution speed when the sibling context is busy
    #: (SMT throughput ~1.24x a single context).
    smt_speed_factor: float = 0.62

    def __post_init__(self) -> None:
        if self.core_dynamic_max <= 0 or self.core_leakage_ref < 0:
            raise ConfigurationError("power constants must be positive")
        if self.leak_t_slope <= 0:
            raise ConfigurationError("leakage temperature slope must be positive")
        if not 0 <= self.c1e_leakage_factor <= 1:
            raise ConfigurationError("C1E leakage factor must be in [0, 1]")

    def with_leakage_slope(self, slope: float) -> "PowerParams":
        """Copy with a different leakage temperature slope (ablation)."""
        return replace(self, leak_t_slope=slope)


@dataclass
class PowerCoefficients:
    """Segment-constant affine-exponential decomposition of node power.

    For frozen per-core execution states the power of every thermal
    node is an affine function of the node's own leakage exponential:

        P(T) = base + leak_coef * exp(min((T - leak_ref_temp) / leak_t_slope,
                                          leak_exp_cap))

    evaluated elementwise over the node vector with NumPy.  This is the
    vectorized fast path's contract: :meth:`evaluate` must agree with
    the scalar :meth:`Chip.power_vector` reference to within float
    rounding (the tests pin ≤1e-12 W per node).  Nodes without leakage
    (spreader, sink) simply carry ``leak_coef = 0``.
    """

    #: Temperature-independent power per node, W.
    base: np.ndarray
    #: Leakage prefactor per node, W (already scaled for voltage and,
    #: in C1E, the deep-idle leakage factor).
    leak_coef: np.ndarray
    #: Reference temperature of the leakage exponential, °C.
    leak_ref_temp: float
    #: Temperature increase for leakage to grow by factor e, °C.
    leak_t_slope: float
    #: Cap on the leakage exponential's argument.
    leak_exp_cap: float
    #: Lazily computed terms for the integrator's folded inner loop.
    _fused: Optional[Tuple[float, float, np.ndarray]] = None

    def fused_terms(self) -> Tuple[float, float, np.ndarray]:
        """``(inv_slope, arg_cap, scaled_coef)`` for the folded form

            P(T) = base + scaled_coef * exp(min(T * inv_slope, arg_cap))

        which equals :meth:`evaluate` with the reference temperature
        folded into the prefactor (``scaled_coef = leak_coef *
        exp(-ref/slope)``, ``arg_cap = cap + ref/slope``) — one fewer
        array op per substep and the cap still bounds the exponential's
        argument before ``exp`` runs.  Computed once per coefficient
        set; the chip's intern table makes that once per power state.
        ``scaled_coef`` is read-only (interned sets are shared).
        """
        if self._fused is None:
            inv_slope = 1.0 / self.leak_t_slope
            shift = self.leak_ref_temp / self.leak_t_slope
            scaled_coef = self.leak_coef * math.exp(-shift)
            scaled_coef.flags.writeable = False
            self._fused = (inv_slope, self.leak_exp_cap + shift, scaled_coef)
        return self._fused

    def evaluate(self, temps: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Node power vector at ``temps``, written into ``out`` if given.

        Allocation-free when ``out`` is supplied — the fused integrator
        calls this once per substep with a preallocated buffer.
        """
        if out is None:
            out = np.empty_like(self.base)
        np.subtract(temps, self.leak_ref_temp, out=out)
        out /= self.leak_t_slope
        np.minimum(out, self.leak_exp_cap, out=out)
        np.exp(out, out=out)
        out *= self.leak_coef
        out += self.base
        return out


class FleetCoefficients:
    """Per-machine :class:`PowerCoefficients` stacked into node-major
    tensors for the batched fleet integrator.

    ``base`` and ``scaled_coef`` have shape ``(nodes, machines)`` —
    column ``j`` is machine ``j``'s folded decomposition, so the
    batched substep evaluates every machine's power with the same
    elementwise chain the single-chip fast path uses, just on 2-D
    arrays.  The leakage-exponential constants (``inv_slope``,
    ``arg_cap``) are *shared scalars*: the fleet model requires
    homogeneous chips (same :class:`PowerParams`), and mixing chips
    with different leakage constants raises
    :class:`~repro.errors.ConfigurationError` — such a fleet cannot be
    advanced by one fused kernel.
    """

    __slots__ = ("base", "scaled_coef", "inv_slope", "arg_cap")

    def __init__(
        self,
        base: np.ndarray,
        scaled_coef: np.ndarray,
        inv_slope: float,
        arg_cap: float,
    ):
        self.base = base
        self.scaled_coef = scaled_coef
        self.inv_slope = inv_slope
        self.arg_cap = arg_cap

    @classmethod
    def from_coefficients(
        cls, columns: Sequence[PowerCoefficients]
    ) -> "FleetCoefficients":
        """Stack one coefficient set per machine (column order = machine
        order).  All columns must share the leakage constants exactly."""
        if not columns:
            raise ConfigurationError("a fleet stack needs at least one machine")
        inv_slope, arg_cap, first_scaled = columns[0].fused_terms()
        nodes = columns[0].base.shape[0]
        base = np.empty((nodes, len(columns)))
        scaled_coef = np.empty((nodes, len(columns)))
        base[:, 0] = columns[0].base
        scaled_coef[:, 0] = first_scaled
        for j, column in enumerate(columns[1:], start=1):
            c_inv_slope, c_arg_cap, c_scaled = column.fused_terms()
            if c_inv_slope != inv_slope or c_arg_cap != arg_cap:
                raise ConfigurationError(
                    "fleet machines must share leakage constants "
                    f"(machine {j} differs); heterogeneous chips cannot "
                    "share one fused kernel"
                )
            if column.base.shape[0] != nodes:
                raise ConfigurationError(
                    f"machine {j} has {column.base.shape[0]} thermal nodes, "
                    f"fleet stack is {nodes} wide"
                )
            base[:, j] = column.base
            scaled_coef[:, j] = c_scaled
        return cls(base, scaled_coef, inv_slope, arg_cap)

    def fused_terms(self) -> Tuple[float, float, np.ndarray]:
        """``(inv_slope, arg_cap, scaled_coef)`` — the
        :meth:`PowerCoefficients.fused_terms` contract, column-stacked."""
        return self.inv_slope, self.arg_cap, self.scaled_coef


class PowerModel:
    """Computes per-core and package power from state and temperature."""

    def __init__(self, params: PowerParams, dvfs: DvfsTable):
        self.params = params
        self.dvfs = dvfs

    # ------------------------------------------------------------------
    def leakage(self, temp: float, point: OperatingPoint) -> float:
        """Per-core leakage power (W) at ``temp`` °C and ``point``."""
        p = self.params
        exponent = min((temp - p.leak_ref_temp) / p.leak_t_slope, p.leak_exp_cap)
        return p.core_leakage_ref * self.dvfs.leakage_scale(point) * math.exp(exponent)

    def dynamic(self, activity: float, point: OperatingPoint, tcc: TccSetting = TCC_OFF) -> float:
        """Per-core dynamic power (W) while executing.

        ``activity`` is the workload's switching-activity factor
        relative to cpuburn (1.0); Table 1's SPEC workloads run cooler
        via smaller factors.
        """
        if activity < 0:
            raise ConfigurationError(f"negative activity factor {activity}")
        p = self.params
        return (
            p.core_dynamic_max
            * activity
            * self.dvfs.dynamic_scale(point)
            * tcc.dynamic_scale
        )

    def core_power(
        self,
        state: CState,
        temp: float,
        point: OperatingPoint,
        *,
        activity: float = 1.0,
        tcc: TccSetting = TCC_OFF,
    ) -> float:
        """Total power (W) of one core in ``state`` at ``temp``."""
        p = self.params
        if state is CState.C0:
            return self.dynamic(activity, point, tcc) + self.leakage(temp, point)
        if state is CState.C1:
            residual = p.core_dynamic_max * p.c1_dynamic_fraction * self.dvfs.dynamic_scale(point)
            return residual + self.leakage(temp, point)
        if state is CState.C1E:
            return p.c1e_leakage_factor * self.leakage(temp, point)
        raise ConfigurationError(f"unknown C-state {state!r}")

    def core_coefficients(
        self,
        state: CState,
        point: OperatingPoint,
        *,
        activity: float = 1.0,
        tcc: TccSetting = TCC_OFF,
    ) -> Tuple[float, float]:
        """``(base, leak_coef)`` such that the core's power at ``temp``
        is ``base + leak_coef * exp(min((temp - ref) / slope, cap))``.

        The decomposition mirrors :meth:`core_power` term for term so
        the vectorized path reproduces the scalar model exactly.
        """
        p = self.params
        leak = p.core_leakage_ref * self.dvfs.leakage_scale(point)
        if state is CState.C0:
            return self.dynamic(activity, point, tcc), leak
        if state is CState.C1:
            residual = p.core_dynamic_max * p.c1_dynamic_fraction * self.dvfs.dynamic_scale(point)
            return residual, leak
        if state is CState.C1E:
            return 0.0, leak * p.c1e_leakage_factor
        raise ConfigurationError(f"unknown C-state {state!r}")

    # ------------------------------------------------------------------
    def package_power_estimate(
        self,
        active_cores: int,
        num_cores: int,
        temp: float,
        point: OperatingPoint,
        *,
        activity: float = 1.0,
    ) -> float:
        """Back-of-envelope package power with ``active_cores`` in C0 and
        the rest in C1E, all at a common temperature.

        Used by analytical validation and tests; the full simulation
        computes per-node powers with per-node temperatures instead.
        """
        active = active_cores * self.core_power(
            CState.C0, temp, point, activity=activity
        )
        idle = (num_cores - active_cores) * self.core_power(CState.C1E, temp, point)
        return active + idle + self.params.uncore_power
