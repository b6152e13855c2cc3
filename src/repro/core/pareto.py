"""Pareto-frontier extraction and the paper's T(r) = α·r^β fit.

Section 3.4 characterises a technique's quality by the Pareto boundary
of (temperature reduction ``r``, throughput reduction ``T``) points
over a parameter sweep, and fits the boundary with a power law

    T(r) = α · r^β

(cpuburn: α = 1.092, β = 1.541 for r ∈ [0, 0.75]).  β > 1 means small
temperature reductions are disproportionately cheap — the paper's
central quantitative claim about idle injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class TradeoffPoint:
    """One configuration's measured trade-off."""

    #: Temperature reduction over idle, fraction in [0, 1].
    temp_reduction: float
    #: Throughput (or QoS) reduction, fraction.
    throughput_reduction: float
    #: The configuration that produced it (e.g. {"p": .5, "L": .025}).
    params: Dict[str, float] = field(default_factory=dict, hash=False, compare=False)

    @property
    def efficiency(self) -> float:
        """Temperature : throughput ratio (Figure 3's metric)."""
        if self.throughput_reduction <= 0:
            return float("inf") if self.temp_reduction > 0 else 0.0
        return self.temp_reduction / self.throughput_reduction


def pareto_boundary(points: Sequence[TradeoffPoint]) -> List[TradeoffPoint]:
    """Non-dominated subset: most temperature reduction for least cost.

    A point is dominated if another achieves at least as much
    temperature reduction for no more throughput reduction (strictly
    better in at least one).  The result is sorted by temperature
    reduction, and has strictly increasing throughput reduction.
    """
    if not points:
        return []
    ordered = sorted(points, key=lambda pt: (pt.throughput_reduction, -pt.temp_reduction))
    boundary: List[TradeoffPoint] = []
    best_r = -np.inf
    for point in ordered:
        if point.temp_reduction > best_r:
            boundary.append(point)
            best_r = point.temp_reduction
    return sorted(boundary, key=lambda pt: pt.temp_reduction)


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting T(r) = α·r^β."""

    alpha: float
    beta: float
    #: Root-mean-square residual of the fit, in throughput fraction.
    rms_residual: float
    #: Number of boundary points used.
    n_points: int

    def predict(self, r):
        """Throughput reduction predicted at temperature reduction r."""
        return self.alpha * np.power(r, self.beta)

    def describe(self) -> str:
        return (
            f"T(r) = {self.alpha:.3f} * r^{self.beta:.3f} "
            f"(rms {self.rms_residual:.4f}, {self.n_points} pts)"
        )


def fit_power_law(
    points: Sequence[TradeoffPoint],
    *,
    r_max: float = 0.75,
    r_min: float = 0.005,
    use_boundary: bool = True,
) -> PowerLawFit:
    """Fit the Pareto boundary with T(r) = α·r^β on r ∈ [r_min, r_max].

    Mirrors the paper's §3.4 methodology: boundary extraction first,
    then a two-parameter power-law fit over the stated range.
    """
    candidates = pareto_boundary(points) if use_boundary else list(points)
    selected = [
        pt
        for pt in candidates
        if r_min <= pt.temp_reduction <= r_max and pt.throughput_reduction >= 0
    ]
    if len(selected) < 3:
        raise AnalysisError(
            f"need at least 3 points in r ∈ [{r_min}, {r_max}] to fit, "
            f"got {len(selected)}"
        )
    # Imported here, not at module level: this fit is scipy's only use, and
    # simulation processes should not pay its cold import.
    from scipy.optimize import curve_fit

    r = np.array([pt.temp_reduction for pt in selected])
    t = np.array([pt.throughput_reduction for pt in selected])

    def model(x, alpha, beta):
        return alpha * np.power(x, beta)

    (alpha, beta), _ = curve_fit(
        model, r, t, p0=(1.0, 1.5), bounds=([1e-3, 0.2], [20.0, 5.0]), maxfev=20000
    )
    residual = float(np.sqrt(np.mean((model(r, alpha, beta) - t) ** 2)))
    return PowerLawFit(
        alpha=float(alpha), beta=float(beta), rms_residual=residual, n_points=len(selected)
    )


def interpolate_boundary(
    points: Sequence[TradeoffPoint], r: float
) -> Optional[float]:
    """Throughput reduction of the Pareto boundary at temperature
    reduction ``r``, linearly interpolated; None outside the range."""
    boundary = pareto_boundary(points)
    if not boundary:
        return None
    rs = np.array([pt.temp_reduction for pt in boundary])
    ts = np.array([pt.throughput_reduction for pt in boundary])
    if r < rs[0] or r > rs[-1]:
        return None
    return float(np.interp(r, rs, ts))


def crossover_reduction(
    first: Sequence[TradeoffPoint], second: Sequence[TradeoffPoint], *, grid: int = 200
) -> Optional[float]:
    """Temperature reduction where ``second``'s boundary becomes cheaper
    than ``first``'s (Figure 4's Dimetrodon/VFS crossover), or None if
    one dominates throughout the overlapping range."""
    b1, b2 = pareto_boundary(first), pareto_boundary(second)
    if not b1 or not b2:
        return None
    lo = max(b1[0].temp_reduction, b2[0].temp_reduction)
    hi = min(b1[-1].temp_reduction, b2[-1].temp_reduction)
    if hi <= lo:
        return None
    rs = np.linspace(lo, hi, grid)
    t1 = np.array([interpolate_boundary(b1, r) for r in rs], dtype=float)
    t2 = np.array([interpolate_boundary(b2, r) for r in rs], dtype=float)
    sign = np.sign(t2 - t1)
    for i in range(1, len(rs)):
        if sign[i] != sign[i - 1] and sign[i] != 0:
            return float(rs[i])
    return None
