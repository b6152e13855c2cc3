"""Tests for Pareto extraction and the T(r)=α·r^β fit."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    TradeoffPoint,
    crossover_reduction,
    fit_power_law,
    interpolate_boundary,
    pareto_boundary,
)
from repro.errors import AnalysisError


def pt(r, t, **params):
    return TradeoffPoint(temp_reduction=r, throughput_reduction=t, params=params)


# ----------------------------------------------------------------------
# TradeoffPoint
# ----------------------------------------------------------------------
def test_efficiency():
    assert pt(0.4, 0.2).efficiency == pytest.approx(2.0)
    assert pt(0.4, 0.0).efficiency == float("inf")
    assert pt(0.0, 0.0).efficiency == 0.0


# ----------------------------------------------------------------------
# Boundary extraction
# ----------------------------------------------------------------------
def test_boundary_empty():
    assert pareto_boundary([]) == []


def test_boundary_removes_dominated():
    points = [pt(0.5, 0.2), pt(0.4, 0.3), pt(0.3, 0.1)]
    boundary = pareto_boundary(points)
    # (0.4, 0.3) is dominated by (0.5, 0.2); (0.3, 0.1) survives.
    assert [(q.temp_reduction, q.throughput_reduction) for q in boundary] == [
        (0.3, 0.1),
        (0.5, 0.2),
    ]


def test_boundary_sorted_and_monotone():
    rng = np.random.default_rng(0)
    points = [pt(float(r), float(t)) for r, t in rng.random((100, 2))]
    boundary = pareto_boundary(points)
    rs = [q.temp_reduction for q in boundary]
    ts = [q.throughput_reduction for q in boundary]
    assert rs == sorted(rs)
    assert ts == sorted(ts)


def test_boundary_single_point():
    only = pt(0.2, 0.1)
    assert pareto_boundary([only]) == [only]


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40
    )
)
def test_boundary_nondominated_property(data):
    points = [pt(r, t) for r, t in data]
    boundary = pareto_boundary(points)
    for chosen in boundary:
        for other in points:
            dominates = (
                other.temp_reduction >= chosen.temp_reduction
                and other.throughput_reduction < chosen.throughput_reduction
            ) or (
                other.temp_reduction > chosen.temp_reduction
                and other.throughput_reduction <= chosen.throughput_reduction
            )
            assert not dominates


# ----------------------------------------------------------------------
# Power-law fit
# ----------------------------------------------------------------------
def test_fit_recovers_known_constants():
    rs = np.linspace(0.02, 0.7, 30)
    points = [pt(float(r), float(1.1 * r**1.5)) for r in rs]
    fit = fit_power_law(points)
    assert fit.alpha == pytest.approx(1.1, abs=0.02)
    assert fit.beta == pytest.approx(1.5, abs=0.02)
    assert fit.rms_residual < 1e-6
    assert fit.n_points == len([r for r in rs if r <= 0.75])


def test_fit_predict():
    rs = np.linspace(0.02, 0.7, 20)
    points = [pt(float(r), float(0.9 * r**1.2)) for r in rs]
    fit = fit_power_law(points)
    assert fit.predict(0.5) == pytest.approx(0.9 * 0.5**1.2, rel=1e-3)


def test_fit_respects_r_max():
    rs = np.linspace(0.02, 0.95, 30)
    points = [pt(float(r), float(r)) for r in rs]
    fit = fit_power_law(points, r_max=0.5)
    assert all(r <= 0.5 for r in rs[: fit.n_points])


def test_fit_requires_enough_points():
    with pytest.raises(AnalysisError):
        fit_power_law([pt(0.1, 0.05), pt(0.2, 0.1)])


def test_fit_describe():
    rs = np.linspace(0.05, 0.7, 10)
    fit = fit_power_law([pt(float(r), float(r**1.3)) for r in rs])
    assert "T(r)" in fit.describe()


# ----------------------------------------------------------------------
# Interpolation and crossover
# ----------------------------------------------------------------------
def test_interpolate_boundary():
    points = [pt(0.1, 0.05), pt(0.3, 0.2), pt(0.5, 0.5)]
    assert interpolate_boundary(points, 0.2) == pytest.approx(0.125)
    assert interpolate_boundary(points, 0.05) is None
    assert interpolate_boundary(points, 0.6) is None
    assert interpolate_boundary([], 0.2) is None


def test_crossover_found():
    # Technique A cheap at small r, expensive at large; B the opposite.
    a = [pt(r, 1.2 * r**1.8) for r in np.linspace(0.05, 0.9, 30)]
    b = [pt(r, 0.66 * r) for r in np.linspace(0.05, 0.9, 30)]
    crossover = crossover_reduction(a, b)
    # 1.2 r^1.8 == 0.66 r at r ~ (0.55)^(1/0.8) ~ 0.473.
    assert crossover == pytest.approx(0.473, abs=0.03)


def test_crossover_none_when_dominated():
    a = [pt(r, 0.5 * r) for r in np.linspace(0.1, 0.9, 20)]
    b = [pt(r, 0.9 * r) for r in np.linspace(0.1, 0.9, 20)]
    assert crossover_reduction(a, b) is None


def test_crossover_none_without_overlap():
    a = [pt(0.1, 0.05), pt(0.2, 0.1)]
    b = [pt(0.5, 0.3), pt(0.7, 0.5)]
    assert crossover_reduction(a, b) is None


# ----------------------------------------------------------------------
# Cold import: scipy loads only for the power-law fit
# ----------------------------------------------------------------------
def test_cold_import_leaves_scipy_to_the_fit():
    # A fresh interpreter: this test process has long since loaded scipy.
    script = textwrap.dedent(
        """
        import sys
        import repro, repro.cli, repro.experiments.figures
        import repro.fleet.cells, repro.fleet.scenarios

        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded[:5]

        from repro.core import TradeoffPoint, fit_power_law

        points = [TradeoffPoint(r, 1.1 * r**1.5) for r in (0.1, 0.2, 0.4, 0.6)]
        fit_power_law(points)
        assert "scipy.optimize" in sys.modules
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
