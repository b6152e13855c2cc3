"""Tests for the exponential-Euler thermal integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.chip import Chip
from repro.cpu.cstates import CState
from repro.cpu.power import PowerCoefficients
from repro.errors import ConfigurationError, SimulationError
from repro.thermal import ThermalIntegrator, ThermalNetwork, build_network, default, fast
from repro.thermal.rcnetwork import FleetThermalIntegrator
from scalar_oracle import ScalarOracle


def one_node_network(capacitance=2.0, conductance=0.5, ambient=20.0):
    return ThermalNetwork(
        capacitances=[capacitance],
        conductances=np.zeros((1, 1)),
        ambient_conductances=[conductance],
        ambient_temp=ambient,
    )


def coefficients(base, leak=0.0):
    """Node powers ``base + leak * exp((T - 25) / 10)`` (exponent capped at 10)."""
    base = np.array(base, dtype=float, ndmin=1)
    return PowerCoefficients(
        base=base,
        leak_coef=np.broadcast_to(np.array(leak, dtype=float), base.shape).copy(),
        leak_ref_temp=25.0,
        leak_t_slope=10.0,
        leak_exp_cap=10.0,
    )


def constant_power(watts, n=1):
    vec = np.zeros(n)
    vec[0] = watts
    return coefficients(vec)


def feedback_fixed_point(base, leak, conductance, ambient=25.0):
    """Stable steady temperature of a one-node network under
    ``coefficients(base, leak)``: bisection for the rise ``d`` in
    ``G·d = base + leak·exp(d / 10)`` on [0, 20] K, which must bracket
    the stable root (the unstable one, past the fold, lies above it)."""
    lo, hi = 0.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if conductance * mid < base + leak * math.exp((mid + ambient - 25.0) / 10.0):
            lo = mid
        else:
            hi = mid
    return ambient + 0.5 * (lo + hi)


def test_initial_temps_default_to_ambient():
    net = one_node_network(ambient=33.0)
    integ = ThermalIntegrator(net)
    assert np.allclose(integ.temps, 33.0)


def test_matches_analytic_single_node_exponential():
    """T(t) = T_ss + (T0 - T_ss) exp(-t/RC), exact for constant power:
    the fused path and the tests' scalar oracle both reproduce it."""
    cap, cond, ambient, power = 2.0, 0.5, 20.0, 10.0
    net = one_node_network(cap, cond, ambient)
    tau = cap / cond
    t_ss = ambient + power / cond
    expected = t_ss + (ambient - t_ss) * np.exp(-3.0 / tau)

    integ = ThermalIntegrator(net, max_substep=0.05)
    integ.advance_coefficients(3.0, constant_power(power))
    assert integ.temps[0] == pytest.approx(expected, rel=1e-9)

    oracle = ScalarOracle(net, max_substep=0.05)
    oracle.advance(3.0, lambda temps: np.array([power]))
    assert oracle.temps[0] == pytest.approx(expected, rel=1e-9)


def test_result_independent_of_substep_for_constant_power():
    """Exponential Euler is exact for constant power: substep must not matter."""
    net = one_node_network()
    coarse = ThermalIntegrator(net, max_substep=1.0)
    fine = ThermalIntegrator(net, max_substep=0.001)
    coarse.advance_coefficients(2.0, constant_power(7.0))
    fine.advance_coefficients(2.0, constant_power(7.0))
    assert coarse.temps[0] == pytest.approx(fine.temps[0], rel=1e-10)


def test_advance_energy_accounting():
    net = one_node_network()
    integ = ThermalIntegrator(net)
    energy = integ.advance_coefficients(4.0, constant_power(10.0))
    assert energy == pytest.approx(40.0)


def test_zero_duration_advance():
    net = one_node_network()
    integ = ThermalIntegrator(net)
    before = integ.temps.copy()
    assert integ.advance_coefficients(0.0, constant_power(10.0)) == 0.0
    assert np.array_equal(integ.temps, before)


def test_negative_duration_rejected():
    net = one_node_network()
    integ = ThermalIntegrator(net)
    with pytest.raises(ConfigurationError):
        integ.advance_coefficients(-1.0, constant_power(1.0))


@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_non_finite_duration_rejected(duration):
    """Infinity once died in ``math.ceil`` with an OverflowError."""
    integ = ThermalIntegrator(one_node_network())
    before = integ.temps.copy()
    with pytest.raises(ConfigurationError):
        integ.advance_coefficients(duration, constant_power(1.0))
    assert np.array_equal(integ.temps, before)


def test_invalid_substep_rejected():
    """Zero, negative and NaN substep caps are configuration errors at
    construction; NaN used to pass and fail mid-run in ``math.ceil``."""
    net = one_node_network()
    for max_substep in (0.0, -1e-3, float("nan")):
        with pytest.raises(ConfigurationError):
            ThermalIntegrator(net, max_substep=max_substep)
        with pytest.raises(ConfigurationError):
            FleetThermalIntegrator(net, 2, max_substep=max_substep)


def test_split_advance_equals_single_advance():
    """Advancing 1 s twice equals advancing 2 s once (constant power)."""
    net = build_network(default(), num_cores=2)
    power = np.zeros(net.num_nodes)
    power[0] = 15.0
    a = ThermalIntegrator(net, max_substep=0.005)
    b = ThermalIntegrator(net, max_substep=0.005)
    a.advance_coefficients(2.0, coefficients(power))
    b.advance_coefficients(1.0, coefficients(power))
    b.advance_coefficients(1.0, coefficients(power))
    assert np.allclose(a.temps, b.temps, atol=1e-9)


def test_converges_to_steady_state():
    net = one_node_network(capacitance=0.5, conductance=1.0, ambient=25.0)
    integ = ThermalIntegrator(net)
    integ.advance_coefficients(20.0, constant_power(8.0))  # 40 time constants
    assert integ.temps[0] == pytest.approx(33.0, abs=1e-6)


def test_settle_linear_matches_steady_state():
    net = build_network(default(), num_cores=4)
    power = np.zeros(net.num_nodes)
    power[:4] = 12.0
    integ = ThermalIntegrator(net)
    settled = integ.settle(coefficients(power))
    assert np.allclose(settled, net.steady_state(power), atol=1e-5)


def test_settle_with_temperature_feedback():
    """Settle handles convex (leakage-like) power and finds the fixed point."""
    net = one_node_network(capacitance=1.0, conductance=1.0, ambient=25.0)
    integ = ThermalIntegrator(net)
    settled = integ.settle(coefficients(5.0, leak=1.0))
    assert settled[0] == pytest.approx(feedback_fixed_point(5.0, 1.0, 1.0), abs=1e-5)
    assert np.array_equal(integ.temps, settled)


def test_settle_fallback_integrates_to_the_fixed_point():
    """With one fixed-point iteration allowed, settle integrates instead
    and still lands on the nonlinear steady state."""
    net = one_node_network(capacitance=2.0, conductance=0.5, ambient=25.0)
    power = coefficients(5.0, leak=0.5)
    fallback = ThermalIntegrator(net, max_substep=0.05)
    settled = fallback.settle(power, max_iterations=1)
    expected = feedback_fixed_point(5.0, 0.5, 0.5)
    assert settled[0] == pytest.approx(expected, abs=1e-4)
    assert np.array_equal(fallback.temps, settled)

    # The idle initial condition every simulated machine starts from.
    chip_net = build_network(fast(), num_cores=4)
    load = Chip(num_cores=4).power_coefficients((CState.C1E,) * 4)
    fixed_point = ThermalIntegrator(chip_net).settle(load)
    integrated = ThermalIntegrator(chip_net, max_substep=0.05).settle(load, max_iterations=1)
    assert np.max(np.abs(integrated - fixed_point)) < 1e-4


def test_settle_raises_when_integration_runs_out():
    """A fallback that exhausts ``max_time`` still moving is an error, not
    a silently unconverged initial condition."""
    net = one_node_network(capacitance=2.0, conductance=0.5, ambient=25.0)
    integ = ThermalIntegrator(net, max_substep=0.05)
    with pytest.raises(SimulationError, match="steady state"):
        integ.settle(coefficients(5.0, leak=0.5), max_iterations=1, max_time=5.0)


def test_leakage_feedback_raises_temperature():
    """Temperature-dependent power must settle hotter than constant power."""
    net = one_node_network(capacitance=1.0, conductance=1.0, ambient=25.0)
    constant = ThermalIntegrator(net)
    constant.advance_coefficients(30.0, constant_power(5.0))
    feedback = ThermalIntegrator(net)
    feedback.advance_coefficients(30.0, coefficients(5.0, leak=0.5))
    assert feedback.temps[0] > constant.temps[0] + 0.5


def test_cooling_is_fast_then_slow():
    """The die node loses most of its local rise within ~3 die taus."""
    net = build_network(default(), num_cores=4)
    power = np.zeros(net.num_nodes)
    power[0] = 15.0
    integ = ThermalIntegrator(net, max_substep=0.002)
    integ.settle(coefficients(power))
    hot = integ.temps.copy()
    integ.advance_coefficients(0.1, coefficients(np.zeros(net.num_nodes)))  # 100 ms of idle
    after_short = integ.temps[0]
    # The core-local component (core minus spreader) collapses quickly.
    local_before = hot[0] - hot[4]
    local_after = after_short - integ.temps[4]
    assert local_after < 0.2 * local_before


@settings(max_examples=25, deadline=None)
@given(
    power=st.floats(min_value=0.0, max_value=50.0),
    duration=st.floats(min_value=0.01, max_value=5.0),
)
def test_energy_equals_power_times_time_property(power, duration):
    net = one_node_network()
    integ = ThermalIntegrator(net)
    energy = integ.advance_coefficients(duration, constant_power(power))
    assert energy == pytest.approx(power * duration, rel=1e-9, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(power=st.floats(min_value=0.0, max_value=80.0))
def test_monotone_heating_property(power):
    """Under constant non-negative power from ambient, temperature never
    exceeds the steady state and never drops below ambient."""
    net = one_node_network()
    integ = ThermalIntegrator(net)
    t_ss = net.steady_state(np.array([power]))[0]
    for _ in range(10):
        integ.advance_coefficients(0.5, constant_power(power))
        assert net.ambient_temp - 1e-9 <= integ.temps[0] <= t_ss + 1e-9
