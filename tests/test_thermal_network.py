"""Unit and property tests for the RC thermal network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.errors import ConfigurationError
from repro.thermal import ThermalNetwork, ThermalParams, build_network, default


def two_node_network(ambient=25.0):
    """A core (node 0) coupled to a sink (node 1) coupled to ambient."""
    conductances = np.array([[0.0, 2.0], [2.0, 0.0]])
    return ThermalNetwork(
        capacitances=[0.1, 10.0],
        conductances=conductances,
        ambient_conductances=[0.0, 4.0],
        ambient_temp=ambient,
        node_names=["core", "sink"],
    )


def test_zero_power_steady_state_is_ambient():
    net = two_node_network(ambient=30.0)
    temps = net.steady_state(np.zeros(2))
    assert np.allclose(temps, 30.0)


def test_steady_state_matches_hand_computation():
    net = two_node_network(ambient=25.0)
    # 8 W into the core: sink rise = 8/4 = 2 K, core rise = 2 + 8/2 = 6 K.
    temps = net.steady_state(np.array([8.0, 0.0]))
    assert temps[1] == pytest.approx(27.0)
    assert temps[0] == pytest.approx(31.0)


def test_steady_state_superposition():
    net = two_node_network()
    t1 = net.steady_state(np.array([5.0, 0.0])) - net.ambient_temp
    t2 = net.steady_state(np.array([0.0, 3.0])) - net.ambient_temp
    t12 = net.steady_state(np.array([5.0, 3.0])) - net.ambient_temp
    assert np.allclose(t1 + t2, t12)


def test_thermal_resistance_symmetry():
    net = build_network(default(), num_cores=4)
    # Reciprocity of the resistance matrix for a symmetric Laplacian.
    for i in range(net.num_nodes):
        for j in range(net.num_nodes):
            assert net.thermal_resistance(i, j) == pytest.approx(
                net.thermal_resistance(j, i)
            )


def test_node_index_lookup():
    net = build_network(default(), num_cores=2)
    assert net.node_index("core0") == 0
    assert net.node_index("spreader") == 2
    assert net.node_index("sink") == 3
    with pytest.raises(ConfigurationError):
        net.node_index("nope")


def test_time_constants_sorted_and_positive():
    net = build_network(default(), num_cores=4)
    taus = net.time_constants()
    assert np.all(taus > 0)
    assert np.all(np.diff(taus) >= 0)


def test_default_network_has_separated_time_scales():
    """Die must cool orders of magnitude faster than the heatsink."""
    net = build_network(default(), num_cores=4)
    taus = net.time_constants()
    assert taus[0] < 0.1  # die-scale: tens of ms
    assert taus[-1] > 30.0  # sink-scale: tens of seconds


def test_propagator_semigroup_property():
    """expm(A(h1+h2)) == expm(A h1) @ expm(A h2)."""
    net = two_node_network()
    e1 = net.propagator(0.003)
    e2 = net.propagator(0.007)
    e3 = net.propagator(0.010)
    assert np.allclose(e1 @ e2, e3)


# ----------------------------------------------------------------------
# Spectral step kernel vs scipy's matrix exponential
# ----------------------------------------------------------------------
KERNEL_TOL = 1e-12


def _laplacian(conductances, ambient_conductances):
    """The conductance Laplacian of ``(G + Gᵀ)/2`` with ambient legs."""
    g = 0.5 * (conductances + conductances.T)
    np.fill_diagonal(g, 0.0)
    return np.diag(g.sum(axis=1) + ambient_conductances) - g


def _expm_kernel(laplacian, capacitances, ambient_temp, h):
    """``[E | (I−E) L⁻¹ | (I−E) T_amb·1]`` with ``E = expm(−C⁻¹ L h)``."""
    n = len(capacitances)
    e = expm(-laplacian / np.asarray(capacitances)[:, None] * h)
    complement = np.eye(n) - e
    return np.hstack(
        [
            e,
            complement @ np.linalg.inv(laplacian),
            (complement @ np.full(n, ambient_temp))[:, None],
        ]
    )


def _floorplan_case():
    params = default()
    net = build_network(params, num_cores=4)
    spreader, sink = 4, 5
    g = np.zeros((6, 6))
    for i in range(4):
        g[i, spreader] = g[spreader, i] = params.core_to_spreader
    for i in range(3):
        g[i, i + 1] = g[i + 1, i] = params.core_to_core
    g[spreader, sink] = g[sink, spreader] = params.spreader_to_sink
    ambient = np.zeros(6)
    ambient[sink] = params.sink_to_ambient
    return net, _laplacian(g, ambient)


def _two_node_case():
    net = two_node_network()
    g = np.array([[0.0, 2.0], [2.0, 0.0]])
    return net, _laplacian(g, np.array([0.0, 4.0]))


@pytest.mark.parametrize("case", [_floorplan_case, _two_node_case], ids=["floorplan", "two-node"])
def test_step_kernel_matches_expm(case):
    """The spectral kernel reproduces the expm-built one to 1e-12 over
    seven decades of step length, from sub-microsecond substeps to
    longer than every die and spreader time constant."""
    net, laplacian = case()
    for h in np.geomspace(1e-7, 10.0, 1200):
        reference = _expm_kernel(laplacian, net.capacitances, net.ambient_temp, round(h, 9))
        kernel = net.step_kernel(h)
        assert kernel.shape == (net.num_nodes, 2 * net.num_nodes + 1)
        assert np.max(np.abs(kernel - reference)) <= KERNEL_TOL, h
        assert np.array_equal(net.propagator(h), kernel[:, : net.num_nodes])


def test_step_kernel_rounds_h_to_nanoseconds():
    """The kernel argument is ``round(h, 9)``: float noise from the
    ``duration / n_steps`` split never changes the kernel."""
    net = build_network(default(), num_cores=4)
    rng = np.random.default_rng(3)
    durations = rng.uniform(1e-6, 0.05, size=500)
    for duration in durations:
        n_steps = int(np.ceil(duration / 5e-3))
        h = duration / n_steps
        assert np.array_equal(net.step_kernel(h), net.step_kernel(round(h, 9)))
    assert np.array_equal(net.step_kernel(0.003 + 2e-13), net.step_kernel(0.003))


@pytest.mark.parametrize("case", [_floorplan_case, _two_node_case], ids=["floorplan", "two-node"])
def test_time_constants_match_eigenvalues_of_a(case):
    net, laplacian = case()
    a = -laplacian / net.capacitances[:, None]
    expected = np.sort(-1.0 / np.real(np.linalg.eigvals(a)))
    assert np.allclose(net.time_constants(), expected, rtol=1e-12, atol=0.0)


def test_nearly_symmetric_conductances_are_symmetrised():
    """A 1e-10 W/K asymmetry passes validation; the network then
    describes ``(G + Gᵀ)/2`` consistently: its kernel matches expm of
    that Laplacian, and the long-step limit ``K∞`` is the steady state."""
    g = np.array([[0.0, 2.0 + 1e-10], [2.0, 0.0]])
    net = ThermalNetwork(
        capacitances=[0.1, 10.0],
        conductances=g,
        ambient_conductances=[0.0, 4.0],
        ambient_temp=25.0,
    )
    laplacian = _laplacian(g, np.array([0.0, 4.0]))
    for h in np.geomspace(1e-4, 10.0, 200):
        reference = _expm_kernel(laplacian, net.capacitances, net.ambient_temp, round(h, 9))
        assert np.max(np.abs(net.step_kernel(h) - reference)) <= KERNEL_TOL, h

    limit = net.step_kernel(1e4)
    power = np.array([8.0, 3.0])
    for temps in (np.array([25.0, 25.0]), np.array([90.0, 40.0])):
        stacked = np.concatenate([temps, power, [1.0]])
        assert np.max(np.abs(limit @ stacked - net.steady_state(power))) <= KERNEL_TOL


def test_rejects_asymmetric_conductances():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.array([[0.0, 1.0], [2.0, 0.0]]),
            ambient_conductances=[1.0, 0.0],
            ambient_temp=25.0,
        )


def test_rejects_nonpositive_capacitance():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[0.0, 1.0],
            conductances=np.zeros((2, 2)),
            ambient_conductances=[1.0, 1.0],
            ambient_temp=25.0,
        )


def test_rejects_no_ambient_path():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0],
            conductances=np.zeros((1, 1)),
            ambient_conductances=[0.0],
            ambient_temp=25.0,
        )


def test_rejects_negative_conductance():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.array([[0.0, -1.0], [-1.0, 0.0]]),
            ambient_conductances=[1.0, 0.0],
            ambient_temp=25.0,
        )


def test_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.zeros((3, 3)),
            ambient_conductances=[1.0, 1.0],
            ambient_temp=25.0,
        )
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.zeros((2, 2)),
            ambient_conductances=[1.0],
            ambient_temp=25.0,
        )


def test_build_network_node_order():
    net = build_network(default(), num_cores=3)
    assert net.node_names == ["core0", "core1", "core2", "spreader", "sink"]


def test_build_network_rejects_zero_cores():
    with pytest.raises(ConfigurationError):
        build_network(default(), num_cores=0)


@settings(max_examples=30, deadline=None)
@given(
    power=st.floats(min_value=0.0, max_value=200.0),
    ambient=st.floats(min_value=0.0, max_value=50.0),
)
def test_steady_state_above_ambient_property(power, ambient):
    """Any non-negative power leaves every node at or above ambient."""
    params = ThermalParams(room_temp=ambient, case_air_rise=0.0)
    net = build_network(params, num_cores=4)
    vec = np.zeros(net.num_nodes)
    vec[0] = power
    temps = net.steady_state(vec)
    assert np.all(temps >= ambient - 1e-9)


@settings(max_examples=30, deadline=None)
@given(power=st.floats(min_value=0.1, max_value=100.0))
def test_source_node_is_hottest_property(power):
    """The node receiving all the power is the hottest node."""
    net = build_network(default(), num_cores=4)
    vec = np.zeros(net.num_nodes)
    vec[2] = power
    temps = net.steady_state(vec)
    assert np.argmax(temps) == 2
