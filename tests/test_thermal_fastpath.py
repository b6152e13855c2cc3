"""Equivalence and caching tests for the vectorized thermal/power path.

The fast path has three layers, each pinned against its scalar oracle:

- power: :meth:`Chip.power_coefficients` vs :meth:`Chip.power_vector`
  (≤1e-12 W per node over randomized chip states);
- integration: :meth:`ThermalIntegrator.advance_coefficients` vs the
  scalar oracle of ``scalar_oracle.py`` (≤1e-9 °C over long intervals);
- simulation: the default machine vs the same machine with its physics
  swapped for the scalar oracle over a fig2-style 60 s run (≤1e-9 °C
  on every logged sample).

Plus the supporting machinery: the chip's held per-core state, its
interned coefficient table and its telemetry counters.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.chip import Chip
from repro.cpu.cstates import CState
from repro.cpu.tcc import TCC_OFF, setpoints
from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.telemetry import isolated
from repro.thermal.floorplan import build_network
from repro.thermal.params import ThermalParams
from repro.thermal.rcnetwork import ThermalIntegrator
from repro.workloads import CpuBurn
from scalar_oracle import ScalarOracle, power_function

POWER_TOL_W = 1e-12
TEMP_TOL_C = 1e-9


def _random_chip(rng: np.random.Generator) -> Chip:
    """A chip in a random power-relevant state at t = 0."""
    num_cores = int(rng.integers(1, 7))
    smt = int(rng.integers(1, 3))
    chip = Chip(num_cores=num_cores, smt=smt, c1e_enabled=bool(rng.integers(0, 2)))

    # Chip-wide DVFS, random per-core overrides, random TCC duty.
    points = chip.dvfs_table.points
    chip.set_operating_point(points[int(rng.integers(0, len(points)))])
    for i in range(num_cores):
        if rng.random() < 0.3:
            chip.set_core_operating_point(i, points[int(rng.integers(0, len(points)))])
    if rng.random() < 0.5:
        ladder = setpoints(8)
        chip.set_tcc(ladder[int(rng.integers(0, len(ladder)))])

    for core in chip.cores:
        choice = rng.random()
        if choice < 0.4:  # running
            core.set_running(object(), float(rng.uniform(0.0, 1.2)), 0.0)
            if smt == 2 and rng.random() < 0.5:
                core.set_context_running(1, object(), float(rng.uniform(0.0, 1.2)), 0.0)
        elif choice < 0.7:  # freshly idle: still C1 at t=0
            core.set_idle(-1e-4)
        else:  # long idle: promoted (C1E when enabled)
            core.set_idle(-100.0)
    return chip


def test_power_coefficients_match_scalar_property_sweep():
    """Randomized sweep over C-states, DVFS, TCC, SMT, and temperatures:
    the affine-exponential decomposition reproduces the scalar power
    model to ≤1e-12 W per node."""
    rng = np.random.default_rng(0)
    for _ in range(60):
        chip = _random_chip(rng)
        cstates, power_fn = power_function(chip, 0.0)
        coefficients = chip.power_coefficients(cstates)
        n = chip.num_cores + 2
        # Include hot outliers so the exponential's cap is exercised.
        temps = rng.uniform(25.0, 95.0, size=n)
        if rng.random() < 0.3:
            temps[int(rng.integers(0, n))] = 160.0
        diff = np.abs(coefficients.evaluate(temps) - power_fn(temps))
        assert float(diff.max()) <= POWER_TOL_W, (cstates, diff.max())


def test_fused_terms_match_evaluate():
    """The folded inner-loop form (reference temperature baked into the
    prefactor) agrees with the documented evaluate() formula."""
    rng = np.random.default_rng(1)
    chip = _random_chip(rng)
    cstates, _ = power_function(chip, 0.0)
    coefficients = chip.power_coefficients(cstates)
    inv_slope, arg_cap, scaled_coef = coefficients.fused_terms()
    temps = rng.uniform(20.0, 170.0, size=chip.num_cores + 2)
    folded = coefficients.base + scaled_coef * np.exp(
        np.minimum(temps * inv_slope, arg_cap)
    )
    assert np.max(np.abs(folded - coefficients.evaluate(temps))) <= 1e-10


def test_advance_coefficients_matches_scalar_advance():
    chip = Chip(num_cores=4)
    for i, core in enumerate(chip.cores):
        if i % 2 == 0:
            core.set_running(object(), 1.0, 0.0)
        else:
            core.set_idle(-100.0)
    network = build_network(ThermalParams(), 4)
    temps0 = np.full(network.num_nodes, 55.0)
    _, power_fn = power_function(chip, 0.0)
    _, coefficients = chip.power_segment(0.0)

    scalar = ScalarOracle(network, temps0.copy(), max_substep=5e-3)
    fused = ThermalIntegrator(network, temps0.copy(), max_substep=5e-3)
    scalar_energy = scalar.advance(10.0, power_fn)
    fused_energy = fused.advance_coefficients(10.0, coefficients)

    assert np.max(np.abs(scalar.temps - fused.temps)) <= TEMP_TOL_C
    assert fused_energy == pytest.approx(scalar_energy, rel=1e-9)


def test_advance_coefficients_zero_and_negative_duration():
    chip = Chip(num_cores=2)
    for core in chip.cores:
        core.set_running(object(), 1.0, 0.0)
    network = build_network(ThermalParams(), 2)
    integ = ThermalIntegrator(network, np.full(network.num_nodes, 50.0))
    _, coefficients = chip.power_segment(0.0)

    assert integ.advance_coefficients(0.0, coefficients) == 0.0
    assert np.array_equal(integ.temps, np.full(network.num_nodes, 50.0))
    for duration in (-1.0, float("nan")):
        with pytest.raises(ConfigurationError):
            integ.advance_coefficients(duration, coefficients)


# ----------------------------------------------------------------------
# Chip coefficient table
# ----------------------------------------------------------------------
def test_power_segment_reuses_until_state_epoch_changes():
    with isolated() as registry:
        chip = Chip(num_cores=2)
        for core in chip.cores:
            core.set_running(object(), 1.0, 0.0)

        c1, k1 = chip.power_segment(0.0)
        c2, k2 = chip.power_segment(0.25)
        assert k2 is k1 and c2 == c1
        assert registry.value("cpu.chip.power_segments.rebuilds") == 1
        assert registry.value("cpu.chip.power_segments.reuses") == 1

        chip.cores[0].set_running(object(), 0.5, 0.3)  # activity change
        _, k3 = chip.power_segment(0.35)
        assert k3 is not k2
        assert registry.value("cpu.chip.power_segments.rebuilds") == 2

        chip.set_tcc(setpoints(8)[3])  # chip-wide state change
        _, k4 = chip.power_segment(0.4)
        assert k4 is not k3
        assert registry.value("cpu.chip.power_segments.rebuilds") == 3


def test_power_segment_invalidates_at_cstate_promotion():
    chip = Chip(num_cores=1)
    chip.cores[0].set_idle(0.0)
    promo = chip.cores[0].promotion_time()
    assert promo is not None

    before, k_before = chip.power_segment(promo * 0.5)
    assert before[0] is CState.C1
    after, k_after = chip.power_segment(promo * 1.5)
    assert after[0] is CState.C1E
    assert k_after is not k_before
    # The promoted segment is stable from there on.
    again, k_again = chip.power_segment(promo * 2.0)
    assert k_again is k_after


def test_power_segment_never_reused_backwards():
    chip = Chip(num_cores=1)
    chip.cores[0].set_idle(0.0)
    promo = chip.cores[0].promotion_time()
    chip.power_segment(promo * 1.5)
    # A query before the segment's build time must not reuse it.
    states, _ = chip.power_segment(promo * 0.5)
    assert states[0] is CState.C1


def _assert_held_state_matches_contexts(chip: Chip) -> None:
    for core in chip.cores:
        busy = [
            t is not None or a > 0.0
            for t, a in zip(core.context_threads, core.context_activity)
        ]
        assert core.busy_contexts == sum(busy)
        assert core.running == any(busy)
        assert core.activity == sum(core.context_activity)


def _assert_segment_is_fresh(chip: Chip, time: float) -> None:
    """``power_segment(time)`` equals a from-scratch evaluation, bit
    for bit: the interned entry may never stand in for another state."""
    cstates, coefficients = chip.power_segment(time)
    assert cstates == tuple(chip.effective_cstate(core, time) for core in chip.cores)
    fresh = chip.power_coefficients(cstates)
    assert np.array_equal(coefficients.base, fresh.base)
    assert np.array_equal(coefficients.leak_coef, fresh.leak_coef)
    assert coefficients.fused_terms()[:2] == fresh.fused_terms()[:2]
    assert np.array_equal(coefficients.fused_terms()[2], fresh.fused_terms()[2])


_ACTIVITIES = st.sampled_from([0.0, 0.35, 0.5, 1.0])
_TRANSITIONS = st.one_of(
    st.tuples(
        st.just("run"),
        st.integers(0, 3),  # core (mod num_cores)
        st.integers(0, 1),  # context (mod smt)
        st.booleans(),  # a thread, or a bare nop spin
        _ACTIVITIES,
        st.sampled_from([0.0, 1e-4, 3e-4, 0.5]),  # time step before it
    ),
    st.tuples(
        st.just("idle"),
        st.integers(0, 3),
        st.integers(0, 1),
        st.booleans(),  # scheduler-hinted
        st.sampled_from([0.0, 1e-4, 3e-4, 0.5]),
    ),
    st.tuples(st.just("dvfs"), st.integers(0, 7)),
    st.tuples(st.just("core-dvfs"), st.integers(0, 3), st.integers(-1, 7)),
    st.tuples(st.just("tcc"), st.integers(-1, 7)),
    # Query at / one ulp around / a little around a core's promotion
    # instant (or at "now" for a running core).
    st.tuples(st.just("query"), st.integers(0, 3), st.sampled_from([-1e-5, -1, 0, 1, 1e-5])),
)


@settings(max_examples=150, deadline=None)
@given(
    num_cores=st.integers(1, 4),
    smt=st.integers(1, 2),
    c1e_enabled=st.booleans(),
    transitions=st.lists(_TRANSITIONS, max_size=40),
)
@example(  # same summed activity, different SMT scaling
    num_cores=1,
    smt=2,
    c1e_enabled=True,
    transitions=[
        ("run", 0, 0, True, 1.0, 0.0),
        ("query", 0, 0),
        ("run", 0, 0, True, 0.5, 0.0),
        ("run", 0, 1, True, 0.5, 0.0),
        ("query", 0, 0),
    ],
)
def test_power_segment_matches_fresh_model_property(num_cores, smt, c1e_enabled, transitions):
    """Random run/idle transitions (SMT 1 and 2), chip-wide and per-core
    DVFS, and TCC changes, queried on both sides of promotion instants:
    every lookup returns exactly the effective C-states and coefficients
    bitwise equal to a fresh ``power_coefficients``, and the cores' held
    state equals the state derived from their context lists."""
    chip = Chip(num_cores=num_cores, smt=smt, c1e_enabled=c1e_enabled)
    points = chip.dvfs_table.points
    ladder = setpoints(8)
    now = 0.0
    for op, *args in transitions:
        if op == "run":
            core, context, threaded, activity, step = args
            now += step
            chip.cores[core % num_cores].set_context_running(
                context % smt, object() if threaded else None, activity, now
            )
        elif op == "idle":
            core, context, hinted, step = args
            now += step
            chip.cores[core % num_cores].set_context_idle(context % smt, now, hinted=hinted)
        elif op == "dvfs":
            chip.set_operating_point(points[args[0] % len(points)])
        elif op == "core-dvfs":
            core, point = args
            chip.set_core_operating_point(
                core % num_cores, None if point < 0 else points[point % len(points)]
            )
        elif op == "tcc":
            chip.set_tcc(TCC_OFF if args[0] < 0 else ladder[args[0] % len(ladder)])
        else:
            core, offset = args
            promo = chip.cores[core % num_cores].promotion_time()
            if promo is None:
                time = now
            elif offset in (-1, 0, 1):
                time = promo if offset == 0 else math.nextafter(promo, offset * math.inf)
            else:
                time = promo + offset
            _assert_segment_is_fresh(chip, time)
        _assert_held_state_matches_contexts(chip)
    _assert_segment_is_fresh(chip, now)


def test_smt_split_activity_is_a_different_power_state():
    """One context at activity 1.0 and two at 0.5 sum to the same
    activity but scale differently (SMT co-residency), so the table
    must not hand the first state's coefficients to the second."""
    chip = Chip(num_cores=1, smt=2)
    core = chip.cores[0]
    core.set_context_running(0, object(), 1.0, 0.0)
    _, single = chip.power_segment(0.0)
    core.set_context_running(0, object(), 0.5, 0.0)
    core.set_context_running(1, object(), 0.5, 0.0)
    assert core.activity == 1.0 and core.busy_contexts == 2
    _, split = chip.power_segment(0.0)
    assert split is not single
    assert split.base[0] < single.base[0]
    _assert_segment_is_fresh(chip, 0.0)


def test_interned_coefficients_are_read_only():
    chip = Chip(num_cores=2)
    chip.cores[0].set_running(object(), 1.0, 0.0)
    _, coefficients = chip.power_segment(0.0)
    for array in (coefficients.base, coefficients.leak_coef, coefficients.fused_terms()[2]):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_tcc_affects_coefficients():
    chip = Chip(num_cores=1)
    chip.cores[0].set_running(object(), 1.0, 0.0)
    _, k_off = chip.power_segment(0.0)
    chip.set_tcc(setpoints(8)[0])  # deepest duty cycle
    _, k_tcc = chip.power_segment(0.0)
    assert k_tcc.base[0] < k_off.base[0]
    assert chip.tcc is not TCC_OFF


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def _use_scalar_oracle(machine: Machine) -> None:
    """Swap ``machine``'s physics for the scalar oracle.

    The machine's gap-closing hook is replaced by eager integration:
    every gap is split at C-state promotion instants exactly as the
    fused path splits it, and each piece is integrated by the
    :class:`ScalarOracle` on :func:`power_function` (a Python per-core
    power loop plus a steady-state solve per substep).  The result lands in the fleet state, so every
    temperature and energy read sees the oracle's numbers.
    """
    fleet, node, chip = machine.fleet, machine, machine.chip
    oracle = ScalarOracle(
        fleet.network, fleet.integrator.temps[0], max_substep=fleet.integrator.max_substep
    )

    def close_gap(index: int) -> None:
        t0, now = node.last_physics_time, fleet.now
        if now <= t0:
            return
        edges = [t0] + chip.cstate_breakpoints(t0, now) + [now]
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                continue
            cstates, power_fn = power_function(chip, 0.5 * (a + b))
            energy = oracle.advance(b - a, power_fn)
            chip.record_residency(cstates, b - a)
            machine.powermeter.record_segment(a, b - a, energy / (b - a))
        node.last_physics_time = now
        fleet.integrator.temps[0] = oracle.temps

    fleet._close_gap = close_gap
    # Node events carry the view's gap closer as their ``before`` hook:
    # repoint the view and every already-queued event at the oracle.
    hook = node.sim.close_gap = functools.partial(close_gap, 0)
    for _, _, event in fleet.sim._heap:
        event.before = hook


def test_end_to_end_fast_physics_matches_scalar():
    """A fig2-style 60 s run: the default (fused, segment-reusing)
    machine reproduces the scalar-oracle machine's logged temperatures
    to 1e-9 °C and its energy accounting to 1e-9 relative."""

    def build(fast: bool) -> Machine:
        machine = Machine(fast_config(seed=0))
        if not fast:
            _use_scalar_oracle(machine)
        machine.control.set_global_policy(0.5, 0.100)
        for _ in range(4):
            machine.scheduler.spawn(CpuBurn())
        return machine

    scalar = build(False)
    fused = build(True)
    scalar.run(60.0)
    fused.run(60.0)

    assert scalar.templog.samples.shape == fused.templog.samples.shape
    assert np.max(np.abs(scalar.templog.samples - fused.templog.samples)) <= TEMP_TOL_C
    assert fused.energy(0.0, 60.0) == pytest.approx(
        scalar.energy(0.0, 60.0), rel=1e-9
    )
    assert np.max(np.abs(scalar.core_temps - fused.core_temps)) <= TEMP_TOL_C
