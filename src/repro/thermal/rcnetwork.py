"""Lumped RC thermal network and its integrator.

The chip's thermal behaviour is modelled as a network of nodes, each
with a heat capacity (J/K), connected by thermal conductances (W/K) to
each other and to a fixed-temperature ambient node.  This is the same
abstraction HotSpot uses for architectural thermal simulation, reduced
to the handful of nodes that matter for a lidded quad-core package:
per-core die nodes, a heat-spreader node, and a heatsink node.

The state equation is

    C dT/dt = -G (T - T_amb·1) + P(T)

where ``G`` is the (symmetric, weakly diagonally dominant) conductance
Laplacian including ambient legs, and ``P`` may depend on temperature
through leakage.  Between power-state changes we integrate with the
*exponential Euler* scheme: over a substep ``h`` the power vector is
frozen at its value for the current temperatures and the linear system
is advanced exactly:

    T(t+h) = T_ss + E(h) (T(t) - T_ss),   E(h) = expm(-C^{-1} G h)

This is unconditionally stable, exact for constant power, and the only
error source is the leakage lag over one substep.  That local error is
second order in ``h``, but it accumulates over the ``T/h`` substeps of
a run, so the run-level error is first order: in 10 s fig3 runs the
mean-temperature error against a 0.5 ms reference grows roughly in
proportion to the substep cap — 0.5–2.7 m°C at 5 ms, 2–8 m°C at
20 ms and 8–20 m°C at 100 ms.  ``-C^{-1} G`` is similar to the symmetric ``S G S`` with
``S = C^{-1/2}``, so one eigendecomposition at construction,
``S G S = Q diag(λ) Qᵀ``, gives ``E(h) = Σₖ e^{−λₖ h} Pₖ`` for every
``h`` through the spectral projectors ``Pₖ = S qₖ qₖᵀ S⁻¹``.  A step
kernel — ``E(h)`` together with its power-injection and ambient
companions — is therefore one ``exp`` of ``n`` values and one small
gemv, cheap enough to build afresh for every substep length (idle
injection on desynchronised machines produces a new one almost every
time), so nothing is cached.

The scalar advance loop is :func:`_fused_advance`: per substep one
elementwise leakage chain plus one gemv of the stacked step kernel
into preallocated buffers, no allocation and no per-core Python work.
:meth:`FleetThermalIntegrator.advance_machines` runs it for one
machine-segment; :meth:`ThermalIntegrator.advance_coefficients` runs
it for one chip and backs :meth:`ThermalIntegrator.settle`'s fallback.
Its reference is a scalar oracle kept with the tests (a Python power
callback re-evaluated per substep plus a ``steady_state`` solve), which
pins the fused loop to 1e-9 °C.

:class:`FleetThermalIntegrator` holds ``N`` independent copies of one
network (a rack of identical servers, or a single server as a rack of
one): the whole fleet's temperature state is a single ``(N, nodes)``
array, and each recorded segment advances its own machine's row with
its own step kernel.  :meth:`FleetThermalIntegrator.advance_rounds`
advances several machines' queues together: it builds every kernel in
one :meth:`ThermalNetwork.step_kernels` batch and runs substep ``r``
of every machine that has one as the same leakage chain on stacked
rows plus one stacked matmul, whose items are the scalar loop's gemvs,
so it is bit-identical to one :meth:`~FleetThermalIntegrator.advance_machines`
call per segment.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..telemetry.registry import registry as _metrics_registry

if TYPE_CHECKING:  # the integrator only needs its evaluate/fused_terms protocol
    from ..cpu.power import PowerCoefficients


class ThermalNetwork:
    """A lumped RC network with a fixed-temperature ambient node.

    Parameters
    ----------
    capacitances:
        Heat capacity of each node, J/K. All must be positive.
    conductances:
        Symmetric ``(n, n)`` matrix of pairwise conductances, W/K.
        ``conductances[i, j]`` is the conductance of the link between
        nodes ``i`` and ``j``; the diagonal is ignored.  Symmetry is
        checked to within ``np.allclose``; the network keeps
        ``(G + Gᵀ)/2``, so every derived matrix describes one network.
    ambient_conductances:
        Per-node conductance to ambient, W/K (0 for internal nodes).
    ambient_temp:
        Ambient temperature, °C.
    node_names:
        Optional human-readable node labels (defaults to ``node{i}``).
    """

    def __init__(
        self,
        capacitances: Sequence[float],
        conductances: np.ndarray,
        ambient_conductances: Sequence[float],
        ambient_temp: float,
        node_names: Optional[Sequence[str]] = None,
    ):
        self.capacitances = np.asarray(capacitances, dtype=float)
        n = self.capacitances.shape[0]
        conductances = np.asarray(conductances, dtype=float)
        self.ambient_conductances = np.asarray(ambient_conductances, dtype=float)
        self.ambient_temp = float(ambient_temp)

        if conductances.shape != (n, n):
            raise ConfigurationError(
                f"conductance matrix shape {conductances.shape} != ({n}, {n})"
            )
        if self.ambient_conductances.shape != (n,):
            raise ConfigurationError("ambient conductance vector has wrong length")
        if np.any(self.capacitances <= 0):
            raise ConfigurationError("all node capacitances must be positive")
        if np.any(conductances < 0) or np.any(self.ambient_conductances < 0):
            raise ConfigurationError("conductances must be non-negative")
        if not np.allclose(conductances, conductances.T):
            raise ConfigurationError("pairwise conductance matrix must be symmetric")
        conductances = 0.5 * (conductances + conductances.T)
        if np.all(self.ambient_conductances == 0):
            raise ConfigurationError(
                "network has no path to ambient; temperatures would diverge"
            )

        self.node_names: List[str] = (
            list(node_names) if node_names is not None else [f"node{i}" for i in range(n)]
        )
        if len(self.node_names) != n:
            raise ConfigurationError("node_names length mismatch")

        # Laplacian G: off-diagonal -g_ij, diagonal sum of all legs
        # including the ambient leg.
        off = -conductances.copy()
        np.fill_diagonal(off, 0.0)
        diag = conductances.sum(axis=1) - np.diag(conductances) + self.ambient_conductances
        self._laplacian = off + np.diag(diag)
        self._laplacian_inv = np.linalg.inv(self._laplacian)

        # A = −C⁻¹G = S (−S G S) S⁻¹ with S = C^{-1/2}.  ``eigh`` of the
        # symmetric S G S gives the decay rates λₖ > 0 and the spectral
        # projectors Pₖ = S qₖ qₖᵀ S⁻¹, so E(h) = Σₖ e^{−λₖ h} Pₖ.  The
        # step kernel [E | (I−E) G⁻¹ | (I−E) T_amb·1] is then
        # K∞ + Σₖ e^{−λₖ h} Kₖ with K∞ = [0 | G⁻¹ | T_amb·1] and
        # Kₖ = [Pₖ | −Pₖ G⁻¹ | −Pₖ T_amb·1]; the Kₖ are stored as the
        # rows of one (n, n·(2n+1)) matrix.
        scale = 1.0 / np.sqrt(self.capacitances)
        self._rates, modes = np.linalg.eigh(
            scale[:, None] * self._laplacian * scale[None, :]
        )
        projectors = np.einsum(  # projectors[k] = Pₖ
            "ik,jk->kij", scale[:, None] * modes, modes / scale[:, None]
        )
        ambient = np.full(n, self.ambient_temp)
        self._kernel_modes = np.concatenate(
            [
                projectors,
                -projectors @ self._laplacian_inv,
                -(projectors @ ambient)[:, :, None],
            ],
            axis=2,
        ).reshape(n, -1)
        self._kernel_limit = np.hstack(
            [np.zeros((n, n)), self._laplacian_inv, ambient[:, None]]
        ).ravel()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.capacitances.shape[0]

    def node_index(self, name: str) -> int:
        """Index of the node called ``name``."""
        try:
            return self.node_names.index(name)
        except ValueError:
            raise ConfigurationError(f"no thermal node named {name!r}") from None

    def steady_state(self, power: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for a constant power vector (W)."""
        power = np.asarray(power, dtype=float)
        rise = self._laplacian_inv @ power
        return self.ambient_temp + rise

    def thermal_resistance(self, node: int, source: int) -> float:
        """Steady-state K/W at ``node`` per watt injected at ``source``."""
        return float(self._laplacian_inv[node, source])

    def time_constants(self) -> np.ndarray:
        """Sorted (ascending) eigen time-constants ``1/λₖ`` of the network, seconds."""
        return np.sort(1.0 / self._rates)

    def propagator(self, h: float) -> np.ndarray:
        """``E(h) = expm(A h)``: the first block of :meth:`step_kernel`."""
        return self.step_kernel(h)[:, : self.num_nodes]

    def step_kernel(self, h: float) -> np.ndarray:
        """The stacked substep kernel for step length ``h``, shape ``(n, 2n+1)``.

        Advancing the network by ``h`` under a frozen power vector ``P``
        is one gemv against the stacked state ``[T; P; 1]``:

            T(t+h) = [E(h) | (I − E(h)) G⁻¹ | (I − E(h)) T_amb·1] @ [T; P; 1]

        which is algebraically ``T_ss + E(h) (T − T_ss)`` with
        ``T_ss = T_amb·1 + G⁻¹ P``.  ``h`` is rounded to the nanosecond
        first, so lengths that differ only by float noise in the
        ``duration / n_steps`` split get the same kernel.  Built fresh on
        every call: one ``exp`` of ``n`` rates and one gemv.
        """
        decay = np.exp(-round(float(h), 9) * self._rates)
        kernel = decay @ self._kernel_modes
        kernel += self._kernel_limit
        return kernel.reshape(self.num_nodes, -1)

    def step_kernels(self, lengths: Sequence[float]) -> np.ndarray:
        """:meth:`step_kernel` of every length in one batch, shape
        ``(len(lengths), n, 2n+1)``.

        Row ``s`` equals ``step_kernel(lengths[s])`` bit for bit: the
        same Python nanosecond rounding, the same elementwise ``exp``,
        and per row the same vector-matrix gemv against the modes (a
        stack of ``(1, n) @ (n, n·(2n+1))`` products, not one gemm,
        whose blocking would reorder the sums).
        """
        hs = np.array([round(float(h), 9) for h in lengths])
        decay = np.exp(-hs[:, None] * self._rates)
        kernels = decay[:, None, :] @ self._kernel_modes
        kernels += self._kernel_limit
        return kernels.reshape(len(hs), self.num_nodes, -1)


def _check_duration(duration: float) -> None:
    if not 0 < duration < math.inf:  # also rejects NaN
        raise ConfigurationError(
            f"advance needs a finite positive duration, got {duration}"
        )


def _state_buffers(nodes: int):
    """Scratch for :func:`_fused_advance`: two stacked ``[T; P; 1]``
    state vectors and a per-node energy accumulator.  The constant
    bottom entry the kernel's ambient column multiplies is written once
    here and never touched by the substep loop."""
    state_a = np.zeros(2 * nodes + 1)
    state_b = np.zeros(2 * nodes + 1)
    state_a[2 * nodes] = 1.0
    state_b[2 * nodes] = 1.0
    return state_a, state_b, np.empty(nodes)


def _fused_advance(
    network: ThermalNetwork,
    max_substep: float,
    temps: np.ndarray,
    duration: float,
    coefficients: "PowerCoefficients",
    buffers,
):
    """The one fused advance of one chip: ``duration`` (> 0) cut into
    ``ceil(duration / max_substep)`` equal substeps of
    ``[T; P; 1] ← K(h) @ [T; P; 1]`` from ``temps``, with P from the
    folded leakage form of ``coefficients``.  One step kernel per call,
    one gemv per substep into ``buffers`` (from :func:`_state_buffers`);
    no allocation, no per-core Python work.

    Returns ``(n_steps, end_temps, energy)``: ``end_temps`` is a view
    into ``buffers`` (callers copy out before the buffers are reused),
    ``energy`` the joules delivered over the interval.
    """
    n_steps = max(1, math.ceil(duration / max_substep - 1e-12))
    h = duration / n_steps
    inv_slope, arg_cap, scaled_coef = coefficients.fused_terms()
    base = coefficients.base
    kernel = network.step_kernel(h)
    state, other, acc = buffers
    n = temps.shape[0]
    s_temps, s_power = state[:n], state[n : 2 * n]
    o_temps, o_power = other[:n], other[n : 2 * n]
    s_temps[:] = temps
    acc.fill(0.0)
    multiply, minimum, add, vexp, dot = np.multiply, np.minimum, np.add, np.exp, np.dot
    for _ in range(n_steps):
        # P = base + scaled_coef * exp(min(T * inv_slope, arg_cap))
        multiply(s_temps, inv_slope, out=s_power)
        minimum(s_power, arg_cap, out=s_power)
        vexp(s_power, out=s_power)
        multiply(s_power, scaled_coef, out=s_power)
        add(s_power, base, out=s_power)
        add(acc, s_power, out=acc)
        dot(kernel, state, out=o_temps)
        state, other = other, state
        s_temps, s_power, o_temps, o_power = o_temps, o_power, s_temps, s_power
    return n_steps, s_temps, float(acc.sum()) * h


class ThermalIntegrator:
    """Settles one chip's :class:`ThermalNetwork` and advances it.

    The integrator owns the temperature state (:attr:`temps`, shape
    ``(nodes,)``, °C).  :meth:`settle` brings it to the nonlinear steady
    state of one power state: the idle initial condition of every
    simulated machine and the SPEC activity calibration.
    :meth:`advance_coefficients` runs :func:`_fused_advance`, the loop
    every simulated machine's segment runs in
    :class:`FleetThermalIntegrator`, and is :meth:`settle`'s fallback.
    """

    def __init__(
        self,
        network: ThermalNetwork,
        initial_temps: Optional[np.ndarray] = None,
        max_substep: float = 5e-3,
    ):
        if not max_substep > 0:  # also rejects NaN
            raise ConfigurationError(f"max_substep must be positive, got {max_substep}")
        self.network = network
        self.max_substep = float(max_substep)
        if initial_temps is None:
            self.temps = np.full(network.num_nodes, network.ambient_temp, dtype=float)
        else:
            self.temps = np.array(initial_temps, dtype=float)
            if self.temps.shape != (network.num_nodes,):
                raise ConfigurationError("initial temperature vector has wrong length")
        self._buffers = _state_buffers(network.num_nodes)

    def advance_coefficients(
        self, duration: float, coefficients: "PowerCoefficients"
    ) -> float:
        """Integrate forward by ``duration`` seconds (finite, ≥ 0) on ``coefficients``.

        ``coefficients`` is the segment-constant affine-exponential power
        decomposition (:class:`repro.cpu.power.PowerCoefficients`, or
        anything with its ``fused_terms``/``base`` contract).  The
        interval is cut into ``ceil(duration / max_substep)`` equal
        substeps of :func:`_fused_advance`, the code
        :meth:`FleetThermalIntegrator.advance_machines` runs, so the two
        agree bit for bit.  Returns the joules delivered over the
        interval; :attr:`temps` holds the end-of-interval temperatures.
        """
        if not 0 <= duration < math.inf:  # also rejects NaN
            raise ConfigurationError(
                f"cannot integrate duration {duration}: needs a finite duration >= 0"
            )
        if duration == 0:
            return 0.0
        _, end_temps, energy = _fused_advance(
            self.network, self.max_substep, self.temps, duration, coefficients, self._buffers
        )
        self.temps = end_temps.copy()
        return energy

    def settle(
        self,
        coefficients: "PowerCoefficients",
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 20000,
        max_time: float = 3600.0,
    ) -> np.ndarray:
        """Run to the nonlinear steady state of one power state.

        Uses fixed-point iteration on the linear steady state,
        ``T -> steady_state(coefficients.evaluate(T))``: a monotone
        contraction whenever the leakage feedback loop gain is below one
        (physically: no thermal runaway); near the gain's fold the
        contraction factor approaches one, so many cheap iterations may
        be needed.  If ``max_iterations`` do not converge it integrates
        in 5 s chunks of :meth:`advance_coefficients` until a chunk
        moves no node by ``tolerance``, and raises
        :class:`~repro.errors.SimulationError` if ``max_time`` simulated
        seconds do not get there either.
        """
        network = self.network
        temps = self.temps.copy()
        for _ in range(max_iterations):
            new_temps = network.steady_state(coefficients.evaluate(temps))
            if np.max(np.abs(new_temps - temps)) < tolerance:
                self.temps = new_temps
                return new_temps
            temps = new_temps
        self.temps = temps
        elapsed, chunk = 0.0, 5.0
        while elapsed < max_time:
            before = self.temps
            self.advance_coefficients(chunk, coefficients)
            elapsed += chunk
            if np.max(np.abs(self.temps - before)) < tolerance:
                return self.temps
        raise SimulationError(
            f"settle did not reach a steady state: {max_iterations} fixed-point "
            f"iterations and {max_time} s of integration left it moving by "
            f"more than {tolerance} °C"
        )


class FleetThermalIntegrator:
    """Advances ``N`` independent copies of one network.

    The fleet's temperature state is a single structure-of-arrays
    ``(machines, nodes)`` float array (:attr:`temps`, °C) — machine
    ``j``'s nodes are row ``j``, in the same node order a standalone
    :class:`ThermalIntegrator` uses.  :meth:`advance_machines` moves one
    machine forward through :func:`_fused_advance`, the code
    :meth:`ThermalIntegrator.advance_coefficients` runs;
    :meth:`advance_rounds` moves several machines through their queues
    together, bit-identical to one :meth:`advance_machines` call per
    segment.  Either way a machine's row depends only on its own
    segments: an ``N``-machine fleet is bit-identical to ``N`` fleets of
    one by construction.

    Telemetry (``fleet`` scope): ``machines`` gauge, ``substeps``
    counter in *chip-substeps* (additive across machines and fleet
    sizes), ``rounds`` and ``round_substeps`` counters (rounds run by
    :meth:`advance_rounds` and the machine-substeps inside them), and
    the ``advance_wall`` timer, one entry per advance call: the
    simulation's only thermal counters.
    """

    def __init__(
        self,
        network: ThermalNetwork,
        num_machines: int,
        initial_temps: Optional[np.ndarray] = None,
        max_substep: float = 5e-3,
    ):
        if num_machines < 1:
            raise ConfigurationError("a fleet needs at least one machine")
        if not max_substep > 0:  # also rejects NaN
            raise ConfigurationError(f"max_substep must be positive, got {max_substep}")
        self.network = network
        self.num_machines = int(num_machines)
        self.max_substep = float(max_substep)
        n = network.num_nodes
        if initial_temps is None:
            self.temps = np.full((num_machines, n), network.ambient_temp, dtype=float)
        else:
            initial = np.asarray(initial_temps, dtype=float)
            if initial.shape == (n,):
                self.temps = np.tile(initial, (num_machines, 1))
            elif initial.shape == (num_machines, n):
                self.temps = initial.copy()
            else:
                raise ConfigurationError(
                    f"initial temperatures must be ({n},) or "
                    f"({num_machines}, {n}), got {initial.shape}"
                )
        scope = _metrics_registry().scope("fleet")
        scope.gauge("machines").set(num_machines)
        self._metric_substeps = scope.counter("substeps")
        self._metric_advance_wall = scope.timer("advance_wall")
        self._metric_rounds = scope.counter("rounds")
        self._metric_round_substeps = scope.counter("round_substeps")
        self._buffers = _state_buffers(n)

    # ------------------------------------------------------------------
    def machine_temps(self, machine: int) -> np.ndarray:
        """Copy of one machine's node temperatures, shape ``(nodes,)`` °C."""
        return self.temps[machine].copy()

    def advance_machines(
        self,
        machines: Sequence[int],
        duration: float,
        coefficients: "PowerCoefficients",
    ) -> Tuple[float]:
        """Advance one machine by ``duration`` on its own coefficients.

        A drain with one machine pending calls this once per segment;
        one with several pending calls :meth:`advance_rounds`, which
        gives the same floats.

        Parameters
        ----------
        machines:
            ``(j,)``: the row of the one machine to advance, with
            ``0 <= j < num_machines``.  It stays a sequence because
            ``perfbench/tracing.py`` patches this method as a layer
            boundary and reads ``len(machines)`` as the advance's width;
            any other length, or a row outside the fleet, raises
            :class:`~repro.errors.ConfigurationError`.
        duration:
            Interval length, seconds (finite, > 0).
        coefficients:
            The machine's :class:`repro.cpu.power.PowerCoefficients`
            for the interval.

        Returns
        -------
        Tuple[float]
            ``(energy,)``: joules delivered over the interval.
        """
        if len(machines) != 1:
            raise ConfigurationError(
                f"advance_machines advances one machine, got {len(machines)}"
            )
        (machine,) = machines
        if not 0 <= machine < self.num_machines:
            raise ConfigurationError(
                f"machine {machine} is not in this fleet of {self.num_machines}"
            )
        _check_duration(duration)
        started = perf_counter()
        n_steps, end_temps, energy = _fused_advance(
            self.network,
            self.max_substep,
            self.temps[machine],
            duration,
            coefficients,
            self._buffers,
        )
        self.temps[machine] = end_temps
        self._metric_substeps.value += n_steps
        self._metric_advance_wall.add(perf_counter() - started)
        return (energy,)

    def advance_rounds(
        self, queues: Sequence[Sequence[Tuple[float, "PowerCoefficients"]]]
    ) -> List[List[float]]:
        """Advance every machine through its own queue of segments, all
        machines together, bit-identical to one :meth:`advance_machines`
        call per segment.

        ``queues[j]`` is machine ``j``'s ``(duration, coefficients)``
        segments in time order, one queue per machine; an empty queue
        leaves its row untouched.  Every segment is split into the
        substeps :func:`_fused_advance` would take, and the kernels of all
        distinct substep lengths are built in one
        :meth:`ThermalNetwork.step_kernels` batch.
        Machines are sorted by total substep count, longest first, so
        the machines still running in round ``r`` are a prefix of that
        order.  Round ``r`` advances each of them by its ``r``-th
        substep: the five-op leakage chain on the stacked ``(K, nodes)``
        powers, then one stacked matmul whose every item is the gemv
        ``dot(kernel, state)`` of the scalar loop.  Each substep's power
        is logged, and a segment's energy is the in-order sum of its
        substeps' powers times its ``h``, as in the scalar loop.

        Returns each machine's segment energies (J), in queue order.
        """
        if len(queues) != self.num_machines:
            raise ConfigurationError(
                f"advance_rounds needs one queue per machine ({self.num_machines}), "
                f"got {len(queues)}"
            )
        segments = [c for queue in queues for _, c in queue]
        if not segments:
            return [[] for _ in queues]
        started = perf_counter()
        durations = np.array([d for queue in queues for d, _ in queue])
        bad = durations[~((durations > 0) & (durations < math.inf))]
        if bad.size:
            _check_duration(float(bad[0]))
        # _fused_advance's split, elementwise: the same float ops.
        seg_steps = np.maximum(
            1, np.ceil(durations / self.max_substep - 1e-12)
        ).astype(np.intp)
        hs = durations / seg_steps

        # Segment ids are queue order; machines are sorted longest first.
        first = np.cumsum([0] + [len(queue) for queue in queues])
        step_ends = np.concatenate([[0], np.cumsum(seg_steps)])
        counts = step_ends[first[1:]] - step_ends[first[:-1]]
        order = [j for j in np.argsort(-counts, kind="stable").tolist() if queues[j]]
        counts = counts[order]
        machine_segs = np.concatenate([np.arange(first[j], first[j + 1]) for j in order])
        # Every machine-substep's segment, machine by machine, then
        # regrouped round by round; round r is machines [0, widths[r]).
        step_seg = np.repeat(machine_segs, seg_steps[machine_segs])
        step_round = np.arange(len(step_seg)) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        round_seg = step_seg[np.argsort(step_round, kind="stable")]
        widths = np.searchsorted(-counts, -np.arange(counts[0]), side="left")
        round_ends = np.cumsum(widths).tolist()

        n = self.network.num_nodes
        # One kernel per distinct length (about 60 % of segments on a rack).
        lengths, round_kernel = np.unique(hs, return_inverse=True)
        kernels = self.network.step_kernels(lengths.tolist())
        round_kernel = round_kernel[round_seg]
        terms = [c.fused_terms() for c in segments]
        # Broadcast to full rows, so a round gathers all four in one take.
        leak = np.empty((4, len(segments), n))
        leak[0] = np.array([t[0] for t in terms])[:, None]
        leak[1] = np.array([t[1] for t in terms])[:, None]
        leak[2] = [t[2] for t in terms]
        leak[3] = [c.base for c in segments]

        # Two stacked [T; P; 1] states per machine, swapped every round.
        states = np.zeros((2, len(order), 2 * n + 1))
        states[0, :, :n] = self.temps[order]
        states[:, :, 2 * n] = 1.0
        state, other = states
        power_log = np.empty((len(round_seg), n))
        multiply, minimum, add, vexp, matmul = (
            np.multiply, np.minimum, np.add, np.exp, np.matmul
        )
        leak_take, kernels_take = leak.take, kernels.take
        lo = 0
        for hi in round_ends:
            k = hi - lo
            ids = round_seg[lo:hi]
            inv_slope, arg_cap, scaled_coef, base = leak_take(ids, axis=1)
            p = power_log[lo:hi]
            # P = base + scaled_coef * exp(min(T * inv_slope, arg_cap))
            multiply(state[:k, :n], inv_slope, out=p)
            minimum(p, arg_cap, out=p)
            vexp(p, out=p)
            multiply(p, scaled_coef, out=p)
            add(p, base, out=p)
            state[:k, n : 2 * n] = p
            kernel = kernels_take(round_kernel[lo:hi], axis=0)
            matmul(kernel, state[:k, :, None], out=other[:k, :n, None])
            state, other = other, state
            lo = hi
        # Machine i's last round wrote states[counts[i] % 2].
        self.temps[order] = states[counts % 2, np.arange(len(order)), :n]

        acc = np.zeros((len(segments), n))
        np.add.at(acc, round_seg, power_log)  # in round order per segment
        energies = (acc.sum(axis=1) * hs).tolist()
        total = len(round_seg)
        self._metric_substeps.value += total
        self._metric_rounds.value += len(round_ends)
        self._metric_round_substeps.value += total
        self._metric_advance_wall.add(perf_counter() - started)
        return [energies[first[j] : first[j + 1]] for j in range(len(queues))]
