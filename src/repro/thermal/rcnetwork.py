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

The integrator has two equivalent paths:

- :meth:`ThermalIntegrator.advance` — the scalar reference oracle: a
  Python power callback re-evaluated per substep plus a
  ``steady_state`` solve.  It validates the fused path in the tests and
  backs :meth:`ThermalIntegrator.settle`'s fallback.
- the fused path — per substep one elementwise leakage chain plus one
  gemv (or gemm) of the stacked step kernel into preallocated buffers,
  no allocation and no per-core Python work.  One substep loop
  (:func:`_fused_substeps`) serves both
  :meth:`ThermalIntegrator.advance_coefficients` (one chip) and
  :meth:`FleetThermalIntegrator.advance_machines` (a cohort of ``K``
  copies of the network, the simulation path for every machine).

:class:`FleetThermalIntegrator` holds ``N`` independent copies of one
network (a rack of identical servers, or a single server as a rack of
one): the whole fleet's temperature state is a single ``(N, nodes)``
array and a cohort of machines sharing a substep length advances with
one ``(nodes, 2·nodes+1) @ (2·nodes+1, K)`` matmul per substep instead
of ``K`` gemvs.  Every path builds its kernels through
:meth:`ThermalNetwork.step_kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.registry import registry as _metrics_registry

if TYPE_CHECKING:  # the integrator only needs its .evaluate() protocol
    from ..cpu.power import PowerCoefficients

#: Power callback: maps node temperatures (°C) to node power inputs (W).
PowerFunction = Callable[[np.ndarray], np.ndarray]


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


@dataclass
class AdvanceResult:
    """Outcome of one :meth:`ThermalIntegrator.advance` call."""

    #: Total energy delivered into the network over the interval, J.
    energy: float
    #: Time-averaged total power over the interval, W.
    average_power: float


def _state_buffers(nodes: int, width: int):
    """Scratch for :func:`_fused_substeps`: two stacked ``[T; P; 1]``
    state buffers and an energy accumulator — 1-D for one machine,
    ``(·, width)`` blocks (machines along columns) for a cohort.  The
    constant bottom row the kernel's ambient column multiplies is
    written once here and never touched by the substep loop."""
    shape = (2 * nodes + 1,) if width == 1 else (2 * nodes + 1, width)
    state_a = np.zeros(shape)
    state_b = np.zeros(shape)
    state_a[2 * nodes] = 1.0
    state_b[2 * nodes] = 1.0
    return state_a, state_b, np.empty((nodes,) + shape[1:])


def _fused_substeps(
    fused: np.ndarray,
    n_steps: int,
    temps: np.ndarray,
    base: np.ndarray,
    scaled_coef: np.ndarray,
    inv_slope: float,
    arg_cap: float,
    buffers,
):
    """The one fused substep loop: ``n_steps`` substeps of
    ``[T; P; 1] ← fused @ [T; P; 1]`` from ``temps``, with P from the
    folded leakage form — a gemv for ``(nodes,)`` arrays, a gemm for
    ``(nodes, K)`` cohorts.  ``base``/``scaled_coef`` and ``buffers``
    (from :func:`_state_buffers`) match the shape of ``temps``; no
    allocation, no per-core Python work.

    Returns views into ``buffers``: the end temperatures and the
    per-node power summed over substeps (times ``h``: energy).  Callers
    copy out before the buffers are reused.
    """
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
        dot(fused, state, out=o_temps)
        state, other = other, state
        s_temps, s_power, o_temps, o_power = o_temps, o_power, s_temps, s_power
    return s_temps, acc


class ThermalIntegrator:
    """Advances a :class:`ThermalNetwork` through time.

    The integrator owns the temperature state (:attr:`temps`, shape
    ``(nodes,)``, °C).  Every advance cuts its interval into
    ``ceil(duration / max_substep)`` equal substeps and advances each
    one exactly for the power evaluated at its starting temperatures.
    :meth:`advance_coefficients` is the fused, allocation-free path for
    one chip; :meth:`advance` is the scalar reference oracle a Python
    power callback plugs into, kept for validation and for
    :meth:`settle`.  Simulated machines advance through
    :class:`FleetThermalIntegrator` instead; this class settles their
    initial state and serves as the tests' reference.
    """

    def __init__(
        self,
        network: ThermalNetwork,
        initial_temps: Optional[np.ndarray] = None,
        max_substep: float = 5e-3,
    ):
        if max_substep <= 0:
            raise ConfigurationError("max_substep must be positive")
        self.network = network
        self.max_substep = float(max_substep)
        scope = _metrics_registry().scope("thermal.rcnetwork")
        self._metric_advances = scope.counter("advances")
        self._metric_substeps = scope.counter("substeps")
        self._metric_fused_advances = scope.counter("fused_advances")
        if initial_temps is None:
            self.temps = np.full(network.num_nodes, network.ambient_temp, dtype=float)
        else:
            self.temps = np.array(initial_temps, dtype=float)
            if self.temps.shape != (network.num_nodes,):
                raise ConfigurationError("initial temperature vector has wrong length")
        # Preallocated work vectors for the fused path.
        self._power_buffer = np.empty(network.num_nodes)
        self._buffers = _state_buffers(network.num_nodes, 1)

    def advance(self, duration: float, power_fn: PowerFunction) -> AdvanceResult:
        """Integrate forward by ``duration`` seconds.

        ``power_fn(temps)`` is re-evaluated at the start of every
        substep, which is how leakage–temperature feedback enters.
        Returns the energy delivered and average power, which the power
        meter uses for exact energy accounting.
        """
        if duration < 0:
            raise ConfigurationError(f"cannot integrate a negative duration {duration}")
        if duration == 0:
            power = np.asarray(power_fn(self.temps), dtype=float)
            return AdvanceResult(energy=0.0, average_power=float(power.sum()))

        network = self.network
        energy = 0.0
        # Use a uniform substep: ceil(duration / max_substep) equal pieces.
        n_steps = max(1, int(np.ceil(duration / self.max_substep - 1e-12)))
        h = duration / n_steps
        self._metric_advances.inc()
        self._metric_substeps.inc(n_steps)
        propagator = network.propagator(h)
        temps = self.temps
        for _ in range(n_steps):
            power = np.asarray(power_fn(temps), dtype=float)
            energy += float(power.sum()) * h
            t_ss = network.steady_state(power)
            temps = t_ss + propagator @ (temps - t_ss)
        self.temps = temps
        return AdvanceResult(energy=energy, average_power=energy / duration)

    def advance_coefficients(
        self, duration: float, coefficients: "PowerCoefficients"
    ) -> AdvanceResult:
        """Integrate forward by ``duration`` seconds on the fused path.

        Parameters
        ----------
        duration:
            Interval length, seconds (≥ 0).  Cut into
            ``ceil(duration / max_substep)`` equal substeps.
        coefficients:
            Segment-constant affine-exponential power decomposition
            (:class:`repro.cpu.power.PowerCoefficients`, or anything
            with its ``evaluate``/``fused_terms`` contract): per-node
            ``base`` and ``leak_coef`` arrays of shape ``(nodes,)`` in
            watts, plus the shared leakage-exponential constants.

        Returns
        -------
        AdvanceResult
            Energy delivered over the interval (J) and its time
            average (W); :attr:`temps` holds the end-of-interval node
            temperatures (°C).

        Runs :func:`_fused_substeps` on 1-D buffers — the same loop a
        cohort of one machine runs in
        :meth:`FleetThermalIntegrator.advance_machines`, so the two
        agree bit for bit.  Energy is accumulated vectorially per node
        and reduced once at the end.  Numerically equivalent to
        :meth:`advance` with the matching power callback (same
        propagator, algebraically identical update).
        """
        if duration < 0:
            raise ConfigurationError(f"cannot integrate a negative duration {duration}")
        if duration == 0:
            power = coefficients.evaluate(self.temps, out=self._power_buffer)
            return AdvanceResult(energy=0.0, average_power=float(power.sum()))

        n_steps = max(1, int(np.ceil(duration / self.max_substep - 1e-12)))
        h = duration / n_steps
        self._metric_advances.inc()
        self._metric_substeps.inc(n_steps)
        self._metric_fused_advances.inc()
        inv_slope, arg_cap, scaled_coef = coefficients.fused_terms()
        end_temps, acc = _fused_substeps(
            self.network.step_kernel(h),
            n_steps,
            self.temps,
            coefficients.base,
            scaled_coef,
            inv_slope,
            arg_cap,
            self._buffers,
        )
        self.temps = end_temps.copy()
        energy = float(acc.sum()) * h
        return AdvanceResult(energy=energy, average_power=energy / duration)

    def settle(
        self,
        power_fn: PowerFunction,
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 20000,
        max_time: float = 3600.0,
    ) -> np.ndarray:
        """Run to (nonlinear) steady state under a fixed power function.

        Uses fixed-point iteration on the linear steady state.  The map
        ``T -> steady_state(P(T))`` is a monotone contraction whenever
        the leakage feedback loop gain is below one (physically: no
        thermal runaway); near the gain's fold the contraction factor
        approaches one, so many cheap iterations may be needed.  Falls
        back to time integration if the fixed point fails to converge.
        """
        temps = self.temps.copy()
        for _ in range(max_iterations):
            power = np.asarray(power_fn(temps), dtype=float)
            new_temps = self.network.steady_state(power)
            if np.max(np.abs(new_temps - temps)) < tolerance:
                self.temps = new_temps
                return new_temps
            temps = new_temps
        # Fixed point did not converge; integrate instead.
        self.temps = temps
        elapsed = 0.0
        chunk = 5.0
        while elapsed < max_time:
            before = self.temps.copy()
            self.advance(chunk, power_fn)
            elapsed += chunk
            if np.max(np.abs(self.temps - before)) < tolerance:
                break
        return self.temps


class FleetThermalIntegrator:
    """Advances ``N`` independent copies of one network in lockstep.

    The fleet's temperature state is a single structure-of-arrays
    ``(machines, nodes)`` float array (:attr:`temps`, °C) — machine
    ``j``'s nodes are row ``j``, in the same node order a standalone
    :class:`ThermalIntegrator` uses.  :meth:`advance_machines` moves
    any subset of machines forward by a common duration: the selected
    rows are gathered into one stacked ``(2·nodes+1, K)`` state block
    ``[T; P; 1]`` and every substep costs one elementwise leakage chain
    on ``(nodes, K)`` blocks plus a single
    ``(nodes, 2·nodes+1) @ (2·nodes+1, K)`` matmul — the single-chip
    gemv widened to a gemm over the cohort (see :func:`_fused_substeps`).

    Equivalence guarantees, relied on by the fleet tests:

    - a cohort of one machine (``K = 1``) runs :func:`_fused_substeps`
      on 1-D buffers — the loop :meth:`ThermalIntegrator.advance_coefficients`
      runs — so it reproduces a single-chip fused advance bit for bit;
    - for ``K > 1`` the gemm accumulates in a different order than K
      gemvs, so per-substep results agree to float rounding (not
      bitwise); over any simulated horizon the accumulated difference
      stays far below the repo-wide 1e-9 °C equivalence pin because
      the propagator is a contraction.

    Substep lengths come from the same ``ceil(duration / max_substep)``
    rule as the single-chip integrator, and each advance builds its
    step kernel once from the shared :class:`ThermalNetwork`'s
    eigendecomposition, whatever the cohort width.

    Telemetry (``fleet`` scope): ``machines`` gauge, ``substeps``
    counter in *chip-substeps* (``n_steps × K`` per advance, so it is
    additive across machines and fleet sizes), ``batched_advances``
    counter, and the ``advance_wall`` timer over every batched
    advance.  These are the simulation path's thermal counters; the
    ``thermal.rcnetwork`` advance counters count only direct
    :class:`ThermalIntegrator` use, so no advance is counted twice.
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
        if max_substep <= 0:
            raise ConfigurationError("max_substep must be positive")
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
        self._metric_batched_advances = scope.counter("batched_advances")
        self._metric_advance_wall = scope.timer("advance_wall")
        # Substep-loop scratch per cohort width K (cohort widths repeat
        # heavily, so this is a handful of entries).
        self._scratch: dict = {}

    # ------------------------------------------------------------------
    def machine_temps(self, machine: int) -> np.ndarray:
        """Copy of one machine's node temperatures, shape ``(nodes,)`` °C."""
        return self.temps[machine].copy()

    def _cohort_scratch(self, width: int):
        buffers = self._scratch.get(width)
        if buffers is None:
            buffers = _state_buffers(self.network.num_nodes, width)
            self._scratch[width] = buffers
        return buffers

    def advance_machines(
        self,
        machines: Sequence[int],
        duration: float,
        coefficients,
    ) -> Sequence[float]:
        """Advance a cohort of machines by a common ``duration``.

        Parameters
        ----------
        machines:
            Row indices of the machines to advance (a cohort must share
            the duration, hence the substep length ``h``).
        duration:
            Interval length, seconds (> 0).
        coefficients:
            The cohort's power decomposition, anything with the
            ``base`` / ``fused_terms()`` contract: a
            :class:`repro.cpu.power.PowerCoefficients` for a single
            machine, or a :class:`repro.cpu.power.FleetCoefficients`
            whose columns line up with ``machines`` (``base`` and
            ``scaled_coef`` of shape ``(nodes, K)`` in watts plus the
            shared scalar leakage constants).

        Returns
        -------
        Sequence[float]
            Energy delivered per machine over the interval, joules, in
            ``machines`` order: a one-element tuple for a cohort of one
            (no array to build on the commonest path), a ``(K,)`` array
            otherwise.
        """
        count = len(machines)
        if count == 0:
            return ()
        if duration <= 0:
            raise ConfigurationError(
                f"cohort advance needs a positive duration, got {duration}"
            )
        base = coefficients.base
        width = base.shape[1] if base.ndim == 2 else 1
        if width != count:
            raise ConfigurationError(
                f"coefficients are {width} machines wide, cohort has {count}"
            )
        inv_slope, arg_cap, scaled_coef = coefficients.fused_terms()
        started = perf_counter()
        n_steps = max(1, math.ceil(duration / self.max_substep - 1e-12))
        h = duration / n_steps
        self._metric_substeps.value += n_steps * count
        self._metric_batched_advances.value += 1
        fused = self.network.step_kernel(h)
        buffers = self._cohort_scratch(count)
        if count == 1:
            if base.ndim == 2:  # a one-column stack
                base, scaled_coef = base[:, 0], scaled_coef[:, 0]
            (machine,) = machines
            end_temps, acc = _fused_substeps(
                fused,
                n_steps,
                self.temps[machine],
                base,
                scaled_coef,
                inv_slope,
                arg_cap,
                buffers,
            )
            self.temps[machine] = end_temps
            energies = (float(acc.sum()) * h,)
        else:
            end_temps, acc = _fused_substeps(
                fused,
                n_steps,
                self.temps[machines].T,  # (K, n) gather: machines on columns
                base,
                scaled_coef,
                inv_slope,
                arg_cap,
                buffers,
            )
            self.temps[machines] = end_temps.T
            energies = acc.sum(axis=0) * h
        self._metric_advance_wall.add(perf_counter() - started)
        return energies
