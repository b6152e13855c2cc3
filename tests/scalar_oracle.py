"""Scalar reference oracle for the fused thermal path.

Every simulated chip advances through one fused loop
(:func:`repro.thermal.rcnetwork._fused_advance`) on segment-constant
:class:`~repro.cpu.power.PowerCoefficients`.  The tests check that loop
against this independent formulation of the same exponential-Euler
scheme: a Python power callback (:func:`power_function`, a per-core
loop over :meth:`Chip.power_vector`) re-evaluated at the start of every
substep, a ``steady_state`` solve, and the exact linear update
``T ← T_ss + E(h) (T − T_ss)``.  The substep split is the fused path's,
so the two agree to float rounding (1e-9 °C over long intervals).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cpu.cstates import CState
from repro.errors import ConfigurationError


def cstates_at(chip, time):
    """Per-core C-states at ``time``, derived from each core's idle
    period and the chip's C1E switch rather than its held promotion
    instant, so tests can check the held state against it."""
    return [
        CState.C0
        if core.running
        else CState.C1E
        if chip.c1e_enabled and not time < core.idle_since + core.idle_threshold
        else CState.C1
        for core in chip.cores
    ]


def power_function(chip, time):
    """Per-core C-states frozen at ``time`` and a power callback
    (temps → node powers) valid while no core changes state."""
    cstates = cstates_at(chip, time)
    return cstates, (lambda temps: chip.power_vector(cstates, temps))


class ScalarOracle:
    """Exponential-Euler integration of one network on a power callback."""

    def __init__(self, network, initial_temps=None, max_substep=5e-3):
        self.network = network
        self.max_substep = float(max_substep)
        if initial_temps is None:
            self.temps = np.full(network.num_nodes, network.ambient_temp, dtype=float)
        else:
            self.temps = np.array(initial_temps, dtype=float)

    def advance(self, duration, power_fn) -> float:
        """Integrate forward by ``duration`` seconds; returns the joules
        delivered.  ``power_fn(temps)`` is re-evaluated at the start of
        every one of the ``ceil(duration / max_substep)`` equal substeps."""
        if not duration >= 0:  # also rejects NaN
            raise ConfigurationError(f"cannot integrate a negative duration {duration}")
        if duration == 0:
            return 0.0
        network = self.network
        n_steps = max(1, math.ceil(duration / self.max_substep - 1e-12))
        h = duration / n_steps
        propagator = network.propagator(h)
        energy = 0.0
        temps = self.temps
        for _ in range(n_steps):
            power = np.asarray(power_fn(temps), dtype=float)
            energy += float(power.sum()) * h
            t_ss = network.steady_state(power)
            temps = t_ss + propagator @ (temps - t_ss)
        self.temps = temps
        return energy
