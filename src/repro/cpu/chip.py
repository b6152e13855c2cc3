"""Multicore chip model: per-core execution state and package power.

The chip sits between the scheduler (which starts and stops execution
on cores) and the thermal machine (which needs, for any time interval,
the power injected into every thermal node).  A core is either

- **running** a thread (or a nop spin loop) with some activity factor,
  in C0, or
- **idle**, in which case its C-state at time ``t`` follows the
  promotion profile of :mod:`repro.cpu.cstates` from the moment it went
  idle.

Because C-state promotion makes idle power *time-varying within an
event-free interval*, the chip exposes :meth:`cstate_breakpoints` so
the machine can split its thermal integration at promotion instants.

Power is exposed two ways.  The simulation hot path calls
:meth:`Chip.power_segment`, which returns the segment-constant
:class:`~repro.cpu.power.PowerCoefficients` decomposition for the
fused integrator.  Each core *holds* its power-relevant state
(``running``, ``busy_contexts``, ``activity``; only the two context
mutators change it), so a lookup works out the per-core C-states at
the query time and reads one interned coefficient set from a table
keyed by the per-core ``(cstate, activity, busy_contexts)`` tuple.
Power states repeat heavily under idle injection — every quantum
flips cores between the same few states — so an entry is built once
per distinct state; the chip-wide DVFS, TCC and per-core override
setters clear the table.  :meth:`Chip.power_vector` is the scalar
per-core reference the coefficients are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.registry import registry as _metrics_registry
from .cstates import CState, CStateParams, ResidencyCounter, exit_latency
from .dvfs import DvfsTable, OperatingPoint, xeon_e5520_table
from .power import PowerCoefficients, PowerModel, PowerParams
from .tcc import TCC_OFF, TccSetting

#: Entries one chip's coefficient table may hold before it starts over.
#: Workloads reach a few dozen power states; the cap only bounds memory
#: for pathological ones (many cores, ever-new activity factors).
_TABLE_LIMIT = 4096


@dataclass
class Core:
    """Execution state of one core, as seen by the power model.

    A core hosts ``smt`` hardware thread contexts (the paper's platform
    supports two; §3.2 disables the second because "in order to cause
    the entire core to enter the C1E low power state we need to halt
    all thread contexts on the core").  The core is in C0 while *any*
    context is busy and can only start descending the C-state ladder
    when the last context halts — which is exactly why co-scheduling
    idle quanta matters under SMT.
    """

    index: int
    cstate_params: CStateParams
    smt: int = 1
    #: Scheduler-owned references to whatever runs on each context.
    context_threads: List[Optional[object]] = field(default_factory=list)
    #: Switching-activity factor per context (0 when the context idles).
    context_activity: List[float] = field(default_factory=list)
    #: Whether each idle context's idle period was scheduler-hinted.
    context_hinted: List[bool] = field(default_factory=list)
    #: Time the core last became fully idle (valid when not running).
    idle_since: float = 0.0
    #: Promotion threshold in effect for the current idle period
    #: (hinted idle promotes fast, natural idle slowly).
    idle_threshold: float = 0.0
    #: Per-core DVFS override (None = follow the chip-wide setting).
    #: Commodity hardware of the paper's era lacked this (§2.1); it is
    #: modelled so the hypothetical can be compared against per-thread
    #: injection.
    operating_point_override: Optional[OperatingPoint] = None
    residency: ResidencyCounter = field(default_factory=ResidencyCounter)
    # The next three are derived from the context lists by _refresh,
    # which only the two context mutators call, so the power path reads
    # plain attributes instead of re-deriving them on every query.
    #: Number of contexts executing (a thread or nonzero activity).
    busy_contexts: int = field(init=False, default=0)
    #: True while any hardware context is executing.
    running: bool = field(init=False, default=False)
    #: Aggregate switching activity of all busy contexts (SMT
    #: co-residency scaling is applied by :meth:`Chip.core_activity`).
    activity: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.smt < 1:
            raise ConfigurationError("smt must be >= 1")
        if not self.context_threads:
            self.context_threads = [None] * self.smt
            self.context_activity = [0.0] * self.smt
            self.context_hinted = [False] * self.smt
        self._refresh()

    # ------------------------------------------------------------------
    # Context-level state changes
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Re-derive the held state from the context lists."""
        self.busy_contexts = sum(
            1
            for t, a in zip(self.context_threads, self.context_activity)
            if t is not None or a > 0.0
        )
        self.running = self.busy_contexts > 0
        self.activity = sum(self.context_activity)

    @property
    def thread(self) -> Optional[object]:
        """The context-0 occupant (single-context compatibility view)."""
        return self.context_threads[0]

    def set_context_running(
        self, context: int, thread: Optional[object], activity: float, now: float
    ) -> None:
        """Mark one hardware context as executing."""
        if activity < 0:
            raise ConfigurationError(f"negative activity {activity}")
        self._check_context(context)
        self.context_threads[context] = thread
        self.context_activity[context] = activity
        self.context_hinted[context] = False
        self._refresh()

    def set_context_idle(self, context: int, now: float, *, hinted: bool = False) -> None:
        """Mark one hardware context idle starting at ``now``.

        When the *last* busy context halts, the whole core starts its
        idle period; the fast (hinted) promotion threshold applies only
        if every context's idle was scheduler-hinted (co-scheduled
        injected quanta) — fragmented natural idle stays conservative.
        """
        self._check_context(context)
        self.context_threads[context] = None
        self.context_activity[context] = 0.0
        self.context_hinted[context] = hinted
        self._refresh()
        if not self.running:
            self.idle_since = now
            params = self.cstate_params
            base = (
                params.c1e_promotion_threshold
                if all(self.context_hinted)
                else params.natural_promotion_threshold
            )
            self.idle_threshold = base + params.c1e_entry_latency

    def _check_context(self, context: int) -> None:
        if not 0 <= context < self.smt:
            raise ConfigurationError(
                f"core {self.index} has {self.smt} contexts, not {context + 1}"
            )

    # ------------------------------------------------------------------
    # Single-context compatibility API
    # ------------------------------------------------------------------
    def set_running(self, thread: Optional[object], activity: float, now: float) -> None:
        """Mark context 0 as executing (single-context convenience)."""
        self.set_context_running(0, thread, activity, now)

    def set_idle(self, now: float, *, hinted: bool = False) -> None:
        """Mark context 0 idle (single-context convenience)."""
        self.set_context_idle(0, now, hinted=hinted)

    # ------------------------------------------------------------------
    # C-state queries
    # ------------------------------------------------------------------
    def cstate_at(self, time: float) -> CState:
        """C-state of this core at absolute time ``time``.

        The comparison uses the exact float value
        :meth:`promotion_time` returns, so classification and the
        promotion instant agree to the ulp — the machine splits its
        gaps at that instant, and a mismatched rounding (``time -
        idle_since`` vs ``idle_since + threshold``) would misclassify
        a piece that ends on it.
        """
        if self.running:
            return CState.C0
        return CState.C1 if time < self.idle_since + self.idle_threshold else CState.C1E

    def promotion_time(self) -> Optional[float]:
        """Absolute time this core will be promoted to C1E, if idle."""
        if self.running:
            return None
        return self.idle_since + self.idle_threshold

    def wake_latency(self, now: float) -> float:
        """Cost to resume execution if woken at ``now``."""
        if self.running:
            return 0.0
        return exit_latency(self.cstate_at(now), self.cstate_params)


class Chip:
    """The package: cores plus uncore, with DVFS and TCC settings."""

    def __init__(
        self,
        power_params: Optional[PowerParams] = None,
        *,
        num_cores: int = 4,
        smt: int = 1,
        dvfs_table: Optional[DvfsTable] = None,
        cstate_params: Optional[CStateParams] = None,
        c1e_enabled: bool = True,
    ):
        if num_cores < 1:
            raise ConfigurationError("chip needs at least one core")
        if smt < 1 or smt > 2:
            raise ConfigurationError("smt must be 1 or 2")
        self.dvfs_table = dvfs_table or xeon_e5520_table()
        self.power_model = PowerModel(power_params or PowerParams(), self.dvfs_table)
        self.cstate_params = cstate_params or CStateParams()
        #: When False the platform lacks a usable deep idle state and
        #: idle cores stay in C1 (ablation; also the "nop loop" story
        #: of §2.1 is exercised through the injector's spin mode).
        self.c1e_enabled = c1e_enabled
        self.smt = smt
        self.operating_point: OperatingPoint = self.dvfs_table.max_point
        self.tcc: TccSetting = TCC_OFF
        self.cores: List[Core] = [
            Core(index=i, cstate_params=self.cstate_params, smt=smt)
            for i in range(num_cores)
        ]
        #: Interned ``(cstates, coefficients)`` per power state (see
        #: :meth:`power_segment`); cleared by the chip-wide setters.
        self._coefficients: Dict[tuple, Tuple[Tuple[CState, ...], PowerCoefficients]] = {}
        scope = _metrics_registry().scope("cpu.chip")
        self._metric_segment_rebuilds = scope.counter("power_segments.rebuilds")
        self._metric_segment_reuses = scope.counter("power_segments.reuses")

    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def set_operating_point(self, point: OperatingPoint) -> None:
        """Select a DVFS operating point (chip-wide, like the paper's)."""
        if point not in self.dvfs_table.points:
            raise ConfigurationError(f"unsupported operating point {point}")
        self.operating_point = point
        self._coefficients.clear()

    def set_core_operating_point(
        self, core_index: int, point: Optional[OperatingPoint]
    ) -> None:
        """Override one core's operating point (None clears it).

        Per-core DVFS was "not yet available ... on commodity hardware"
        when the paper was written (§2.1); this models the hypothetical
        so it can be compared against per-thread idle injection.
        """
        if point is not None and point not in self.dvfs_table.points:
            raise ConfigurationError(f"unsupported operating point {point}")
        self.cores[core_index].operating_point_override = point
        self._coefficients.clear()

    def point_for(self, core: Core) -> OperatingPoint:
        """The operating point currently governing ``core``."""
        return core.operating_point_override or self.operating_point

    def set_tcc(self, setting: TccSetting) -> None:
        """Program the thermal control circuit duty cycle (chip-wide)."""
        self.tcc = setting
        self._coefficients.clear()

    def core_activity(self, core: Core) -> float:
        """Effective switching activity of a core for the power model.

        With two busy SMT contexts the pipelines are shared, so the
        aggregate activity is scaled by ``smt_activity_factor`` (two
        cpuburn contexts burn ~1.25x one, not 2x).
        """
        if core.busy_contexts <= 1:
            return core.activity
        return core.activity * self.power_model.params.smt_activity_factor

    def speed_factor(
        self,
        cpu_fraction: float = 1.0,
        *,
        core: Optional[Core] = None,
        smt_contention: bool = False,
    ) -> float:
        """Work completed per wall-clock second relative to full speed.

        CPU-bound work scales with frequency; the non-CPU fraction
        (memory stalls) does not.  TCC clock stopping gates everything.
        ``smt_contention`` applies the per-context slowdown when the
        sibling hardware context is busy.
        """
        if not 0.0 <= cpu_fraction <= 1.0:
            raise ConfigurationError("cpu_fraction must be in [0, 1]")
        point = self.point_for(core) if core is not None else self.operating_point
        f_rel = self.dvfs_table.speed_scale(point)
        if cpu_fraction == 0.0:
            dvfs_speed = 1.0
        else:
            dvfs_speed = 1.0 / (cpu_fraction / f_rel + (1.0 - cpu_fraction))
        speed = dvfs_speed * self.tcc.speed_scale
        if smt_contention:
            speed *= self.power_model.params.smt_speed_factor
        return speed

    # ------------------------------------------------------------------
    def effective_cstate(self, core: Core, time: float) -> CState:
        """:meth:`Core.cstate_at` accounting for the chip-level C1E
        enable switch (inlined: it runs per core on every power query)."""
        if core.running:
            return CState.C0
        if self.c1e_enabled and not time < core.idle_since + core.idle_threshold:
            return CState.C1E
        return CState.C1

    def cstate_breakpoints(self, t0: float, t1: float) -> List[float]:
        """Times in (t0, t1) at which any idle core changes C-state."""
        if not self.c1e_enabled:
            return []
        times = []
        for core in self.cores:
            promo = core.promotion_time()
            if promo is not None and t0 < promo < t1:
                times.append(promo)
        return sorted(set(times))

    def power_vector(
        self, cstates: Sequence[CState], temps: np.ndarray
    ) -> np.ndarray:
        """Thermal-node power vector for frozen per-core C-states.

        Node order matches :func:`repro.thermal.floorplan.build_network`:
        ``[core0..coreN-1, spreader, sink]``.  Core temperatures are the
        first ``num_cores`` entries of ``temps``.

        This is the scalar reference path (a Python loop over cores);
        the simulation hot path evaluates the same model through
        :meth:`power_coefficients` + the fused integrator, and the
        fast-path tests pin the two to ≤ 1e-12 W per node.
        """
        n = self.num_cores
        power = np.zeros(n + 2)
        model = self.power_model
        for i, core in enumerate(self.cores):
            power[i] = model.core_power(
                cstates[i],
                float(temps[i]),
                self.point_for(core),
                activity=self.core_activity(core),
                tcc=self.tcc,
            )
        power[n] = model.params.uncore_power
        return power

    def power_coefficients(self, cstates: Sequence[CState]) -> PowerCoefficients:
        """Vectorized decomposition of :meth:`power_vector` for frozen
        per-core C-states: per-node ``base``/``leak_coef`` arrays plus
        the shared leakage-exponential constants, covering DVFS
        overrides, TCC, SMT activity scaling, and the uncore term.
        The arrays are read-only: interned sets are shared."""
        n = self.num_cores
        base = np.zeros(n + 2)
        leak_coef = np.zeros(n + 2)
        model = self.power_model
        for i, core in enumerate(self.cores):
            base[i], leak_coef[i] = model.core_coefficients(
                cstates[i],
                self.point_for(core),
                activity=self.core_activity(core),
                tcc=self.tcc,
            )
        base[n] = model.params.uncore_power
        base.flags.writeable = leak_coef.flags.writeable = False
        params = model.params
        return PowerCoefficients(
            base=base,
            leak_coef=leak_coef,
            leak_ref_temp=params.leak_ref_temp,
            leak_t_slope=params.leak_t_slope,
            leak_exp_cap=params.leak_exp_cap,
        )

    def power_segment(self, time: float) -> Tuple[Tuple[CState, ...], PowerCoefficients]:
        """Frozen C-states and power coefficients in effect at ``time``.

        The per-core C-states at ``time`` plus each core's held
        ``activity``/``busy_contexts`` are everything
        :meth:`power_coefficients` reads besides the chip-wide settings,
        so that tuple keys an intern table: a repeated power state gets
        the identical (read-only, fused terms precomputed) coefficient
        object, and only a new state runs the model.  Same inputs, same
        object — results are bit-identical to rebuilding every time.
        """
        key = tuple(
            [
                (self.effective_cstate(core, time), core.activity, core.busy_contexts)
                for core in self.cores
            ]
        )
        entry = self._coefficients.get(key)
        if entry is not None:
            self._metric_segment_reuses.value += 1
            return entry
        if len(self._coefficients) >= _TABLE_LIMIT:
            self._coefficients.clear()
        cstates = tuple([state for state, _, _ in key])
        coefficients = self.power_coefficients(cstates)
        coefficients.fused_terms()
        entry = self._coefficients[key] = (cstates, coefficients)
        self._metric_segment_rebuilds.value += 1
        return entry

    def record_residency(self, cstates: Sequence[CState], duration: float) -> None:
        """Accumulate per-core residency for an integrated piece."""
        for core, state in zip(self.cores, cstates):
            core.residency.add(state, duration)
