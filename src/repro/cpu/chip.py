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
fused integrator.  Each core *holds* its power-relevant state (only
the two context mutators change it): ``running``, ``busy_contexts``,
``activity``, its table key ``(cstate, activity, busy_contexts)``
before promotion, and its promotion instant (``inf`` while running or
on a chip without C1E).  A lookup therefore picks each core's held
key, or the constant C1E key once the query time reaches the core's
promotion instant, and reads one interned coefficient set from a
table keyed by that tuple.  Power states repeat heavily under idle
injection — every quantum flips cores between the same few states —
so an entry is built once per distinct state.  There is one table per
chip-wide setting (operating point, TCC, per-core overrides); the
setters switch the chip to the table of its new setting, so a
controller that returns to an earlier setting rebuilds nothing.  A
fleet hands every node's chip one dict of tables (its nodes share one
power model), so a state one node built is a hit on every other.
:meth:`Chip.power_vector` is the scalar per-core reference the
coefficients are validated against.  The speed factor the scheduler
asks for at every dispatch is kept the same way, in one speed table
per setting (:meth:`Chip.slice_speed`).

Residency is logged per piece as one float add on the piece's
interned C-state tuple; :attr:`Core.residency` is derived from that
log when read.  The same held promotion instant decides a core's
C-state for power, for the gap's breakpoints and for its wake latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.registry import registry as _metrics_registry
from .cstates import CState, CStateParams, ResidencyCounter, exit_latency
from .dvfs import DvfsTable, OperatingPoint, xeon_e5520_table
from .power import PowerCoefficients, PowerModel, PowerParams
from .tcc import TCC_OFF, TccSetting

#: Entries one coefficient table, and tables one dict of tables, may
#: hold before it starts over.  Workloads reach a few dozen power states
#: under a handful of settings; the cap only bounds memory for
#: pathological ones (many cores, ever-new activity factors).
_TABLE_LIMIT = 4096

#: Table-key entries of an idle core: before and after its promotion.
_C1_KEY = (CState.C1, 0.0, 0)
_C1E_KEY = (CState.C1E, 0.0, 0)


def _table_for(tables: Dict[tuple, dict], setting: tuple) -> dict:
    """The table of ``setting`` in ``tables``, created on first use."""
    table = tables.get(setting)
    if table is None:
        if len(tables) >= _TABLE_LIMIT:
            tables.clear()
        table = tables[setting] = {}
    return table


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
    #: False when the chip has no usable C1E: an idle core never
    #: promotes and stays in C1.
    c1e_enabled: bool = True
    #: Residency per C-state tuple of the owning chip (see
    #: :meth:`Chip.record_residency`); :attr:`residency` reads it.
    residency_log: Dict[Tuple[CState, ...], float] = field(default_factory=dict, repr=False)
    # The next five are derived from the context lists by _refresh,
    # which only the two context mutators call, so the power path reads
    # plain attributes instead of re-deriving them on every query.
    #: Number of contexts executing (a thread or nonzero activity).
    busy_contexts: int = field(init=False, default=0)
    #: True while any hardware context is executing.
    running: bool = field(init=False, default=False)
    #: Aggregate switching activity of all busy contexts (SMT
    #: co-residency scaling is applied by :meth:`Chip.core_activity`).
    activity: float = field(init=False, default=0.0)
    #: Coefficient-table key entry before :attr:`promotion_at`:
    #: ``(C0, activity, busy_contexts)`` while running, the C1 entry
    #: while idle.
    power_key: Tuple[CState, float, int] = field(init=False, default=_C1_KEY)
    #: Instant the idle core is promoted to C1E (``idle_since +
    #: idle_threshold``); ``inf`` while running or without C1E.
    promotion_at: float = field(init=False, default=math.inf)

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
        if self.smt == 1:
            activity = self.context_activity[0]
            self.running = self.context_threads[0] is not None or activity > 0.0
            self.busy_contexts = 1 if self.running else 0
            self.activity = activity
        else:
            self.busy_contexts = sum(
                1
                for t, a in zip(self.context_threads, self.context_activity)
                if t is not None or a > 0.0
            )
            self.running = self.busy_contexts > 0
            self.activity = sum(self.context_activity)
        if self.running:
            self.power_key = (CState.C0, self.activity, self.busy_contexts)
        else:
            self.power_key = _C1_KEY
        self._hold_promotion()

    def _hold_promotion(self) -> None:
        """Re-derive :attr:`promotion_at` from the idle period."""
        if self.running or not self.c1e_enabled:
            self.promotion_at = math.inf
        else:
            self.promotion_at = self.idle_since + self.idle_threshold

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
            self._hold_promotion()

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

        The comparison uses the held :attr:`promotion_at`, the exact
        float the chip's breakpoints and its coefficient-table key use,
        so classification and the promotion instant agree to the ulp —
        the machine splits its gaps at that instant, and a mismatched
        rounding (``time - idle_since`` vs ``idle_since + threshold``)
        would misclassify a piece that ends on it.
        """
        if self.running:
            return CState.C0
        return CState.C1 if time < self.promotion_at else CState.C1E

    def promotion_time(self) -> Optional[float]:
        """Absolute time this core is promoted to C1E, or None if it
        never is (running, or the chip has no C1E)."""
        promotion = self.promotion_at
        return None if promotion == math.inf else promotion

    def wake_latency(self, now: float) -> float:
        """Cost to resume execution if woken at ``now``."""
        if self.running:
            return 0.0
        return exit_latency(self.cstate_at(now), self.cstate_params)

    @property
    def residency(self) -> ResidencyCounter:
        """Per-state residency of this core, derived from the chip's
        per-tuple log."""
        counter = ResidencyCounter()
        for cstates, duration in self.residency_log.items():
            counter.add(cstates[self.index], duration)
        return counter


class Chip:
    """The package: cores plus uncore, with DVFS and TCC settings.

    ``coefficient_tables`` is the dict of coefficient tables (one per
    chip-wide setting) this chip reads and fills.  Chips may share one
    only if they share their power model, DVFS table and core layout,
    as a fleet's nodes do; by default a chip keeps a private dict.
    """

    def __init__(
        self,
        power_params: Optional[PowerParams] = None,
        *,
        num_cores: int = 4,
        smt: int = 1,
        dvfs_table: Optional[DvfsTable] = None,
        cstate_params: Optional[CStateParams] = None,
        c1e_enabled: bool = True,
        coefficient_tables: Optional[Dict[tuple, Dict[tuple, tuple]]] = None,
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
        #: Residency per interned C-state tuple (:meth:`record_residency`).
        self._residency: Dict[Tuple[CState, ...], float] = {}
        self.cores: List[Core] = [
            Core(
                index=i,
                cstate_params=self.cstate_params,
                smt=smt,
                c1e_enabled=c1e_enabled,
                residency_log=self._residency,
            )
            for i in range(num_cores)
        ]
        self._tables = coefficient_tables if coefficient_tables is not None else {}
        #: Speed-factor tables, one per chip-wide setting like the
        #: coefficient tables (see :meth:`slice_speed`).
        self._speed_tables: Dict[tuple, Dict[tuple, float]] = {}
        self._switch_table()
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
        self._switch_table()

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
        self._switch_table()

    def point_for(self, core: Core) -> OperatingPoint:
        """The operating point currently governing ``core``."""
        return core.operating_point_override or self.operating_point

    def set_tcc(self, setting: TccSetting) -> None:
        """Program the thermal control circuit duty cycle (chip-wide)."""
        self.tcc = setting
        self._switch_table()

    def _switch_table(self) -> None:
        """Point the chip at the coefficient and speed tables of its
        current chip-wide setting, creating them on first use."""
        setting = (
            self.operating_point,
            self.tcc,
            tuple([core.operating_point_override for core in self.cores]),
        )
        #: Interned ``(cstates, coefficients)`` per power state under
        #: the current setting (see :meth:`power_segment`).
        self._coefficients: Dict[tuple, Tuple[Tuple[CState, ...], PowerCoefficients]] = (
            _table_for(self._tables, setting)
        )
        #: Speed factor per ``(cpu_fraction, core index, contention)``
        #: under the current setting (see :meth:`slice_speed`).
        self._speeds: Dict[tuple, float] = _table_for(self._speed_tables, setting)

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

    def slice_speed(self, cpu_fraction: float, core: Core, smt_contention: bool) -> float:
        """:meth:`speed_factor` of a slice about to run on ``core``.

        The scheduler asks this once per dispatch, and the answer only
        changes with the chip-wide setting, so it is read from the
        current setting's speed table; a new key is computed by
        :meth:`speed_factor` (which validates ``cpu_fraction``) and
        kept.
        """
        key = (cpu_fraction, core.index, smt_contention)
        speed = self._speeds.get(key)
        if speed is None:
            speed = self.speed_factor(cpu_fraction, core=core, smt_contention=smt_contention)
            if len(self._speeds) >= _TABLE_LIMIT:
                self._speeds.clear()
            self._speeds[key] = speed
        return speed

    # ------------------------------------------------------------------
    def cstate_breakpoints(self, t0: float, t1: float) -> List[float]:
        """Times in (t0, t1) at which any idle core changes C-state."""
        times = [core.promotion_at for core in self.cores if t0 < core.promotion_at < t1]
        if len(times) > 1:
            times = sorted(set(times))
        return times

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
        so that tuple keys the current setting's intern table: a
        repeated power state gets the identical (read-only, fused terms
        precomputed) coefficient object, and only a new state runs the
        model.  Each core contributes its held key, or the C1E entry
        from its promotion instant on.  Same inputs, same object —
        results are bit-identical to rebuilding every time.
        """
        key = tuple(
            [
                core.power_key if time < core.promotion_at else _C1E_KEY
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
        """Accumulate per-core residency for an integrated piece: one
        add on the piece's C-state tuple (interned by
        :meth:`power_segment`); :attr:`Core.residency` sums it per core
        when read."""
        if duration < 0:
            raise ValueError(f"negative residency {duration}")
        if cstates.__class__ is not tuple:
            cstates = tuple(cstates)
        log = self._residency
        log[cstates] = log.get(cstates, 0.0) + duration
