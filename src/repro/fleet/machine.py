"""Simulated servers sharing one event queue and one structure-of-arrays
physics state — the only place a server is wired.

A :class:`FleetNode` is one simulated server, the paper's 1U testbed
(§3.2): chip, scheduler, idle injector, RNG registry, power meter,
sensors and temperature log.  A :class:`FleetMachine` is ``N`` nodes,
each built from its own config, whose events interleave on one shared
:class:`~repro.sim.engine.Simulator`: a rack of replicas, the runs of
a characterization batch, or a fleet of one — what
:func:`repro.experiments.machine.Machine` returns is node 0 of one —
so every experiment runs through this wiring.  A node carries its own
per-run settings (its injector's idle mode and SMT co-scheduling, its
health monitor), so nodes of one fleet may differ in them.  What is
*not* per-node is the
physics (:func:`physics_of`): every machine is a copy of the same
thermal network, so the whole fleet's temperatures live in one
``(machines, nodes)`` array inside a
:class:`~repro.thermal.rcnetwork.FleetThermalIntegrator`.

How per-machine event streams drive deferred physics
----------------------------------------------------

Integrating eagerly — running the thermal model over every inter-event
gap of the shared clock — would split machine A's quiet interval at
machine B's event times, which changes A's substep lengths and with
them the leakage-lag discretization: a machine's result would depend
on its neighbours.  Instead, each node schedules its callbacks through
a :class:`_NodeSimView`, a node-scoped view of the shared simulator
that gives every event the node's gap closer as its ``before`` hook:
the engine calls it immediately before the callback, and it closes the
node's physics *gap* (from its last event to now) by **recording**
power segments — split at that node's own C-state
promotion instants, coefficients evaluated at piece midpoints.  Nothing
is integrated yet; segments queue per node.

Integration happens when temperatures or energy are actually needed
(a temperature-log sample, a health-monitor sample, a power-meter read,
a ``core_temps`` read, or the end of :meth:`FleetMachine.run`): the
drain advances every queued segment, each node's queue in time order,
on its own machine with that segment's own coefficients and step
kernel.  With one node pending (always, in a fleet of one) that is one
fused call per segment; with several, one rounds call advances all the
pending machines together, one stacked matmul per substep, and gives
the same floats.  Deferring is sound because power coefficients are
segment constants: they capture the chip state at recording time and
do not depend on when the integral is evaluated.  No segment shares
arithmetic with another machine's, so an N-machine fleet is
bit-identical to N fleets of one by construction, whoever triggers a
drain and whatever else is queued at that moment.

Telemetry (shared registry, additive across nodes): the integrator's
``fleet.machines`` / ``fleet.substeps`` / ``fleet.rounds`` /
``fleet.round_substeps`` / ``fleet.advance_wall``, plus
``fleet.segments`` (recorded pieces) and ``fleet.drains`` from this
module.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..core.injector import IdleInjector
from ..cpu.chip import Chip
from ..cpu.power import PowerCoefficients
from ..errors import ConfigurationError, SimulationError
from ..experiments.config import ExperimentConfig
from ..health import FleetHealth, HealthMonitor, HealthParams
from ..instruments.powermeter import PowerMeter
from ..instruments.templog import TemperatureLog
from ..sched.scheduler import Scheduler
from ..sched.syscalls import DimetrodonControl
from ..sim.engine import Event, Simulator
from ..sim.rng import RngRegistry
from ..telemetry.registry import registry as _metrics_registry
from ..thermal.floorplan import build_network
from ..thermal.rcnetwork import FleetThermalIntegrator, ThermalIntegrator, ThermalNetwork
from ..thermal.sensors import SensorBank


class _NodeSimView:
    """One node's view of the shared simulator.

    Exposes the :class:`~repro.sim.engine.Simulator` surface node
    components use (``now``, ``schedule``, ``schedule_at``).  Every
    event it schedules carries ``close_gap`` — the node's gap closer,
    ``FleetMachine._close_gap`` bound to this node's index — as its
    :attr:`~repro.sim.engine.Event.before` hook, so the engine records
    the node's segments up to the current instant before the callback
    mutates any state the power model depends on.  The view pushes
    heap entries itself, with the simulator's own ordering and
    past-time checks.  Cancelling the returned
    :class:`~repro.sim.engine.Event` works unchanged.
    """

    __slots__ = ("_sim", "close_gap")

    def __init__(self, fleet: "FleetMachine", index: int, sim: Simulator):
        self._sim = sim
        self.close_gap = functools.partial(fleet._close_gap, index)

    @property
    def now(self) -> float:
        return self._sim._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        if not 0 <= delay < math.inf:  # also rejects NaN
            raise SimulationError(f"event delay must be finite and >= 0, got {delay}")
        sim = self._sim
        time = sim._now + delay
        event = Event(time, callback, args, self.close_gap)
        heapq.heappush(sim._heap, (time, next(sim._seq), event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        sim = self._sim
        if not sim._now <= time < math.inf:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time:.9f}: needs a finite time at or after "
                f"the clock, {sim._now:.9f}"
            )
        event = Event(time, callback, args, self.close_gap)
        heapq.heappush(sim._heap, (time, next(sim._seq), event))
        return event


class FleetNode:
    """One server of the fleet: the full single-machine OS stack, with
    physics delegated to the fleet's integrator.

    Every instrument read brings this node's physics up to the present
    first (the temperature log and health monitors through their reader
    callables, the power meter through its ``sync`` hook), so a
    controller never sees a partially integrated window.  The owning
    :class:`FleetMachine` starts the scheduler once the node is built.
    The injector starts in HALT mode without SMT co-scheduling; it reads
    both settings at each decision, so setting ``injector.mode`` or
    ``injector.co_schedule_smt`` before the run takes effect.
    """

    def __init__(self, fleet: "FleetMachine", index: int, config: ExperimentConfig):
        self.fleet = fleet
        self.index = index
        self.config = config
        cfg = config
        #: This node's view of the shared simulator: callbacks scheduled
        #: on it see the node's physics recorded up to their firing
        #: instant.
        self.sim = _NodeSimView(fleet, index, fleet.sim)
        self.rng = RngRegistry(cfg.seed)
        self.chip = Chip(
            cfg.power,
            num_cores=cfg.num_cores,
            smt=cfg.smt,
            cstate_params=cfg.cstates,
            c1e_enabled=cfg.c1e_enabled,
        )
        for core in self.chip.cores:
            core.set_idle(-1e6)  # long-idle: deep state from the start

        self.injector = IdleInjector()
        if cfg.scheduler_queue == "ule":
            from ..sched.ule import UleRunqueue

            runqueue = UleRunqueue(num_cores=cfg.num_cores)
        elif cfg.scheduler_queue == "bsd":
            runqueue = None  # Scheduler builds the default 4.4BSD MLFQ
        else:
            raise ConfigurationError(
                f"unknown scheduler_queue {cfg.scheduler_queue!r} (bsd|ule)"
            )
        self.scheduler = Scheduler(
            self.sim,
            self.chip,
            quantum=cfg.quantum,
            context_switch_cost=cfg.context_switch_cost,
            injector=self.injector,
            runqueue=runqueue,
        )
        self.control = DimetrodonControl(self.scheduler, rng=self.rng.stream("inject"))

        meter_rng = self.rng.stream("clamp") if cfg.clamp_gain_error > 0 else None
        self.powermeter = PowerMeter(
            clamp_gain_error=cfg.clamp_gain_error,
            rng=meter_rng,
            sync=lambda: fleet._sync(index),
        )
        core_nodes = list(range(cfg.num_cores))
        if cfg.noisy_sensors:
            self.sensors = SensorBank.coretemp(core_nodes, self.rng.stream("sensors"))
        else:
            self.sensors = SensorBank.ideal(core_nodes)
        sensors = self.sensors  # not self: the log must not hold its node
        self.templog = TemperatureLog(
            self.sim,
            lambda: sensors.read(fleet._node_temps(index)),
            period=cfg.temp_sample_period,
            num_cores=cfg.num_cores,
        )

        #: Recorded-but-unintegrated physics pieces, in time order:
        #: ``(start, duration, coefficients)`` tuples.
        self.pending: Deque[Tuple[float, float, PowerCoefficients]] = deque()
        #: End of the last recorded piece (= this node's last event).
        self.last_physics_time = fleet.sim.now
        #: This node's health monitor, once :meth:`attach_health` ran.
        self.health: Optional[HealthMonitor] = None

    def attach_health(self, params: Optional[HealthParams] = None) -> HealthMonitor:
        """Attach a thermal health monitor to this node.

        The monitor samples through its own quantised (optionally
        noisy) :class:`~repro.thermal.sensors.SensorBank` — never the
        true integrator state — at the params' period, with rise
        thresholds pinned to the idle baseline.  A noisy monitor draws
        from the node's dedicated ``"health-sensors"`` RNG stream, so
        monitor reads never perturb the temperature log's noise
        sequence and identical seeds reproduce identical alert streams.
        It runs through the node's sim view, so a sample sees physics
        integrated up to the sampling instant.  Call once; the monitor
        is also exposed as :attr:`health`.
        """
        if self.health is not None:
            raise ConfigurationError(
                f"fleet node {self.index} already has a health monitor attached"
            )
        params = params if params is not None else HealthParams()
        rng = self.rng.stream("health-sensors") if params.noisy else None
        fleet, index = self.fleet, self.index  # not self: the monitor must not hold its node
        self.health = HealthMonitor(
            self.sim,
            params.sensor_bank(list(range(self.config.num_cores)), rng),
            lambda: fleet._node_temps(index),
            thresholds=params.thresholds(self.idle_mean_temp),
            period=params.period,
            machine=index,
        )
        return self.health

    # ------------------------------------------------------------------
    # Running and measurements
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the fleet's shared clock (every node) by ``duration``
        seconds."""
        self.fleet.run(duration)

    @property
    def now(self) -> float:
        return self.fleet.now

    @property
    def network(self) -> ThermalNetwork:
        """The thermal network every node of the fleet shares."""
        return self.fleet.network

    @property
    def idle_core_temps(self) -> np.ndarray:
        """Per-core idle temperatures — the paper's baseline, °C."""
        return self.fleet.idle_core_temps

    @property
    def core_temps(self) -> np.ndarray:
        """Current true per-core temperatures, °C (drains physics)."""
        return self.fleet._node_temps(self.index)[: self.config.num_cores].copy()

    @property
    def idle_mean_temp(self) -> float:
        """Mean per-core idle (baseline) temperature, °C."""
        return float(np.mean(self.idle_core_temps))

    def mean_core_temp_over_window(self, window: Optional[float] = None) -> float:
        """Mean core temperature over the trailing window (``None``: the
        config's measurement window — the paper's last-30 s average)."""
        if window is None:
            window = self.config.measure_window
        return self.templog.mean_over_window(window)

    def temp_rise_over_idle(self, window: Optional[float] = None) -> float:
        """Mean core temperature rise over the idle baseline, °C."""
        return self.mean_core_temp_over_window(window) - self.idle_mean_temp

    def total_work_done(self) -> float:
        """Total useful work completed by this node's threads, CPU-s."""
        return sum(t.stats.work_done for t in self.scheduler.threads)

    def energy(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Package energy over [start, end], J (drains physics)."""
        return self.powermeter.energy(start, end)


def physics_of(config: ExperimentConfig) -> Tuple[Any, ...]:
    """The config fields every node of one fleet must share: the chip's
    power model, C-states and core layout, and the thermal network.
    One network and one idle settle seed every row of the fleet's
    state, so nodes may differ in anything else (seed, scheduler,
    instruments, run length) but not in these."""
    return (
        config.power,
        config.thermal,
        config.num_cores,
        config.smt,
        config.cstates,
        config.c1e_enabled,
    )


class FleetMachine:
    """Fully wired servers on one event queue, node ``j`` built from
    ``configs[j]``.

    The node configs may differ in everything but their physics
    (:func:`physics_of`); a fleet of identical replicas is the caller's
    list (:func:`repro.fleet.cells.replica_configs`), and the
    single server :func:`~repro.experiments.machine.Machine` returns is
    node 0 of the fleet of ``[config]``.
    """

    def __init__(self, configs: Sequence[ExperimentConfig]):
        configs = list(configs)
        if not configs:
            raise ConfigurationError("a fleet needs at least one machine")
        self.config = cfg = configs[0]
        physics = physics_of(cfg)
        for j, node_config in enumerate(configs):
            if physics_of(node_config) != physics:
                raise ConfigurationError(
                    f"fleet node {j}'s physics (power, thermal, cores, SMT, "
                    "C-states, C1E) differ from node 0's: one thermal network "
                    "and one idle settle seed every node"
                )
        self.num_machines = machines = len(configs)

        self.sim = Simulator()
        #: One network shared by every node: homogeneous machines share
        #: its eigendecomposition, from which every step kernel is built.
        self.network = build_network(cfg.thermal, cfg.num_cores)

        scope = _metrics_registry().scope("fleet")
        self._metric_segments = scope.counter("segments")
        self._metric_drains = scope.counter("drains")

        self.nodes: List[FleetNode] = []
        for j, node_config in enumerate(configs):
            node = FleetNode(self, j, node_config)
            if j == 0:
                # Idle-equilibrium initial condition, the paper's
                # baseline "idle temperature".  Chips are built
                # long-idle, so node 0's chip is settled before its
                # scheduler's start() re-marks cores naturally idle;
                # all nodes share their physics, so this one settle seeds
                # every row of the fleet state.  The coefficients are
                # built directly, not through power_segment, so the
                # chip's coefficient table and its counters start clean.
                chip = node.chip
                idle_coefficients = chip.power_coefficients(
                    [chip.effective_cstate(core, 0.0) for core in chip.cores]
                )
                idle_temps = ThermalIntegrator(
                    self.network, max_substep=cfg.thermal.max_substep
                ).settle(idle_coefficients)
            node.scheduler.start()
            self.nodes.append(node)
        self.integrator = FleetThermalIntegrator(
            self.network,
            machines,
            initial_temps=idle_temps,
            max_substep=cfg.thermal.max_substep,
        )
        #: Per-core idle temperatures — the baseline, °C (all nodes).
        self.idle_core_temps = idle_temps[: cfg.num_cores].copy()

        #: Rack-level health aggregation once :meth:`attach_health` runs.
        self.health: Optional[FleetHealth] = None

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    def attach_health(self, params: Optional[HealthParams] = None) -> FleetHealth:
        """Attach one :class:`~repro.health.HealthMonitor` per node
        (:meth:`FleetNode.attach_health`, all with ``params``) and roll
        them up into a :class:`~repro.health.FleetHealth`."""
        params = params if params is not None else HealthParams()
        monitors = [node.attach_health(params) for node in self.nodes]
        self.health = FleetHealth(monitors, params=params, idle_mean=self.idle_mean_temp)
        return self.health

    # ------------------------------------------------------------------
    # Physics co-simulation
    # ------------------------------------------------------------------
    def _close_gap(self, index: int) -> None:
        """Record node ``index``'s physics from its last event to now.

        The gap is split at the node's own C-state promotion instants;
        each non-empty piece accounts residency and queues its power
        coefficients, evaluated at the piece midpoint (a piece boundary
        sits exactly on a promotion instant, where float roundoff on
        the comparison could misclassify the whole piece).
        """
        node = self.nodes[index]
        now = self.sim._now
        t0 = node.last_physics_time
        if now <= t0:
            return
        chip = node.chip
        pending = node.pending
        edges = [t0] + chip.cstate_breakpoints(t0, now) + [now]
        recorded = 0
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                continue
            cstates, coefficients = chip.power_segment(0.5 * (a + b))
            chip.record_residency(cstates, b - a)
            pending.append((a, b - a, coefficients))
            recorded += 1
        node.last_physics_time = now
        self._metric_segments.value += recorded

    def _drain(self) -> None:
        """Integrate every recorded segment, each node's queue in time
        order.

        With one node pending, every segment is one
        :meth:`~repro.thermal.rcnetwork.FleetThermalIntegrator.advance_machines`
        call.  With several, all queues go to one
        :meth:`~repro.thermal.rcnetwork.FleetThermalIntegrator.advance_rounds`
        call, which advances the machines together and is bit-identical
        to the per-segment calls.  Either way every segment advances its
        own machine on its own coefficients and step kernel, so no
        machine's floats depend on what its neighbours queued.
        """
        busy = [node for node in self.nodes if node.pending]
        if not busy:
            return
        if len(busy) == 1:
            (node,) = busy
            advance = self.integrator.advance_machines
            pending = node.pending
            record = node.powermeter.record_segment
            while pending:
                start, length, coefficients = pending.popleft()
                (energy,) = advance((node.index,), length, coefficients)
                record(start, length, energy / length)
        else:
            energies = self.integrator.advance_rounds(
                [[(length, c) for _, length, c in node.pending] for node in self.nodes]
            )
            for node, node_energies in zip(self.nodes, energies):
                record = node.powermeter.record_segment
                for (start, length, _), energy in zip(node.pending, node_energies):
                    record(start, length, energy / length)
                node.pending.clear()
        self._metric_drains.inc()

    def _sync(self, index: int) -> None:
        """Bring node ``index``'s physics up to now: record its open
        gap and integrate everything queued."""
        self._close_gap(index)
        self._drain()

    def _node_temps(self, index: int) -> np.ndarray:
        """Node ``index``'s current node temperatures (°C), integrating
        everything recorded so far.  Returns a live row view; callers
        that keep the array must copy."""
        self._sync(index)
        return self.integrator.temps[index]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the whole fleet by ``duration`` seconds.

        The final partial interval is integrated too: every node's gap
        is closed at the end time and all queues drain, so temperatures
        and energy are current when this returns.
        """
        self.sim.run(until=self.sim.now + duration)
        for j in range(self.num_machines):
            self._close_gap(j)
        self._drain()

    def close(self) -> None:
        """Tear the fleet down once its results are read.

        Pending events, sampling tasks and the node list are what tie a
        fleet's objects into reference cycles; dropping them lets
        reference counting free the whole fleet at once instead of
        leaving it to the cycle collector, which may not run before the
        next fleet is built.  A closed fleet cannot run again.
        """
        self.sim.clear()
        for node in self.nodes:
            node.templog.stop()
            if node.health is not None:
                node.health.stop()
        self.nodes = []
        self.health = None

    # ------------------------------------------------------------------
    # Fleet-level measurements
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def idle_mean_temp(self) -> float:
        """Mean per-core idle (baseline) temperature, °C."""
        return float(np.mean(self.idle_core_temps))

    def mean_core_temp_over_window(self, window: Optional[float] = None) -> float:
        """Fleet-mean core temperature over the trailing window, °C."""
        return float(
            np.mean([node.mean_core_temp_over_window(window) for node in self.nodes])
        )

    def total_energy(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Aggregate package energy over [start, end], J."""
        return float(sum(node.powermeter.energy(start, end) for node in self.nodes))

    def total_work_done(self) -> float:
        """Total useful work completed across the fleet, CPU-seconds."""
        return float(sum(node.total_work_done() for node in self.nodes))
