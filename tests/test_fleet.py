"""Tests for the fleet layer: batched physics equivalence, the load
balancer, telemetry additivity, and the CLI experiment."""

import inspect
import math

import numpy as np
import pytest

from repro.cli import EXPERIMENTS
from repro.cpu.power import PowerCoefficients
from repro.cpu.tcc import setpoints
from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.fleet import (
    FleetMachine,
    RoundRobinBalancer,
    ThermalBalancer,
    fleet_compare_experiment,
    fleet_experiment,
    replica_configs,
)
from repro.fleet.scheduling import MigrationPolicy, build_policy
from repro.sim.process import PeriodicTask
from repro.sim.rng import RngRegistry
from repro.telemetry.registry import isolated
from repro.thermal.rcnetwork import FleetThermalIntegrator, ThermalIntegrator
from repro.workloads import CpuBurn
from repro.workloads.webserver import Request, WebServer


def _drive_burn(machine_like, *, threads=2, p=0.5, quantum=0.010):
    for _ in range(threads):
        machine_like.scheduler.spawn(CpuBurn())
    machine_like.control.set_global_policy(p, quantum)


# ======================================================================
# Equivalence with the standalone machine
# ======================================================================
def test_fleet_of_one_bit_matches_standalone():
    """A 1-machine fleet is the *same* simulation as Machine(config):
    identical event stream, identical physics pieces, identical floats."""
    cfg = fast_config(0)

    solo = Machine(cfg)
    _drive_burn(solo)
    solo.run(6.0)

    fleet = FleetMachine([cfg])
    node = fleet.nodes[0]
    _drive_burn(node)
    fleet.run(6.0)

    assert np.array_equal(solo.templog.times, node.templog.times)
    assert np.array_equal(solo.templog.samples, node.templog.samples)
    assert np.array_equal(solo.fleet.integrator.temps, fleet.integrator.temps)
    assert np.array_equal(solo.idle_core_temps, fleet.idle_core_temps)
    assert solo.powermeter.energy(0.0, 6.0) == node.energy(0.0, 6.0)
    assert solo.total_work_done() == node.total_work_done()


def _web_fleet(cfg, machines, duration, *, on_start=None):
    """A ``machines``-node web fleet at p = 0.5, L = 10 ms, run for
    ``duration`` s; ``on_start(fleet)`` runs before the fleet does."""
    fleet = FleetMachine(replica_configs(cfg, machines))
    servers = [WebServer(node.scheduler, node.rng.stream("web")) for node in fleet.nodes]
    for node in fleet.nodes:
        node.control.set_global_policy(0.5, 0.010)
    if on_start is not None:
        on_start(fleet)
    fleet.run(duration)
    return fleet, servers


def _assert_same_physics(a, row_a, b, row_b, duration):
    """Two nodes' physics outputs are the same floats: temperature-log
    samples, integrator rows, power-meter segments and energy."""
    assert np.array_equal(a.templog.times, b.templog.times)
    assert np.array_equal(a.templog.samples, b.templog.samples)
    assert np.array_equal(row_a, row_b)
    for x, y in zip(a.powermeter.segments(), b.powermeter.segments()):
        assert np.array_equal(x, y)
    assert a.energy(0.0, duration) == b.energy(0.0, duration)


def test_fleet_matches_independent_serial_runs():
    """N-machine fleet == N standalone runs (seeds seed+j), bit for bit:
    every segment advances on its own machine, so no node's arithmetic
    depends on its neighbours."""
    cfg = fast_config(0)
    n = 3

    fleet, fleet_servers = _web_fleet(cfg, n, 5.0)

    for j in range(n):
        solo = Machine(cfg.with_seed(cfg.seed + j))
        server = WebServer(solo.scheduler, solo.rng.stream("web"))
        solo.control.set_global_policy(0.5, 0.010)
        solo.run(5.0)

        node = fleet.nodes[j]
        _assert_same_physics(
            solo, solo.fleet.integrator.temps[0], node, fleet.integrator.temps[j], 5.0
        )
        # Scheduling is physics-independent, so the request streams are
        # the same events too.
        assert [r.rid for r in server.log.requests] == [
            r.rid for r in fleet_servers[j].log.requests
        ]
        assert [r.completed for r in server.log.requests] == [
            r.completed for r in fleet_servers[j].log.requests
        ]
        assert solo.total_work_done() == node.total_work_done()


def test_neighbour_reads_do_not_perturb_other_nodes():
    """Reading node 2's ``core_temps`` every 13.7 ms drains the whole
    fleet at instants of node 2's choosing; nodes 0 and 1 must come out
    bit-identical to a run without those reads."""
    cfg = fast_config(0)
    reads = []

    def poll_node_2(fleet):
        PeriodicTask(fleet.sim, 0.0137, lambda: reads.append(fleet.nodes[2].core_temps))

    quiet, _ = _web_fleet(cfg, 3, 5.0)
    polled, _ = _web_fleet(cfg, 3, 5.0, on_start=poll_node_2)

    assert len(reads) == 364
    for j in (0, 1):
        _assert_same_physics(
            quiet.nodes[j],
            quiet.integrator.temps[j],
            polled.nodes[j],
            polled.integrator.temps[j],
            5.0,
        )


def test_node_accessors_and_fleet_aggregates():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    for node in fleet.nodes:
        node.scheduler.spawn(CpuBurn())
    fleet.run(3.0)

    node = fleet.nodes[0]
    assert node.core_temps.shape == (cfg.num_cores,)
    assert node.temp_rise_over_idle(2.0) > 0.0
    assert fleet.mean_core_temp_over_window(2.0) > fleet.idle_mean_temp
    assert fleet.total_energy() == pytest.approx(
        sum(node.energy() for node in fleet.nodes)
    )
    assert fleet.total_work_done() > 0.0
    assert fleet.now == pytest.approx(3.0)


def test_fleet_nodes_share_one_coefficient_table_per_setting():
    """Nodes in one power state get the identical coefficient object,
    whichever node built it; a node at another DVFS point or TCC
    setting gets its own."""
    with isolated() as registry:
        fleet = FleetMachine(replica_configs(fast_config(0), 4))
        chips = [node.chip for node in fleet.nodes]
        chips[2].set_operating_point(chips[2].dvfs_table.min_point)
        chips[3].set_tcc(setpoints(8)[2])
        (_, k0), (_, k1), (_, k2), (_, k3) = [chip.power_segment(0.0) for chip in chips]
        assert k1 is k0
        assert k2 is not k0 and k3 is not k0 and k3 is not k2
        assert registry.value("cpu.chip.power_segments.rebuilds") == 3
        assert registry.value("cpu.chip.power_segments.reuses") == 1


def test_fleet_requires_at_least_one_machine():
    with pytest.raises(ConfigurationError):
        FleetMachine([])


# ======================================================================
# One advance per machine-segment
# ======================================================================
def test_advance_machines_takes_one_machine_and_matches_single_chip_path():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    _, coefficients = fleet.nodes[0].chip.power_segment(0.0)
    integrator = fleet.integrator
    for machines in [(), (0, 1)]:
        with pytest.raises(ConfigurationError):
            integrator.advance_machines(machines, 0.01, coefficients)
    for duration in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError):
            integrator.advance_machines((1,), duration, coefficients)

    untouched = integrator.machine_temps(0)
    chip = ThermalIntegrator(
        fleet.network, integrator.temps[1], max_substep=integrator.max_substep
    )
    chip_energy = chip.advance_coefficients(0.0123, coefficients)
    (energy,) = integrator.advance_machines((1,), 0.0123, coefficients)
    assert energy == chip_energy
    assert np.array_equal(integrator.temps[1], chip.temps)
    assert np.array_equal(integrator.temps[0], untouched)


@pytest.mark.parametrize("machine", [-1, 2])
def test_advance_machines_rejects_rows_outside_the_fleet(machine):
    """Row -1 once silently advanced the last machine."""
    fleet = FleetMachine(replica_configs(fast_config(0), 2))
    _, coefficients = fleet.nodes[0].chip.power_segment(0.0)
    before = fleet.integrator.temps.copy()
    with pytest.raises(ConfigurationError):
        fleet.integrator.advance_machines((machine,), 0.01, coefficients)
    assert np.array_equal(fleet.integrator.temps, before)


def test_non_finite_durations_are_rejected_by_every_advance():
    """Infinity once died in ``math.ceil`` with an OverflowError."""
    fleet = FleetMachine(replica_configs(fast_config(0), 2))
    _, coefficients = fleet.nodes[0].chip.power_segment(0.0)
    integrator = fleet.integrator
    before = integrator.temps.copy()
    for duration in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ConfigurationError):
            integrator.advance_machines((0,), duration, coefficients)
        with pytest.raises(ConfigurationError):
            integrator.advance_rounds(
                [[(0.01, coefficients)], [(0.02, coefficients), (duration, coefficients)]]
            )
    with pytest.raises(ConfigurationError):
        integrator.advance_rounds([[(0.01, coefficients)]])  # one queue per machine
    assert np.array_equal(integrator.temps, before)


def _coefficient_mix(chip, count, rng):
    """``count`` distinct coefficient sets around the chip's idle one."""
    _, idle = chip.power_segment(0.0)
    return [
        PowerCoefficients(
            base=idle.base + rng.uniform(0.0, 25.0, idle.base.shape),
            leak_coef=idle.leak_coef * rng.uniform(0.5, 2.0),
            leak_ref_temp=idle.leak_ref_temp,
            leak_t_slope=idle.leak_t_slope,
            leak_exp_cap=idle.leak_exp_cap,
        )
        for _ in range(count)
    ]


def test_advance_rounds_is_bit_identical_to_one_advance_per_segment():
    """The rounds path equals per-segment ``advance_machines`` calls
    exactly: temperatures with ``array_equal``, energies with ``==``."""
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 6))
    rng = np.random.default_rng(7)
    mix = _coefficient_mix(fleet.nodes[0].chip, 8, rng)
    step = fleet.integrator.max_substep
    queues = [
        # Shorter than one substep, then several hundred substeps.
        [(0.3 * step, mix[0]), (1.7, mix[1]), (0.0123, mix[2])],
        [],  # nothing queued: the row must stay untouched
        # Machines 2 and 3 tie at six substeps.
        [(2 * step, mix[3]), (4 * step, mix[4])],
        [(6 * step, mix[5])],
        # Lengths a float-noise hair apart and a microsecond sliver.
        [(step, mix[6]), (step + 3e-13, mix[6]), (2e-6, mix[7]), (step - 2e-13, mix[0])],
        [(0.0371, mix[1])],
    ]
    initial = fleet.integrator.temps + rng.uniform(0.0, 20.0, fleet.integrator.temps.shape)

    with isolated() as reg:
        serial = FleetThermalIntegrator(
            fleet.network, 6, initial_temps=initial, max_substep=step
        )
        expected = [
            [serial.advance_machines((j,), d, c)[0] for d, c in queue]
            for j, queue in enumerate(queues)
        ]
        serial_substeps = reg.value("fleet.substeps")
    with isolated() as reg:
        rounds = FleetThermalIntegrator(
            fleet.network, 6, initial_temps=initial, max_substep=step
        )
        energies = rounds.advance_rounds(queues)
        # Machine 0 runs 1 + 340 + 3 substeps, the most of any machine.
        assert reg.value("fleet.rounds") == 344
        assert reg.value("fleet.round_substeps") == serial_substeps
        assert reg.value("fleet.substeps") == serial_substeps
        assert reg.timer("fleet.advance_wall").count == 1
    assert energies == expected
    assert np.array_equal(rounds.temps, serial.temps)
    assert np.array_equal(rounds.temps[1], initial[1])
    assert rounds.advance_rounds([[] for _ in queues]) == [[] for _ in queues]


# ======================================================================
# Load balancer
# ======================================================================
def test_round_robin_balancer_spreads_requests_evenly():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 3))
    servers = [
        WebServer(node.scheduler, node.rng.stream("web"), external_arrivals=True)
        for node in fleet.nodes
    ]
    balancer = RoundRobinBalancer(
        fleet,
        servers,
        rate=3 * servers[0].arrival_rate,
        rng=RngRegistry(cfg.seed).stream("fleet-balancer"),
    )
    fleet.run(5.0)
    balancer.stop()

    assert balancer.total_routed > 0
    assert max(balancer.routed) - min(balancer.routed) <= 1
    for server, routed in zip(servers, balancer.routed):
        assert len(server.log.requests) == routed


def test_balancer_validates_inputs():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    servers = [
        WebServer(node.scheduler, node.rng.stream("web"), external_arrivals=True)
        for node in fleet.nodes
    ]
    rng = RngRegistry(cfg.seed).stream("fleet-balancer")
    with pytest.raises(ConfigurationError):
        RoundRobinBalancer(fleet, servers[:1], rate=10.0, rng=rng)
    with pytest.raises(ConfigurationError):
        RoundRobinBalancer(fleet, servers, rate=0.0, rng=rng)


# ======================================================================
# Telemetry
# ======================================================================
def test_fleet_telemetry_counts_chip_substeps_additively():
    """fleet.substeps counts chip-substeps: an N-machine fleet reports
    exactly the sum of the N equivalent standalone machines' substeps."""
    cfg = fast_config(0)
    n = 2

    standalone_substeps = 0
    for j in range(n):
        with isolated() as reg:
            solo = Machine(cfg.with_seed(cfg.seed + j))
            _drive_burn(solo)
            solo.run(4.0)
            standalone_substeps += reg.value("fleet.substeps", 0)
            # A fleet of one drains one advance per recorded segment.
            assert reg.timer("fleet.advance_wall").count == reg.value("fleet.segments")
            assert reg.value("fleet.rounds", 0) == 0

    with isolated() as reg:
        fleet = FleetMachine(replica_configs(cfg, n))
        for node in fleet.nodes:
            _drive_burn(node)
        fleet.run(4.0)
        assert reg.value("fleet.machines") == n
        assert reg.value("fleet.substeps", 0) == standalone_substeps
        # Drains that find both machines pending advance them in rounds.
        assert reg.value("fleet.segments", 0) > 0
        assert reg.value("fleet.rounds", 0) > 0
        assert reg.value("fleet.round_substeps", 0) > reg.value("fleet.rounds")
        assert reg.value("fleet.drains", 0) > 0
        wall = reg.value("fleet.advance_wall")
        assert wall["total"] > 0.0 and wall["count"] > 0


# ======================================================================
# The CLI experiment
# ======================================================================
def test_fleet_experiment_registered_as_batch():
    assert "fleet" in EXPERIMENTS
    _, func = EXPERIMENTS["fleet"]
    assert func is fleet_experiment
    assert "runner" in inspect.signature(func).parameters


#: ``fleet_experiment(fast_config(0), machines=2, duration=8.0,
#: warmup=1.0).render()``, pinned byte for byte.
FLEET_SMOKE_TABLE = """\
Fleet: 2 machines x 8s web serving (policy round-robin, load/core 25.2%, temp reduction 57.7%)
      rack      p  L [ms]  rise [C]  peak [C]  QoS good  QoS tol.  mean resp [s]  alerts  crit [s]  migr  energy [kJ]  work [CPU-s]
----------  -----  ------  --------  --------  --------  --------  -------------  ------  --------  ----  -----------  ------------
  baseline  0.000   0.000     3.075     5.339    100.0%    100.0%          0.027       2     0.000     0        0.451        16.241
dimetrodon  0.650  50.000     1.300     3.126     99.3%     99.3%          0.603       0     0.000     0        0.319        12.991"""


def test_fleet_experiment_smoke():
    result = fleet_experiment(
        fast_config(0), machines=2, duration=8.0, warmup=1.0
    )
    baseline, injected = result.rows
    assert result.grid.machines == 2
    assert baseline.run.requests > 0
    assert injected.run.requests > 0
    assert result.rise(baseline) > 0.0
    assert baseline.policy == "round-robin"
    assert baseline.run.peak_temp >= baseline.run.mean_temp
    rendered = result.render()
    assert "baseline" in rendered and "dimetrodon" in rendered
    assert "round-robin" in rendered
    assert rendered == FLEET_SMOKE_TABLE


@pytest.mark.parametrize("experiment", [fleet_experiment, fleet_compare_experiment])
def test_empty_scoring_span_is_rejected(experiment):
    """A run that ends before warmup + the QoS drain has no requests to
    score; it must not render an empty window as 100% / 0% QoS."""
    with pytest.raises(ConfigurationError, match="no scoring span"):
        experiment(fast_config(0), machines=1, duration=6.0, warmup=5.0)


# ======================================================================
# Scheduling policies over the fleet (repro.fleet.scheduling)
# ======================================================================
def _external_servers(fleet):
    return [
        WebServer(node.scheduler, node.rng.stream("web"), external_arrivals=True)
        for node in fleet.nodes
    ]


def test_single_machine_fleet_policies_degenerate_gracefully():
    """N=1: every balancer routes everything to machine 0, and the
    migration policy can never find a distinct target."""
    cfg = fast_config(0)
    fleet = FleetMachine([cfg])
    servers = _external_servers(fleet)
    rng = RngRegistry(cfg.seed).stream("fleet-balancer")
    balancer = ThermalBalancer(fleet, servers, rate=servers[0].arrival_rate, rng=rng)
    migration = MigrationPolicy(fleet, servers, period=0.5)
    fleet.run(4.0)
    balancer.stop()
    migration.stop()

    assert balancer.routed == [balancer.total_routed]
    assert balancer.total_routed > 0
    assert len(servers[0].log.requests) == balancer.total_routed
    assert migration.migrations == 0
    assert migration.blocked_cycles > 0


def test_policy_bundle_rejects_server_count_mismatch():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    servers = _external_servers(fleet)
    rng = RngRegistry(cfg.seed).stream("fleet-balancer")
    with pytest.raises(ConfigurationError):
        build_policy("coolest", fleet, servers[:1], rate=10.0, rng=rng)
    with pytest.raises(ConfigurationError):
        build_policy("migrate", fleet, [], rate=10.0, rng=rng)


def test_idle_machine_accepts_migrated_request_mid_substep():
    """A machine whose run queue is completely empty receives a
    migrated request in the middle of a physics substep: the delivery
    must close its gap, wake a blocked worker, and serve the request —
    without the request appearing in the target's own log."""
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    servers = _external_servers(fleet)
    # Machine 0 works (so the fleet has real substep traffic); machine
    # 1 does nothing at all until the hand-off lands at t=2.
    fleet.nodes[0].scheduler.spawn(CpuBurn())
    stray = Request(rid=999, arrival=2.0, service_time=0.2)
    fleet.nodes[1].sim.schedule(2.0, servers[1].accept_migrated, stray)
    fleet.run(5.0)

    assert stray.completed is not None
    assert 2.0 < stray.completed < 5.0
    assert all(r is not stray for r in servers[1].log.requests)
    # Serving it produced heat on the otherwise idle machine.
    assert fleet.nodes[1].total_work_done() == pytest.approx(
        stray.service_time, rel=0.01
    )


def test_fleet_migration_telemetry_is_additive():
    """fleet.migrations equals the sum of the per-machine source
    counters and the policy's own event history."""
    with isolated() as reg:
        cfg = fast_config(0)
        fleet = FleetMachine(replica_configs(cfg, 2))
        servers = [
            WebServer(
                node.scheduler,
                node.rng.stream("web"),
                external_arrivals=True,
                service_mean=0.5,
                num_workers=1,
            )
            for node in fleet.nodes
        ]
        for k in range(20):
            fleet.nodes[0].sim.schedule(0.01 * k, servers[0].submit_request)
        policy = MigrationPolicy(fleet, servers, period=0.5, min_delta=0.05)
        fleet.run(6.0)
        policy.stop()

        assert policy.migrations > 0
        total = reg.value("fleet.migrations")
        per_machine = sum(
            reg.value(f"fleet.migrations.m{j}", 0) for j in range(2)
        )
        assert total == per_machine == policy.migrations


def test_fleet_experiment_with_migration_policy():
    result = fleet_experiment(
        fast_config(0), machines=2, duration=8.0, warmup=1.0, policy="migrate"
    )
    baseline, injected = result.rows
    assert baseline.policy == "migrate"
    assert baseline.run.migrations >= 0
    assert injected.run.migrations >= 0
    assert "migrate" in result.render()


#: ``fleet_compare_experiment(fast_config(0), machines=2, duration=8.0,
#: warmup=1.0).render()``, pinned byte for byte.
COMPARE_SMOKE_TABLE = """\
Fleet technique comparison: 2 machines x 8s web serving (p=0.65, load/core 25.2%; * = Pareto-efficient)
         technique  rise [C]  peak [C]  QoS good  QoS tol.  alerts  crit [s]  thr [s]  migr  energy [kJ]  pareto
------------------  --------  --------  --------  --------  ------  --------  -------  ----  -----------  ------
          baseline     3.075     5.339    100.0%    100.0%       2     0.000    0.000     0        0.451        
        dimetrodon     1.300     3.126     99.3%     99.3%       0     0.000    0.000     0        0.319       *
          dvfs-min     2.396     3.959    100.0%    100.0%       2     0.000    0.000     0        0.399       *
            tcc-50     3.334     4.931    100.0%    100.0%       2     0.000    0.000     0        0.468        
    alert-reactive     3.075     5.339    100.0%    100.0%       2     0.000    0.000     0        0.451        
      heat-and-run     3.294     5.412    100.0%    100.0%       2     0.000    0.000     9        0.469        
           coolest     2.981     5.913    100.0%    100.0%       2     1.000    0.000     0        0.461        
           migrate     3.075     5.339    100.0%    100.0%       2     0.000    0.000     0        0.451        
dimetrodon+migrate     1.300     3.126     99.3%     99.3%       0     0.000    0.000     1        0.319        """


def test_fleet_compare_experiment_smoke():
    result = fleet_compare_experiment(
        fast_config(0), machines=2, duration=8.0, warmup=1.0
    )
    names = [row.label for row in result.rows]
    assert names[0] == "baseline"
    assert {"dimetrodon", "dvfs-min", "tcc-50", "heat-and-run", "migrate"} <= set(
        names
    )
    assert len(result.tradeoffs()) == len(result.rows) - 1
    # Something must be Pareto-efficient, and it can't be the baseline.
    assert result.efficient
    assert "baseline" not in result.efficient
    rendered = result.render()
    assert "technique" in rendered and "pareto" in rendered
    assert rendered == COMPARE_SMOKE_TABLE
    # DVFS at the minimum point must actually cool the rack.
    by_name = {row.label: row for row in result.rows}
    assert by_name["dvfs-min"].run.mean_temp < by_name["baseline"].run.mean_temp
    assert by_name["dimetrodon"].run.mean_temp < by_name["baseline"].run.mean_temp


def test_fleet_compare_registered_as_batch():
    assert "fleet-compare" in EXPERIMENTS
    _, func = EXPERIMENTS["fleet-compare"]
    assert func is fleet_compare_experiment
    assert "runner" in inspect.signature(func).parameters
