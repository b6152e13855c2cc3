"""Tests for repro.fleet.scheduling: thermal placement, costed
migration, the policy registry, and the determinism guarantees the
package is built around (sampled reads never perturb physics)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments import fast_config
from repro.fleet import FleetMachine, RoundRobinBalancer, replica_configs
from repro.fleet.scheduling import (
    POLICY_NAMES,
    ZERO_COST,
    CacheAwareMigrationPolicy,
    MigrationCostModel,
    MigrationPolicy,
    PolicyBundle,
    ThermalBalancer,
    build_policy,
    sampled_machine_temps,
)
from repro.sim.rng import RngRegistry
from repro.telemetry.registry import isolated
from repro.workloads.webserver import Request, WebServer


def _servers(fleet, **kwargs):
    return [
        WebServer(
            node.scheduler, node.rng.stream("web"), external_arrivals=True, **kwargs
        )
        for node in fleet.nodes
    ]


def _balancer_rng(cfg):
    return RngRegistry(cfg.seed).stream("fleet-balancer")


def _flooded_rack(
    policy_cls=MigrationPolicy, *, machines=2, requests=20, **policy_kwargs
):
    """A rack with all load dumped on machine 0: long requests, one
    worker, so a deep ready queue persists and machine 0 runs hot while
    the others stay at idle temperature — the migration showcase."""
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, machines))
    servers = _servers(fleet, service_mean=0.5, num_workers=1)
    for k in range(requests):
        fleet.nodes[0].sim.schedule(0.01 * k, servers[0].submit_request)
    policy_kwargs.setdefault("period", 0.5)
    policy_kwargs.setdefault("min_delta", 0.05)
    policy = policy_cls(fleet, servers, **policy_kwargs)
    return fleet, servers, policy


# ======================================================================
# Placement: ThermalBalancer
# ======================================================================
def test_coolest_first_routes_to_coolest_machine():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 3))
    servers = _servers(fleet)
    temps = np.array([50.0, 40.0, 60.0])
    balancer = ThermalBalancer(
        fleet,
        servers,
        rate=10.0,
        rng=_balancer_rng(cfg),
        temperature_source=lambda: temps,
    )
    assert balancer.select() == 1
    assert balancer.select() == 1  # still coolest; no tie, no cycling


def test_threshold_strategy_round_robins_the_cool_bucket():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 4))
    servers = _servers(fleet)
    temps = np.array([45.0, 70.0, 46.0, 47.0])  # machine 1 is hot
    balancer = ThermalBalancer(
        fleet,
        servers,
        rate=10.0,
        rng=_balancer_rng(cfg),
        strategy="threshold",
        threshold=50.0,
        temperature_source=lambda: temps,
    )
    # Cool bucket {0, 2, 3} cycles; the hot machine never appears.
    assert [balancer.select() for _ in range(6)] == [0, 2, 3, 0, 2, 3]
    # Whole rack hot: degrade to coolest-first instead of refusing.
    temps[:] = [71.0, 70.0, 72.0, 73.0]
    assert balancer.select() == 1


def test_thermal_balancer_validates_configuration():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    servers = _servers(fleet)
    rng = _balancer_rng(cfg)
    with pytest.raises(ConfigurationError):
        ThermalBalancer(fleet, servers, rate=10.0, rng=rng, strategy="warmest")
    with pytest.raises(ConfigurationError):
        ThermalBalancer(fleet, servers, rate=10.0, rng=rng, strategy="threshold")
    balancer = ThermalBalancer(
        fleet, servers, rate=10.0, rng=rng, temperature_source=lambda: [1.0]
    )
    with pytest.raises(ConfigurationError):
        balancer.select()  # source width != machine count


def test_sampled_temps_fall_back_to_idle_before_first_sample():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    idle = float(np.mean(fleet.idle_core_temps))
    assert sampled_machine_temps(fleet) == pytest.approx([idle, idle])


# ----------------------------------------------------------------------
# Property-based: select() invariants over arbitrary temperature fields
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def select_rig():
    """One reusable 4-machine rack whose balancer reads a mutable
    temperature array (the simulation itself never runs)."""
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 4))
    servers = _servers(fleet)
    temps = np.zeros(4)
    coolest = ThermalBalancer(
        fleet,
        servers,
        rate=10.0,
        rng=_balancer_rng(cfg),
        temperature_source=lambda: temps,
    )
    threshold = ThermalBalancer(
        fleet,
        servers,
        rate=10.0,
        rng=_balancer_rng(cfg),
        strategy="threshold",
        threshold=55.0,
        temperature_source=lambda: temps,
    )
    return temps, coolest, threshold


temps_lists = st.lists(
    st.floats(min_value=20.0, max_value=90.0, allow_nan=False), min_size=4, max_size=4
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=temps_lists)
def test_coolest_first_always_selects_a_minimum(select_rig, field):
    temps, coolest, _ = select_rig
    temps[:] = field
    chosen = coolest.select()
    assert temps[chosen] == pytest.approx(temps.min(), abs=1e-9)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=temps_lists)
def test_threshold_never_selects_a_hot_machine_when_a_cool_one_exists(
    select_rig, field
):
    temps, _, threshold = select_rig
    temps[:] = field
    chosen = threshold.select()
    if np.any(temps <= 55.0):
        assert temps[chosen] <= 55.0
    else:
        assert temps[chosen] == pytest.approx(temps.min(), abs=1e-9)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_uniform_temperatures_cycle_round_robin(select_rig, seed):
    temps, coolest, _ = select_rig
    temps[:] = 40.0 + seed  # any uniform field
    coolest._next = 0
    assert [coolest.select() for _ in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


# ======================================================================
# The acceptance guarantee: thermal policy == round-robin, bitwise,
# under uniform temperatures and zero migration
# ======================================================================
def _run_rack(cfg, balancer_factory, *, machines=3, duration=6.0):
    fleet = FleetMachine(replica_configs(cfg, machines))
    servers = _servers(fleet)
    balancer = balancer_factory(fleet, servers)
    fleet.run(duration)
    balancer.stop()
    return fleet, servers, balancer


@pytest.mark.parametrize("seed", [0, 3])
def test_uniform_thermal_balancer_bit_matches_round_robin(seed):
    """ThermalBalancer over a uniform temperature field + a migration
    policy that can never fire is the *same simulation* as a
    RoundRobinBalancer rack: identical routing, identical request
    streams, identical temperature floats.  This is what makes the
    policies safe: their reads are sampled, so their presence does not
    perturb the physics substep structure."""
    cfg = fast_config(seed)
    rate = 3 * (440 / 11.0)

    def make_rr(fleet, servers):
        return RoundRobinBalancer(
            fleet, servers, rate=rate, rng=_balancer_rng(cfg)
        )

    def make_thermal(fleet, servers):
        balancer = ThermalBalancer(
            fleet,
            servers,
            rate=rate,
            rng=_balancer_rng(cfg),
            temperature_source=lambda: np.zeros(fleet.num_machines),
        )
        # A zero-cost migration manager polling every 0.25 s whose
        # min_delta can never be met: pure read-only load.
        balancer._shadow = MigrationPolicy(
            fleet,
            servers,
            period=0.25,
            min_delta=1e9,
            cost_model=ZERO_COST,
        )
        return balancer

    rr_fleet, rr_servers, rr = _run_rack(cfg, make_rr)
    th_fleet, th_servers, th = _run_rack(cfg, make_thermal)

    assert th.routed == rr.routed
    assert th._shadow.migrations == 0
    assert th._shadow.blocked_cycles > 0
    for rr_node, th_node in zip(rr_fleet.nodes, th_fleet.nodes):
        assert np.array_equal(rr_node.templog.times, th_node.templog.times)
        assert np.array_equal(rr_node.templog.samples, th_node.templog.samples)
    assert np.array_equal(rr_fleet.integrator.temps, th_fleet.integrator.temps)
    for rr_server, th_server in zip(rr_servers, th_servers):
        assert [r.rid for r in rr_server.log.requests] == [
            r.rid for r in th_server.log.requests
        ]
        assert [r.completed for r in rr_server.log.requests] == [
            r.completed for r in th_server.log.requests
        ]


# ======================================================================
# Migration mechanics
# ======================================================================
def test_migration_moves_work_hot_to_cool_only():
    fleet, servers, policy = _flooded_rack()
    fleet.run(6.0)
    policy.stop()

    assert policy.migrations > 0
    # The flood lands on machine 0, so that is where migration starts.
    assert policy.history[0].source == 0 and policy.history[0].target == 1
    for event in policy.history:
        # Coolest-first targeting: never towards a hotter machine, and
        # always clearing the configured gap.
        assert event.source_temp - event.target_temp >= policy.min_delta
        assert event.source != event.target


def test_requests_are_conserved_across_migration():
    """Every request stays accounted for by object identity: logged
    once at its origin, and after the run it is either completed, still
    queued somewhere, or in service on one of the workers."""
    fleet, servers, policy = _flooded_rack(requests=24)
    fleet.run(6.0)
    policy.stop()

    assert policy.migrations > 0
    logged = [r for s in servers for r in s.log.requests]
    assert len(logged) == 24  # origin log neither loses nor duplicates
    assert len({id(r) for r in logged}) == 24

    queued = [r for s in servers for r in s.ready_requests]
    assert len({id(r) for r in queued}) == len(queued)  # no double-queueing
    completed = [r for r in logged if r.completed is not None]
    unaccounted = [
        r
        for r in logged
        if r.completed is None and not any(r is q for q in queued)
    ]
    # Legal limbo: in service (one slot per worker), in the kernel
    # stage (one per machine), or migrated and still on the wire (the
    # run can end between donation and delivery — at most one donation
    # batch per source machine).
    migrated_ids = {id(event.request) for event in policy.history}
    in_flight = [r for r in unaccounted if id(r) in migrated_ids]
    in_service = [r for r in unaccounted if id(r) not in migrated_ids]
    assert len(in_service) <= sum(len(s.workers) for s in servers) + len(servers)
    assert len(in_flight) <= policy.max_moves * len(servers) + sum(
        len(s.workers) for s in servers
    )
    for event in policy.history:
        assert any(event.request is r for r in logged)
    assert len(completed) > 0


def test_migrated_requests_complete_on_an_idle_machine():
    """Machine 1 starts with an empty run queue mid-substep; delivery
    through its sim view must close its physics gap and wake a blocked
    worker, so donated work actually completes there."""
    fleet, servers, policy = _flooded_rack(requests=24)
    fleet.run(8.0)
    policy.stop()

    migrated = {id(event.request) for event in policy.history}
    assert migrated
    done_on_target = [
        r
        for s in servers
        for r in s.log.requests
        if id(r) in migrated and r.completed is not None
    ]
    assert done_on_target  # the cool machine really served them
    # And the target machine did physical work: it left idle temperature.
    assert sampled_machine_temps(fleet)[1] > float(
        np.mean(fleet.idle_core_temps)
    )


def test_zero_cost_migration_charges_nothing():
    with isolated() as reg:
        fleet, servers, policy = _flooded_rack(cost_model=ZERO_COST)
        fleet.run(6.0)
        policy.stop()
        assert policy.migrations > 0
        assert policy.total_cost_seconds == 0.0
        assert reg.value("fleet.migration_cost_ms") == 0
        for event in policy.history:
            assert event.cost_seconds == 0.0


def test_migration_cost_inflates_service_time_and_counters():
    model = MigrationCostModel(transfer_latency=0.002, warmup_penalty=0.15)
    with isolated() as reg:
        fleet, servers, policy = _flooded_rack(cost_model=model)
        fleet.run(6.0)
        policy.stop()
        assert policy.migrations > 0
        once = [
            e
            for e in policy.history
            if sum(1 for o in policy.history if o.request is e.request) == 1
        ]
        assert once
        for event in once:
            # cost was computed from the pre-inflation service time
            original = (event.cost_seconds - model.transfer_latency) / (
                model.warmup_penalty
            )
            assert event.request.service_time == pytest.approx(
                original * (1.0 + model.warmup_penalty)
            )
        assert reg.value("fleet.migration_cost_ms") == pytest.approx(
            policy.total_cost_seconds * 1e3
        )


def test_cache_aware_policy_holds_work_when_benefit_is_too_small():
    _, _, eager = _flooded_rack(
        CacheAwareMigrationPolicy, degrees_per_cost_second=1e-6
    )
    eager.fleet.run(6.0)
    eager.stop()
    _, _, reluctant = _flooded_rack(
        CacheAwareMigrationPolicy, degrees_per_cost_second=1e9
    )
    reluctant.fleet.run(6.0)
    reluctant.stop()

    assert eager.migrations > 0
    assert reluctant.migrations == 0
    assert reluctant.blocked_cycles > 0
    assert eager.migrations >= reluctant.migrations


def test_migration_policy_validates_configuration():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    servers = _servers(fleet)
    with pytest.raises(ConfigurationError):
        MigrationPolicy(fleet, servers[:1])
    with pytest.raises(ConfigurationError):
        MigrationPolicy(fleet, servers, period=0.0)
    with pytest.raises(ConfigurationError):
        MigrationPolicy(fleet, servers, min_delta=-1.0)
    with pytest.raises(ConfigurationError):
        MigrationPolicy(fleet, servers, max_moves=0)
    with pytest.raises(ConfigurationError):
        MigrationCostModel(transfer_latency=-1.0)
    with pytest.raises(ConfigurationError):
        CacheAwareMigrationPolicy(fleet, servers, degrees_per_cost_second=0.0)


# ----------------------------------------------------------------------
# Property-based: cost model and donation
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    latency=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    penalty=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    service=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
)
def test_cost_model_properties(latency, penalty, service):
    model = MigrationCostModel(transfer_latency=latency, warmup_penalty=penalty)
    request = Request(rid=1, arrival=0.0, service_time=service)
    cost = model.cost_seconds(request)
    assert cost >= latency
    assert cost == pytest.approx(latency + penalty * service)
    assert model.is_free == (latency == 0.0 and penalty == 0.0)
    assert ZERO_COST.cost_seconds(request) == 0.0


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    services=st.lists(
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        min_size=0,
        max_size=12,
    ),
    max_requests=st.integers(min_value=1, max_value=12),
    cutoff=st.floats(min_value=0.0, max_value=1.0),
)
def test_donate_queued_properties(select_rig, services, max_requests, cutoff):
    """donate_queued pops newest-first, never exceeds its budget, stops
    at the first refusal, and conserves the queue (donated + remaining
    is a permutation of the original)."""
    _, balancer, _ = select_rig
    server = balancer.servers[0]
    server.ready_requests.clear()
    original = [
        Request(rid=i, arrival=0.0, service_time=s) for i, s in enumerate(services)
    ]
    server.ready_requests.extend(original)

    donated = server.donate_queued(max_requests, accept=lambda r: r.service_time <= cutoff)
    remaining = list(server.ready_requests)

    assert len(donated) <= max_requests
    assert len(donated) + len(remaining) == len(original)
    assert {id(r) for r in donated} | {id(r) for r in remaining} == {
        id(r) for r in original
    }
    # Newest-first: donations are a reversed suffix of the original queue.
    if donated:
        suffix = original[-len(donated):]
        assert [id(r) for r in donated] == [id(r) for r in reversed(suffix)]
        assert all(r.service_time <= cutoff for r in donated)
    # FIFO head preserved for the work kept.
    assert remaining == original[: len(remaining)]
    server.ready_requests.clear()


# ======================================================================
# Registry
# ======================================================================
def test_registry_rejects_unknown_policy_names():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    servers = _servers(fleet)
    with pytest.raises(ConfigurationError) as excinfo:
        build_policy(
            "warmest-first", fleet, servers, rate=10.0, rng=_balancer_rng(cfg)
        )
    for name in POLICY_NAMES:
        assert name in str(excinfo.value)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_registry_builds_every_policy(name):
    cfg = fast_config(0)
    with isolated() as reg:
        fleet = FleetMachine(replica_configs(cfg, 2))
        health = fleet.attach_health()
        servers = _servers(fleet)
        bundle = build_policy(
            name, fleet, servers, rate=10.0, rng=_balancer_rng(cfg), health=health
        )
        assert isinstance(bundle, PolicyBundle)
        assert bundle.name == name
        expects_migration = name in ("migrate", "cache-aware")
        assert (bundle.migration is not None) == expects_migration
        assert bundle.migrations == 0
        assert bundle.migration_cost_seconds == 0.0
        expects_controllers = name == "alert-reactive"
        assert bool(bundle.controllers) == expects_controllers
        assert bundle.throttle_engagements == 0
        assert bundle.time_throttled_seconds == 0.0
        # The uniform counter set exists whatever the policy.
        assert reg.value("fleet.migrations") == 0
        assert reg.value("fleet.migration_cost_ms") == 0
        bundle.stop()


def test_registry_threshold_policy_sits_above_idle():
    cfg = fast_config(0)
    fleet = FleetMachine(replica_configs(cfg, 2))
    servers = _servers(fleet)
    bundle = build_policy(
        "threshold", fleet, servers, rate=10.0, rng=_balancer_rng(cfg)
    )
    assert isinstance(bundle.balancer, ThermalBalancer)
    assert bundle.balancer.threshold > float(np.mean(fleet.idle_core_temps))
    bundle.stop()


# ======================================================================
# Performance (excluded from tier-1; CI runs -m "slow or perf")
# ======================================================================
@pytest.mark.perf
def test_thermal_policy_overhead_is_bounded():
    """Sampled-telemetry placement + migration polling must not
    meaningfully slow the rack down: the policy stack reads cached
    sensor values, so a thermally scheduled run stays within 2.5x of
    the round-robin run's wall clock (generous bound for CI noise)."""
    import time

    cfg = fast_config(0)

    def timed(policy_name):
        started = time.perf_counter()
        fleet = FleetMachine(replica_configs(cfg, 3))
        servers = _servers(fleet)
        bundle = build_policy(
            policy_name,
            fleet,
            servers,
            rate=3 * servers[0].arrival_rate,
            rng=_balancer_rng(cfg),
        )
        fleet.run(6.0)
        bundle.stop()
        return time.perf_counter() - started

    timed("round-robin")  # warm caches/JIT-able paths
    baseline = timed("round-robin")
    thermal = timed("coolest")
    migrate = timed("migrate")
    assert thermal <= 2.5 * baseline + 0.25
    assert migrate <= 2.5 * baseline + 0.25
