"""Batch tasks: the cache misses of a characterization grid run as the
nodes of one FleetMachine, and every member's result, key, cache entry
and counters stay those of the same run executed alone."""

import gc
import time
import weakref

import pytest

from repro.cpu.dvfs import xeon_e5520_table
from repro.cpu.tcc import setpoints
from repro.errors import ConfigurationError
from repro.experiments import Machine, fast_config
from repro.experiments.runner import (
    CharacterizationResult,
    make_cpu_workload,
    run_characterization,
    run_characterizations,
)
from repro.fleet import FleetMachine
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    RetryPolicy,
    characterization_spec,
    register_executor,
)
from repro.runtime.parallel import BATCH_WIDTH, RunSpec, execute_spec
from repro.telemetry import isolated
from repro.thermal import params as thermal_params

CFG = fast_config(11)
SHORT = 2.0  # simulated seconds; long enough for every policy to act
FAST_RETRIES = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_max=0.05)


def mixed_specs():
    """Baseline, random and deterministic injection, a VFS point, a TCC
    duty, a SPEC workload, and one run of a different length."""
    return [
        characterization_spec(CFG, duration=SHORT),
        characterization_spec(CFG, p=0.5, idle_quantum=0.010, duration=SHORT),
        characterization_spec(
            CFG, p=0.25, idle_quantum=0.005, deterministic=True, duration=SHORT
        ),
        characterization_spec(CFG, operating_point=list(xeon_e5520_table())[1], duration=SHORT),
        characterization_spec(CFG, tcc=setpoints(8)[2], duration=SHORT),
        characterization_spec(CFG, workload="gcc", p=0.25, idle_quantum=0.025, duration=SHORT),
        characterization_spec(CFG.with_seed(3), p=0.75, idle_quantum=0.001, duration=1.5),
    ]


def grid_specs(n, duration=1.0):
    return [
        characterization_spec(
            CFG, p=0.05 * (i % 10 + 1), idle_quantum=0.001 * (i % 7 + 1), duration=duration
        )
        for i in range(n)
    ]


def test_heterogeneous_batch_equals_solo_runs_member_by_member(tmp_path):
    specs = mixed_specs()
    solo = [execute_spec(spec) for spec in specs]
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(cache=cache)
    batched = runner.run(specs)
    assert runner.metrics.batches == 1
    assert runner.metrics.executed == len(specs)
    assert batched == solo
    # Each member is cached under its own unchanged key.
    assert len(cache) == len(specs)
    assert [cache.get(spec.key) for spec in specs] == solo


def test_batch_runs_as_one_wide_fleet():
    specs = grid_specs(4)
    with isolated() as reg:
        ParallelRunner().run(specs)
    assert reg.value("fleet.rounds") > 0
    assert reg.value("fleet.round_substeps") / reg.value("fleet.rounds") >= 2
    # Simulated seconds are the fleet's clock, not the sum of runs.
    assert reg.value("sim.engine.virtual_time") == pytest.approx(1.0)
    # One run_wall entry per run, as for solo runs.
    assert reg.timer("runtime.run_wall").count == 4


def test_counters_identical_for_jobs_1_and_2_on_a_two_batch_grid(tmp_path):
    specs = grid_specs(BATCH_WIDTH + 2)
    counters, results = [], []
    for jobs in (1, 2):
        with isolated() as reg:
            runner = ParallelRunner(jobs=jobs, cache=ResultCache(tmp_path / f"j{jobs}"))
            results.append(runner.run(specs))
        assert runner.metrics.batches == 2
        counters.append(reg.counters())
    assert counters[0] == counters[1]
    assert results[0] == results[1]


def test_keep_going_member_failure_leaves_none_only_in_its_slot():
    specs = grid_specs(4)
    specs[2] = characterization_spec(CFG, workload="no-such-benchmark", duration=1.0)
    runner = ParallelRunner(keep_going=True, retry_policy=FAST_RETRIES)
    with pytest.warns(RuntimeWarning, match="rerunning each run solo"):
        results = runner.run(specs)
    assert results[2] is None
    assert [results[i] for i in (0, 1, 3)] == [execute_spec(specs[i]) for i in (0, 1, 3)]
    assert runner.metrics.batch_fallbacks == 1
    assert runner.metrics.abandoned == 1
    assert runner.failure_report.fatal_indices == [2]
    assert [f.error_type for f in runner.failure_report.failures] == ["ConfigurationError"]


def test_partially_cached_grid_runs_only_the_misses(tmp_path):
    specs = grid_specs(6)
    ParallelRunner(cache=ResultCache(tmp_path)).run(specs[::2])
    runner = ParallelRunner(cache=ResultCache(tmp_path))
    results = runner.run(specs)
    assert runner.metrics.cache_hits == 3
    assert runner.metrics.executed == 3
    assert runner.metrics.batches == 1
    assert results == ParallelRunner().run(specs)


@pytest.mark.parametrize(
    "override",
    [
        {"c1e_enabled": False},
        {"num_cores": 2},
        {"smt": 2},
        {"thermal": thermal_params.default()},
    ],
)
def test_fleet_rejects_node_configs_with_different_physics(override):
    with pytest.raises(ConfigurationError, match="physics"):
        FleetMachine([CFG, CFG.scaled(**override)])


@pytest.mark.parametrize("smt", [1, 2])
def test_residency_partitions_the_run_on_every_node_of_a_mixed_batch(smt):
    """Per-core C-state residency sums to the elapsed time on every node
    of a heterogeneous fleet: random and deterministic injection, a VFS
    point and a TCC duty, each with and without SMT."""
    settings = [
        {},
        {"p": 0.5, "idle_quantum": 0.010},
        {"p": 0.25, "idle_quantum": 0.005, "deterministic": True},
        {"p": 0.25, "operating_point": list(xeon_e5520_table())[1]},
        {"p": 0.5, "idle_quantum": 0.001, "tcc": setpoints(8)[2]},
    ]
    config = CFG.scaled(smt=smt)
    fleet = FleetMachine([config.with_seed(seed) for seed in range(len(settings))])
    for node, params in zip(fleet.nodes, settings):
        if "operating_point" in params:
            node.chip.set_operating_point(params["operating_point"])
        if "tcc" in params:
            node.chip.set_tcc(params["tcc"])
        node.injector.co_schedule_smt = smt == 2
        if "p" in params:
            node.control.set_global_policy(
                params["p"],
                params.get("idle_quantum", 0.025),
                deterministic=params.get("deterministic", False),
            )
        for _ in range(config.num_cores * smt):
            node.scheduler.spawn(make_cpu_workload("cpuburn"))
    fleet.run(SHORT)
    for node in fleet.nodes:
        for core in node.chip.cores:
            assert core.residency.total() == pytest.approx(SHORT, rel=1e-9)
    fleet.close()


def test_fleet_accepts_node_configs_that_differ_outside_physics():
    fleet = FleetMachine([CFG, CFG.scaled(seed=5, quantum=0.05, measure_window=5.0)])
    assert [node.config.seed for node in fleet.nodes] == [CFG.seed, 5]


@pytest.mark.parametrize("health", [False, True])
def test_closed_fleet_is_freed_by_reference_counting(health):
    fleet = FleetMachine([CFG, CFG.with_seed(1)])
    if health:
        fleet.attach_health()
    for node in fleet.nodes:
        node.scheduler.spawn(make_cpu_workload("cpuburn"))
    fleet.run(1.0)
    node_ref = weakref.ref(fleet.nodes[1])
    meter_ref = weakref.ref(fleet.nodes[1].powermeter)
    fleet.close()
    del node
    gc.disable()
    try:
        del fleet
        assert node_ref() is None and meter_ref() is None
    finally:
        gc.enable()


def _machine_characterization(
    config,
    *,
    duration,
    workload="cpuburn",
    p=0.0,
    idle_quantum=0.025,
    deterministic=False,
    operating_point=None,
    tcc=None,
):
    """The single-Machine characterization run, written out by hand."""
    machine = Machine(config)
    if operating_point is not None:
        machine.chip.set_operating_point(operating_point)
    if tcc is not None:
        machine.chip.set_tcc(tcc)
    if p > 0:
        machine.control.set_global_policy(p, idle_quantum, deterministic=deterministic)
    for i in range(config.num_cores):
        machine.scheduler.spawn(make_cpu_workload(workload), name=f"{workload}-{i}")
    machine.run(duration)
    mean_temp = machine.mean_core_temp_over_window()
    return CharacterizationResult(
        workload=workload,
        p=p,
        idle_quantum=idle_quantum,
        duration=duration,
        mean_temp=mean_temp,
        temp_rise=mean_temp - machine.idle_mean_temp,
        idle_temp=machine.idle_mean_temp,
        work=machine.total_work_done(),
        energy=machine.energy(),
        details={
            "injected_quanta": float(machine.scheduler.stats.injected_quanta),
            "dispatches": float(machine.scheduler.stats.dispatches),
            "injection_fraction": machine.injector.stats.injection_fraction,
        },
    )


@pytest.mark.parametrize(
    "params",
    [
        {},
        {"p": 0.5, "idle_quantum": 0.010, "deterministic": True},
        {"p": 0.25, "operating_point": list(xeon_e5520_table())[0], "workload": "namd"},
    ],
)
def test_batch_of_one_equals_a_machine_run(params):
    expected = _machine_characterization(CFG, duration=SHORT, **params)
    assert run_characterization(CFG, duration=SHORT, **params) == expected
    assert run_characterizations([(CFG, dict(params, duration=SHORT))]) == [expected]


def test_bad_run_parameters_are_rejected_before_simulating():
    with pytest.raises(ConfigurationError):
        run_characterization(CFG, duration=-1.0)
    with pytest.raises(TypeError):
        run_characterization(CFG, no_such_param=1)


# ----------------------------------------------------------------------
# Fallback and deadlines, on a simulation-free batchable kind
# ----------------------------------------------------------------------
def _echo(config, *, value, batch_sleep=0.0):
    return value


def _echo_batch(runs):
    time.sleep(max(params.get("batch_sleep", 0.0) for _, params in runs))
    if any(params["value"] < 0 for _, params in runs):
        raise RuntimeError("a member failed inside the batch")
    return [params["value"] for _, params in runs]


register_executor("test_echo", _echo, batch=_echo_batch)
register_executor("test_echo_solo", _echo)


def echo_specs(values, **params):
    return [RunSpec(kind="test_echo", config=None, params=dict(value=v, **params)) for v in values]


def test_failed_batch_reruns_its_members_solo():
    runner = ParallelRunner(retry_policy=FAST_RETRIES)
    with pytest.warns(RuntimeWarning, match="a member failed inside the batch"):
        assert runner.run(echo_specs([1, -2, 3])) == [1, -2, 3]
    assert runner.metrics.batches == 1
    assert runner.metrics.batch_fallbacks == 1
    assert runner.metrics.executed == 3
    assert runner.metrics.failures == 0  # no run failed on its own


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_deadline_is_its_width_times_the_timeout(jobs):
    # A solo unit alongside, so jobs=2 runs the pool.
    solo = RunSpec(kind="test_echo_solo", config=None, params={"value": 0})
    runner = ParallelRunner(jobs=jobs, timeout=0.2, start_method="fork")
    # 0.3 s is over the per-run timeout but inside the 3-run batch's.
    assert runner.run(echo_specs([1, 2, 3], batch_sleep=0.3) + [solo]) == [1, 2, 3, 0]
    assert runner.metrics.batch_fallbacks == 0
    # 5 s overruns it: the batch is stopped and its members run solo.
    start = time.monotonic()
    with pytest.warns(RuntimeWarning, match="RunTimeoutError"):
        assert runner.run(echo_specs([4, 5, 6], batch_sleep=5.0) + [solo]) == [4, 5, 6, 0]
    assert time.monotonic() - start < 4.0
    assert runner.metrics.batch_fallbacks == 1
    assert runner.metrics.timeouts == 0


def test_task_make_up_ignores_jobs_and_keeps_faulted_members_solo():
    from repro.faults import FaultPlan

    runner = ParallelRunner(retry_policy=FAST_RETRIES, fault_plan=FaultPlan.parse("crash@1"))
    values = list(range(2 * BATCH_WIDTH + 1))
    assert runner.run(echo_specs(values)) == values
    # The crash target ran solo; the other 32 runs filled two batches.
    assert runner.metrics.batches == 2
    assert runner.metrics.retries == 1
    assert [f.index for f in runner.failure_report.failures] == [1]
    assert all(f.recovered for f in runner.failure_report.failures)
