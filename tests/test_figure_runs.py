"""The single-machine figure runs as run kinds: Figure 1's trace pair,
Figure 2's transient, Figure 5's hot/cool mix and Figure 6's web run.

Each batched result must equal its batch of one and the same run wired
by hand on a :func:`~repro.experiments.machine.Machine` (a fleet of
one's node 0); runs that differ only in per-run settings (health
monitors included) must share one fleet; cached
results must round-trip exactly; and the figures must reject inputs
that would score nothing before any machine is built."""

import math

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, WorkloadError
from repro.experiments import Machine, fast_config
from repro.experiments import runner as runner_module
from repro.experiments.figures import fig2_temperature_timeseries, fig6_webserver_qos
from repro.fleet import FleetMachine
from repro.experiments.runner import (
    HOT_COOL_MIX_KIND,
    POWER_TRACE_KIND,
    TRANSIENT_KIND,
    WEB_QOS_KIND,
    HotCoolMixResult,
    TransientResult,
    WebQosResult,
    make_cpu_workload,
    run_finite_cpuburn,
)
from repro.health import HealthParams
from repro.runtime import ParallelRunner, ResultCache, RunSpec, run_kind
from repro.workloads import CpuBurn, DutyCycledBurn, FiniteCpuBurn
from repro.workloads.mixes import build_hot_cool_mix
from repro.workloads.webserver import QOS_GOOD, QOS_TOLERABLE, WebServer

CFG = fast_config(5)
SHORT = 4.0  # simulated seconds
WEB_DURATION, WEB_WARMUP = 9.0, 2.0


# ----------------------------------------------------------------------
# Hand-wired references: the figures' bodies before they became kinds
# ----------------------------------------------------------------------
def _machine_transient(config, *, p, idle_quantum, duration, health=None):
    machine = Machine(config)
    monitor = machine.attach_health(health)
    if p > 0:
        machine.control.set_global_policy(p, idle_quantum)
    for i in range(config.num_cores):
        machine.scheduler.spawn(make_cpu_workload("cpuburn"), name=f"burn-{i}")
    machine.run(duration)
    monitor.stop()
    monitor.finalize()
    rise = machine.templog.samples.mean(axis=1) - machine.idle_mean_temp
    return TransientResult(
        times=machine.templog.times.tolist(), rise=rise.tolist(), health=monitor.summary()
    )


def _machine_mix(config, *, mode, p, idle_quantum, burn_time, sleep_time, duration):
    machine = Machine(config)
    mix = build_hot_cool_mix(machine.scheduler, burn_time=burn_time, sleep_time=sleep_time)
    if p > 0:
        if mode == "global":
            machine.control.set_global_policy(p, idle_quantum)
        else:
            for thread in mix.hot_threads:
                machine.control.set_thread_policy(thread, p, idle_quantum)
    machine.run(duration)
    return HotCoolMixResult(
        mean_temp=machine.mean_core_temp_over_window(),
        idle_temp=machine.idle_mean_temp,
        cool_work=mix.cool_thread.stats.work_done,
    )


def _machine_web(config, *, p, idle_quantum, duration, warmup):
    machine = Machine(config)
    server = WebServer(machine.scheduler, machine.rng.stream("web"))
    if p > 0:
        machine.control.set_global_policy(p, idle_quantum)
    machine.run(duration)
    span = dict(start=warmup, end=duration - QOS_TOLERABLE)
    return WebQosResult(
        mean_temp=machine.mean_core_temp_over_window(),
        idle_temp=machine.idle_mean_temp,
        qos_good=server.log.qos_fraction(QOS_GOOD, **span),
        qos_tolerable=server.log.qos_fraction(QOS_TOLERABLE, **span),
        mean_response=server.log.mean_response_time(**span),
        offered_load_per_core=server.offered_load_per_core,
    )


#: kind -> (hand-wired reference, params of a small heterogeneous batch).
CASES = {
    TRANSIENT_KIND: (
        _machine_transient,
        [
            dict(p=0.0, idle_quantum=0.1, duration=SHORT),
            dict(p=0.5, idle_quantum=0.1, duration=SHORT),
            dict(p=0.75, idle_quantum=0.025, duration=SHORT),
            dict(p=0.5, idle_quantum=0.05, duration=3.0),
            dict(p=0.25, idle_quantum=0.1, duration=SHORT, health=HealthParams(period=0.5)),
        ],
    ),
    HOT_COOL_MIX_KIND: (
        _machine_mix,
        [
            dict(mode=mode, p=p, idle_quantum=0.01, burn_time=0.5, sleep_time=1.0, duration=SHORT)
            for mode, p in (("global", 0.0), ("per-thread", 0.5), ("global", 0.5), ("global", 0.75))
        ],
    ),
    WEB_QOS_KIND: (
        _machine_web,
        [
            dict(p=p, idle_quantum=L, duration=WEB_DURATION, warmup=WEB_WARMUP)
            for p, L in ((0.0, 0.1), (0.5, 0.025), (0.75, 0.05))
        ],
    ),
}


@pytest.fixture(scope="module")
def batched():
    """Each kind's batch, run once: kind -> results in batch order."""
    return {
        kind: run_kind(kind).batch([(CFG, p) for p in runs]) for kind, (_, runs) in CASES.items()
    }


@pytest.mark.parametrize("kind", sorted(CASES))
def test_batched_runs_equal_a_batch_of_one_and_a_machine_run(kind, batched):
    reference, runs = CASES[kind]
    for params, result in zip(runs, batched[kind]):
        assert result == run_kind(kind).executor(CFG, **params)
        assert result == reference(CFG, **params)


def test_transient_health_reports_machine_zero(batched):
    # Node j's monitor is numbered j; each run reports what it would alone.
    assert [r.health["machine"] for r in batched[TRANSIENT_KIND]] == [0] * len(
        CASES[TRANSIENT_KIND][1]
    )
    assert any(r.health["samples"] > 0 for r in batched[TRANSIENT_KIND])


def test_transients_share_a_fleet_whatever_their_health_params(monkeypatch, batched):
    """Health monitors are per node, so only physics and run length
    split a batch: the SHORT transients (one with its own
    :class:`HealthParams`) run as one fleet, the 3 s one as another."""
    builds = []

    def counting(configs, *args, **kwargs):
        builds.append(len(configs))
        return FleetMachine(configs, *args, **kwargs)

    monkeypatch.setattr(runner_module, "FleetMachine", counting)
    _, runs = CASES[TRANSIENT_KIND]
    results = run_kind(TRANSIENT_KIND).batch([(CFG, p) for p in runs])
    assert builds == [4, 1]
    assert results == batched[TRANSIENT_KIND]
    for params, result in zip(runs, results):
        assert result == run_kind(TRANSIENT_KIND).executor(CFG, **params)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_reversed_batch_gives_the_same_results(kind, batched):
    _, runs = CASES[kind]
    reversed_results = run_kind(kind).batch([(CFG, p) for p in reversed(runs)])
    assert list(reversed(reversed_results)) == batched[kind]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cached_results_round_trip_exactly(kind, batched, tmp_path):
    cache = ResultCache(tmp_path)
    for index, result in enumerate(batched[kind]):
        key = f"{index:x}" * 64
        cache.put(key, result)
        loaded = ResultCache(tmp_path).get(key)
        assert type(loaded) is type(result) and loaded == result


def test_power_trace_round_trips_through_the_cache(tmp_path):
    params = dict(work_per_thread=0.5, p=0.5, idle_quantum=0.1, sample_period=0.02)
    spec = RunSpec(POWER_TRACE_KIND, CFG, params)
    cache = ResultCache(tmp_path)
    (fresh,) = ParallelRunner(cache=cache).run([spec])
    (replayed,) = ParallelRunner(cache=cache).run([spec])
    assert replayed == fresh
    assert cache.stats.hits == 1


def test_transient_kind_is_keyed_by_the_health_sources():
    assert "health" in run_kind(TRANSIENT_KIND).code
    assert "health" not in run_kind(HOT_COOL_MIX_KIND).code


def test_fig2_through_a_worker_pool_equals_serial():
    # 17 runs split into two batch tasks, so two workers take one each.
    ps = tuple(0.05 * i for i in range(17))
    serial = fig2_temperature_timeseries(CFG, ps=ps, duration=SHORT)
    runner = ParallelRunner(jobs=2)
    pooled = fig2_temperature_timeseries(CFG, ps=ps, duration=SHORT, runner=runner)
    assert runner.metrics.batches == 2
    assert pooled.render() == serial.render()
    assert pooled.health_payload() == serial.health_payload()


def test_fig2_jobs2_is_served_from_the_cache_on_a_second_run(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    assert main(["fig2", "--jobs", "2", "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert "4 executed, 0 cached | jobs=2" in first
    assert main(["fig2", "--jobs", "2", "--cache-dir", cache_dir]) == 0
    second = capsys.readouterr().out
    assert "0 executed, 4 cached | jobs=2" in second
    strip = lambda text: [line for line in text.splitlines() if not line.startswith("[")]
    assert strip(second) == strip(first)


# ----------------------------------------------------------------------
# Inputs that would score nothing, rejected before a machine is built
# ----------------------------------------------------------------------
@pytest.fixture
def no_machines(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a machine was built")

    monkeypatch.setattr(runner_module, "Machine", refuse)
    monkeypatch.setattr(runner_module, "FleetMachine", refuse)


def test_fig6_rejects_an_empty_scoring_span(no_machines):
    # 8 s - 5 s drain <= 6 s warmup: no request would be scored.
    with pytest.raises(ConfigurationError, match="no scoring span"):
        fig6_webserver_qos(CFG, configs=((0.5, 0.05),), duration=8.0, warmup=6.0)
    with pytest.raises(ConfigurationError, match="no scoring span"):
        run_kind(WEB_QOS_KIND).executor(CFG, duration=8.0, warmup=6.0)
    with pytest.raises(ConfigurationError, match="no scoring span"):
        run_kind(WEB_QOS_KIND).executor(CFG, duration=20.0, warmup=math.nan)


@pytest.mark.parametrize(
    "params",
    [
        dict(total_cpu=math.inf, max_duration=math.nan),
        dict(total_cpu=math.nan),
        dict(total_cpu=math.inf),
        dict(total_cpu=1.0, max_duration=math.nan),
        dict(total_cpu=1.0, window=math.nan),
        dict(total_cpu=1.0, window=math.inf),
    ],
)
def test_finite_run_rejects_non_finite_lengths(no_machines, params):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        run_finite_cpuburn(CFG, **params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_workloads_reject_non_finite_lengths(bad):
    with pytest.raises(WorkloadError):
        CpuBurn(chunk=bad)
    with pytest.raises(WorkloadError):
        FiniteCpuBurn(bad)
    with pytest.raises(WorkloadError):
        DutyCycledBurn(burn_time=bad)
    with pytest.raises(WorkloadError):
        DutyCycledBurn(sleep_time=bad)


def test_mix_rejects_an_unknown_mode(no_machines):
    with pytest.raises(ConfigurationError, match="mode"):
        run_kind(HOT_COOL_MIX_KIND).executor(CFG, mode="hot-only", duration=SHORT)
