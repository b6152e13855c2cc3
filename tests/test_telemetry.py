"""Tests for the telemetry spine: registry semantics, cross-worker
aggregation, hot-path wiring, and manifest round-trips."""

import json

import pytest

from repro.errors import TelemetryError
from repro.experiments import fast_config
from repro.runtime import ParallelRunner, ResultCache, characterization_spec
from repro.telemetry import (
    MANIFEST_SCHEMA_VERSION,
    MetricsRegistry,
    RunManifest,
    git_describe,
    isolated,
    registry,
    set_registry,
)

CFG = fast_config()
SHORT = 4.0


def short_specs(n=3):
    return [
        characterization_spec(CFG, p=0.1 * (i + 1), idle_quantum=0.01, duration=SHORT)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_decrease():
    reg = MetricsRegistry()
    counter = reg.counter("a.b")
    counter.inc()
    counter.inc(2)
    counter.inc(0.5)  # float counters (injected_time, virtual_time)
    assert reg.value("a.b") == 3.5
    with pytest.raises(TelemetryError):
        counter.inc(-1)


def test_same_name_returns_same_metric():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TelemetryError, match="already registered"):
        reg.gauge("x")


def test_gauge_set_and_merge_takes_max():
    reg = MetricsRegistry()
    gauge = reg.gauge("g")
    assert gauge.snapshot() is None
    gauge.set(3)
    gauge.merge(7)
    gauge.merge(None)
    gauge.merge(5)
    assert gauge.snapshot() == 7


def test_timer_context_accumulates():
    reg = MetricsRegistry()
    timer = reg.timer("t")
    with timer.time():
        pass
    with timer.time():
        pass
    assert timer.count == 2
    assert timer.total >= 0.0
    with pytest.raises(TelemetryError):
        timer.add(-1.0)


def test_histogram_summary_and_merge():
    a, b = MetricsRegistry(), MetricsRegistry()
    for v in (1.0, 3.0):
        a.histogram("h").observe(v)
    b.histogram("h").observe(8.0)
    a.merge(b.snapshot())
    h = a.histogram("h")
    assert (h.count, h.sum, h.min, h.max) == (3, 12.0, 1.0, 8.0)
    assert h.mean == 4.0
    with pytest.raises(TelemetryError):
        MetricsRegistry().histogram("empty").mean


def test_scope_prefixes_names():
    reg = MetricsRegistry()
    scope = reg.scope("sim.engine")
    scope.counter("events").inc(5)
    scope.scope("deep").counter("x").inc()
    assert reg.value("sim.engine.events") == 5
    assert reg.value("sim.engine.deep.x") == 1


def test_snapshot_merge_roundtrip_equals_original():
    reg = MetricsRegistry()
    reg.counter("c").inc(4)
    reg.gauge("g").set(2.5)
    reg.timer("t").add(0.25)
    reg.histogram("h").observe(9)
    snap = reg.snapshot()
    json.dumps(snap)  # must be JSON-serialisable as-is
    other = MetricsRegistry()
    other.merge(snap)
    assert other.snapshot() == snap


def test_merge_rejects_unknown_kind():
    with pytest.raises(TelemetryError, match="unknown metric kind"):
        MetricsRegistry().merge({"x": {"kind": "sparkline", "value": 1}})


def test_counters_view_is_flat_and_sorted():
    reg = MetricsRegistry()
    reg.counter("b").inc(2)
    reg.counter("a").inc(1)
    reg.gauge("z").set(9)
    assert reg.counters() == {"a": 1, "b": 2}


def test_isolated_swaps_and_restores():
    before = registry()
    with isolated() as fresh:
        assert registry() is fresh
        assert fresh is not before
        fresh.counter("inner").inc()
    assert registry() is before
    assert "inner" not in before


def test_isolated_restores_on_exception():
    before = registry()
    with pytest.raises(RuntimeError):
        with isolated():
            raise RuntimeError("boom")
    assert registry() is before


def test_set_registry_returns_previous():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        assert registry() is fresh
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# Hot-path wiring
# ----------------------------------------------------------------------
def test_simulation_publishes_engine_scheduler_injector_thermal_metrics():
    from repro.experiments.runner import run_characterization

    with isolated() as reg:
        result = run_characterization(CFG, p=0.5, idle_quantum=0.01, duration=SHORT)
    assert reg.value("sim.engine.events") > 0
    assert reg.value("sim.engine.virtual_time") == pytest.approx(SHORT)
    assert reg.value("sched.scheduler.dispatches") > 0
    assert reg.value("core.injector.decisions") > 0
    assert reg.value("core.injector.injections") > 0
    assert reg.value("core.injector.injected_time") == pytest.approx(
        result.details["injected_quanta"] * 0.01
    )
    # One simulation advance per recorded segment, at least one substep each.
    assert reg.value("fleet.segments") > 0
    assert reg.value("fleet.substeps") >= reg.value("fleet.segments")
    assert reg.timer("fleet.advance_wall").count == reg.value("fleet.segments")
    # The direct-integrator counters stay silent: no advance counts twice.
    assert reg.value("thermal.rcnetwork.advances", 0) == 0
    assert reg.timer("sim.engine.run_wall").total > 0


# ----------------------------------------------------------------------
# Cross-worker aggregation
# ----------------------------------------------------------------------
def test_pool_aggregation_equals_serial_aggregation(tmp_path):
    """The acceptance criterion: every counter a --jobs N batch merges
    from its workers must exactly equal the serial batch's counters."""
    specs = short_specs(3)
    with isolated() as serial_reg:
        serial_runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path / "a"))
        serial_runner.run(specs)
    with isolated() as pool_reg:
        pool_runner = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "b"))
        pool_runner.run(specs)

    serial, pool = serial_reg.counters(), pool_reg.counters()
    assert set(serial) == set(pool)
    assert serial == pool  # bit-identical counts, injections included
    assert serial["runtime.runner.executed"] == 3
    # Timers differ in wall time but must agree on the number of runs.
    assert serial_reg.timer("runtime.run_wall").count == 3
    assert pool_reg.timer("runtime.run_wall").count == 3


def test_cache_hits_counted_in_runner_registry(tmp_path):
    specs = short_specs(2)
    with isolated() as reg:
        ParallelRunner(cache=ResultCache(tmp_path)).run(specs)
        ParallelRunner(cache=ResultCache(tmp_path)).run(specs)
    assert reg.value("runtime.runner.executed") == 2
    assert reg.value("runtime.runner.cache_hits") == 2
    assert reg.value("runtime.cache.hits") == 2
    assert reg.value("runtime.cache.misses") == 2
    assert reg.value("runtime.cache.stores") == 2
    # Cached replays simulate nothing: engine events counted only once.
    with isolated() as replay:
        ParallelRunner(cache=ResultCache(tmp_path)).run(specs)
    assert replay.value("sim.engine.events") is None


def test_failed_attempts_do_not_double_count(tmp_path):
    from repro.runtime import RunSpec, register_executor

    def flaky_with_metrics(config, *, marker):
        import pathlib

        registry().counter("test.flaky_work").inc()
        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("attempted")
            raise RuntimeError("transient failure")
        return 42

    register_executor("test_flaky_metrics", flaky_with_metrics)
    spec = RunSpec(
        kind="test_flaky_metrics", config=None, params={"marker": str(tmp_path / "m")}
    )
    with isolated() as reg:
        runner = ParallelRunner(jobs=1)
        assert runner.run([spec]) == [42]
    # The failed attempt's increment was discarded with its registry.
    assert reg.value("test.flaky_work") == 1
    assert reg.value("runtime.runner.failures") == 1
    assert reg.value("runtime.runner.retries") == 1


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def sample_manifest() -> RunManifest:
    return RunManifest(
        experiments=["smoke"],
        seed=0,
        config_hash="c" * 64,
        code_fingerprint="f" * 64,
        jobs=2,
        git="abc1234",
        created="2026-08-06T00:00:00+00:00",
        timings={"smoke": 1.25},
        runner={"submitted": 5, "executed": 5, "cache_hits": 0},
        cache={"hits": 0, "misses": 5},
        metrics={"sim.engine.events": {"kind": "counter", "value": 10}},
    )


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "out" / "manifest.json"
    original = sample_manifest()
    original.write(path)
    assert RunManifest.load(path) == original
    # No temp file left behind by the atomic write.
    assert [p.name for p in path.parent.iterdir()] == ["manifest.json"]


def test_manifest_load_rejects_bad_inputs(tmp_path):
    with pytest.raises(TelemetryError, match="cannot read"):
        RunManifest.load(tmp_path / "missing.json")

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{ not json")
    with pytest.raises(TelemetryError, match="not valid JSON"):
        RunManifest.load(garbled)

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(TelemetryError, match="not a JSON object"):
        RunManifest.load(not_object)

    payload = json.loads(sample_manifest().to_json())
    stale = tmp_path / "stale.json"
    payload["schema"] = MANIFEST_SCHEMA_VERSION + 1
    stale.write_text(json.dumps(payload))
    with pytest.raises(TelemetryError, match="schema"):
        RunManifest.load(stale)

    payload = json.loads(sample_manifest().to_json())
    payload["surprise"] = True
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(payload))
    with pytest.raises(TelemetryError, match="unknown fields"):
        RunManifest.load(unknown)

    payload = json.loads(sample_manifest().to_json())
    del payload["seed"]
    missing = tmp_path / "short.json"
    missing.write_text(json.dumps(payload))
    with pytest.raises(TelemetryError, match="missing fields"):
        RunManifest.load(missing)


def test_git_describe_in_repo_and_outside(tmp_path):
    # This checkout is a git repository, so a description exists...
    assert isinstance(git_describe(), str)
    # ...and a bare tmp dir yields None rather than an error.
    assert git_describe(tmp_path) is None


def test_manifest_schema_v2_health_section(tmp_path):
    """Schema 2 added the structured health section; it round-trips and
    defaults to empty for health-free runs."""
    assert MANIFEST_SCHEMA_VERSION == 2
    assert sample_manifest().health == {}
    manifest = sample_manifest()
    manifest.health = {
        "fleet": {
            "baseline": {
                "config": {"warning_rise_c": 3.5},
                "totals": {"alerts": 4, "time_in_critical_s": 18.0},
            }
        }
    }
    path = tmp_path / "health.json"
    manifest.write(path)
    loaded = RunManifest.load(path)
    assert loaded == manifest
    assert loaded.health["fleet"]["baseline"]["totals"]["alerts"] == 4
