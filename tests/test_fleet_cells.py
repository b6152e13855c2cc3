"""Tests for rack cells: the fleet experiments' batchable unit of work.

Covers the cache-key contract (every cell parameter and the fleet
source trees participate; a fleet edit leaves physics-only keys alone),
the JSON cache round trip, and the equivalence guarantees: runner path
== direct call, pooled == serial, cached replay == fresh execution with
zero simulations.
"""

import dataclasses

import pytest

from repro.errors import ExecutionError
from repro.experiments import fast_config
from repro.fleet.cells import (
    FLEET_MODULES,
    RACK_CELL_KIND,
    RackCellResult,
    rack_cell_spec,
    run_rack_cell,
)
from repro.health import HealthParams
from repro.runtime import ParallelRunner, ResultCache, code_fingerprint, run_kind, run_required
from repro.runtime.hashing import PHYSICS_MODULES
from repro.runtime.parallel import execute_spec
from repro.telemetry import isolated

#: One tiny rack cell: enough simulated time for a QoS window
#: (warmup 1s + scoring span + 5s drain) but cheap enough to run
#: several times per test module.
CELL = dict(machines=1, duration=8.0, warmup=1.0, p=0.5, idle_quantum=0.05)


@pytest.fixture(scope="module")
def config():
    return fast_config(0)


# ======================================================================
# Cache-key sensitivity
# ======================================================================
def test_identical_cells_share_a_key(config):
    assert rack_cell_spec(config, **CELL).key == rack_cell_spec(config, **CELL).key


@pytest.mark.parametrize(
    "change",
    [
        {"p": 0.6},
        {"idle_quantum": 0.025},
        {"machines": 2},
        {"duration": 9.0},
        {"policy": "coolest"},
        {"shape": "diurnal", "rate": 40.0},
        {"health": HealthParams(warning_rise=2.0)},
        {"health_per_machine": False},
        {"slo_window": (1.0, 3.0, 1.0)},
        {"dvfs_min": True},
        {"tcc_duty": 0.5},
        {"heat_and_run": True},
    ],
)
def test_every_cell_parameter_changes_the_key(config, change):
    assert (
        rack_cell_spec(config, **CELL).key
        != rack_cell_spec(config, **{**CELL, **change}).key
    )


def test_seed_changes_the_key(config):
    other = fast_config(1)
    assert rack_cell_spec(config, **CELL).key != rack_cell_spec(other, **CELL).key


def _edit_source(monkeypatch, *relative):
    """Make the fingerprint see ``# edited`` appended to one source
    file (path relative to the ``repro`` package), with a fresh memo."""
    from pathlib import Path

    from repro.runtime import hashing

    edited = Path(hashing.__file__).resolve().parent.parent.joinpath(*relative)
    assert edited.is_file(), edited
    read_bytes = Path.read_bytes
    monkeypatch.setattr(
        Path,
        "read_bytes",
        lambda path: read_bytes(path) + (b"# edited" if path == edited else b""),
    )
    monkeypatch.setattr(hashing, "_fingerprints", {})


def test_fleet_code_edit_invalidates_rack_cells_only(config, monkeypatch):
    """A fleet-layer edit must change rack-cell keys without touching
    the figure sweeps', whose entries are far more expensive."""
    from repro.runtime import characterization_spec

    cell_before = rack_cell_spec(config, **CELL).key
    sweep_before = characterization_spec(config, p=0.5).key
    _edit_source(monkeypatch, "fleet", "balancer.py")
    assert rack_cell_spec(config, **CELL).key != cell_before
    assert characterization_spec(config, p=0.5).key == sweep_before


def test_machine_wiring_edit_invalidates_figure_sweeps(config, monkeypatch):
    """Every single-machine run executes the fleet wiring module, so an
    edit there must change characterization keys."""
    from repro.runtime import characterization_spec

    sweep_before = characterization_spec(config, p=0.5).key
    _edit_source(monkeypatch, "fleet", "machine.py")
    assert characterization_spec(config, p=0.5).key != sweep_before


def test_fleet_fingerprint_is_distinct_from_physics():
    """Rack cells are keyed by the physics and fleet trees together;
    the two sets must not overlap, so an edit to a fleet-only module
    invalidates exactly one class of entries."""
    declared = run_kind(RACK_CELL_KIND).code
    assert declared == PHYSICS_MODULES + FLEET_MODULES
    assert not set(FLEET_MODULES) & set(PHYSICS_MODULES)
    assert code_fingerprint(declared) != code_fingerprint(PHYSICS_MODULES)
    assert len(code_fingerprint(declared)) == 64


# ======================================================================
# Execution and the cache codec
# ======================================================================
@pytest.fixture(scope="module")
def cell_result(config):
    return run_rack_cell(
        config, **CELL, shape="constant", rate=40.0, slo_window=(1.0, 3.0, 1.0)
    )


def test_run_rack_cell_measures_a_rack(cell_result):
    assert cell_result.run.requests > 0
    assert cell_result.run.mean_temp > cell_result.idle_mean_temp
    assert cell_result.slo is not None and len(cell_result.slo.windows) > 0
    assert cell_result.health is not None and "totals" in cell_result.health


#: Telemetry of one desynchronised 4-machine web rack cell (per-node
#: Poisson arrivals, monitors sampling every 50 ms, p=0.65, 1 simulated
#: second).  Any change to event dispatch order — tie-breaks included —
#: moves these counts.
PINNED_CELL_COUNTS = {
    "sim.engine.events": 1073,
    "sched.scheduler.dispatches": 328,
    "sched.scheduler.injected_quanta": 296,
    "core.injector.decisions": 459,
    "fleet.segments": 1167,
    "fleet.balancer.routed": 165,
    "health.samples": 76,
    "health.alerts": 8,
}


def test_desynchronised_web_rack_cell_counts_are_pinned(config):
    health = HealthParams(
        period=0.05, noisy=True, warning_rise=0.5, critical_rise=1.5, hysteresis=0.2
    )
    with isolated() as reg:
        run_rack_cell(
            config,
            machines=4,
            duration=1.0,
            warmup=0.0,
            p=0.65,
            idle_quantum=0.01,
            health=health,
        )
    counts = {name: reg.value(name) for name in PINNED_CELL_COUNTS}
    assert counts == PINNED_CELL_COUNTS
    assert reg.value("sim.engine.virtual_time") == pytest.approx(1.0, rel=1e-12)


def test_cell_result_is_plain_data(cell_result):
    """No numpy scalars anywhere: the JSON codec must round-trip the
    exact values, and ``json.dump`` rejects numpy types outright."""

    def check(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                check(item, f"{path}.{key}")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                check(item, f"{path}[{i}]")
        elif value is not None:
            assert type(value) in (bool, int, float, str), (path, type(value))

    check(dataclasses.asdict(cell_result), "result")


def test_cache_round_trip_is_bit_identical(cell_result, tmp_path):
    cache = ResultCache(tmp_path)
    spec_key = "ab" * 32
    cache.put(spec_key, cell_result)
    loaded = cache.get(spec_key)
    assert isinstance(loaded, RackCellResult)
    assert loaded == cell_result
    assert cache.stats.hits == 1 and cache.stats.corrupt == 0


def test_runner_path_equals_direct_call(config):
    spec = rack_cell_spec(config, **CELL)
    direct = execute_spec(spec)
    [via_runner] = ParallelRunner(jobs=1).run([spec])
    assert direct == via_runner


def test_pooled_cells_match_serial(config):
    specs = [rack_cell_spec(config, **{**CELL, "p": p}) for p in (0.0, 0.5)]
    # A recorded-trace load shape too: its replayed arrivals cross the
    # process boundary like every other cell input.
    specs.append(rack_cell_spec(config, **CELL, shape="trace", rate=40.0))
    serial = ParallelRunner(jobs=1).run(specs)
    pooled = ParallelRunner(jobs=2).run(specs)
    assert serial == pooled


def test_cached_replay_executes_nothing(config, tmp_path):
    spec = rack_cell_spec(config, **CELL)
    warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    [fresh] = warm.run([spec])
    assert warm.metrics.executed == 1 and warm.metrics.cache_stores == 1

    replay = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    [cached] = replay.run([spec])
    assert replay.metrics.executed == 0 and replay.metrics.cache_hits == 1
    assert cached == fresh


def test_unknown_result_kind_is_schema_stale_not_corrupt(tmp_path):
    """An entry written by a process with more codecs loaded must not
    be quarantined: for this process it is stale, not garbage."""
    import json

    cache = ResultCache(tmp_path)
    key = "cd" * 32
    path = cache.path(key)
    path.parent.mkdir(parents=True)
    path.write_text(
        json.dumps({"schema": 1, "kind": "from-the-future", "result": {}})
    )
    assert cache.get(key) is None
    assert cache.stats.schema_stale == 1
    assert cache.stats.corrupt == 0 and cache.stats.quarantined == 0
    assert path.exists()  # still there for the process that can read it


class _FixedRunner:
    """A runner stand-in that hands back fixed results."""

    def __init__(self, results):
        self.results = results

    def run(self, specs):
        return list(self.results)


def test_run_required_raises_on_missing():
    required = {0: "baseline", 1: "injected"}
    with pytest.raises(ExecutionError, match="fleet: the baseline run failed"):
        run_required("fleet", [None, None], _FixedRunner([None, object()]), required)
    run_required("fleet", [None, None], _FixedRunner([object(), None]), {0: "baseline"})
    with pytest.raises(ExecutionError, match="fleet: 1 of 2 runs failed"):
        run_required("fleet", [None, None], _FixedRunner([object(), None]))


def test_rack_cell_executor_is_registered():
    declared = run_kind(RACK_CELL_KIND)
    assert declared.executor is run_rack_cell
    assert declared.result is RackCellResult
