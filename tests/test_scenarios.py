"""Tests for the ``scenarios`` experiment: shaped fleet arrivals,
windowed SLO scoring, and manifest artifacts."""

import json

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, run_experiment, supports_policy
from repro.errors import ConfigurationError
from repro.experiments import fast_config
from repro.fleet import (
    SCENARIO_SHAPES,
    FleetMachine,
    build_policy,
    build_scenario_arrivals,
    replica_configs,
    scenarios_experiment,
)
from repro.sim import RngRegistry
from repro.workloads import RequestTrace, TraceArrivals, WebServer


# ----------------------------------------------------------------------
# Shape registry
# ----------------------------------------------------------------------
def test_every_registered_shape_generates_arrivals():
    for name in SCENARIO_SHAPES:
        rng = RngRegistry(1).stream("trace")
        process = build_scenario_arrivals(
            name, rate=50.0, duration=20.0, rng=rng
        )
        times, elapsed = [], 0.0
        for gap in process.gaps(RngRegistry(2).stream("drive")):
            assert gap >= 0.0
            elapsed += gap
            if elapsed >= 20.0:
                break
            times.append(elapsed)
        assert len(times) > 50, name  # a 50 req/s shape is not silent


def test_unknown_shape_is_a_configuration_error():
    rng = RngRegistry(1).stream("trace")
    with pytest.raises(ConfigurationError):
        build_scenario_arrivals("sawtooth", rate=50.0, duration=20.0, rng=rng)


def test_trace_shape_is_frozen_per_seed():
    def make():
        rng = RngRegistry(5).stream("trace")
        return build_scenario_arrivals("trace", rate=50.0, duration=20.0, rng=rng)

    a, b = make(), make()
    assert a.trace.times == pytest.approx(b.trace.times)


# ----------------------------------------------------------------------
# Shaped arrivals through the fleet balancer
# ----------------------------------------------------------------------
def test_finite_trace_drives_exact_fleet_arrivals():
    """A finite trace at the balancer produces exactly its arrivals,
    at exactly its timestamps, pooled across the rack."""
    config = fast_config(0)
    fleet = FleetMachine(replica_configs(config, 2))
    servers = [
        WebServer(node.scheduler, node.rng.stream("web"), external_arrivals=True)
        for node in fleet.nodes
    ]
    trace = RequestTrace(tuple(np.linspace(0.5, 4.5, 41)))
    bundle = build_policy(
        "round-robin",
        fleet,
        servers,
        rate=80.0,
        rng=RngRegistry(config.seed).stream("fleet-balancer"),
        arrivals=TraceArrivals(trace),
    )
    fleet.run(6.0)
    bundle.stop()
    pooled = sorted(r.arrival for s in servers for r in s.log.requests)
    assert pooled == pytest.approx(list(trace.times))


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_sweep():
    return scenarios_experiment(
        fast_config(0),
        shapes=("constant", "trace"),
        policies=("round-robin",),
        p_values=(0.6,),  # 0.0 is auto-included as the baseline
    )


def test_sweep_covers_the_grid(small_sweep):
    assert small_sweep.p_values == [0.0, 0.6]
    assert len(small_sweep.rows) == 2 * 1 * 2
    cells = {(row.shape, row.policy, row.p) for row in small_sweep.rows}
    assert ("trace", "round-robin", 0.0) in cells
    for shape in small_sweep.shapes:
        baseline = small_sweep.baseline_for(shape)
        assert baseline.p == 0.0


def test_sweep_scores_windows_consistently(small_sweep):
    for row in small_sweep.rows:
        # The windowed totals are the same requests the rack-level QoS
        # window counted (same span, same half-open convention).
        assert row.report.total_arrivals == row.run.requests
        assert len(row.report.windows) == 5
        assert row.report.windows[0].start == small_sweep.grid.warmup


def test_injection_trades_heat_for_qos(small_sweep):
    for shape in small_sweep.shapes:
        baseline = small_sweep.baseline_for(shape)
        (injected,) = [
            r for r in small_sweep.shape_rows(shape) if r.p == 0.6
        ]
        assert injected.run.mean_temp < baseline.run.mean_temp
        points = small_sweep.tradeoffs(shape)
        assert len(points) == 1
        assert points[0].temp_reduction > 0


#: ``small_sweep.render()``, pinned byte for byte.
SMALL_SWEEP_TABLE = """\
Scenarios: 2 machines x 25s, 2 shapes x 1 policies x 2 p values (window 3.0s, nominal load/core 25.2%; * = Pareto-efficient within its shape)
   shape       policy      p  rise [C]  peak [C]  QoS good  QoS tol.  worst win  viol [s]  p95 [s]  alerts  crit [s]  migr  pareto
--------  -----------  -----  --------  --------  --------  --------  ---------  --------  -------  ------  --------  ----  ------
constant  round-robin  0.000     5.017     6.690    100.0%    100.0%     100.0%         0    0.056       4    28.000     0        
constant  round-robin  0.600     2.751     4.416     99.8%    100.0%      99.2%         0    0.733       3     0.000     0       *
   trace  round-robin  0.000     3.976     6.210    100.0%    100.0%     100.0%         0    0.055       5    16.000     0        
   trace  round-robin  0.600     2.760     4.312     99.9%    100.0%      99.5%         0    0.919       4     0.000     0       *
pareto[constant]: round-robin@p=0.6 (cool 45.2%, QoS cost 0.2%)
pareto[trace]: round-robin@p=0.6 (cool 30.6%, QoS cost 0.1%)"""


def test_render_includes_pareto_frontier(small_sweep):
    text = small_sweep.render()
    assert "Scenarios: 2 machines" in text
    assert "pareto[constant]" in text
    for shape in small_sweep.shapes:
        assert shape in text
    assert text == SMALL_SWEEP_TABLE


def test_manifest_payload_is_strict_json(small_sweep):
    payload = small_sweep.manifest_payload()
    encoded = json.dumps(payload, allow_nan=False)  # raises on any NaN/Inf
    decoded = json.loads(encoded)
    assert decoded["shapes"] == ["constant", "trace"]
    assert len(decoded["runs"]) == len(small_sweep.rows)
    for run in decoded["runs"]:
        series = run["series"]
        assert len(series["start"]) == run["summary"]["windows"] == 5
        assert len(series["good_fraction"]) == 5
        for key in ("good_fraction", "tolerable_fraction", "failed_fraction"):
            assert run["summary"][key] is None or 0.0 <= run["summary"][key] <= 1.0
    assert set(decoded["pareto"]) == {"constant", "trace"}


def test_experiment_validates_inputs():
    config = fast_config(0)
    with pytest.raises(ConfigurationError):
        scenarios_experiment(config, policies=("warmest",))
    with pytest.raises(ConfigurationError):
        scenarios_experiment(config, duration=6.0, warmup=5.0)  # no scoring span
    with pytest.raises(ConfigurationError):
        scenarios_experiment(config, shapes=("sawtooth",))


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_scenarios_is_registered_and_takes_a_policy():
    assert "scenarios" in EXPERIMENTS
    assert supports_policy(EXPERIMENTS["scenarios"][1])


def test_run_experiment_collects_manifest_payload(monkeypatch):
    from repro import cli

    class DummyResult:
        def render(self):
            return "dummy table"

        def manifest_payload(self):
            return {"answer": 42}

    monkeypatch.setitem(
        cli.EXPERIMENTS, "dummy", ("a stub", lambda config, runner: DummyResult())
    )
    artifacts = {}
    text = run_experiment("dummy", seed=0, artifacts=artifacts)
    assert "dummy table" in text
    assert artifacts == {"dummy": {"answer": 42}}
    # Results without manifest_payload() simply contribute nothing.
    run_experiment("fig1", seed=0, artifacts=artifacts)
    assert set(artifacts) == {"dummy"}


def test_manifest_round_trips_artifacts(tmp_path):
    from repro.telemetry import RunManifest

    manifest = RunManifest(
        experiments=["scenarios"],
        seed=0,
        config_hash="0" * 64,
        code_fingerprint="1" * 64,
        artifacts={"scenarios": {"runs": [{"shape": "diurnal"}]}},
    )
    path = manifest.write(tmp_path / "m.json")
    loaded = RunManifest.load(path)
    assert loaded.artifacts["scenarios"]["runs"][0]["shape"] == "diurnal"


@pytest.mark.slow
def test_scenarios_cli_end_to_end_with_manifest(tmp_path, capsys):
    """`python -m repro scenarios --policy round-robin --metrics ...`
    writes the per-window SLO series into the manifest with no NaN."""
    from repro.cli import main
    from repro.telemetry import RunManifest

    manifest_path = tmp_path / "scenarios.json"
    assert (
        main(
            [
                "scenarios",
                "--policy",
                "round-robin",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics",
                str(manifest_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Scenarios:" in out
    assert "pareto[" in out
    manifest = RunManifest.load(manifest_path)
    payload = manifest.artifacts["scenarios"]
    json.dumps(payload, allow_nan=False)
    assert payload["policies"] == ["round-robin"]
    assert len(payload["runs"]) == len(SCENARIO_SHAPES) * 3
    assert all(run["series"]["arrivals"] for run in payload["runs"])
    assert manifest.metrics["scenarios.racks"]["value"] == len(payload["runs"])
