"""Tests for the parallel runner: serial/parallel equivalence, ordering,
caching, and retry-once fault tolerance."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.experiments import fast_config
from repro.experiments.sweeps import Sweep, run_sweeps
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    characterization_spec,
    finite_cpuburn_spec,
    register_executor,
)

CFG = fast_config()
SHORT = 4.0  # seconds of simulated time; shapes don't matter here


def short_specs(n=3):
    return [
        characterization_spec(CFG, p=0.1 * (i + 1), idle_quantum=0.01, duration=SHORT)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Equivalence and ordering
# ----------------------------------------------------------------------
def test_parallel_results_bit_identical_to_serial():
    """jobs=4 must reproduce jobs=1 exactly, field for field."""
    specs = short_specs(4)
    serial = ParallelRunner(jobs=1).run(specs)
    parallel = ParallelRunner(jobs=4).run(specs)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_sweep_identical_serial_vs_parallel():
    grid = [Sweep.dimetrodon(ps=(0.25, 0.75), ls_ms=(5.0, 25.0))]
    (serial,) = run_sweeps(CFG, grid, duration=SHORT, runner=ParallelRunner(jobs=1))
    (parallel,) = run_sweeps(CFG, grid, duration=SHORT, runner=ParallelRunner(jobs=4))
    assert serial.baseline == parallel.baseline
    assert serial.runs == parallel.runs
    for a, b in zip(serial.points, parallel.points):
        assert a.temp_reduction == b.temp_reduction
        assert a.throughput_reduction == b.throughput_reduction
        assert a.params == b.params


def test_results_returned_in_submission_order():
    specs = short_specs(4)
    results = ParallelRunner(jobs=4).run(specs)
    for spec, result in zip(specs, results):
        assert result.p == spec.params["p"]


def test_finite_runs_through_pool():
    specs = [finite_cpuburn_spec(CFG, total_cpu=0.5), finite_cpuburn_spec(CFG.with_seed(1), total_cpu=0.5)]
    serial = ParallelRunner(jobs=1).run(specs)
    parallel = ParallelRunner(jobs=2).run(specs)
    assert [r.runtimes for r in serial] == [r.runtimes for r in parallel]


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
def test_second_batch_served_entirely_from_cache(tmp_path):
    specs = short_specs(3)
    first = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    results_first = first.run(specs)
    assert first.metrics.executed == 3
    assert first.metrics.cache_hits == 0
    assert first.metrics.cache_stores == 3

    second = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    results_second = second.run(specs)
    assert second.metrics.executed == 0  # zero simulation runs
    assert second.metrics.cache_hits == 3
    assert results_second == results_first  # and bit-identical payloads


def test_cache_shared_between_serial_and_parallel(tmp_path):
    specs = short_specs(3)
    warm = ParallelRunner(jobs=4, cache=ResultCache(tmp_path))
    warm.run(specs)
    replay = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
    replay.run(specs)
    assert replay.metrics.executed == 0
    assert replay.metrics.cache_hits == 3


def test_different_params_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(cache=cache)
    a = runner.run([characterization_spec(CFG, p=0.25, duration=SHORT)])[0]
    b = runner.run([characterization_spec(CFG, p=0.75, duration=SHORT)])[0]
    assert runner.metrics.executed == 2
    assert a.p == 0.25 and b.p == 0.75


# ----------------------------------------------------------------------
# Progress and metrics
# ----------------------------------------------------------------------
def test_progress_events_emitted_per_run(tmp_path):
    events = []
    specs = short_specs(2)
    ParallelRunner(cache=ResultCache(tmp_path), progress=events.append).run(specs)
    assert [e.source for e in events] == ["run", "run"]
    assert [e.done for e in events] == [1, 2]
    assert all(e.total == 2 for e in events)

    events.clear()
    ParallelRunner(cache=ResultCache(tmp_path), progress=events.append).run(specs)
    assert [e.source for e in events] == ["cache", "cache"]


def test_metrics_summary_mentions_counts(tmp_path):
    runner = ParallelRunner(cache=ResultCache(tmp_path))
    runner.run(short_specs(2))
    assert "2 executed" in runner.metrics.summary()
    assert "0 cached" in runner.metrics.summary()


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------
def _flaky(config, *, marker):
    """Fails on first invocation, succeeds once the marker exists."""
    import pathlib

    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("transient worker failure")
    return 42


def _always_fail(config):
    raise RuntimeError("permanent failure")


def test_failed_run_is_retried_once_serial(tmp_path):
    """The retry waits out its backoff while the healthy run behind it
    runs, so it completes last."""
    register_executor("test_flaky", _flaky)
    events = []
    runner = ParallelRunner(jobs=1, progress=events.append)
    flaky = RunSpec(kind="test_flaky", config=None, params={"marker": str(tmp_path / "m")})
    good = characterization_spec(CFG, p=0.5, duration=SHORT)
    results = runner.run([flaky, good])
    assert results[0] == 42
    assert results[1].p == 0.5
    assert runner.metrics.failures == 1
    assert runner.metrics.retries == 1
    assert runner.metrics.completed == 2
    assert [(event.index, event.source) for event in events] == [(1, "run"), (0, "retry")]


def test_failed_run_is_retried_once_parallel(tmp_path):
    register_executor("test_flaky", _flaky)
    flaky = RunSpec(kind="test_flaky", config=None, params={"marker": str(tmp_path / "m")})
    good = characterization_spec(CFG, p=0.5, duration=SHORT)
    # fork inherits the test-only executor registration in the workers.
    runner = ParallelRunner(jobs=2, start_method="fork")
    results = runner.run([flaky, good])
    assert results[0] == 42
    assert results[1].p == 0.5
    assert runner.metrics.retries == 1


def test_twice_failed_run_raises_with_worker_traceback():
    register_executor("test_always_fail", _always_fail)
    runner = ParallelRunner(jobs=1)
    with pytest.raises(ExecutionError, match="permanent failure"):
        runner.run([RunSpec(kind="test_always_fail", config=None)])


def test_unknown_kind_and_bad_jobs_rejected():
    with pytest.raises(ConfigurationError):
        ParallelRunner(jobs=0)
    runner = ParallelRunner()
    with pytest.raises(ExecutionError):
        # Unknown kinds fail on first execution and again on retry.
        runner.run([RunSpec(kind="no_such_kind", config=None)])


def test_empty_batch_is_a_noop():
    assert ParallelRunner(jobs=4).run([]) == []
