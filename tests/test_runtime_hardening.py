"""Chaos tests for the hardened batch runtime.

The headline contract: a sweep with one crashing, one hanging, and one
cache-poisoned run still yields results bit-identical to a clean
serial sweep — under worker pools, --resume, and --keep-going — and
the failure report names exactly the injected faults, nothing else.
"""

import dataclasses
import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.errors import ExecutionError
from repro.experiments import fast_config
from repro.experiments.reporting import format_failure_report
from repro.faults import CORRUPT, FaultPlan, FaultSpec
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    RetryPolicy,
    RunSpec,
    SweepJournal,
    characterization_spec,
    register_executor,
)
from repro.telemetry import isolated

CFG = fast_config()
SHORT = 4.0  # seconds of simulated time (wall clock: tens of ms)
DEADLINE = 2.0  # generous vs. a real short run, tiny vs. a 60 s hang

#: A fast policy: same attempt budget as the default, near-zero waits.
FAST_RETRIES = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_max=0.05)


def short_specs(n=5):
    return [
        characterization_spec(CFG, p=0.1 * (i + 1), idle_quantum=0.01, duration=SHORT)
        for i in range(n)
    ]


# Custom executors for the fast, simulation-free paths.  Module-level so
# fork workers inherit the registrations.
def _value(config, *, value):
    return value


def _sleep(config, *, seconds):
    time.sleep(seconds)
    return "done"


def _bad_input(config):
    raise ValueError("deterministic bad input")


def _die_once(config, *, marker):
    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text("died")
        os._exit(3)  # hard worker death: no exception, no result
    return "survived"


register_executor("test_value", _value)
register_executor("test_sleep", _sleep)
register_executor("test_bad_input", _bad_input)
register_executor("test_die_once", _die_once)


# ----------------------------------------------------------------------
# The fault matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_fault_matrix_results_bit_identical_to_clean_serial(tmp_path, jobs):
    """One crash, one hang, one poisoned cache entry — same numbers."""
    specs = short_specs(5)
    with isolated() as clean_registry:
        clean = ParallelRunner(jobs=1).run(specs)
        clean_events = clean_registry.value("sim.engine.events")

    plan = FaultPlan.parse("crash@1,hang@2:60,poison@3")
    journal_path = tmp_path / "journal.jsonl"
    with isolated() as chaos_registry:
        journal = SweepJournal(journal_path)
        runner = ParallelRunner(
            jobs=jobs,
            cache=ResultCache(tmp_path / "cache"),
            journal=journal,
            keep_going=True,
            timeout=DEADLINE,
            retry_policy=FAST_RETRIES,
            fault_plan=plan,
            start_method="fork",
        )
        chaotic = runner.run(specs)
        journal.close()
        chaos_events = chaos_registry.value("sim.engine.events")

    # Every surviving run (here: all of them) is bit-identical.
    assert [dataclasses.asdict(r) for r in chaotic] == [
        dataclasses.asdict(r) for r in clean
    ]
    # Failed attempts' telemetry is discarded, so the merged counters
    # match a clean sweep exactly — retries never double-count.
    assert chaos_events == clean_events

    # The failure report names exactly the injected faults.
    observed = {(f.index, f.error_type, f.classification) for f in runner.failure_report.failures}
    assert observed == {
        (1, "InjectedFaultError", "transient"),
        (2, "RunTimeoutError", "timeout"),
    }
    assert all(f.recovered for f in runner.failure_report.failures)
    assert runner.failure_report.fatal == []

    m = runner.metrics
    assert m.executed == 5 and m.completed == 5
    assert m.failures == 2 and m.retries == 2
    assert m.timeouts == 1 and m.abandoned == 0
    assert SweepJournal.completed_in(journal_path) == {s.key for s in specs}

    # --resume against the same journal+cache: the poisoned entry is
    # quarantined and re-executed; everything else is a replay.
    resumed_journal = SweepJournal(journal_path, resume=True)
    cache = ResultCache(tmp_path / "cache")
    resumed = ParallelRunner(jobs=jobs, cache=cache, journal=resumed_journal)
    replayed = resumed.run(specs)
    resumed_journal.close()
    assert [dataclasses.asdict(r) for r in replayed] == [
        dataclasses.asdict(r) for r in clean
    ]
    assert resumed.metrics.replayed == 4
    assert resumed.metrics.executed == 1  # only the poisoned run
    assert cache.stats.quarantined == 1


def test_fault_report_renders_for_humans(tmp_path):
    runner = ParallelRunner(
        jobs=1,
        keep_going=True,
        retry_policy=FAST_RETRIES,
        fault_plan=FaultPlan.parse("crash@0"),
    )
    runner.run([RunSpec(kind="test_value", config=None, params={"value": 9})])
    text = format_failure_report(runner.failure_report)
    assert "InjectedFaultError" in text
    assert "recovered" in text
    assert format_failure_report(ParallelRunner().failure_report) == (
        "failure report: no failed attempts"
    )


# ----------------------------------------------------------------------
# Permanent errors fail fast
# ----------------------------------------------------------------------
def test_permanent_error_fails_fast_with_original_traceback():
    runner = ParallelRunner(jobs=1, retry_policy=FAST_RETRIES)
    with pytest.raises(ExecutionError, match="deterministic bad input"):
        runner.run([RunSpec(kind="test_bad_input", config=None)])
    assert runner.metrics.retries == 0  # no wasted second simulation
    assert runner.metrics.permanent_failures == 1
    assert runner.metrics.failures == 1


def test_permanent_error_fails_fast_in_the_pool():
    runner = ParallelRunner(jobs=2, retry_policy=FAST_RETRIES, start_method="fork")
    specs = [
        RunSpec(kind="test_bad_input", config=None),
        RunSpec(kind="test_value", config=None, params={"value": 1}),
    ]
    with pytest.raises(ExecutionError, match="permanent"):
        runner.run(specs)
    assert runner.metrics.retries == 0
    assert runner.metrics.permanent_failures == 1
    assert multiprocessing.active_children() == []


def test_keep_going_abandons_the_bad_run_and_finishes_the_rest():
    runner = ParallelRunner(jobs=1, keep_going=True, retry_policy=FAST_RETRIES)
    results = runner.run(
        [
            RunSpec(kind="test_value", config=None, params={"value": 1}),
            RunSpec(kind="test_bad_input", config=None),
            RunSpec(kind="test_value", config=None, params={"value": 2}),
        ]
    )
    assert results == [1, None, 2]
    assert runner.metrics.abandoned == 1
    assert runner.failure_report.fatal_indices == [1]
    assert "ABANDONED" in format_failure_report(runner.failure_report)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_serial_deadline_interrupts_an_in_process_hang():
    runner = ParallelRunner(
        jobs=1, timeout=0.2, retry_policy=RetryPolicy(max_attempts=1)
    )
    start = time.monotonic()
    with pytest.raises(ExecutionError, match="deadline"):
        runner.run([RunSpec(kind="test_sleep", config=None, params={"seconds": 60.0})])
    assert time.monotonic() - start < 30.0  # interrupted, not slept out
    assert runner.metrics.timeouts == 1


def test_pooled_deadline_kills_the_hung_worker():
    runner = ParallelRunner(
        jobs=2,
        timeout=1.0,
        retry_policy=RetryPolicy(max_attempts=1),
        keep_going=True,
        start_method="fork",
    )
    results = runner.run(
        [
            RunSpec(kind="test_value", config=None, params={"value": 3}),
            RunSpec(kind="test_sleep", config=None, params={"seconds": 60.0}),
        ]
    )
    assert results == [3, None]
    assert runner.metrics.timeouts == 1
    assert runner.metrics.abandoned == 1
    assert runner.failure_report.fatal[0].error_type == "RunTimeoutError"
    assert runner.failure_report.fatal[0].classification == "timeout"
    assert multiprocessing.active_children() == []  # no leaked worker


# ----------------------------------------------------------------------
# Payload integrity and hard worker death
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_corrupt_payload_is_detected_and_retried(jobs):
    corrupted = RunSpec(
        kind="test_value",
        config=None,
        params={"value": 5},
        fault=FaultSpec(kind=CORRUPT, run_index=0),
    )
    clean = RunSpec(kind="test_value", config=None, params={"value": 6})
    runner = ParallelRunner(jobs=jobs, retry_policy=FAST_RETRIES, start_method="fork")
    assert runner.run([corrupted, clean]) == [5, 6]
    assert runner.metrics.failures == 1
    assert runner.metrics.retries == 1
    recovered = runner.failure_report.recovered
    assert [f.error_type for f in recovered] == ["CorruptResultError"]
    assert recovered[0].classification == "transient"


def test_hard_worker_death_is_transient_and_retried(tmp_path):
    specs = [
        RunSpec(
            kind="test_die_once", config=None, params={"marker": str(tmp_path / "m")}
        ),
        RunSpec(kind="test_value", config=None, params={"value": 1}),
    ]
    runner = ParallelRunner(jobs=2, retry_policy=FAST_RETRIES, start_method="fork")
    assert runner.run(specs) == ["survived", 1]
    assert runner.metrics.retries == 1
    assert [f.error_type for f in runner.failure_report.recovered] == ["WorkerDied"]


# ----------------------------------------------------------------------
# Interrupts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_keyboard_interrupt_terminates_pool_and_flushes_journal(tmp_path, jobs):
    """SIGINT mid-sweep: workers die, the journal keeps what finished,
    and the interrupt propagates so the caller can resume later — also
    when the runs execute in-process."""
    journal_path = tmp_path / "journal.jsonl"
    journal = SweepJournal(journal_path)
    quick = RunSpec(kind="test_value", config=None, params={"value": 1})
    slow = RunSpec(kind="test_sleep", config=None, params={"seconds": 60.0})

    def interrupt_after_first_completion(event):
        os.kill(os.getpid(), signal.SIGINT)

    runner = ParallelRunner(
        jobs=jobs,
        journal=journal,
        progress=interrupt_after_first_completion,
        start_method="fork",
    )
    with pytest.raises(KeyboardInterrupt):
        runner.run([quick, slow])
    journal.close()
    # The completed run was journaled before the interrupt hit...
    assert SweepJournal.completed_in(journal_path) == {quick.key}
    # ...and the hung worker did not outlive the batch.
    assert multiprocessing.active_children() == []
