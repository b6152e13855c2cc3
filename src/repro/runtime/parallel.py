"""Parallel fan-out of independent experiment runs, hardened.

Every run in a batch is built from its own config alone, so runs share
no state and the fan-out is embarrassingly parallel.
:class:`ParallelRunner` guarantees:

- **Batch tasks** — the cache misses of a kind declared with a batch
  executor (``characterization``: the §3.4 grids) are grouped into
  tasks of at most :data:`BATCH_WIDTH` runs, in spec order, so one
  task runs several runs on one fleet.  A task's members depend only
  on the spec list and the cache state, never on ``jobs``; every
  member keeps its own key, cache entry, journal line and progress
  event, and its result equals the same run executed alone.  A member
  armed with a fault runs solo; a batch that fails or overruns its
  deadline (its width times ``timeout``) reruns its members solo
  under the normal per-run retry policy.
- **Determinism** — each run's seed travels inside its
  :class:`RunSpec`; results are returned in submission order no matter
  which worker finished first, so a ``jobs=N`` batch is bit-identical
  to ``jobs=1``.
- **Caching** — with a :class:`~repro.runtime.cache.ResultCache`
  attached, completed runs are persisted and later batches skip them.
- **Deadlines** — with ``timeout=T`` every run gets ``T`` seconds of
  wall clock: a hung worker process is killed by the parent (in-process
  runs are interrupted via ``SIGALRM``) and the run surfaces a
  :class:`~repro.errors.RunTimeoutError`, which the retry policy treats
  as transient.
- **Retries** — a :class:`~repro.runtime.policy.RetryPolicy` governs
  fault tolerance: transient failures (worker crashes, timeouts,
  corrupt payloads) are retried with exponential backoff and
  deterministic jitter, while permanent errors (a
  :class:`~repro.errors.ConfigurationError` from a bad parameter, a
  ``TypeError`` from a bad spec) fail fast with the original traceback
  instead of wasting a pointless second simulation.
- **Graceful degradation** — with ``keep_going=True`` a terminally
  failed run no longer aborts the batch; it is recorded in the
  runner's :class:`~repro.runtime.failures.FailureReport`, its result
  slot stays ``None``, and every other run completes.
- **Resumability** — with a :class:`~repro.runtime.journal.SweepJournal`
  attached every completion is journaled (fsync'd, append-only), so an
  interrupted sweep resumed against the same journal and cache replays
  the finished runs and executes only the remainder.  A
  ``KeyboardInterrupt`` mid-batch terminates the workers cleanly,
  flushes the journal, and re-raises.
- **Integrity** — every executed result carries a digest taken at the
  moment it was produced; the parent re-derives it on arrival and a
  mismatch (a mangled pipe, an injected ``corrupt`` fault) is a
  transient :class:`~repro.errors.CorruptResultError`, never a cached
  lie.
- **Telemetry** — every run executes against an isolated
  :class:`~repro.telemetry.MetricsRegistry`; the per-run snapshot is
  serialised back from the worker (or taken in-process for serial
  runs) and merged into the registry that was current when the runner
  was constructed.  Snapshots are merged in *submission order* once
  the batch settles — never in completion order — so float-valued
  counters accumulate in the same order under any ``jobs`` and the
  merged registry is bit-identical to a serial run.  Failed attempts
  are discarded, not merged, so retries never double-count.

Fault injection (:mod:`repro.faults`) plugs in through the
``fault_plan`` argument: the plan is resolved against the batch size
and each attempt is *armed* with at most one fault via the
``RunSpec.fault`` field — which is excluded from the cache key, so an
armed run is still the same run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import pickle
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, CorruptResultError, ExecutionError
from ..faults import FaultPlan, FaultSpec, fire_execution_fault, garble_result, poison_cache_entry
from ..telemetry.registry import MetricsRegistry, isolated
from ..telemetry.registry import registry as _metrics_registry
from .cache import ResultCache
from .failures import FailureReport
from .hashing import spec_key
from .journal import SweepJournal
from .kinds import batch_executor, code_of, run_kind
from .policy import PERMANENT, TIMEOUT, RetryPolicy, error_lineage


@dataclass(frozen=True)
class RunSpec:
    """One independent run: which function, on what config, with what
    parameters.  Must be picklable (it crosses process boundaries) and
    stably hashable via :func:`~repro.runtime.hashing.spec_key`."""

    kind: str  # a declared run kind (see repro.runtime.kinds)
    config: Any  # ExperimentConfig (typed loosely to keep this layer generic)
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Fault armed for the *current attempt* (fault injection only).
    #: Excluded from equality and from :attr:`key`: an armed run is
    #: still the same run, cached under the same key.
    fault: Optional[FaultSpec] = field(default=None, compare=False)

    @property
    def key(self) -> str:
        return spec_key(self.kind, self.config, dict(self.params), code=code_of(self.kind))


def characterization_spec(config: Any, **params: Any) -> RunSpec:
    """Spec for :func:`repro.experiments.runner.run_characterization`."""
    return RunSpec(kind="characterization", config=config, params=params)


def finite_cpuburn_spec(config: Any, **params: Any) -> RunSpec:
    """Spec for :func:`repro.experiments.runner.run_finite_cpuburn`."""
    return RunSpec(kind="finite_cpuburn", config=config, params=params)


#: Most runs one batch task carries.  A module constant, not a flag:
#: batch make-up must not depend on ``jobs`` or deterministic counters
#: would differ between serial and pooled runs of the same grid.
BATCH_WIDTH = 16


def execute_spec(spec: RunSpec) -> Any:
    """Run one spec in the current process (faults not applied)."""
    return run_kind(spec.kind).executor(spec.config, **spec.params)


def execute_specs(specs: Sequence[RunSpec]) -> List[Any]:
    """Run one task — a single spec, or several of one batchable kind
    through the kind's batch executor — in the current process."""
    if len(specs) == 1:
        return [execute_spec(specs[0])]
    results = list(run_kind(specs[0].kind).batch([(s.config, dict(s.params)) for s in specs]))
    if len(results) != len(specs):
        raise ExecutionError(
            f"batch executor of {specs[0].kind!r} returned {len(results)} results "
            f"for {len(specs)} runs"
        )
    return results


def _payload_digest(result: Any) -> str:
    """Integrity digest of a result: sha256 over its canonical pickle.

    One dump/load round trip first: a raw pickle is not canonical when
    the producer's object graph shares interned strings (e.g. a field
    name that also appears as a plain dict key) — crossing the process
    boundary breaks that sharing, which changes the bytes but not the
    value.  The round-tripped graph is a fixed point, so producer and
    verifier digest the same bytes whenever the *values* agree.
    """
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    blob = pickle.dumps(pickle.loads(blob), protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def _execute_attempt(specs: Sequence[RunSpec]) -> Tuple[List[Any], Dict[str, Any], List[str]]:
    """Run one attempt of a task: fire any armed fault, simulate
    instrumented.

    Returns ``(results, metrics snapshot, digests)``, one result and
    digest per spec.  A digest is taken *before* a ``corrupt`` fault
    garbles its payload, which is exactly what lets the parent detect
    the corruption.  ``runtime.run_wall`` books the task's wall time
    split evenly over its runs, so its count stays one per run.
    """
    for spec in specs:
        if spec.fault is not None:
            fire_execution_fault(spec.fault)
    with isolated() as run_registry:
        started = time.perf_counter()
        results = execute_specs(specs)
        share = (time.perf_counter() - started) / len(specs)
        run_wall = run_registry.timer("runtime.run_wall")
        for _ in specs:
            run_wall.add(share)
        snapshot = run_registry.snapshot()
    digests = [_payload_digest(result) for result in results]
    results = [
        result if spec.fault is None else garble_result(spec.fault, result)
        for spec, result in zip(specs, results)
    ]
    return results, snapshot, digests


def _verify_payload(spec: RunSpec, result: Any, digest: str) -> None:
    if _payload_digest(result) != digest:
        raise CorruptResultError(
            f"run {spec.kind}{dict(spec.params)!r} returned a payload whose "
            f"digest does not match the one taken at production time"
        )


def _failure_info(error: BaseException, tb: Optional[str] = None) -> Dict[str, Any]:
    """A picklable description of a failed attempt."""
    return {
        "error_type": type(error).__name__,
        "lineage": error_lineage(error),
        "message": str(error),
        "traceback": tb if tb is not None else traceback.format_exc(),
    }


def _timeout_info(seconds: float, where: str) -> Dict[str, Any]:
    return {
        "error_type": "RunTimeoutError",
        "lineage": ("RunTimeoutError", "ExecutionError", "ReproError", "Exception"),
        "message": f"run exceeded its {seconds:g}s wall-clock deadline ({where})",
        "traceback": None,
    }


def _subprocess_main(conn, specs: List[RunSpec]) -> None:
    """Worker-process entry point: one task attempt, outcome over the
    pipe."""
    try:
        outcome: Tuple[Any, ...] = ("ok",) + _execute_attempt(specs)
    except BaseException as error:  # noqa: BLE001 - must never leak
        outcome = ("err", _failure_info(error))
    try:
        conn.send(outcome)
    except Exception as error:
        # The result itself failed to pickle — report that instead.
        try:
            conn.send(("err", _failure_info(error)))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


@contextmanager
def _deadline(seconds: Optional[float]):
    """Interrupt an in-process run after ``seconds`` of wall clock.

    Uses ``SIGALRM`` (with sub-second resolution via ``setitimer``), so
    enforcement is only possible on the main thread of a Unix process;
    anywhere else the block runs un-deadlined — pooled runs don't need
    this, their parent kills the whole worker process instead.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    from ..errors import RunTimeoutError

    def _on_alarm(signum, frame):
        raise RunTimeoutError(
            f"run exceeded its {seconds:g}s wall-clock deadline (in-process)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _terminate(process) -> None:
    """Kill one worker process, escalating if SIGTERM is ignored."""
    process.terminate()
    process.join(2.0)
    if process.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
        process.kill()
        process.join(1.0)


# ----------------------------------------------------------------------
# Metrics and progress
# ----------------------------------------------------------------------
@dataclass
class RunnerMetrics:
    """Cumulative counters over a runner's lifetime."""

    submitted: int = 0
    completed: int = 0
    #: Runs actually simulated (cache misses).
    executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    #: Cache hits whose key was already journaled when the sweep
    #: started — i.e. runs a ``--resume`` invocation did not redo.
    replayed: int = 0
    #: Failed attempts observed (transient, permanent, and timeouts).
    failures: int = 0
    #: Retry attempts granted by the policy.
    retries: int = 0
    #: Attempts killed (or interrupted) at the wall-clock deadline.
    timeouts: int = 0
    #: Attempts whose error was classified permanent (failed fast).
    permanent_failures: int = 0
    #: Runs abandoned terminally under keep-going.
    abandoned: int = 0
    #: Total seconds of retry backoff the batch waited through.
    backoff_seconds: float = 0.0
    #: Batch tasks started (several runs on one fleet each).
    batches: int = 0
    #: Batch tasks that failed or timed out, their members rerun solo.
    batch_fallbacks: int = 0

    def summary(self) -> str:
        parts = [f"{self.executed} executed", f"{self.cache_hits} cached"]
        if self.replayed:
            parts.append(f"{self.replayed} replayed")
        if self.failures:
            parts.append(f"{self.failures} failed/{self.retries} retried")
        if self.timeouts:
            parts.append(f"{self.timeouts} timed out")
        if self.abandoned:
            parts.append(f"{self.abandoned} abandoned")
        if self.batch_fallbacks:
            parts.append(f"{self.batch_fallbacks} batches rerun solo")
        return ", ".join(parts)


@dataclass(frozen=True)
class ProgressEvent:
    """Emitted once per finished run (completed or abandoned)."""

    index: int  # position in the submitted batch
    done: int  # runs finished so far (this batch)
    total: int  # batch size
    source: str  # "cache" | "replay" | "run" | "retry" | "failed"
    spec: RunSpec


@dataclass
class _Task:
    """Parent-side state of one pending run.  The runner executes
    *units*: lists of tasks run as one attempt, a single task or a
    batch."""

    index: int
    spec: RunSpec
    key: Optional[str]
    attempt: int = 0


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ParallelRunner:
    """Execute batches of :class:`RunSpec` with pooling, caching, and
    fault tolerance.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs in-process with no
        pool overhead — the exact serial semantics every caller had
        before this layer existed.
    cache:
        Optional :class:`ResultCache`; completed runs are stored and
        matching future runs are served without simulating.
    progress:
        Optional callback invoked with a :class:`ProgressEvent` after
        every finished run (from the parent process only).
    start_method:
        Forwarded to :func:`multiprocessing.get_context`; None uses the
        platform default.
    timeout:
        Per-run wall-clock deadline in seconds (a batch task gets its
        width times this).  Pooled runs that
        exceed it have their worker killed; in-process runs are
        interrupted via ``SIGALRM`` (main thread, Unix).  ``None``
        disables deadlines.
    retry_policy:
        A :class:`RetryPolicy`; the default preserves the historical
        retry-once behaviour, now with classification and backoff.
    journal:
        Optional :class:`SweepJournal`; every completion is journaled
        so an interrupted sweep can be resumed.
    keep_going:
        When True, a terminally failed run is recorded in
        :attr:`failure_report` (its result stays ``None``) instead of
        raising :class:`~repro.errors.ExecutionError`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` armed per batch —
        the chaos-testing hook; see :mod:`repro.faults`.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        start_method: Optional[str] = None,
        timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        journal: Optional[SweepJournal] = None,
        keep_going: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and not 0 < timeout < math.inf:
            raise ConfigurationError(
                f"timeout must be a finite number of seconds > 0, got {timeout}"
            )
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.start_method = start_method
        self.timeout = timeout
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.journal = journal
        self.keep_going = keep_going
        self.fault_plan = fault_plan
        self.metrics = RunnerMetrics()
        self.failure_report = FailureReport()
        #: Cache keys already poisoned by this runner's fault plan
        #: (each ``poison`` fault fires once per runner lifetime).
        self._poisoned: set = set()
        #: Per-run metric snapshots (and the runner's own counters)
        #: aggregate into the registry current at construction time.
        self.registry: MetricsRegistry = _metrics_registry()
        self._metric_scope = self.registry.scope("runtime.runner")

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Execute every spec; results in submission order.

        Under ``keep_going`` an abandoned run's slot holds ``None`` and
        the failure is recorded in :attr:`failure_report`; otherwise a
        terminal failure raises :class:`~repro.errors.ExecutionError`
        (after the pool, if any, is torn down cleanly).
        """
        specs = list(specs)
        total = len(specs)
        plan = self.fault_plan.resolve(total) if self.fault_plan is not None else None
        self._count("submitted", total)
        results: List[Any] = [None] * total
        state = {"done": 0}
        #: index -> per-run metrics snapshot; merged in submission
        #: order after the batch settles so the merged registry is
        #: bit-identical for any jobs count (float sums are
        #: order-sensitive; completion order is not deterministic).
        snapshots: Dict[int, Dict[str, Any]] = {}
        replayable = self.journal.replayable if self.journal is not None else frozenset()

        # ------------------------------------------------------------------
        def finish(index: int, source: str, spec: RunSpec) -> None:
            state["done"] += 1
            self._emit(index, state["done"], total, source, spec)

        def complete(task: _Task, result: Any, snapshot: Optional[Dict[str, Any]], source: str) -> None:
            results[task.index] = result
            self._count("executed")
            self._count("completed")
            if snapshot is not None:
                snapshots[task.index] = snapshot
            if task.key is not None and self.cache is not None:
                self.cache.put(task.key, result)
                self._count("cache_stores")
                if (
                    plan is not None
                    and task.index in plan.poison_targets
                    and task.key not in self._poisoned
                ):
                    poison_cache_entry(self.cache, task.key)
                    self._poisoned.add(task.key)
            if self.journal is not None and task.key is not None:
                self.journal.record_done(task.key, source)
            if task.attempt > 1:
                self.failure_report.mark_recovered(task.index)
            finish(task.index, source, task.spec)

        def on_attempt_failure(task: _Task, info: Dict[str, Any]) -> Tuple[str, float]:
            """Classify one failed attempt; returns ("retry", delay) or
            ("failed", 0) for a kept-going terminal failure.  A terminal
            failure without keep_going raises ExecutionError."""
            classification = self.retry_policy.classify(info["lineage"])
            self._count("failures")
            if classification == TIMEOUT:
                self._count("timeouts")
            if classification == PERMANENT:
                self._count("permanent_failures")
            self.failure_report.record(
                index=task.index,
                kind=task.spec.kind,
                params=task.spec.params,
                key=task.key,
                error_type=info["error_type"],
                message=info["message"],
                classification=classification,
                attempt=task.attempt,
                traceback=info.get("traceback"),
            )
            if self.retry_policy.should_retry(classification, task.attempt):
                delay = self.retry_policy.backoff(task.attempt, task.key or task.spec.kind)
                self._count("retries")
                self._count("backoff_seconds", delay)
                return "retry", delay
            if self.journal is not None:
                self.journal.record_failure(
                    task.key, info["error_type"], info["message"]
                )
            if self.keep_going:
                self._count("abandoned")
                finish(task.index, "failed", task.spec)
                return "failed", 0.0
            raise ExecutionError(
                f"run {task.spec.kind}{dict(task.spec.params)!r} failed "
                f"({classification}, attempt {task.attempt}/"
                f"{self.retry_policy.max_attempts}):\n"
                f"{info.get('traceback') or info['message']}"
            )

        # ------------------------------------------------------------------
        # Serve what we can from the cache (journaled keys are replays).
        pending: List[_Task] = []
        want_key = self.cache is not None or self.journal is not None
        for index, spec in enumerate(specs):
            key = spec.key if want_key else None
            hit = self.cache.get(key) if self.cache is not None and key is not None else None
            if hit is not None:
                results[index] = hit
                if key in replayable:
                    source = "replay"
                    self._count("replayed")
                else:
                    source = "cache"
                    self._count("cache_hits")
                self._count("completed")
                if self.journal is not None:
                    self.journal.record_done(key, source)
                finish(index, source, spec)
            else:
                pending.append(_Task(index=index, spec=spec, key=key))

        # Execute the misses.
        units = self._units(pending, plan)
        try:
            if self.jobs > 1 and len(units) > 1:
                self._run_pooled(units, plan, complete, on_attempt_failure)
            else:
                self._run_serial(units, plan, complete, on_attempt_failure)
        finally:
            # Whatever happens — ExecutionError, KeyboardInterrupt — the
            # journal must reflect every completion already achieved, so
            # a subsequent --resume picks them up; and every completed
            # run's telemetry lands in the registry, in submission order.
            for index in sorted(snapshots):
                self.registry.merge(snapshots[index])
            if self.journal is not None:
                self.journal.flush()
        return results

    # ------------------------------------------------------------------
    def _fault(self, task: _Task, attempt: int, plan: Optional[FaultPlan]) -> Optional[FaultSpec]:
        """The fault armed for ``task``'s attempt ``attempt``, if any."""
        if plan is not None:
            return plan.fault_for(task.index, attempt)
        if task.spec.fault is not None and task.spec.fault.fires_on(attempt):
            return task.spec.fault
        return None

    def _arm(self, task: _Task, plan: Optional[FaultPlan]) -> RunSpec:
        """The spec for this attempt, with at most one fault attached."""
        fault = self._fault(task, task.attempt, plan)
        if fault is task.spec.fault:
            return task.spec
        return dataclasses.replace(task.spec, fault=fault)

    def _units(self, pending: List[_Task], plan: Optional[FaultPlan]) -> List[List[_Task]]:
        """Group the misses into units, ordered by their first run.

        Each batchable kind's misses (those not armed with a fault for
        their first attempt) split in spec order into the fewest
        batches of at most :data:`BATCH_WIDTH`, of near-equal width;
        every other miss is a unit of its own.
        """
        units: List[List[_Task]] = []
        batchable: Dict[str, List[_Task]] = {}
        for task in pending:
            if batch_executor(task.spec.kind) is None or self._fault(task, 1, plan) is not None:
                units.append([task])
            else:
                batchable.setdefault(task.spec.kind, []).append(task)
        for tasks in batchable.values():
            count = -(-len(tasks) // BATCH_WIDTH)
            units.extend(
                tasks[i * len(tasks) // count : (i + 1) * len(tasks) // count]
                for i in range(count)
            )
        units.sort(key=lambda unit: unit[0].index)
        return units

    def _start(self, unit: List[_Task], plan: Optional[FaultPlan]) -> List[RunSpec]:
        """Begin one attempt of ``unit``: the specs to execute."""
        for task in unit:
            task.attempt += 1
        if len(unit) > 1:
            self._count("batches")
        return [self._arm(task, plan) for task in unit]

    def _deadline_of(self, unit: List[_Task]) -> Optional[float]:
        """A unit's wall-clock deadline: ``timeout`` per run."""
        return None if self.timeout is None else self.timeout * len(unit)

    def _fall_back(self, unit: List[_Task], info: Dict[str, Any]) -> List[List[_Task]]:
        """A failed batch's members, as solo units starting afresh.

        The batch's error is reported as a warning, not as a run
        failure: a member that caused it fails again on its own, under
        its own index, retry policy and traceback.
        """
        warnings.warn(
            f"a batch of {len(unit)} {unit[0].spec.kind!r} runs failed "
            f"({info['error_type']}: {info['message']}); rerunning each run solo",
            RuntimeWarning,
            stacklevel=2,
        )
        self._count("batch_fallbacks")
        for task in unit:
            task.attempt = 0
        return [[task] for task in unit]

    @staticmethod
    def _verify(specs: List[RunSpec], results: List[Any], digests: List[str]) -> None:
        for spec, result, digest in zip(specs, results, digests):
            _verify_payload(spec, result, digest)

    @staticmethod
    def _settle(
        unit: List[_Task], results: List[Any], snapshot: Dict[str, Any], complete: Callable
    ) -> None:
        """Complete every member in spec order; the unit's telemetry is
        merged at its first run's index."""
        for position, (task, result) in enumerate(zip(unit, results)):
            source = "run" if task.attempt == 1 else "retry"
            complete(task, result, snapshot if position == 0 else None, source)

    def _run_serial(
        self,
        units: List[List[_Task]],
        plan: Optional[FaultPlan],
        complete: Callable,
        on_attempt_failure: Callable,
    ) -> None:
        """In-process execution with deadline + retry semantics."""
        queue = deque(units)
        while queue:
            unit = queue.popleft()
            specs = self._start(unit, plan)
            try:
                with _deadline(self._deadline_of(unit)):
                    results, snapshot, digests = _execute_attempt(specs)
                self._verify(specs, results, digests)
            except KeyboardInterrupt:
                raise
            except Exception as error:
                info = _failure_info(error)
                if len(unit) > 1:
                    queue.extendleft(reversed(self._fall_back(unit, info)))
                    continue
                action, delay = on_attempt_failure(unit[0], info)
                if action == "retry":
                    time.sleep(delay)
                    queue.appendleft(unit)
                # else: kept going; the slot stays None
            else:
                self._settle(unit, results, snapshot, complete)

    def _run_pooled(
        self,
        units: List[List[_Task]],
        plan: Optional[FaultPlan],
        complete: Callable,
        on_attempt_failure: Callable,
    ) -> None:
        """One worker process per unit attempt, at most ``jobs`` in
        flight.

        The parent multiplexes over result pipes, enforces deadlines by
        killing overdue workers, re-queues retries after their backoff
        delay, and re-queues a failed batch's members as solo units at
        the front.  On any raise — a terminal ExecutionError or a
        KeyboardInterrupt — every live worker is terminated before the
        exception propagates.
        """
        context = multiprocessing.get_context(self.start_method)
        ready = deque(units)
        waiting: List[Tuple[float, List[_Task]]] = []  # (eligible_at, unit)
        # conn -> (unit, specs, proc, deadline_at)
        active: Dict[Any, Tuple[List[_Task], List[RunSpec], Any, float]] = {}

        def failed(unit: List[_Task], info: Dict[str, Any]) -> None:
            if len(unit) > 1:
                ready.extendleft(reversed(self._fall_back(unit, info)))
                return
            action, delay = on_attempt_failure(unit[0], info)
            if action == "retry":
                waiting.append((time.monotonic() + delay, unit))

        try:
            while ready or waiting or active:
                now = time.monotonic()
                still_waiting = []
                for eligible_at, unit in waiting:
                    if eligible_at <= now:
                        ready.append(unit)
                    else:
                        still_waiting.append((eligible_at, unit))
                waiting = still_waiting

                while ready and len(active) < self.jobs:
                    unit = ready.popleft()
                    specs = self._start(unit, plan)
                    parent_conn, child_conn = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_subprocess_main, args=(child_conn, specs), daemon=True
                    )
                    process.start()
                    child_conn.close()
                    deadline = self._deadline_of(unit)
                    deadline_at = math.inf if deadline is None else time.monotonic() + deadline
                    active[parent_conn] = (unit, specs, process, deadline_at)

                if not active:
                    if waiting:
                        time.sleep(max(0.0, min(t for t, _ in waiting) - time.monotonic()))
                    continue

                # Block until an outcome arrives, a deadline expires, or
                # a backoff becomes eligible — whichever is soonest.
                wake_times = [at for _, _, _, at in active.values() if at < math.inf]
                wake_times.extend(t for t, _ in waiting)
                wait_timeout = (
                    max(0.0, min(wake_times) - time.monotonic()) if wake_times else None
                )
                for conn in _connection_wait(list(active), timeout=wait_timeout):
                    unit, specs, process, _deadline_at = active.pop(conn)
                    try:
                        outcome = conn.recv()
                    except EOFError:
                        # The worker died without reporting (hard crash,
                        # OOM kill): a transient failure.
                        outcome = (
                            "err",
                            {
                                "error_type": "WorkerDied",
                                "lineage": ("WorkerDied",),
                                "message": "worker process exited without a result",
                                "traceback": None,
                            },
                        )
                    conn.close()
                    process.join()
                    if outcome[0] == "ok":
                        _, results, snapshot, digests = outcome
                        try:
                            self._verify(specs, results, digests)
                        except CorruptResultError as error:
                            outcome = ("err", _failure_info(error))
                        else:
                            self._settle(unit, results, snapshot, complete)
                            continue
                    failed(unit, outcome[1])

                now = time.monotonic()
                overdue = [conn for conn, entry in active.items() if now >= entry[3]]
                for conn in overdue:
                    unit, _specs, process, _deadline_at = active.pop(conn)
                    _terminate(process)
                    conn.close()
                    failed(unit, _timeout_info(self._deadline_of(unit), "worker killed"))
        except BaseException:
            for _unit, _specs, process, _deadline_at in active.values():
                _terminate(process)
            for conn in active:
                conn.close()
            raise

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1) -> None:
        """Bump one :class:`RunnerMetrics` field and its
        ``runtime.runner.<name>`` telemetry counter together."""
        setattr(self.metrics, name, getattr(self.metrics, name) + amount)
        self._metric_scope.counter(name).inc(amount)

    def _emit(self, index: int, done: int, total: int, source: str, spec: RunSpec) -> None:
        if self.progress is not None:
            self.progress(ProgressEvent(index=index, done=done, total=total, source=source, spec=spec))
