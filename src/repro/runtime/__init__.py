"""Batch execution runtime: parallel fan-out, caching, fault tolerance.

Every figure and table of the evaluation is assembled from dozens of
*independent* characterization / finite runs.  This package executes
those batches:

- :class:`ParallelRunner` fans :class:`RunSpec` batches out over
  worker processes (results always returned in submission order, so
  outputs are bit-identical to a serial run), enforces per-run
  wall-clock deadlines by killing hung workers, retries transient
  failures under a :class:`RetryPolicy` (exponential backoff,
  deterministic jitter, permanent errors fail fast), and can keep
  going past terminal failures, collecting them into a
  :class:`FailureReport`;
- :func:`register_executor` declares a run kind in one call: its
  executor, the result type the cache stores, and the source trees
  whose fingerprint keys it (:mod:`repro.runtime.kinds`);
- :class:`ResultCache` persists results on disk keyed by a stable hash
  of ``(config, run parameters, the kind's code fingerprint)`` —
  stores are fsync'd-atomic and corrupt entries are quarantined;
- :class:`SweepJournal` is the crash-safe record of completed run
  keys (append-only fsync'd JSONL) behind ``--resume``;
- :class:`RunnerMetrics` / progress hooks report runs completed, cache
  hits/replays, retries, timeouts, and abandoned runs;
- :func:`run_required` runs a batch for an experiment that cannot do
  without some (or all) of its runs, and fails it naming the ones an
  abandoned run left without a result.

Fault injection for all of the above lives in :mod:`repro.faults`.
See ``docs/running-experiments.md`` and ``docs/robustness.md``.
"""

from .cache import CacheStats, ResultCache
from .failures import FailureReport, RunFailure
from .hashing import (
    CACHE_SCHEMA_VERSION,
    code_fingerprint,
    config_hash,
    freeze,
    spec_key,
)
from .journal import SweepJournal
from .kinds import register_executor, run_kind
from .parallel import (
    ParallelRunner,
    ProgressEvent,
    RunnerMetrics,
    RunSpec,
    characterization_spec,
    finite_cpuburn_spec,
    run_required,
)
from .policy import PERMANENT, PERMANENT_ERROR_TYPES, TIMEOUT, TRANSIENT, RetryPolicy

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "FailureReport",
    "PERMANENT",
    "PERMANENT_ERROR_TYPES",
    "ParallelRunner",
    "ProgressEvent",
    "ResultCache",
    "RetryPolicy",
    "RunFailure",
    "RunSpec",
    "RunnerMetrics",
    "SweepJournal",
    "TIMEOUT",
    "TRANSIENT",
    "characterization_spec",
    "code_fingerprint",
    "config_hash",
    "finite_cpuburn_spec",
    "freeze",
    "register_executor",
    "run_kind",
    "run_required",
    "spec_key",
]
