"""Command-line experiment runner: ``python -m repro <experiment>``.

Examples
--------
::

    python -m repro list
    python -m repro fig3
    python -m repro fig3 --jobs 4               # fan runs out over 4 workers
    python -m repro fig4 --full --seed 7
    python -m repro smoke --jobs 2              # tiny end-to-end batch check
    python -m repro all --no-cache
    python -m repro fig3 --jobs 4 --timeout 120 --keep-going
    python -m repro fig3 --resume               # pick up an interrupted sweep
    python -m repro smoke --inject-faults "crash@1,hang@3:30"  # chaos test

Every experiment is built from independent runs — single-machine
runs (the figures, table1, the validations, smoke) or rack cells
(fleet, fleet-compare, scenarios) — and executes through the
:mod:`repro.runtime` batch layer: ``--jobs N`` runs them on a worker
pool and results are cached on disk (default ``.repro-cache/``) so a
repeat invocation is nearly instant.  Batch runs are hardened:
``--timeout`` kills hung workers, transient failures retry with
backoff (``--max-retries``), an interrupted sweep resumes from its
journal (``--resume``), ``--keep-going`` degrades gracefully past
terminal failures, and ``--inject-faults`` chaos-tests all of the
above (see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .experiments import (
    fast_config,
    fig1_power_trace,
    fig2_temperature_timeseries,
    fig3_efficiency,
    fig4_technique_comparison,
    fig5_per_thread_control,
    fig6_webserver_qos,
    full_config,
    smoke_sweep,
    table1_spec_workloads,
    validate_energy_model,
    validate_throughput_model,
)
from .errors import ConfigurationError, ExecutionError
from .experiments.reporting import format_failure_report
from .faults import FaultPlan
from .fleet import fleet_compare_experiment, fleet_experiment, scenarios_experiment
from .fleet.scheduling import POLICY_NAMES
from .health import HealthParams
from .runtime import (
    ParallelRunner,
    ProgressEvent,
    ResultCache,
    RetryPolicy,
    SweepJournal,
    code_fingerprint,
    config_hash,
)
from .telemetry import MetricsRegistry, RunManifest, git_describe, isolated

#: Where run results are cached unless ``--cache-dir`` overrides it.
DEFAULT_CACHE_DIR = ".repro-cache"

#: The sweep journal lives inside the cache dir: resume needs both.
JOURNAL_NAME = "journal.jsonl"

#: experiment name -> (description, runner).
EXPERIMENTS: Dict[str, tuple] = {
    "fig1": ("race-to-idle vs Dimetrodon power trace", fig1_power_trace),
    "fig2": ("temperature rise vs time for several p", fig2_temperature_timeseries),
    "fig3": ("efficiency vs idle quantum length", fig3_efficiency),
    "fig4": ("Dimetrodon vs VFS vs p4tcc sweeps", fig4_technique_comparison),
    "fig5": ("global vs per-thread control", fig5_per_thread_control),
    "fig6": ("web server QoS vs temperature reduction", fig6_webserver_qos),
    "fleet": ("datacenter rack behind a load balancer (fleet-scale)", fleet_experiment),
    "fleet-compare": (
        "thermal techniques compared rack-wide (fig4 at fleet scale)",
        fleet_compare_experiment,
    ),
    "scenarios": (
        "injection x load shape x policy sweep with windowed SLO scoring",
        scenarios_experiment,
    ),
    "table1": ("SPEC CPU2006 profiles and fits", table1_spec_workloads),
    "validate-throughput": ("throughput model validation (§3.3)", validate_throughput_model),
    "validate-energy": ("energy model validation (§3.3)", validate_energy_model),
    "smoke": ("tiny sweep exercising the batch runtime (CI)", smoke_sweep),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimetrodon",
        description="Reproduce the Dimetrodon (DAC 2011) evaluation on a "
        "simulated server testbed.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="experiment to run ('list' prints descriptions)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment RNG seed")
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-faithful timing (300 s runs) instead of the fast preset",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for batch experiments (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"on-disk result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run every simulation even if a cached result exists",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed batch run, with live counters",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON run manifest (config hash, seed, git state, "
        "timings, aggregated metrics) to PATH after the run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock deadline; a hung worker is killed and the "
        "run retried (default: no deadline)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="retries per run after a transient failure (default: 1; "
        "permanent errors such as bad parameters never retry)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep: replay runs recorded in the "
        "cache dir's journal and execute only the remainder",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="collect terminally failed runs into a failure report instead "
        "of aborting the sweep (exit code 1 if any run was abandoned)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="PLAN",
        help="chaos-test the batch runtime: inject deterministic faults, "
        'e.g. "crash@1,hang@3:30,poison@0" or "seed=7,crash=1,hang=1" '
        "(see docs/robustness.md)",
    )
    parser.add_argument(
        "--policy",
        metavar="NAME",
        default=None,
        help="scheduling policy for the fleet/scenarios experiments "
        f"({', '.join(POLICY_NAMES)}; see docs/fleet.md)",
    )
    parser.add_argument(
        "--health-warning-rise",
        type=float,
        default=None,
        metavar="C",
        help="health monitor: warning threshold as degrees C above the "
        "idle mean (default: 3.5; see docs/monitoring.md)",
    )
    parser.add_argument(
        "--health-critical-rise",
        type=float,
        default=None,
        metavar="C",
        help="health monitor: critical threshold as degrees C above the "
        "idle mean (default: 5.5)",
    )
    parser.add_argument(
        "--health-period",
        type=float,
        default=None,
        metavar="SECONDS",
        help="health monitor sampling period (default: 1.0)",
    )
    return parser


def supports_policy(func: Callable) -> bool:
    """Whether an experiment accepts the scheduling ``policy`` keyword."""
    return "policy" in inspect.signature(func).parameters


def supports_health(func: Callable) -> bool:
    """Whether an experiment accepts the ``health_params`` keyword
    (monitoring threshold overrides)."""
    return "health_params" in inspect.signature(func).parameters


def experiments_supporting(supports: Callable[[Callable], bool]) -> str:
    """The registered experiments whose entry point passes ``supports``,
    comma-separated in name order (for error messages)."""
    return ", ".join(
        name for name in sorted(EXPERIMENTS) if supports(EXPERIMENTS[name][1])
    )


def health_params_from_args(args: argparse.Namespace) -> Optional[HealthParams]:
    """Build the ``--health-*`` override, or None when no flag was given
    (experiments then use the :class:`~repro.health.HealthParams`
    defaults)."""
    overrides = {}
    if args.health_warning_rise is not None:
        overrides["warning_rise"] = args.health_warning_rise
    if args.health_critical_rise is not None:
        overrides["critical_rise"] = args.health_critical_rise
    if args.health_period is not None:
        overrides["period"] = args.health_period
    if not overrides:
        return None
    return HealthParams(**overrides)


def validate_health(experiment: str, params: Optional[HealthParams]) -> None:
    """Reject ``--health-*`` flags on experiments without monitors."""
    if params is None or experiment == "all":
        return
    func = EXPERIMENTS.get(experiment, (None, None))[1]
    if func is None or not supports_health(func):
        raise ConfigurationError(
            f"--health-* flags apply only to experiments with health "
            f"monitors ({experiments_supporting(supports_health)}), not "
            f"{experiment!r}"
        )


def validate_policy(experiment: str, policy: Optional[str]) -> None:
    """Reject a bad ``--policy`` before any simulation starts."""
    if policy is None:
        return
    if policy not in POLICY_NAMES:
        raise ConfigurationError(
            f"unknown scheduling policy {policy!r} "
            f"(known: {', '.join(POLICY_NAMES)})"
        )
    func = EXPERIMENTS.get(experiment, (None, None))[1]
    if func is None or not supports_policy(func):
        raise ConfigurationError(
            f"--policy applies only to experiments that take a scheduling "
            f"policy ({experiments_supporting(supports_policy)}), not "
            f"{experiment!r}"
        )


def _print_progress(event: ProgressEvent, runner: Optional[ParallelRunner] = None) -> None:
    params = ", ".join(f"{k}={v}" for k, v in event.spec.params.items())
    line = (
        f"  [{event.done}/{event.total}] {event.source:<6s} "
        f"{event.spec.kind}({params})"
    )
    if runner is not None:
        # Live counters: cumulative over the runner's whole lifetime.
        line += f" | {runner.metrics.summary()}"
    print(line, file=sys.stderr)


def make_runner(
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    progress: bool = False,
    timeout: Optional[float] = None,
    max_retries: int = 1,
    resume: bool = False,
    keep_going: bool = False,
    inject_faults: Optional[str] = None,
) -> ParallelRunner:
    """The CLI's batch runner: pool + cache + journal + retry policy.

    With caching enabled the runner also journals completions into
    ``<cache-dir>/journal.jsonl``; ``resume=True`` keeps (instead of
    truncating) that journal, replaying its runs from the cache.
    """
    if max_retries < 0:
        raise ConfigurationError(f"--max-retries must be >= 0, got {max_retries}")
    if resume and not use_cache:
        raise ConfigurationError("--resume needs the cache (drop --no-cache)")
    cache_dir = cache_dir or DEFAULT_CACHE_DIR
    cache = ResultCache(cache_dir) if use_cache else None
    journal = (
        SweepJournal(Path(cache_dir) / JOURNAL_NAME, resume=resume)
        if use_cache
        else None
    )
    runner = ParallelRunner(
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retry_policy=RetryPolicy(max_attempts=1 + max_retries),
        journal=journal,
        keep_going=keep_going,
        fault_plan=FaultPlan.parse(inject_faults) if inject_faults else None,
    )
    if progress:
        runner.progress = lambda event: _print_progress(event, runner)
    return runner


def run_experiment(
    name: str,
    *,
    seed: int = 0,
    full: bool = False,
    runner: Optional[ParallelRunner] = None,
    timings: Optional[Dict[str, float]] = None,
    policy: Optional[str] = None,
    artifacts: Optional[Dict[str, object]] = None,
    health_params: Optional[HealthParams] = None,
    health: Optional[Dict[str, object]] = None,
) -> str:
    """Run one experiment through ``runner`` (None: a serial, uncached
    one) and return its rendered text with a status line.

    ``timings``, when given, collects the experiment's wall seconds
    under its name (the manifest records these).  ``policy`` is passed
    through to experiments that take a scheduling policy (the fleet);
    asking for it elsewhere is a :class:`ConfigurationError`.
    ``artifacts``, when given, collects ``result.manifest_payload()``
    under the experiment's name for results that return one (the
    ``scenarios`` experiment's per-window SLO series).  ``health_params``
    overrides the monitoring thresholds for experiments that run health
    monitors; ``health``, when given, collects ``result.health_payload()``
    under the experiment's name (the manifest's ``health`` section).
    """
    config = full_config(seed) if full else fast_config(seed)
    _, func = EXPERIMENTS[name]
    kwargs = {}
    if policy is not None:
        validate_policy(name, policy)
        kwargs["policy"] = policy
    if health_params is not None and supports_health(func):
        kwargs["health_params"] = health_params
    runner = runner if runner is not None else ParallelRunner()
    executed_before = runner.metrics.executed
    hits_before = runner.metrics.cache_hits
    started = time.time()
    result = func(config, runner=runner, **kwargs)
    elapsed = time.time() - started
    executed = runner.metrics.executed - executed_before
    hits = runner.metrics.cache_hits - hits_before
    status = (
        f"[{name}: {elapsed:.1f}s wall | runs: {executed} executed, "
        f"{hits} cached | jobs={runner.jobs}]"
    )
    if timings is not None:
        timings[name] = elapsed
    if artifacts is not None:
        payload = getattr(result, "manifest_payload", lambda: None)()
        if payload is not None:
            artifacts[name] = payload
    if health is not None and hasattr(result, "health_payload"):
        health[name] = result.health_payload()
    return f"{result.render()}\n{status}"


def build_manifest(
    *,
    names: List[str],
    seed: int,
    full: bool,
    runner: ParallelRunner,
    metrics_registry: MetricsRegistry,
    timings: Dict[str, float],
    resumed: bool = False,
    artifacts: Optional[Dict[str, object]] = None,
    health: Optional[Dict[str, object]] = None,
) -> RunManifest:
    """Assemble the run manifest for one CLI invocation."""
    config = full_config(seed) if full else fast_config(seed)
    return RunManifest(
        experiments=list(names),
        seed=seed,
        config_hash=config_hash(config),
        code_fingerprint=code_fingerprint(),
        jobs=runner.jobs,
        resumed=resumed,
        git=git_describe(Path(__file__).resolve().parent),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        timings=timings,
        runner=dataclasses.asdict(runner.metrics),
        cache=dataclasses.asdict(runner.cache.stats) if runner.cache else None,
        failures=runner.failure_report.to_dict() if runner.failure_report else None,
        metrics=metrics_registry.snapshot(),
        artifacts=artifacts or {},
        health=health or {},
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:22s} {EXPERIMENTS[name][0]}")
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # A fresh registry per invocation: the manifest's metrics cover
    # exactly this run, even when main() is called repeatedly in-process.
    with isolated() as metrics_registry:
        try:
            validate_policy(args.experiment, args.policy)
            health_params = health_params_from_args(args)
            validate_health(args.experiment, health_params)
            runner = make_runner(
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                progress=args.progress,
                timeout=args.timeout,
                max_retries=args.max_retries,
                resume=args.resume,
                keep_going=args.keep_going,
                inject_faults=args.inject_faults,
            )
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        timings: Dict[str, float] = {}
        artifacts: Dict[str, object] = {}
        health: Dict[str, object] = {}
        aborted = False
        try:
            try:
                for name in names:
                    print(
                        run_experiment(
                            name,
                            seed=args.seed,
                            full=args.full,
                            runner=runner,
                            timings=timings,
                            policy=args.policy,
                            artifacts=artifacts,
                            health_params=health_params,
                            health=health,
                        )
                    )
                    print()
            except ExecutionError as error:
                # An experiment lost a run it cannot do without (a
                # terminal failure, or one abandoned under --keep-going
                # that it needs): report it, then the failures, below.
                print(f"error: {error}", file=sys.stderr)
                aborted = True
            if runner.failure_report:
                print(format_failure_report(runner.failure_report))
                print()
            if args.metrics:
                manifest = build_manifest(
                    names=names,
                    seed=args.seed,
                    full=args.full,
                    runner=runner,
                    metrics_registry=metrics_registry,
                    timings=timings,
                    resumed=args.resume,
                    artifacts=artifacts,
                    health=health,
                )
                path = manifest.write(args.metrics)
                print(f"[manifest written to {path}]", file=sys.stderr)
        finally:
            # The journal must be durable even on SIGINT/failure: that is
            # what a later --resume replays.
            if runner.journal is not None:
                runner.journal.close()
    return 1 if aborted or runner.failure_report.fatal else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
