"""Tests for the command-line interface."""

import inspect

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_parser,
    main,
    make_runner,
    run_experiment,
)


def test_experiment_registry_covers_every_figure_and_table():
    assert {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1"} <= set(EXPERIMENTS)
    assert "validate-throughput" in EXPERIMENTS
    assert "validate-energy" in EXPERIMENTS
    assert "smoke" in EXPERIMENTS


def test_parser_accepts_known_experiment():
    args = build_parser().parse_args(["fig1", "--seed", "3"])
    assert args.experiment == "fig1"
    assert args.seed == 3
    assert not args.full
    assert args.jobs == 1
    assert not args.no_cache


def test_parser_accepts_batch_flags(tmp_path):
    args = build_parser().parse_args(
        ["fig3", "--jobs", "4", "--cache-dir", str(tmp_path), "--no-cache"]
    )
    assert args.jobs == 4
    assert args.cache_dir == str(tmp_path)
    assert args.no_cache


def test_batch_experiments_accept_a_runner():
    # Every experiment runs through the batch runtime: there is no
    # second, runner-less wiring path.
    for name, (_, func) in EXPERIMENTS.items():
        assert "runner" in inspect.signature(func).parameters, name


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_list_prints_descriptions(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out
    assert "power trace" in out


def test_run_experiment_returns_rendered_text():
    text = run_experiment("fig1", seed=0)
    assert "Figure 1" in text
    assert "wall | runs: 1 executed, 0 cached | jobs=1]" in text


def test_main_runs_single_experiment(capsys, tmp_path, monkeypatch):
    # Run from a temp cwd to keep the default cache dir out of the
    # repo tree.
    monkeypatch.chdir(tmp_path)
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_smoke_experiment_uses_cache_on_second_run(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    assert main(["smoke", "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert "5 executed, 0 cached" in first

    assert main(["smoke", "--cache-dir", cache_dir]) == 0
    second = capsys.readouterr().out
    assert "0 executed, 5 cached" in second
    # Cached replay reproduces the simulated numbers exactly (compare
    # the rendered table, not the wall-clock status line).
    assert first.splitlines()[:7] == second.splitlines()[:7]


def test_no_cache_flag_forces_execution(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    assert main(["smoke", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["smoke", "--cache-dir", cache_dir, "--no-cache"]) == 0
    assert "5 executed, 0 cached" in capsys.readouterr().out


def test_progress_lines_include_live_counters(capsys, tmp_path):
    assert main(["smoke", "--cache-dir", str(tmp_path / "c"), "--progress"]) == 0
    err = capsys.readouterr().err
    assert "[5/5]" in err
    assert "| 5 executed, 0 cached" in err


def test_metrics_flag_writes_manifest(tmp_path):
    from repro.runtime import code_fingerprint
    from repro.telemetry import RunManifest

    manifest_path = tmp_path / "manifest.json"
    cache_dir = str(tmp_path / "cache")
    assert (
        main(["smoke", "--cache-dir", cache_dir, "--metrics", str(manifest_path)]) == 0
    )
    manifest = RunManifest.load(manifest_path)
    assert manifest.experiments == ["smoke"]
    assert manifest.seed == 0
    assert manifest.jobs == 1
    assert manifest.code_fingerprint == code_fingerprint()
    assert len(manifest.config_hash) == 64
    assert "smoke" in manifest.timings
    runner = manifest.runner
    assert runner["executed"] + runner["cache_hits"] == runner["submitted"] == 5
    assert manifest.cache["stores"] == 5
    assert manifest.metrics["sim.engine.events"]["value"] > 0
    assert manifest.metrics["core.injector.injections"]["value"] > 0

    # A cached replay's manifest accounts every run to the cache.
    replay_path = tmp_path / "replay.json"
    assert main(["smoke", "--cache-dir", cache_dir, "--metrics", str(replay_path)]) == 0
    replay = RunManifest.load(replay_path)
    assert replay.runner["executed"] == 0
    assert replay.runner["cache_hits"] == 5
    # Fresh registry per invocation: no carry-over between manifests.
    assert "sim.engine.events" not in replay.metrics


def test_manifest_metrics_identical_serial_vs_jobs2(tmp_path):
    """The headline guarantee: a --jobs 2 sweep's aggregated pool
    counters exactly match a serial sweep of the same config."""
    from repro.telemetry import RunManifest

    paths = []
    for jobs, tag in (("1", "serial"), ("2", "pool")):
        manifest_path = tmp_path / f"{tag}.json"
        code = main(
            [
                "smoke",
                "--jobs",
                jobs,
                "--cache-dir",
                str(tmp_path / tag),
                "--metrics",
                str(manifest_path),
            ]
        )
        assert code == 0
        paths.append(manifest_path)
    serial, pool = (RunManifest.load(p) for p in paths)
    serial_counters = {
        k: v["value"] for k, v in serial.metrics.items() if v["kind"] == "counter"
    }
    pool_counters = {
        k: v["value"] for k, v in pool.metrics.items() if v["kind"] == "counter"
    }
    assert serial_counters == pool_counters
    assert serial.runner == pool.runner


def test_make_runner_honours_flags(tmp_path):
    runner = make_runner(jobs=3, cache_dir=str(tmp_path), use_cache=True)
    assert runner.jobs == 3
    assert runner.cache is not None
    assert runner.journal is not None  # caching implies journaling
    runner.journal.close()
    uncached = make_runner(use_cache=False)
    assert uncached.cache is None
    assert uncached.journal is None


def test_parser_accepts_robustness_flags():
    args = build_parser().parse_args(
        [
            "smoke",
            "--timeout",
            "30",
            "--max-retries",
            "2",
            "--resume",
            "--keep-going",
            "--inject-faults",
            "crash@1",
        ]
    )
    assert args.timeout == 30.0
    assert args.max_retries == 2
    assert args.resume
    assert args.keep_going
    assert args.inject_faults == "crash@1"
    # And all of them default off.
    defaults = build_parser().parse_args(["smoke"])
    assert defaults.timeout is None
    assert defaults.max_retries == 1
    assert not defaults.resume
    assert not defaults.keep_going
    assert defaults.inject_faults is None


def test_make_runner_builds_retry_policy_and_fault_plan(tmp_path):
    runner = make_runner(
        cache_dir=str(tmp_path),
        use_cache=True,
        timeout=30.0,
        max_retries=3,
        keep_going=True,
        inject_faults="crash@1",
    )
    assert runner.timeout == 30.0
    assert runner.retry_policy.max_attempts == 4  # first try + 3 retries
    assert runner.keep_going
    assert runner.fault_plan.faults[0].kind == "crash"
    runner.journal.close()


def test_make_runner_rejects_bad_robustness_flags(tmp_path):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        make_runner(max_retries=-1)
    with pytest.raises(ConfigurationError):
        make_runner(use_cache=False, resume=True)
    with pytest.raises(ConfigurationError):
        make_runner(cache_dir=str(tmp_path), use_cache=True, inject_faults="nope")
    for timeout in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ConfigurationError, match="timeout"):
            make_runner(use_cache=False, timeout=timeout)


def test_main_reports_flag_conflicts_as_exit_2(capsys):
    assert main(["smoke", "--no-cache", "--resume"]) == 2
    assert "--resume needs the cache" in capsys.readouterr().err


def test_injected_crash_recovers_and_is_reported(capsys, tmp_path):
    """A seeded crash is retried transparently: same table as a clean
    run, exit 0, and the failure report names the injected fault."""
    cache_dir = str(tmp_path / "cache")
    assert main(["smoke", "--cache-dir", cache_dir]) == 0
    clean = capsys.readouterr().out

    chaos_dir = str(tmp_path / "chaos")
    assert main(["smoke", "--cache-dir", chaos_dir, "--inject-faults", "crash@1"]) == 0
    chaotic = capsys.readouterr().out
    assert chaotic.splitlines()[:7] == clean.splitlines()[:7]
    assert "InjectedFaultError" in chaotic
    assert "recovered" in chaotic


def test_abandoned_run_fails_the_invocation_under_keep_going(capsys, tmp_path):
    """--max-retries 0 turns the injected crash terminal; --keep-going
    finishes the sweep but the exit code still reports the loss."""
    code = main(
        [
            "smoke",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--max-retries",
            "0",
            "--keep-going",
            "--inject-faults",
            "crash@1",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "ABANDONED" in out


def test_manifest_records_failures_and_resume(tmp_path):
    from repro.telemetry import RunManifest

    cache_dir = str(tmp_path / "cache")
    manifest_path = tmp_path / "manifest.json"
    assert (
        main(
            [
                "smoke",
                "--cache-dir",
                cache_dir,
                "--inject-faults",
                "crash@1",
                "--metrics",
                str(manifest_path),
            ]
        )
        == 0
    )
    manifest = RunManifest.load(manifest_path)
    assert manifest.resumed is False
    assert manifest.failures["attempts_failed"] == 1
    assert manifest.failures["recovered"] == 1
    assert manifest.failures["fatal"] == 0
    assert manifest.failures["failures"][0]["error_type"] == "InjectedFaultError"
    assert manifest.runner["retries"] == 1

    # A --resume invocation replays the journaled sweep entirely.
    resume_path = tmp_path / "resume.json"
    assert (
        main(
            ["smoke", "--cache-dir", cache_dir, "--resume", "--metrics", str(resume_path)]
        )
        == 0
    )
    resumed = RunManifest.load(resume_path)
    assert resumed.resumed is True
    assert resumed.failures is None
    runner = resumed.runner
    assert runner["executed"] == 0 and runner["cache_hits"] == 0
    assert runner["replayed"] == runner["submitted"] == 5


# ======================================================================
# Scheduling policy flag (--policy)
# ======================================================================
def test_parser_accepts_policy_flag():
    args = build_parser().parse_args(["fleet", "--policy", "coolest"])
    assert args.experiment == "fleet"
    assert args.policy == "coolest"
    assert build_parser().parse_args(["fleet"]).policy is None


def test_unknown_policy_is_a_configuration_error_not_a_traceback(capsys):
    assert main(["fleet", "--policy", "warmest-first"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "unknown scheduling policy" in captured.err
    assert "round-robin" in captured.err  # the known names are listed
    assert "Traceback" not in captured.err + captured.out


def test_policy_flag_rejected_for_non_fleet_experiments(capsys):
    assert main(["fig1", "--policy", "coolest"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err + captured.out


def _listed_experiments(message):
    """The experiment names a validation error lists in parentheses."""
    import re

    (listed,) = re.findall(r"\(([^()]*)\), not", message)
    return set(listed.split(", "))


def test_flag_errors_name_exactly_the_supporting_experiments():
    from repro.cli import supports_health, supports_policy, validate_health, validate_policy
    from repro.errors import ConfigurationError
    from repro.health import HealthParams

    for validate, value, supports in (
        (validate_policy, "coolest", supports_policy),
        (validate_health, HealthParams(), supports_health),
    ):
        with pytest.raises(ConfigurationError) as error:
            validate("fig1", value)
        expected = {name for name, (_, func) in EXPERIMENTS.items() if supports(func)}
        assert _listed_experiments(str(error.value)) == expected


def test_run_experiment_rejects_policy_for_non_fleet():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_experiment("fig1", seed=0, policy="coolest")


@pytest.mark.slow
def test_fleet_policies_end_to_end_with_manifests(tmp_path, capsys):
    """The acceptance run: `python -m repro fleet --policy <name>` for
    every registered policy, each writing a manifest that carries the
    migration counters and per-machine placement histogram."""
    from repro.fleet.scheduling import POLICY_NAMES
    from repro.telemetry import RunManifest

    for name in POLICY_NAMES:
        manifest_path = tmp_path / f"{name}.json"
        assert (
            main(
                [
                    "fleet",
                    "--policy",
                    name,
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--metrics",
                    str(manifest_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"policy {name}" in out
        manifest = RunManifest.load(manifest_path)
        assert manifest.experiments == ["fleet"]
        assert "fleet.migrations" in manifest.metrics
        assert "fleet.migration_cost_ms" in manifest.metrics
        assert manifest.metrics["fleet.balancer.routed"]["value"] > 0
        placement = [
            manifest.metrics[key]["value"]
            for key in manifest.metrics
            if key.startswith("fleet.placement.m")
        ]
        assert sum(placement) == manifest.metrics["fleet.balancer.routed"]["value"]
        if name in ("migrate", "cache-aware"):
            assert manifest.metrics["fleet.migrations"]["value"] >= 0


# ----------------------------------------------------------------------
# Health monitoring flags
# ----------------------------------------------------------------------
def test_parser_accepts_health_flags():
    args = build_parser().parse_args(
        [
            "fleet",
            "--health-warning-rise",
            "2.0",
            "--health-critical-rise",
            "4.0",
            "--health-period",
            "0.5",
        ]
    )
    assert args.health_warning_rise == 2.0
    assert args.health_critical_rise == 4.0
    assert args.health_period == 0.5
    defaults = build_parser().parse_args(["fleet"])
    assert defaults.health_warning_rise is None
    assert defaults.health_critical_rise is None
    assert defaults.health_period is None


def test_health_params_from_args_builds_override_only_when_flagged():
    from repro.cli import health_params_from_args

    assert health_params_from_args(build_parser().parse_args(["fleet"])) is None
    params = health_params_from_args(
        build_parser().parse_args(["fleet", "--health-critical-rise", "9.0"])
    )
    assert params.critical_rise == 9.0
    assert params.warning_rise == 3.5  # untouched default


@pytest.mark.parametrize("period", ["nan", "inf", "0"])
def test_bad_health_period_exits_2_before_running(monkeypatch, capsys, period):
    def fig2(config, health_params=None):
        pytest.fail(f"fig2 ran with --health-period {period}")

    monkeypatch.setitem(EXPERIMENTS, "fig2", ("stub", fig2))
    assert main(["fig2", "--health-period", period]) == 2
    captured = capsys.readouterr()
    assert "health monitor period" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("timeout", ["nan", "inf", "0"])
def test_bad_timeout_exits_2_before_running(monkeypatch, capsys, timeout):
    def smoke(config, runner=None):
        pytest.fail(f"smoke ran with --timeout {timeout}")

    monkeypatch.setitem(EXPERIMENTS, "smoke", ("stub", smoke))
    assert main(["smoke", "--no-cache", "--timeout", timeout]) == 2
    captured = capsys.readouterr()
    assert "timeout must be" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_supports_health_covers_monitored_experiments():
    from repro.cli import supports_health

    monitored = {
        name for name, (_, func) in EXPERIMENTS.items() if supports_health(func)
    }
    assert monitored == {"fig2", "fleet", "fleet-compare", "scenarios"}


def test_health_flags_rejected_for_unmonitored_experiments(capsys):
    assert main(["fig1", "--health-critical-rise", "9.0"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "--health-" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_inverted_health_thresholds_are_a_configuration_error(capsys):
    assert (
        main(
            [
                "fleet",
                "--health-warning-rise",
                "9.0",
                "--health-critical-rise",
                "3.0",
            ]
        )
        == 2
    )
    captured = capsys.readouterr()
    assert "critical rise must exceed warning rise" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_fleet_manifest_carries_health_section(tmp_path, capsys):
    """`python -m repro fleet --metrics` records the structured health
    section: config + totals per rack, plus health.* telemetry."""
    from repro.telemetry import RunManifest

    manifest_path = tmp_path / "fleet.json"
    assert (
        main(
            [
                "fleet",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics",
                str(manifest_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "alerts" in out and "crit [s]" in out
    manifest = RunManifest.load(manifest_path)
    health = manifest.health["fleet"]
    assert set(health) == {"baseline", "dimetrodon"}
    for rack in health.values():
        assert rack["config"]["thresholds"]["critical_c"] > 0
        assert rack["totals"]["alerts"] >= 0
    # The hot web baseline trips critical with default thresholds.
    assert health["baseline"]["totals"]["critical_alerts"] > 0
    assert health["baseline"]["totals"]["time_in_critical_s"] > 0
    assert manifest.metrics["health.samples"]["value"] > 0


def test_cool_thresholds_give_alert_free_manifest(tmp_path):
    """Raising the thresholds far above any reachable rise makes the
    same run alert-free (the CI monitor-smoke cool case)."""
    from repro.telemetry import RunManifest

    manifest_path = tmp_path / "cool.json"
    assert (
        main(
            [
                "fleet",
                "--health-warning-rise",
                "80",
                "--health-critical-rise",
                "90",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics",
                str(manifest_path),
            ]
        )
        == 0
    )
    manifest = RunManifest.load(manifest_path)
    for rack in manifest.health["fleet"].values():
        assert rack["totals"]["alerts"] == 0
        assert rack["totals"]["time_in_critical_s"] == 0.0
        assert rack["config"]["warning_rise_c"] == 80.0
