#!/usr/bin/env python
"""Profile a named experiment under cProfile and report hot functions.

Usage::

    python tools/profile_run.py fig2                 # top 25 by cumulative
    python tools/profile_run.py fig3 --top 40 --sort tottime
    python tools/profile_run.py smoke --json prof.json
    python tools/profile_run.py fleet-compare --cell dimetrodon+migrate
    python tools/profile_run.py scenarios --cell surge,coolest,p=0.4
    python tools/profile_run.py --perfbench rack-web --sort tottime

Runs the experiment exactly as ``python -m repro.cli`` would (fast
config, serial runner, cache disabled so the simulations actually
execute), wraps it in :mod:`cProfile`, and prints the top-N entries.
With ``--json`` the same rows are written machine-readable, which is
handy for diffing before/after an optimisation.

``--cell LABEL`` profiles one rack cell of a rack experiment
(``fleet``, ``fleet-compare``, ``scenarios``) in isolation instead of
the whole experiment — the grid is embarrassingly parallel, so
single-cell cost is what an optimisation pass actually targets.  The
label is a row of the experiment's grid definition; an unknown label
is an error that lists the known ones.

``--perfbench WORKLOAD`` profiles one cold pass of a ``perfbench``
workload (``burn-grid`` or ``rack-web``) instead of an experiment:
the pass is built and run by ``perfbench/workloads.py``, which is
loaded read-only, so a profile matches what the benchmark times without
a traced benchmark run.  ``--seed`` is the benchmark seed.

See docs/performance.md for how this fits the perf workflow.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import tempfile
import types
from pathlib import Path

# Allow running as a plain script from a fresh checkout.
try:  # pragma: no cover - import shim
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - import shim
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import EXPERIMENTS, make_runner, run_experiment
from repro.errors import ConfigurationError
from repro.telemetry import isolated

SORT_KEYS = ("cumulative", "tottime", "ncalls")

#: The benchmark's workload definitions, and the workloads whose pass
#: simulates from a cold cache (the replay workload needs a filled one).
PERFBENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
PERFBENCH_CHOICES = ("burn-grid", "rack-web")


def _profiled(call) -> pstats.Stats:
    """Stats of ``call()`` run under cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        call()
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def profile_experiment(name: str, *, seed: int = 0, full: bool = False) -> pstats.Stats:
    """Run experiment ``name`` under cProfile and return its stats."""
    runner = make_runner(jobs=1, use_cache=False)
    return _profiled(lambda: run_experiment(name, seed=seed, full=full, runner=runner))


def profile_cell(
    experiment: str, cell: str, *, seed: int = 0, full: bool = False
) -> pstats.Stats:
    """Profile one rack cell of a rack experiment in isolation.

    ``cell`` is a row label of the experiment's grid definition (a
    ``fleet-compare`` technique such as ``dimetrodon+migrate``, a
    ``fleet`` rack such as ``baseline``, or a ``scenarios`` cell such
    as ``surge,coolest,p=0.4``); the cell is built through the same
    spec path the experiment submits to the batch runner, and executed
    in-process so every simulated event is in the profile.
    """
    from repro.experiments import fast_config, full_config
    from repro.runtime.parallel import execute_spec

    config = full_config(seed) if full else fast_config(seed)
    define = getattr(EXPERIMENTS[experiment][1], "grid", None)
    if define is None:
        racks = [name for name, (_, func) in sorted(EXPERIMENTS.items()) if hasattr(func, "grid")]
        raise ConfigurationError(
            f"--cell profiles one rack cell of a rack experiment "
            f"({', '.join(racks)}); it does not apply to {experiment!r}"
        )
    spec = define(config).spec(cell)
    return _profiled(lambda: execute_spec(spec))


def _perfbench_workloads() -> dict:
    """``WORKLOADS`` of ``perfbench/workloads.py``, executed from its
    source as a private module, so no bytecode is written next to it."""
    module = types.ModuleType("_perfbench_workloads")
    module.__file__ = str(PERFBENCH_WORKLOADS)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[module.__name__] = module
    try:
        code = compile(PERFBENCH_WORKLOADS.read_text(), module.__file__, "exec")
        exec(code, module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.WORKLOADS


def profile_perfbench(name: str, *, seed: int = 0) -> pstats.Stats:
    """Profile one cold pass of ``perfbench`` workload ``name``.

    The pass runs as the benchmark runs it: set-up (``prepare``)
    outside the profile, then ``run_pass`` against a fresh cache
    directory in an isolated telemetry registry.
    """
    workload = _perfbench_workloads()[name]
    ctx = workload.prepare(seed)
    with tempfile.TemporaryDirectory(prefix="profile-run-") as cache_dir, isolated() as reg:
        return _profiled(lambda: workload.run_pass(ctx, cache_dir, reg.counters))


def stats_rows(stats: pstats.Stats, *, sort: str, top: int) -> list:
    """The top-N profile entries as JSON-ready dicts."""
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # populated by sort_stats
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, funcname = func
        rows.append(
            {
                "function": f"{filename}:{line}({funcname})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiment", nargs="?", choices=sorted(EXPERIMENTS), help="experiment to profile"
    )
    parser.add_argument(
        "--perfbench",
        metavar="WORKLOAD",
        choices=PERFBENCH_CHOICES,
        default=None,
        help="profile one cold pass of this perfbench workload "
        f"({', '.join(PERFBENCH_CHOICES)}) instead of an experiment",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment (or benchmark) seed")
    parser.add_argument("--full", action="store_true", help="paper-faithful durations instead of the fast config")
    parser.add_argument("--top", type=int, default=25, help="number of entries to report")
    parser.add_argument("--sort", choices=SORT_KEYS, default="cumulative", help="profile sort key")
    parser.add_argument("--json", type=Path, default=None, help="also write the rows as JSON here")
    parser.add_argument(
        "--cell",
        metavar="NAME",
        default=None,
        help="profile a single rack cell of a rack experiment (a row "
        "label, e.g. 'dimetrodon+migrate' for fleet-compare) instead of "
        "the whole grid",
    )
    args = parser.parse_args(argv)
    if (args.experiment is None) == (args.perfbench is None):
        parser.error("name either an experiment or a --perfbench workload")
    if args.perfbench is not None and (args.full or args.cell is not None):
        parser.error("--full and --cell apply to experiments, not to --perfbench")

    if args.perfbench is not None:
        stats = profile_perfbench(args.perfbench, seed=args.seed)
    elif args.cell is not None:
        try:
            stats = profile_cell(args.experiment, args.cell, seed=args.seed, full=args.full)
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        stats = profile_experiment(args.experiment, seed=args.seed, full=args.full)

    out = io.StringIO()
    stats.stream = out
    stats.sort_stats(args.sort).print_stats(args.top)
    print(out.getvalue())

    if args.json is not None:
        payload = {
            "experiment": args.experiment,
            "perfbench": args.perfbench,
            "cell": args.cell,
            "seed": args.seed,
            "full": args.full,
            "sort": args.sort,
            "total_time_s": stats.total_tt,
            "rows": stats_rows(stats, sort=args.sort, top=args.top),
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"profile rows written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
