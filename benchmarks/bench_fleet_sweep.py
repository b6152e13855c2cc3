"""Benchmark: fleet sweeps through the batch layer (pool + cache).

Times one small ``scenarios`` grid — every cell an independent rack
simulation (:mod:`repro.fleet.cells`) — three ways:

- **serial**: one in-process runner, the pre-batch-layer behaviour;
- **jobs=2**: the same grid fanned out over two worker processes
  (results are bit-identical to serial — this file asserts it);
  serial and jobs=2 alternate ``REPEATS`` times and each reports its
  best wall, so ``pooled_speedup`` is a ratio of minima;
- **cached replay**: the same grid again against a warm result cache,
  which must execute zero simulations and take near-zero time.

Runs in two modes:

- as a pytest test (``pytest benchmarks/bench_fleet_sweep.py``) it
  checks the equivalence and replay guarantees without timing
  assertions (CI boxes share cores; jobs=2 wall time is not stable);
- as a script (``python benchmarks/bench_fleet_sweep.py``) it merges a
  ``fleet_sweep`` section into ``BENCH_thermal.json`` (preserving the
  kernel results already there).  With ``--check`` it exits non-zero
  if pooled results diverge from serial or the cached replay simulated
  anything.

See docs/performance.md ("Parallel fleet sweeps") for how to read the
numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

# Allow running as a plain script from a fresh checkout.
try:  # pragma: no cover - import shim
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - import shim
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import fast_config
from repro.fleet.scenarios import scenarios_experiment
from repro.runtime import ParallelRunner, ResultCache

#: The benchmark grid: 2 shapes x 1 policy x 2 p values = 4 rack cells,
#: small enough to run three times in a CI smoke job.
GRID = dict(
    machines=2,
    duration=12.0,
    warmup=2.0,
    shapes=("constant", "trace"),
    policies=("round-robin",),
    p_values=(0.6,),  # p=0 is always added: 4 cells total
)


def _rows_equal(a, b) -> bool:
    return len(a.rows) == len(b.rows) and all(
        ra == rb for ra, rb in zip(a.rows, b.rows)
    )


#: Serial and pooled runs alternate this many times each; the speed-up
#: is the ratio of the two minima.  A single pair of ~1 s timings says
#: more about host load than about the pool.
REPEATS = 3


def _timed(config, jobs: int):
    t0 = time.perf_counter()
    result = scenarios_experiment(config, **GRID, runner=ParallelRunner(jobs=jobs))
    return result, time.perf_counter() - t0


def run_benchmark(*, seed: int = 0, jobs: int = 2) -> dict:
    """Time the grid serial, pooled, and cache-replayed; verify the
    equivalence guarantees; return the JSON-ready summary."""
    config = fast_config(seed)

    serials, pooleds, serial_walls, pooled_walls = [], [], [], []
    for _ in range(REPEATS):
        serial, wall = _timed(config, 1)
        serials.append(serial)
        serial_walls.append(wall)
        pooled, wall = _timed(config, jobs)
        pooleds.append(pooled)
        pooled_walls.append(wall)
    serial = serials[0]
    serial_wall, pooled_wall = min(serial_walls), min(pooled_walls)

    with tempfile.TemporaryDirectory(prefix="bench-fleet-sweep-") as cache_dir:
        warm_runner = ParallelRunner(jobs=1, cache=ResultCache(cache_dir))
        warm = scenarios_experiment(config, **GRID, runner=warm_runner)

        replay_runner = ParallelRunner(jobs=1, cache=ResultCache(cache_dir))
        t0 = time.perf_counter()
        replayed = scenarios_experiment(config, **GRID, runner=replay_runner)
        replay_wall = time.perf_counter() - t0

    cells = len(serial.rows)
    return {
        "grid": {k: list(v) if isinstance(v, tuple) else v for k, v in GRID.items()},
        "cells": cells,
        "jobs": jobs,
        "repeats": REPEATS,
        "serial_wall_s": serial_wall,
        "pooled_wall_s": pooled_wall,
        "serial_walls_s": serial_walls,
        "pooled_walls_s": pooled_walls,
        "pooled_speedup": serial_wall / pooled_wall if pooled_wall > 0 else 0.0,
        "replay_wall_s": replay_wall,
        "replay_speedup": serial_wall / replay_wall if replay_wall > 0 else 0.0,
        "pooled_equals_serial": all(_rows_equal(serial, run) for run in serials + pooleds),
        "replay_equals_fresh": _rows_equal(warm, replayed),
        "replay_executed": replay_runner.metrics.executed,
        "replay_cache_hits": replay_runner.metrics.cache_hits,
    }


def test_pooled_and_replayed_sweeps_match_serial():
    """CI-sized run: the equivalence guarantees, no timing assertions
    (shared CI cores make jobs=2 wall clock meaningless)."""
    result = run_benchmark()
    assert result["pooled_equals_serial"], result
    assert result["replay_equals_fresh"], result
    assert result["replay_executed"] == 0, result
    assert result["replay_cache_hits"] == result["cells"], result
    # Replaying JSON beats re-simulating by orders of magnitude; 5x is
    # a loose floor that holds even on a saturated CI box.
    assert result["replay_wall_s"] < result["serial_wall_s"] / 5.0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="experiment RNG seed")
    parser.add_argument("--jobs", type=int, default=2, help="pooled worker count")
    parser.add_argument(
        "--json",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_thermal.json",
        help="results file to merge the fleet_sweep section into",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if pooled results diverge from serial or the "
        "cached replay simulated anything",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(seed=args.seed, jobs=args.jobs)

    # Merge, don't overwrite: the kernel benchmark owns the rest of the
    # file and may have written it earlier in the same CI job.
    document = {}
    if args.json.exists():
        document = json.loads(args.json.read_text())
    document["fleet_sweep"] = result
    args.json.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    print(
        f"fleet sweep: {result['cells']} cells | "
        f"serial {result['serial_wall_s']:.2f}s | "
        f"jobs={result['jobs']} {result['pooled_wall_s']:.2f}s "
        f"({result['pooled_speedup']:.2f}x) | "
        f"cached replay {result['replay_wall_s']:.3f}s "
        f"({result['replay_speedup']:.0f}x, "
        f"{result['replay_executed']} simulated)"
    )
    print(f"results merged into {args.json}")

    if args.check:
        ok = (
            result["pooled_equals_serial"]
            and result["replay_equals_fresh"]
            and result["replay_executed"] == 0
        )
        if not ok:
            print("fleet sweep check FAILED", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
