"""End-to-end and per-layer benchmark of the Dimetrodon reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload burn-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  Every pass is checked
against ``perfbench/reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> {"value", "unit"}).

    python3 perfbench/run.py --workload rack-web --record-seeds 0-31

re-records the reference for the given seeds.  See README.md in this
directory for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
#: The first set-up precedes the first pass; the others are spread over
#: the timed window, between passes, so that the median spans the
#: host's speed over the whole run rather than its first seconds.
SETUP_REPEATS = 9
#: Modules a fresh interpreter imports during set-up (the public API
#: the workloads drive).
IMPORTS = "repro.experiments.figures, repro.fleet.cells, repro.fleet.scenarios"


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def host_load() -> Dict[str, Any]:
    """Load on the host when the run starts.

    ``busy_cores`` is how many cores other processes kept busy over a
    short sample taken while this process sleeps (from /proc/stat);
    a run is flagged ``contended`` when that reaches half a core.
    """
    info: Dict[str, Any] = {
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }

    def sample():
        with open("/proc/stat") as handle:
            fields = [float(x) for x in handle.readline().split()[1:]]
        return sum(fields), fields[3] + fields[4]  # total, idle + iowait

    try:
        total0, idle0 = sample()
        time.sleep(0.25)
        total1, idle1 = sample()
    except (OSError, ValueError, IndexError):
        info["busy_cores"] = None
        info["contended"] = None
        return info
    span = total1 - total0
    busy = (span - (idle1 - idle0)) / span * (os.cpu_count() or 1) if span else 0.0
    info["busy_cores"] = round(busy, 3)
    info["contended"] = busy >= 0.5
    return info


def import_seconds(root: str) -> float:
    """Host seconds a fresh interpreter takes to import the program."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, 'src'); import {IMPORTS}"],
        cwd=root,
        check=True,
    )
    return time.perf_counter() - started


def steady_pass_seconds(passes: List[List[float]]) -> float:
    """Host seconds of one pass at the host's best speed in the run.

    Each segment of a pass (one run or cell, or the glue after the
    last) is taken at its fastest over the run's clean passes, which
    all split the same way, and the segments are summed.  On a shared
    host identical passes are slowed by other tenants' work, by up to
    1.8x and for tens of seconds at a time; the best time per segment
    keeps those periods out while still counting every segment of the
    pass.
    """
    return sum(min(column) for column in zip(*passes))


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Bench:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.workdir = os.path.join(root, ".perfbench-work", f"run-{os.getpid()}")
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"cache-{self._dirs}")

    # ------------------------------------------------------------------
    def measured_pass(self, workload, ctx, *, fill: bool = False):
        """One pass in an isolated telemetry registry; returns
        ``(segments, PassOutput, counters, cache_dir)``.

        ``segments`` are the host seconds between consecutive finished
        runs of the pass (from the runner's progress callback), then
        from the last one to the end of the pass; they sum to the
        pass's wall time."""
        from repro.telemetry import isolated

        cache_dir = self.fresh_dir()
        clock = time.perf_counter
        marks: List[float] = []
        gc.collect()
        with isolated() as reg:
            counters_of = reg.counters
            marks.append(clock())
            if fill:
                output = workload.fill(ctx, cache_dir, counters_of)
            else:
                output = workload.run_pass(ctx, cache_dir, counters_of, lambda _event: marks.append(clock()))
            marks.append(clock())
            counters = reg.counters()
        if not fill:
            shutil.rmtree(cache_dir, ignore_errors=True)
        segments = [b - a for a, b in zip(marks, marks[1:])]
        return segments, output, counters, cache_dir

    def check(self, workload, output, expected, *, invariants: bool = False) -> int:
        """Failed units of one pass: those that raised, were abandoned,
        or differ from ``expected``; a pass-level mismatch (totals,
        invariants, replay) fails every unit of the pass."""
        from workloads import compare, invariant_errors

        failed = set(output.missing)
        errors = list(output.errors)
        units, pass_errors = compare(output.record, expected)
        failed.update(units)
        errors.extend(pass_errors)
        if invariants:
            errors.extend(invariant_errors(output.record))
        for message in sorted(failed):
            print(f"  check: {workload.name}: unit {message} failed", flush=True)
        for message in errors:
            print(f"  check: {workload.name}: {message}", flush=True)
        if errors and not failed:
            return output.units  # a pass-level mismatch taints the pass
        return min(len(failed), output.units)

    # ------------------------------------------------------------------
    def setup(self, workload, seed: int, first_ctx=None):
        """One set-up; returns (ctx, expected record, host seconds).

        ``first_ctx`` is the context of the run's first set-up, which a
        repetition is checked against and otherwise discards."""
        rep = 0 if first_ctx is None else 1
        imports = import_seconds(self.root)
        started = time.perf_counter()
        with open(REFERENCE_PATH) as handle:
            reference = json.load(handle)
        ctx = workload.prepare(seed)
        expected = reference.get(workload.name, {}).get(str(seed))
        fill_wall = 0.0
        if hasattr(workload, "fill"):
            segments, output, _, cache_dir = self.measured_pass(workload, ctx, fill=True)
            fill_wall = sum(segments)
            # Later fills are checked against the first one, which is
            # checked against the reference (or the invariants).
            baseline = expected if rep == 0 and expected is not None else None
            if rep == 0:
                ctx.update(warm_cache=cache_dir, fill_record=output.record)
            else:
                shutil.rmtree(cache_dir, ignore_errors=True)
                baseline = first_ctx["fill_record"]
                if ctx["cold"] != first_ctx["cold"]:
                    output.errors.append("set-up fills differ between repetitions")
            self.setup_failed += self.check(
                workload,
                output,
                baseline if baseline is not None else output.record,
                invariants=baseline is None,
            )
        seconds = imports + time.perf_counter() - started
        print(f"  setup: {seconds:.3f} s (imports {imports:.3f} s, fill {fill_wall:.3f} s)", flush=True)
        return ctx, expected, seconds

    def run(self) -> Dict[str, Any]:
        import hostspeed
        from workloads import WORKLOADS

        args = self.args
        workload = WORKLOADS[args.workload]
        load = host_load()
        print(f"host: {json.dumps(load)}", flush=True)
        self.setup_failed = 0
        ctx, expected, first_setup = self.setup(workload, args.seed)
        setup_times = [first_setup]
        print(
            f"reference: {'recorded' if expected is not None else 'not recorded'} "
            f"for seed {args.seed}",
            flush=True,
        )

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        walls: Dict[bool, List[float]] = {False: [], True: []}
        #: Per traced/untraced: the segments of every clean pass.
        passes: Dict[bool, List[List[float]]] = {False: [], True: []}
        attempted = failed = 0
        traced_counters: Dict[str, float] = {}
        render_s = 0.0
        first_record = None
        #: Host-speed probe times, one after every pass.
        probes: List[float] = []
        started = time.perf_counter()
        deadline = started + args.seconds
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            now = time.perf_counter()
            if now >= deadline and walls[False] and (tracer is None or walls[True]):
                while len(setup_times) < SETUP_REPEATS:
                    setup_times.append(self.setup(workload, args.seed, ctx)[2])
                break
            # At most one set-up between two passes, when it is due.
            if index and len(setup_times) < SETUP_REPEATS:
                if now >= started + len(setup_times) * args.seconds / SETUP_REPEATS:
                    setup_times.append(self.setup(workload, args.seed, ctx)[2])
            if traced:
                tracer.install()
            try:
                segments, output, counters, _ = self.measured_pass(workload, ctx)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(sum(segments))
            if traced:
                for name, value in counters.items():
                    traced_counters[name] = traced_counters.get(name, 0) + value
                render_s += output.render_s
            if first_record is None:
                first_record = output.record
            attempted += output.units
            # Without a recorded reference every pass must reproduce
            # the first one, and the first must pass the invariants.
            pass_failed = self.check(
                workload,
                output,
                expected if expected is not None else first_record,
                invariants=expected is None and index == 0,
            )
            failed += pass_failed
            if not pass_failed and not output.missing:
                passes[traced].append(segments)
            probes.append(hostspeed.probe())
            index += 1

        attempted += workload_units(workload)
        failed += self.setup_failed
        # Failed passes may split differently; when none ran clean the
        # passes are timed whole (the result then reads correct: false).
        for traced, clean in passes.items():
            if not clean:
                clean.extend([wall] for wall in walls[traced])
        untraced = walls[False]
        steady_s = steady_pass_seconds(passes[False])
        lo, hi = quartiles(untraced)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Times scaled to the reference host's speed by the fastest
        # probe, which like the steady pass reads the host at its best
        # in the run.  (Scaled by the median probe instead, the set-up
        # median spread more than unscaled: single probes are noisy.)
        scale = hostspeed.REFERENCE_S / min(probes)
        wall_s = steady_s * scale
        setup_s = statistics.median(setup_times) * scale
        print(
            f"passes: {len(untraced)} untraced"
            + (f", {len(walls[True])} traced" if tracer is not None else "")
            + f"; untraced pass wall median {statistics.median(untraced):.4f} s,"
            f" quartiles {lo:.4f}..{hi:.4f} s; steady pass {steady_s:.4f} s"
        )
        print(
            f"host speed: probe fastest {min(probes):.4f} s, median {statistics.median(probes):.4f} s"
            f" over {len(probes)} probes (reference {hostspeed.REFERENCE_S} s);"
            f" set-up median {statistics.median(setup_times):.4f} s unscaled"
        )
        if len(untraced) <= 12:
            print("  untraced walls: " + " ".join(f"{w:.4f}" for w in untraced))
        failed_frac = failed / attempted
        metrics: Dict[str, Any]
        if tracer is None:
            metrics = {
                "wall_s": (wall_s, "s"),
                "sim_rate": (workload.machine_seconds(ctx) / wall_s, "machine-s/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_mb, "MiB"),
            }
        else:
            from tracing import layer_metrics

            traced_walls = walls[True]
            glue_s = sum(traced_walls) - tracer.total("runtime.runner_run")
            metrics = layer_metrics(
                tracer,
                traced_counters,
                passes=len(traced_walls),
                glue_s=glue_s,
                render_s=render_s,
            )
            metrics["trace.overhead_frac"] = (
                (steady_pass_seconds(passes[True]) - steady_s) / steady_s,
                "ratio",
            )
            metrics["failed_frac"] = (failed_frac, "ratio")
        print(f"failed_frac: {failed_frac:.4f} ({failed} of {attempted} runs/cells)")
        width = max(len(name) for name in metrics)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    # ------------------------------------------------------------------
    def record(self, seeds: List[int]) -> None:
        """Record reference outputs for ``seeds`` (one cold pass each)."""
        from workloads import WORKLOADS

        workload = WORKLOADS[self.args.workload]
        try:
            with open(REFERENCE_PATH) as handle:
                reference = json.load(handle)
        except FileNotFoundError:
            reference = {}
        table = reference.setdefault(workload.name, {})
        for seed in seeds:
            ctx = workload.prepare(seed)
            fill = hasattr(workload, "fill")
            _, output, _, cache_dir = self.measured_pass(workload, ctx, fill=fill)
            shutil.rmtree(cache_dir, ignore_errors=True)
            if output.missing or output.errors:
                raise SystemExit(f"seed {seed}: {output.missing} {output.errors}")
            table[str(seed)] = _rounded(output.record)
            print(f"recorded {workload.name} seed {seed}", flush=True)
        reference[workload.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        with open(REFERENCE_PATH, "w") as handle:
            json.dump(reference, handle, indent=None, separators=(",", ":"), sort_keys=True)
            handle.write("\n")


def _rounded(value: Any) -> Any:
    """Floats to 13 significant digits: 1e-11 °C and 1e-12 relative
    at the magnitudes recorded, far inside the check's tolerances."""
    if isinstance(value, float):
        return float(f"{value:.13g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def workload_units(workload) -> int:
    """Runs or cells executed during set-up that count as attempted
    (the cold fills of ``grid-replay``)."""
    if hasattr(workload, "fill"):
        return SETUP_REPEATS * (workload.CELLS + workload.RUNS)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("burn-grid", "rack-web", "grid-replay"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-seeds", help="re-record the reference, e.g. 0-31")
    args = parser.parse_args(argv)

    # One core for the whole program: multithreaded BLAS buys nothing
    # on the simulator's small matrices, and its spinning worker
    # threads would make host time depend on the other cores' load.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.record_seeds is None and not os.path.isfile(REFERENCE_PATH):
        print(f"perfbench: missing {REFERENCE_PATH}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    bench = Bench(args, root)
    try:
        if args.record_seeds is not None:
            bench.record(parse_seeds(args.record_seeds))
            return 0
        result = bench.run()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
