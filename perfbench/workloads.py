"""The benchmark's three workloads, driven through the public API.

Each workload turns the benchmark seed into inputs (an experiment
config whose RNG seed is drawn from the benchmark seed; the grids are
fixed so that host time does not depend on the seed), runs one *pass*
through a serial :class:`~repro.runtime.ParallelRunner`, and distils
the pass into a *record*: the deterministic counts and physical
outputs the output check compares against the recorded reference.

- ``burn-grid``: the fig3 (p, L) characterization grid on single
  machines, cold cache.  Exercises the Machine wiring only.
- ``rack-web``: three 16-machine web-serving rack cells with health
  monitors, cold cache.  Exercises the fleet, health, balancer,
  migration and web layers.
- ``grid-replay``: a scenarios-shaped rack-cell grid plus a
  characterization grid replayed from a warm cache.  Simulates
  nothing; exercises the runtime layer and the experiment glue.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.config import fast_config
from repro.experiments.figures import fig3_efficiency
from repro.fleet.cells import rack_cell_spec
from repro.fleet.scenarios import scenarios_experiment
from repro.runtime import ParallelRunner, ResultCache

#: Unit record fields compared exactly; every other numeric field is a
#: temperature (°C, absolute tolerance) or, when listed in
#: ``RELATIVE_FIELDS``, compared relative to the reference.
COUNT_FIELDS = frozenset(
    {
        "events",
        "dispatches",
        "requests",
        "alerts",
        "migrations",
        "routed",
        "health_samples",
        "slo_arrivals",
    }
)
RELATIVE_FIELDS = frozenset({"energy", "work"})
TEMP_TOLERANCE_C = 1e-9
RELATIVE_TOLERANCE = 1e-9


def config_seed(seed: int) -> int:
    """The experiment-config seed generated from the benchmark seed."""
    return int(np.random.SeedSequence([0x5EED, seed]).generate_state(1)[0])


def plain(value: Any) -> Any:
    """Dataclasses, numpy scalars and containers as plain comparable
    Python data (NaN as a string, so equal NaNs compare equal)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


@dataclasses.dataclass
class PassOutput:
    """What one pass produced, for checking and for the metrics."""

    #: Output-check record: {"totals": {...}, "units": {name: {...}}}.
    record: Dict[str, Any]
    #: Runs or cells attempted, and the names of those that left no
    #: result (raised or were abandoned).
    units: int
    missing: List[str]
    #: Host seconds spent in ``result.render()`` inside the pass.
    render_s: float = 0.0
    #: Extra pass-level failures found while running (not from the
    #: reference comparison), one message each.
    errors: List[str] = dataclasses.field(default_factory=list)


def _totals(counters: Dict[str, float]) -> Dict[str, int]:
    return {
        "events": int(counters.get("sim.engine.events", 0)),
        "dispatches": int(counters.get("sched.scheduler.dispatches", 0)),
        "routed": int(counters.get("fleet.balancer.routed", 0)),
        "alerts": int(counters.get("health.alerts", 0)),
        "health_samples": int(counters.get("health.samples", 0)),
    }


def _runner(cache_dir: str, progress=None) -> ParallelRunner:
    # keep_going: a failed run leaves None in its slot and is counted
    # as failed instead of aborting the pass.  ``progress`` is called
    # after every finished run; the benchmark timestamps it to time the
    # runs of a pass one by one.
    return ParallelRunner(jobs=1, cache=ResultCache(cache_dir), keep_going=True, progress=progress)


def _char_unit(run) -> Dict[str, Any]:
    return {
        "mean_temp": float(run.mean_temp),
        "energy": float(run.energy),
        "work": float(run.work),
        "dispatches": int(run.details["dispatches"]),
    }


def _sweep_units(sweep) -> Dict[str, Dict[str, Any]]:
    units = {"baseline": _char_unit(sweep.baseline)}
    for point, run in zip(sweep.points, sweep.runs):
        units[f"p={point.params['p']:g},L={point.params['L_ms']:g}ms"] = _char_unit(run)
    return units


def _sweep_missing(sweep) -> List[str]:
    return [f"p={m['p']:g},L={m['L_ms']:g}ms" for m in sweep.missing]


def _cell_unit(cell) -> Dict[str, Any]:
    run = cell.run
    return {
        "requests": int(run.requests),
        "alerts": int(run.alerts),
        "migrations": int(run.migrations),
        "mean_temp": float(run.mean_temp),
        "peak_temp": float(run.peak_temp),
        "energy": float(run.energy),
        "work": float(run.work_done),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class BurnGrid:
    """The fig3 characterization grid: cpuburn on all 4 cores of single
    machines, a p=0 baseline plus p in {0.25, 0.75} x all seven
    quanta L from 1 ms to 100 ms (events per simulated second vary
    severalfold with L), 10 simulated seconds each, cold cache."""

    name = "burn-grid"
    PS = (0.25, 0.75)
    DURATION_S = 10.0
    RUNS = 1 + len(PS) * 7

    def prepare(self, seed: int) -> Dict[str, Any]:
        config = fast_config(config_seed(seed)).scaled(
            characterization_duration=self.DURATION_S
        )
        return {"config": config}

    def machine_seconds(self, ctx) -> float:
        return self.RUNS * self.DURATION_S

    def run_pass(self, ctx, cache_dir: str, counters_of, progress=None) -> PassOutput:
        result = fig3_efficiency(ctx["config"], ps=self.PS, runner=_runner(cache_dir, progress))
        started = time.perf_counter()
        result.render()
        render_s = time.perf_counter() - started
        sweep = result.sweep
        counters = counters_of()
        return PassOutput(
            record={"totals": _totals(counters), "units": _sweep_units(sweep)},
            units=self.RUNS,
            missing=_sweep_missing(sweep),
            render_s=render_s,
        )


class RackWeb:
    """Three 16-machine web-serving rack cells with health monitors and
    Poisson arrivals: round-robin at p=0, round-robin at p=0.65 with
    L=50 ms, and the migrate policy at p=0.65; cold cache."""

    name = "rack-web"
    MACHINES = 16
    DURATION_S = 3.0
    WARMUP_S = 0.25
    CELLS = (("round-robin", 0.0), ("round-robin", 0.65), ("migrate", 0.65))

    def prepare(self, seed: int) -> Dict[str, Any]:
        config = fast_config(config_seed(seed))
        specs = [
            rack_cell_spec(
                config,
                machines=self.MACHINES,
                duration=self.DURATION_S,
                warmup=self.WARMUP_S,
                p=p,
                idle_quantum=0.050,
                policy=policy,
            )
            for policy, p in self.CELLS
        ]
        return {"specs": specs}

    def machine_seconds(self, ctx) -> float:
        return len(self.CELLS) * self.MACHINES * self.DURATION_S

    def run_pass(self, ctx, cache_dir: str, counters_of, progress=None) -> PassOutput:
        cells = _runner(cache_dir, progress).run(ctx["specs"])
        names = [f"{policy},p={p:g}" for policy, p in self.CELLS]
        counters = counters_of()
        return PassOutput(
            record={
                "totals": _totals(counters),
                "units": {n: _cell_unit(c) for n, c in zip(names, cells) if c is not None},
            },
            units=len(self.CELLS),
            missing=[n for n, c in zip(names, cells) if c is None],
        )


class GridReplay:
    """Warm-cache replay of a scenarios-shaped rack-cell grid (5 load
    shapes x {round-robin, migrate} x p in {0, 0.8} on 1-machine racks
    with SLO-window payloads) and the full fig3 characterization grid.
    Set-up fills a fresh cache by running both grids once at short
    simulated durations; a timed pass must execute nothing."""

    name = "grid-replay"
    MACHINES = 1
    RACK_DURATION_S = 5.5
    WARMUP_S = 0.25
    POLICIES = ("round-robin", "migrate")
    P_VALUES = (0.0, 0.8)
    CHAR_DURATION_S = 2.0
    CELLS = 5 * len(POLICIES) * len(P_VALUES)
    RUNS = 1 + 4 * 7

    def prepare(self, seed: int) -> Dict[str, Any]:
        config = fast_config(config_seed(seed))
        return {
            "config": config,
            "char_config": config.scaled(characterization_duration=self.CHAR_DURATION_S),
        }

    def machine_seconds(self, ctx) -> float:
        return self.CELLS * self.MACHINES * self.RACK_DURATION_S + self.RUNS * self.CHAR_DURATION_S

    def replay(self, ctx, runner: ParallelRunner) -> Tuple[Any, Any, str, float]:
        scenarios = scenarios_experiment(
            ctx["config"],
            machines=self.MACHINES,
            duration=self.RACK_DURATION_S,
            warmup=self.WARMUP_S,
            policies=self.POLICIES,
            p_values=self.P_VALUES,
            runner=runner,
        )
        fig3 = fig3_efficiency(ctx["char_config"], runner=runner)
        started = time.perf_counter()
        text = scenarios.render() + "\n" + fig3.render()
        return scenarios, fig3, text, time.perf_counter() - started

    def fill(self, ctx, cache_dir: str, counters_of) -> PassOutput:
        """Run both grids cold into ``cache_dir`` (set-up).  The filled
        outputs become this run's expected replay."""
        scenarios, fig3, text, render_s = self.replay(ctx, _runner(cache_dir))
        output = self._output(scenarios, fig3, render_s)
        output.record["totals"] = _totals(counters_of())
        ctx["cold"] = (plain(scenarios.rows), plain(fig3.sweep), text)
        return output

    def run_pass(self, ctx, cache_dir: str, counters_of, progress=None) -> PassOutput:
        scenarios, fig3, text, render_s = self.replay(ctx, _runner(ctx["warm_cache"], progress))
        output = self._output(scenarios, fig3, render_s)
        # The reference holds the cold fill's totals; a replay must not
        # simulate, so its own counters are checked here instead.
        output.record["totals"] = ctx["fill_record"]["totals"]
        counters = counters_of()
        executed = int(counters.get("runtime.runner.executed", 0))
        events = int(counters.get("sim.engine.events", 0))
        if executed or events:
            output.errors.append(f"replay executed {executed} runs and {events} events")
        if (plain(scenarios.rows), plain(fig3.sweep), text) != ctx["cold"]:
            output.errors.append("replayed results differ from the cold results")
        return output

    def _output(self, scenarios, fig3, render_s: float) -> PassOutput:
        units = {}
        for row in scenarios.rows:
            unit = _cell_unit(row)
            unit["slo_arrivals"] = int(row.report.total_arrivals)
            units[f"{row.shape},{row.policy},p={row.p:g}"] = unit
        units.update(_sweep_units(fig3.sweep))
        present = {f"{r.shape},{r.policy},p={r.p:g}" for r in scenarios.rows}
        missing = [
            f"{shape},{policy},p={p:g}"
            for shape in scenarios.shapes
            for policy in scenarios.policies
            for p in scenarios.p_values
            if f"{shape},{policy},p={p:g}" not in present
        ]
        return PassOutput(
            record={"units": units},
            units=self.CELLS + self.RUNS,
            missing=missing + _sweep_missing(fig3.sweep),
            render_s=render_s,
        )


WORKLOADS = {w.name: w for w in (BurnGrid(), RackWeb(), GridReplay())}


# ----------------------------------------------------------------------
# The output check
# ----------------------------------------------------------------------
def _field_ok(field: str, got: Any, want: Any) -> bool:
    if field in COUNT_FIELDS:
        return got == want
    if field in RELATIVE_FIELDS:
        return abs(got - want) <= RELATIVE_TOLERANCE * max(abs(want), 1e-300)
    return abs(got - want) <= TEMP_TOLERANCE_C


def compare(record: Dict[str, Any], expected: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """Compare a pass record with the expected one.

    Returns ``(failed_units, pass_errors)``: units whose fields differ
    beyond tolerance (or that are missing), and mismatches in the
    pass-level totals.
    """
    failed_units = []
    got_units, want_units = record["units"], expected["units"]
    for name, want in want_units.items():
        got = got_units.get(name)
        if got is None or set(got) != set(want):
            failed_units.append(name)
        elif not all(_field_ok(f, got[f], want[f]) for f in want):
            failed_units.append(name)
    failed_units.extend(sorted(set(got_units) - set(want_units)))
    pass_errors = [
        f"{name}: got {record['totals'].get(name)}, expected {want}"
        for name, want in expected["totals"].items()
        if record["totals"].get(name) != want
    ]
    return failed_units, pass_errors


def invariant_errors(record: Dict[str, Any]) -> List[str]:
    """Physical sanity of a record, for seeds without a reference."""
    errors = []
    for name, unit in record["units"].items():
        for field, value in unit.items():
            if isinstance(value, float) and not math.isfinite(value):
                errors.append(f"{name}.{field} is {value}")
        if not unit.get("energy", 0.0) > 0.0:
            errors.append(f"{name}.energy is not positive")
    if record["totals"].get("events", 0) <= 0:
        errors.append("no events were simulated")
    return errors
