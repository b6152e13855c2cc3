"""Microbenchmark: scalar vs fused thermal substep throughput.

Compares the two numerically equivalent integration paths of
:class:`repro.thermal.rcnetwork.ThermalIntegrator` on the default
6-node package network (4 cores + spreader + sink):

- ``advance`` — the scalar reference oracle: a Python power callback
  (per-core loop over C-states) re-evaluated every substep, plus a
  ``steady_state`` solve per substep;
- ``advance_coefficients`` — the fused fast path: a segment-constant
  affine-exponential power decomposition evaluated as one folded
  vector chain plus a single stacked gemv per substep, into
  preallocated buffers.

It also records a fleet-throughput series: the batched
:class:`repro.thermal.rcnetwork.FleetThermalIntegrator` advancing
N ∈ {1, 8, 64, 256} machines per fused matmul, reported as
chip-substeps/s and checked for equivalence against N independent
single-chip runs (the ``fleet`` key of the JSON).

Runs in two modes:

- as a pytest test (``pytest benchmarks/bench_thermal_kernel.py``) it
  checks numerical equivalence and that the fused path is not slower;
- as a script (``python benchmarks/bench_thermal_kernel.py``) it also
  writes machine-readable results to ``BENCH_thermal.json``.  With
  ``--check`` it exits non-zero when the fused path is slower than the
  scalar one, which is how CI's perf-smoke job consumes it.

See docs/performance.md for the kernel derivation and how to read the
JSON fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Allow running as a plain script from a fresh checkout.
try:  # pragma: no cover - import shim
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - import shim
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.cpu.chip import Chip
from repro.cpu.power import FleetCoefficients
from repro.experiments.config import ExperimentConfig
from repro.thermal.floorplan import build_network
from repro.thermal.rcnetwork import FleetThermalIntegrator, ThermalIntegrator

#: Equivalence tolerances (also asserted by tests/test_thermal_fastpath.py).
POWER_TOLERANCE_W = 1e-12
TEMP_TOLERANCE_C = 1e-9


def _build_testbed(num_cores: int = 4):
    """A representative mixed power state: half busy, half deep-idle."""
    cfg = ExperimentConfig()
    chip = Chip(
        cfg.power,
        num_cores=num_cores,
        smt=cfg.smt,
        cstate_params=cfg.cstates,
        c1e_enabled=cfg.c1e_enabled,
    )
    for i, core in enumerate(chip.cores):
        if i % 2 == 0:
            core.set_running(object(), 1.0, 0.0)
        else:
            core.set_idle(-100.0)  # long idle: promoted to C1E
    network = build_network(cfg.thermal, num_cores)
    temps0 = np.full(network.num_nodes, 55.0)
    return chip, network, temps0


def run_benchmark(
    duration: float = 10.0,
    max_substep: float = 5e-3,
    repeats: int = 3,
    num_cores: int = 4,
) -> dict:
    """Time both paths over identical substep sequences.

    Returns a JSON-ready dict.  Timing is best-of-``repeats`` after the
    equivalence runs have warmed both paths, so the numbers measure the
    substep loops, not first-call overhead.
    """
    chip, network, temps0 = _build_testbed(num_cores)
    _, power_fn = chip.power_function(time=0.0)
    _, coefficients = chip.power_segment(0.0)
    n_substeps = max(1, int(np.ceil(duration / max_substep - 1e-12)))

    # --- equivalence ---------------------------------------------------
    power_diff = float(
        np.max(np.abs(coefficients.evaluate(temps0) - power_fn(temps0)))
    )
    scalar_integ = ThermalIntegrator(network, temps0.copy(), max_substep=max_substep)
    fused_integ = ThermalIntegrator(network, temps0.copy(), max_substep=max_substep)
    scalar_result = scalar_integ.advance(duration, power_fn)
    fused_result = fused_integ.advance_coefficients(duration, coefficients)
    temp_diff = float(np.max(np.abs(scalar_integ.temps - fused_integ.temps)))
    energy_rel_diff = abs(scalar_result.energy - fused_result.energy) / max(
        abs(scalar_result.energy), 1e-30
    )

    # --- throughput ----------------------------------------------------
    scalar_best = np.inf
    fused_best = np.inf
    for _ in range(repeats):
        integ = ThermalIntegrator(network, temps0.copy(), max_substep=max_substep)
        t0 = time.perf_counter()
        integ.advance(duration, power_fn)
        scalar_best = min(scalar_best, time.perf_counter() - t0)

        integ = ThermalIntegrator(network, temps0.copy(), max_substep=max_substep)
        t0 = time.perf_counter()
        integ.advance_coefficients(duration, coefficients)
        fused_best = min(fused_best, time.perf_counter() - t0)

    return {
        "nodes": network.num_nodes,
        "num_cores": num_cores,
        "substeps": n_substeps,
        "max_substep_s": max_substep,
        "duration_s": duration,
        "repeats": repeats,
        "scalar": {
            "best_wall_s": scalar_best,
            "substeps_per_s": n_substeps / scalar_best,
        },
        "vectorized": {
            "best_wall_s": fused_best,
            "substeps_per_s": n_substeps / fused_best,
        },
        "speedup": scalar_best / fused_best,
        "max_abs_power_diff_w": power_diff,
        "max_abs_temp_diff_c": temp_diff,
        "energy_rel_diff": energy_rel_diff,
        "power_tolerance_w": POWER_TOLERANCE_W,
        "temp_tolerance_c": TEMP_TOLERANCE_C,
        "equivalent": power_diff <= POWER_TOLERANCE_W and temp_diff <= TEMP_TOLERANCE_C,
    }


def _fleet_testbed(num_machines: int, num_cores: int = 4):
    """``num_machines`` homogeneous chips in *distinct* power states.

    Each machine rotates the busy/idle pattern and trims core activity
    slightly, so the batched kernel is timed on genuinely per-machine
    coefficient columns — not one broadcast column."""
    cfg = ExperimentConfig()
    network = build_network(cfg.thermal, num_cores)
    columns = []
    for m in range(num_machines):
        chip = Chip(
            cfg.power,
            num_cores=num_cores,
            smt=cfg.smt,
            cstate_params=cfg.cstates,
            c1e_enabled=cfg.c1e_enabled,
        )
        for i, core in enumerate(chip.cores):
            if (i + m) % 2 == 0:
                core.set_running(object(), 1.0 - 0.01 * (m % 5), 0.0)
            else:
                core.set_idle(-100.0)
        _, coefficients = chip.power_segment(0.0)
        columns.append(coefficients)
    temps0 = np.full(network.num_nodes, 55.0)
    return network, columns, temps0


def run_fleet_benchmark(
    machine_counts=(1, 8, 64, 256),
    duration: float = 2.0,
    max_substep: float = 5e-3,
    repeats: int = 3,
    num_cores: int = 4,
    equivalence_machines: int = 64,
) -> dict:
    """Fleet-throughput series: chip-substeps/s vs fleet size.

    For each ``N`` a :class:`FleetThermalIntegrator` advances all ``N``
    machines as one cohort; throughput counts chip-substeps (substeps x
    machines) per wall second, so perfect batching shows up as rising
    throughput at flat per-call wall time.  ``speedup_vs_single`` is
    relative to the single-chip fused path on the same network and
    substep sequence.  The N=``equivalence_machines`` fleet is also
    checked against N independent single-chip runs.
    """
    n_substeps = max(1, int(np.ceil(duration / max_substep - 1e-12)))

    # --- single-chip fused reference -----------------------------------
    network, columns, temps0 = _fleet_testbed(1, num_cores)
    single_best = np.inf
    ThermalIntegrator(network, temps0.copy(), max_substep=max_substep).advance_coefficients(
        duration, columns[0]
    )  # warm-up call, untimed
    for _ in range(repeats):
        integ = ThermalIntegrator(network, temps0.copy(), max_substep=max_substep)
        t0 = time.perf_counter()
        integ.advance_coefficients(duration, columns[0])
        single_best = min(single_best, time.perf_counter() - t0)
    single_rate = n_substeps / single_best

    # --- throughput series ---------------------------------------------
    series = []
    for machines in machine_counts:
        network, columns, temps0 = _fleet_testbed(machines, num_cores)
        stack = FleetCoefficients.from_coefficients(columns)
        everyone = list(range(machines))
        FleetThermalIntegrator(
            network, machines, initial_temps=temps0, max_substep=max_substep
        ).advance_machines(everyone, duration, stack)  # warm
        best = np.inf
        for _ in range(repeats):
            fleet = FleetThermalIntegrator(
                network, machines, initial_temps=temps0, max_substep=max_substep
            )
            t0 = time.perf_counter()
            fleet.advance_machines(everyone, duration, stack)
            best = min(best, time.perf_counter() - t0)
        rate = n_substeps * machines / best
        series.append(
            {
                "machines": machines,
                "best_wall_s": best,
                "chip_substeps_per_s": rate,
                "speedup_vs_single": rate / single_rate,
            }
        )

    # --- equivalence: one fleet run vs N independent runs ---------------
    machines = equivalence_machines
    network, columns, temps0 = _fleet_testbed(machines, num_cores)
    stack = FleetCoefficients.from_coefficients(columns)
    fleet = FleetThermalIntegrator(
        network, machines, initial_temps=temps0, max_substep=max_substep
    )
    energies = fleet.advance_machines(list(range(machines)), duration, stack)
    temp_diff = 0.0
    energy_rel_diff = 0.0
    for m in range(machines):
        integ = ThermalIntegrator(network, temps0.copy(), max_substep=max_substep)
        result = integ.advance_coefficients(duration, columns[m])
        temp_diff = max(temp_diff, float(np.max(np.abs(integ.temps - fleet.temps[m]))))
        energy_rel_diff = max(
            energy_rel_diff,
            abs(result.energy - float(energies[m])) / max(abs(result.energy), 1e-30),
        )

    return {
        "machine_counts": list(machine_counts),
        "duration_s": duration,
        "substeps_per_machine": n_substeps,
        "single_chip_substeps_per_s": single_rate,
        "series": series,
        "equivalence": {
            "machines": machines,
            "max_abs_temp_diff_c": temp_diff,
            "max_energy_rel_diff": energy_rel_diff,
            "temp_tolerance_c": TEMP_TOLERANCE_C,
            "equivalent": temp_diff <= TEMP_TOLERANCE_C,
        },
    }


def test_fused_kernel_equivalent_and_not_slower():
    """CI-sized run: equivalence is exact-ish; fused must not be slower."""
    result = run_benchmark(duration=2.0, repeats=2)
    assert result["max_abs_power_diff_w"] <= POWER_TOLERANCE_W
    assert result["max_abs_temp_diff_c"] <= TEMP_TOLERANCE_C
    assert result["equivalent"]
    # The ≥3x target is recorded by the script run; under pytest on a
    # loaded CI box we only insist the fast path is actually faster.
    assert result["speedup"] > 1.0, result


def test_fleet_batching_equivalent_and_faster():
    """CI-sized fleet series: batched N-machine advance must match N
    independent runs and beat the single-chip path per chip-substep."""
    result = run_fleet_benchmark(
        machine_counts=(1, 8), duration=0.5, repeats=2, equivalence_machines=8
    )
    equivalence = result["equivalence"]
    assert equivalence["max_abs_temp_diff_c"] <= TEMP_TOLERANCE_C, equivalence
    assert equivalence["equivalent"]
    by_machines = {entry["machines"]: entry for entry in result["series"]}
    # The ≥3x-at-64 target is recorded by the script run; under pytest
    # we only insist batching 8 machines beats 8 single-chip calls.
    assert by_machines[8]["speedup_vs_single"] > 1.0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=10.0, help="simulated seconds per timing run")
    parser.add_argument("--max-substep", type=float, default=5e-3, help="integrator substep bound, s")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best is kept)")
    parser.add_argument("--cores", type=int, default=4, help="number of cores (nodes = cores + 2)")
    parser.add_argument(
        "--json",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_thermal.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the vectorized path is slower than the scalar one "
        "or the equivalence tolerances fail",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        duration=args.duration,
        max_substep=args.max_substep,
        repeats=args.repeats,
        num_cores=args.cores,
    )
    result["fleet"] = run_fleet_benchmark(
        duration=min(args.duration, 2.0),
        max_substep=args.max_substep,
        repeats=args.repeats,
        num_cores=args.cores,
    )
    args.json.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"nodes:                {result['nodes']}")
    print(f"substeps per run:     {result['substeps']}")
    print(f"scalar:     {result['scalar']['substeps_per_s']:>12.0f} substeps/s")
    print(f"vectorized: {result['vectorized']['substeps_per_s']:>12.0f} substeps/s")
    print(f"speedup:    {result['speedup']:>12.2f}x")
    print(f"max |ΔP|:   {result['max_abs_power_diff_w']:>12.3e} W  (tol {POWER_TOLERANCE_W:.0e})")
    print(f"max |ΔT|:   {result['max_abs_temp_diff_c']:>12.3e} °C (tol {TEMP_TOLERANCE_C:.0e})")
    fleet = result["fleet"]
    print("fleet (batched machines, chip-substeps/s):")
    for entry in fleet["series"]:
        print(
            f"  N={entry['machines']:>4d}: {entry['chip_substeps_per_s']:>12.0f}"
            f"  ({entry['speedup_vs_single']:.1f}x single-chip)"
        )
    equivalence = fleet["equivalence"]
    print(
        f"fleet max |ΔT| @ N={equivalence['machines']}: "
        f"{equivalence['max_abs_temp_diff_c']:.3e} °C (tol {TEMP_TOLERANCE_C:.0e})"
    )
    print(f"results written to {args.json}")

    if args.check:
        if not result["equivalent"]:
            print("FAIL: equivalence tolerances exceeded", file=sys.stderr)
            return 1
        if result["speedup"] <= 1.0:
            print("FAIL: vectorized path is slower than the scalar reference", file=sys.stderr)
            return 1
        if not equivalence["equivalent"]:
            print("FAIL: fleet batching diverges from independent runs", file=sys.stderr)
            return 1
        if fleet["series"][-1]["speedup_vs_single"] <= 1.0:
            print("FAIL: fleet batching is slower than single-chip calls", file=sys.stderr)
            return 1
        print("check passed: equivalent and faster (single-chip and fleet)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
