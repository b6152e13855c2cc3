"""Smoke + shape tests for Table 1 and the §3.3 validations (reduced)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import fast_config
from repro.experiments.tables import (
    table1_spec_workloads,
    validate_energy_model,
    validate_throughput_model,
)
from repro.runtime import ParallelRunner

CFG = fast_config()


# ----------------------------------------------------------------------
# Throughput validation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def throughput():
    return validate_throughput_model(
        CFG, total_cpu=3.0, ps=(0.5,), ls_ms=(50.0, 100.0), repetitions=2
    )


def test_throughput_validation_close_to_model(throughput):
    """§3.3: measured throughput within a few % of D(t)."""
    for row in throughput.rows:
        assert abs(row.deviation) < 0.06
    assert abs(throughput.mean_deviation) < 0.04


def test_throughput_validation_render(throughput):
    text = throughput.render()
    assert "D(t)" in text
    assert "mean deviation" in text


# ----------------------------------------------------------------------
# Energy validation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def energy():
    return validate_energy_model(CFG, total_cpu=3.0, ps=(0.5,), ls_ms=(100.0,))


def test_energy_validation_near_parity(energy):
    """§3.3: Dimetrodon within a few % of race-to-idle energy."""
    for row in energy.rows:
        assert row.ratio == pytest.approx(1.0, abs=0.06)


def test_energy_validation_render(energy):
    assert "race" in energy.render()


# ----------------------------------------------------------------------
# Table 1 (two benchmarks, tiny grid)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def table1():
    return table1_spec_workloads(
        CFG,
        benchmarks=("calculix", "astar"),
        ps=(0.5, 0.75),
        ls_ms=(5.0, 25.0),
        fit_r_max=0.6,
    )


def test_table1_has_cpuburn_row_first(table1):
    assert table1.rows[0].workload == "cpuburn"
    assert table1.rows[0].rise_percent == pytest.approx(100.0)


def test_table1_rise_ordering(table1):
    rows = {row.workload: row for row in table1.rows}
    assert rows["calculix"].rise_percent > rows["astar"].rise_percent
    # astar is the cool outlier; its rise lands well below cpuburn's.
    assert rows["astar"].rise_percent < 90.0


def test_table1_fits_are_superlinear(table1):
    """All workloads fit beta > 1: small reductions are cheap."""
    for row in table1.rows:
        assert row.beta > 1.0
        assert 0.5 < row.alpha < 2.0


def test_table1_paper_reference_columns(table1):
    rows = {row.workload: row for row in table1.rows}
    assert rows["calculix"].paper_alpha == 1.282
    assert rows["astar"].paper_beta == 1.416


def test_table1_render(table1):
    text = table1.render()
    assert "Table 1" in text
    assert "calculix" in text


def test_table1_simulates_cpuburn_baseline_once():
    events = []
    runner = ParallelRunner(progress=events.append)
    table1_spec_workloads(
        CFG.scaled(characterization_duration=4.0),
        benchmarks=("astar",),
        ps=(0.5,),
        ls_ms=(25.0,),
        runner=runner,
    )
    specs = [event.spec for event in events]
    burn_baselines = [
        spec for spec in specs if spec.params["workload"] == "cpuburn" and "p" not in spec.params
    ]
    assert len(burn_baselines) == 1
    assert runner.metrics.executed == len({spec.key for spec in specs}) == 4


def test_table1_rejects_unknown_benchmark_before_running():
    runner = ParallelRunner()
    with pytest.raises(ConfigurationError, match="mcf"):
        table1_spec_workloads(CFG, benchmarks=("calculix", "mcf"), runner=runner)
    assert runner.metrics.executed == 0
