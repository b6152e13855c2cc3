"""Figure 1: race-to-idle vs Dimetrodon power consumption trace.

Paper: "The scheduler injected idle cycles into a multi-threaded
CPU-bound process, lowering average power consumption during execution;
the four power levels correspond to periods during which a varying
number of the four processor cores idled."
"""

import pytest

from repro.experiments.figures import fig1_power_trace


@pytest.mark.benchmark(group="fig1")
def test_fig1_power_trace(benchmark, config, show, runner):
    result = benchmark.pedantic(
        lambda: fig1_power_trace(config, runner=runner), rounds=1, iterations=1
    )
    show(result, "Figure 1 — race-to-idle vs Dimetrodon power trace")

    # Shape assertions: Dimetrodon takes longer at equal total energy,
    # and its trace walks the 5-level staircase.
    assert result.completion_dim > 1.5 * result.completion_race
    assert result.energy_dim / result.energy_race == pytest.approx(1.0, abs=0.05)
    levels = result.power_levels
    assert len(levels) == 5
    assert all(b > a for a, b in zip(levels, levels[1:]))
