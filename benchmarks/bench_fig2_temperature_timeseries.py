"""Figure 2: core temperature rise over idle vs time for several p.

Paper: temperatures stabilise after ~300 s of cpuburn; curves are
ordered by idle proportion p and fluctuate due to the probabilistic
injection model (L = 100 ms).
"""

import pytest

from repro.experiments.figures import fig2_temperature_timeseries


@pytest.mark.benchmark(group="fig2")
def test_fig2_temperature_timeseries(benchmark, config, show, runner):
    result = benchmark.pedantic(
        lambda: fig2_temperature_timeseries(config, runner=runner), rounds=1, iterations=1
    )
    show(result, "Figure 2 — temperature rise over idle vs time (L=100ms)")

    rises = result.final_rise
    # Monotone ordering by p (paper's four stacked curves).
    assert rises[0.0] > rises[0.25] > rises[0.5] > rises[0.75]
    # Unconstrained cpuburn rise calibrated to ~20 C.
    assert 15.0 < rises[0.0] < 26.0
    # Probabilistic implementation: injected curves fluctuate more.
    assert result.ripple_std[0.5] > result.ripple_std[0.0]
