"""Figure 6: QoS vs temperature reduction for the web workload.

Paper: "At the lower, 'tolerable' QoS threshold, we allowed up to 20%
temperature reductions with virtually no drop-off in performance...
Even under tighter requirements ('good' metric), we allowed at least
1:1 and often better trade-offs until temperature reductions of 30% or
more, at which point performance quickly falls below the acceptable
range."
"""

import pytest

from repro.experiments.figures import fig6_webserver_qos


@pytest.mark.benchmark(group="fig6")
def test_fig6_webserver_qos(benchmark, config, show, runner):
    result = benchmark.pedantic(
        lambda: fig6_webserver_qos(config, runner=runner), rounds=1, iterations=1
    )
    show(result, "Figure 6 — web workload QoS vs temperature reduction")

    # Setup matches the paper: 15-25% per-core load and a modest rise.
    assert 0.12 < result.offered_load_per_core < 0.30
    assert 2.0 < result.baseline_rise < 10.0

    # Tolerable threshold: ~20% temperature reduction essentially free.
    cheap = [pt for pt in result.points if pt.temp_reduction <= 0.25]
    assert cheap
    assert all(pt.qos_tolerable > 0.9 for pt in cheap)

    # Some configuration achieves a >=30% reduction while "good" QoS is
    # still acceptable...
    good_zone = [pt for pt in result.points if pt.qos_good > 0.9]
    assert max(pt.temp_reduction for pt in good_zone) > 0.3

    # ...but past the knee performance collapses quickly.
    aggressive = [pt for pt in result.points if pt.temp_reduction > 0.7]
    assert aggressive
    assert all(pt.qos_good < 0.5 for pt in aggressive)

    # Tolerable is never stricter than good.
    for pt in result.points:
        assert pt.qos_tolerable >= pt.qos_good - 1e-9
