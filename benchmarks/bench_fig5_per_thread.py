"""Figure 5: global vs thread-specific control.

Paper: "With thread-specific control, the lower-heat 'cool' process can
execute without interruption while the system temperature is lowered by
degrading 'hot' process performance. With system-wide policies, cool
processes are unfairly penalized."
"""

import pytest

from repro.experiments.figures import fig5_per_thread_control


@pytest.mark.benchmark(group="fig5")
def test_fig5_per_thread_control(benchmark, config, show, runner):
    result = benchmark.pedantic(
        lambda: fig5_per_thread_control(config, runner=runner), rounds=1, iterations=1
    )
    show(result, "Figure 5 — global vs thread-specific control")

    per_thread = result.series("per-thread")
    global_policy = result.series("global")

    # Per-thread: cool process throughput essentially untouched at any
    # temperature reduction.
    assert all(tput > 0.95 for _, tput in per_thread)
    # Per-thread still achieves substantial temperature reductions by
    # slowing only the hot threads.
    assert max(r for r, _ in per_thread) > 0.5

    # Global: the cool process pays increasingly as reductions deepen.
    deep_global = [tput for r, tput in global_policy if r > 0.7]
    assert deep_global
    assert min(deep_global) < 0.7

    # At comparable temperature reductions, per-thread dominates global
    # on cool-process throughput.
    for r_g, tput_g in global_policy:
        matches = [t for r_p, t in per_thread if abs(r_p - r_g) < 0.1]
        if matches:
            assert max(matches) >= tput_g - 1e-9
