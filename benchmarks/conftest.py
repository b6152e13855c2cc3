"""Shared fixtures for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper and prints
the same rows/series the paper reports (run pytest with ``-s`` to see
them).  By default the CI-friendly fast configuration is used; set
``REPRO_FULL=1`` for paper-faithful 300 s runs.

Every benchmark that regenerates a figure, table or validation (fig1
to fig6, table1, the §3.3 validations) runs its independent
simulations through the :mod:`repro.runtime` batch layer, via the
``runner`` fixture; the ablation benchmarks wire their own machines.
Two environment variables control the runner:

- ``REPRO_JOBS=N`` — fan runs out over N worker processes (default 1;
  results are bit-identical to serial either way);
- ``REPRO_CACHE_DIR=path`` — cache results on disk so re-running the
  suite after an unrelated edit skips the simulations.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import default_config
from repro.runtime import ParallelRunner, ResultCache


@pytest.fixture(scope="session")
def config():
    """The experiment configuration shared by all benchmarks."""
    return default_config(seed=0)


@pytest.fixture(scope="session")
def runner():
    """The batch runner shared by the figure, table and validation
    benchmarks."""
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
    cache = ResultCache(cache_dir) if cache_dir else None
    return ParallelRunner(jobs=jobs, cache=cache)


@pytest.fixture
def show():
    """Print a rendered experiment result, clearly delimited."""

    def _show(result, header: str) -> None:
        print()
        print("=" * 72)
        print(header)
        print("=" * 72)
        print(result.render() if hasattr(result, "render") else result)

    return _show
