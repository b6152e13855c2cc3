"""Observability spine: process-local metrics and run manifests.

Two pieces:

- :mod:`repro.telemetry.registry` — a metrics registry (counters,
  gauges, timers) with named scopes.  The simulation engine,
  scheduler, injector, thermal integrator, and batch runtime all
  publish here; worker processes snapshot their registry and the
  parent merges, so pool runs aggregate to exactly the serial counts.
- :mod:`repro.telemetry.manifest` — the JSON run manifest the CLI
  writes (``--metrics``): config hash, seed, code fingerprint, git
  state, timings, and the aggregated metrics snapshot.

This package sits at the bottom of the dependency stack (it imports
only :mod:`repro.errors`), so any layer may use it freely.

See ``docs/telemetry.md`` for the metric name catalogue and usage.
"""

from .manifest import MANIFEST_SCHEMA_VERSION, RunManifest, git_describe
from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsScope,
    Timer,
    isolated,
    registry,
    set_registry,
)

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "MetricsScope",
    "RunManifest",
    "Timer",
    "git_describe",
    "isolated",
    "registry",
    "set_registry",
]
