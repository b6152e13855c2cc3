"""Process-local metrics registry: counters, gauges and timers.

Every layer of the simulation stack publishes operational metrics here:
the event engine counts dispatches and virtual time, the scheduler and
injector count dispatches/injections, the thermal integrator counts
substeps, and the batch runtime counts cache traffic and worker
retries.  Metrics are cheap plain-Python objects — a hot path holds a
reference to its :class:`Counter` and increments an attribute — so the
instrumented code stays fast and dependency-free.

The registry is *process-local*.  One module-level registry is current
at any time (:func:`registry`); components bind their metrics to the
registry that is current when they are constructed.  Worker processes
and per-run execution wrap each run in :func:`isolated`, which swaps in
a fresh registry, and the resulting :meth:`MetricsRegistry.snapshot` is
merged back into the parent's registry — so a ``--jobs N`` sweep
aggregates to exactly the counters a serial sweep would have produced.

Merge semantics per kind:

========= =============================================
counter   values add
gauge     maximum wins (workers finish in no fixed order)
timer     totals and counts add
========= =============================================
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Union

from ..errors import TelemetryError

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (int or float)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def snapshot(self) -> Number:
        return self.value

    def merge(self, value: Number) -> None:
        self.value += value


class Gauge:
    """A point-in-time value; ``None`` until first set."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Optional[Number]:
        return self.value

    def merge(self, value: Optional[Number]) -> None:
        if value is None:
            return
        self.value = value if self.value is None else max(self.value, value)


class Timer:
    """Accumulated wall-clock seconds over timed blocks."""

    __slots__ = ("name", "total", "count")
    kind = "timer"

    def __init__(self, name: str):
        self.name = name
        self.total = 0.0
        self.count = 0

    @contextmanager
    def time(self) -> Iterator[None]:
        started = _time.perf_counter()
        try:
            yield
        finally:
            self.add(_time.perf_counter() - started)

    def add(self, seconds: float) -> None:
        if seconds < 0:
            raise TelemetryError(f"timer {self.name!r} cannot record {seconds}s")
        self.total += seconds
        self.count += 1

    def snapshot(self) -> Dict[str, Number]:
        return {"total": self.total, "count": self.count}

    def merge(self, value: Dict[str, Number]) -> None:
        self.total += value["total"]
        self.count += value["count"]


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Timer)}


class MetricsScope:
    """A dot-prefixing view over a registry (``scope.counter("x")``
    resolves to ``registry.counter("prefix.x")``)."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self.prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self.prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self.prefix}.{name}")

    def timer(self, name: str) -> Timer:
        return self._registry.timer(f"{self.prefix}.{name}")

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self._registry, f"{self.prefix}.{prefix}")


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge aggregation."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TelemetryError(
                f"metric {name!r} is already registered as a {metric.kind}, "
                f"not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def scope(self, prefix: str) -> MetricsScope:
        return MetricsScope(self, prefix)

    # ------------------------------------------------------------------
    def value(self, name: str, default: Any = None) -> Any:
        """The snapshot value of one metric, or ``default`` if absent."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.snapshot()

    def counters(self) -> Dict[str, Number]:
        """Flat name → value view of just the counters, sorted by name."""
        return {
            name: metric.value
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter)
        }

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-serialisable dump of every metric, sorted by name."""
        return {
            name: {"kind": metric.kind, "value": metric.snapshot()}
            for name, metric in sorted(self._metrics.items())
        }

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry."""
        for name, entry in snapshot.items():
            try:
                cls = _KINDS[entry["kind"]]
            except (KeyError, TypeError):
                raise TelemetryError(
                    f"snapshot entry {name!r} has an unknown metric kind"
                ) from None
            self._get(name, cls).merge(entry["value"])

    def clear(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


# ----------------------------------------------------------------------
# The process-local current registry
# ----------------------------------------------------------------------
_current = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The registry new components bind their metrics to."""
    return _current


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Install ``reg`` as current; returns the previous registry."""
    global _current
    previous = _current
    _current = reg
    return previous


@contextmanager
def isolated(reg: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Run a block against a fresh (or given) registry, then restore.

    This is how one run's metrics are separated from everything else in
    the process: the batch runtime wraps every ``execute_spec`` call in
    ``isolated()`` and merges the resulting snapshot into the parent
    registry, in workers and in-process alike.
    """
    fresh = reg if reg is not None else MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)
