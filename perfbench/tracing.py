"""Layer spans recorded from outside the program.

The tracer wraps the public functions that form each layer's boundary
(class attributes, patched for the duration of one traced pass and
restored afterwards) and keeps per-span totals in memory: inclusive
seconds, self seconds (inclusive minus the time covered by child
spans), and call counts.  Nothing inside ``src/`` is touched; counters
the program already publishes through ``repro.telemetry`` are read
from the pass's isolated registry instead of being re-counted here.

Some layers bind a method when they are constructed (the temperature
log and health monitor schedule their bound ``_sample``, the machine
registers its physics listener), so :meth:`Tracer.install` must run
before the pass builds any simulator.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class, attribute, span name).  A span name may cover
#: several functions that never nest (both thermal advance paths).
_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
    ("repro.core.injector", "IdleInjector", "decide", "core.injector.decide"),
    ("repro.cpu.chip", "Chip", "power_segment", "cpu.power_segment"),
    ("repro.cpu.chip", "Chip", "cstate_breakpoints", "cpu.cstate_breakpoints"),
    ("repro.cpu.chip", "Chip", "record_residency", "cpu.record_residency"),
    ("repro.thermal.rcnetwork", "ThermalIntegrator", "advance_coefficients", "thermal.advance"),
    ("repro.thermal.rcnetwork", "FleetThermalIntegrator", "advance_machines", "thermal.advance"),
    ("repro.thermal.rcnetwork", "ThermalNetwork", "step_kernel", "thermal.step_kernel"),
    ("repro.instruments.powermeter", "PowerMeter", "record_segment", "instruments.powermeter"),
    ("repro.thermal.sensors", "SensorBank", "read", "instruments.sensor_read"),
    ("repro.instruments.templog", "TemperatureLog", "_sample", "instruments.templog.sample"),
    ("repro.health.monitor", "HealthTracker", "observe", "health.observe"),
    ("repro.fleet.machine", "FleetMachine", "run", "fleet.run"),
    ("repro.workloads.webserver", "WebServer", "submit_request", "workloads.submit"),
    ("repro.runtime.parallel", "RunSpec", "key", "runtime.spec_key"),
    ("repro.runtime.cache", "ResultCache", "get", "runtime.cache_get"),
    ("repro.runtime.cache", "ResultCache", "put", "runtime.cache_put"),
    ("repro.runtime.parallel", "ParallelRunner", "run", "runtime.runner_run"),
)

#: Cohort-width buckets reported as shares of thermal advances.
COHORT_BUCKETS = (("w1", 1, 1), ("w2_3", 2, 3), ("w4_7", 4, 7), ("w8_plus", 8, None))


class Span:
    """Accumulated totals of one span name."""

    __slots__ = ("total", "self_time", "calls", "depth")

    def __init__(self) -> None:
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.depth = 0


class Tracer:
    """In-memory span recorder over patched layer-boundary functions."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        #: Child-time accumulators of the spans currently open.
        self._stack: List[float] = []
        self._patches: List[Tuple[type, str, Any]] = []
        #: Thermal advances by cohort width (single-chip advances are 1).
        self.cohort_widths: Dict[int, int] = {}
        #: Machine-segments advanced, and how many were shorter than one
        #: substep (``max_substep``).
        self.segments = 0
        self.short_segments = 0

    # ------------------------------------------------------------------
    def span(self, name: str) -> Span:
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = Span()
        return record

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        record = self.span(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record.depth:
                # A re-entered span (an override calling its base) is
                # already being timed by the outer call.
                return fn(*args, **kwargs)
            if observe is not None:
                observe(*args, **kwargs)
            record.depth = 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record.depth = 0
                child = stack.pop()
                record.total += elapsed
                record.self_time += elapsed - child
                record.calls += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _observe_single(self, integrator, duration, coefficients) -> None:
        self._observe(1, duration, integrator.max_substep)

    def _observe_cohort(self, integrator, machines, duration, coefficients) -> None:
        self._observe(len(machines), duration, integrator.max_substep)

    def _observe(self, width: int, duration: float, max_substep: float) -> None:
        if width == 0 or duration <= 0:
            return  # the integrator returns without advancing
        self.cohort_widths[width] = self.cohort_widths.get(width, 0) + 1
        self.segments += width
        if duration < max_substep:
            self.short_segments += width

    def _patch(self, owner: type, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every layer boundary; call before the pass builds
        anything."""
        import importlib

        from repro.fleet.balancer import Balancer
        import repro.fleet.scheduling  # noqa: F401 - defines the balancers

        observers = {
            "advance_coefficients": self._observe_single,
            "advance_machines": self._observe_cohort,
        }
        for module_name, class_name, attr, name in _TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attr]
            if isinstance(original, property):
                replacement: Any = property(self._wrap(name, original.fget))
            else:
                replacement = self._wrap(name, original, observers.get(attr))
            self._patch(owner, attr, replacement)

        pending = [Balancer]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "select" in cls.__dict__:
                self._patch(cls, "select", self._wrap("fleet.balancer.select", cls.__dict__["select"]))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        record = self.spans.get(name)
        return record.total if record is not None else 0.0

    def self_time(self, name: str) -> float:
        record = self.spans.get(name)
        return record.self_time if record is not None else 0.0

    def calls(self, name: str) -> int:
        record = self.spans.get(name)
        return record.calls if record is not None else 0


def _ratio(numerator: float, denominator: float) -> float:
    """A share with an empty base reported as 0 (the layer did no work)."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    *,
    passes: int,
    glue_s: float,
    render_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced pass: name -> (value, unit).

    ``counters`` are the program's own ``repro.telemetry`` counters
    summed over the traced passes; ``glue_s``/``render_s`` are summed
    over the same passes by the caller.
    """
    c = lambda name: float(counters.get(name, 0))  # noqa: E731
    per = 1.0 / passes
    widths = tracer.cohort_widths
    advances = sum(widths.values())
    expm_lookups = c("thermal.rcnetwork.expm_cache.hits") + c("thermal.rcnetwork.expm_cache.misses")
    segment_lookups = c("cpu.chip.power_segments.rebuilds") + c("cpu.chip.power_segments.reuses")
    stack_lookups = c("fleet.coefficient_stacks.builds") + c("fleet.coefficient_stacks.reuses")
    cache_lookups = sum(
        c(f"runtime.cache.{kind}") for kind in ("hits", "misses", "corrupt", "schema_stale")
    )

    metrics: Dict[str, Tuple[float, str]] = {
        "sim.events": (c("sim.engine.events") * per, "count"),
        "sim.events_per_sim_s": (
            _ratio(c("sim.engine.events"), c("sim.engine.virtual_time")),
            "1/s",
        ),
        "sim.self_s": (tracer.self_time("sim.run") * per, "s"),
        "sched.dispatches": (c("sched.scheduler.dispatches") * per, "count"),
        "core.injector.decisions": (c("core.injector.decisions") * per, "count"),
        "core.injector.decide_s": (tracer.total("core.injector.decide") * per, "s"),
        "cpu.power_segment.calls": (tracer.calls("cpu.power_segment") * per, "count"),
        "cpu.power_segment_s": (tracer.total("cpu.power_segment") * per, "s"),
        "cpu.segment_reuse_ratio": (
            _ratio(c("cpu.chip.power_segments.reuses"), segment_lookups),
            "ratio",
        ),
        "cpu.cstate_breakpoints_s": (tracer.total("cpu.cstate_breakpoints") * per, "s"),
        "cpu.record_residency_s": (tracer.total("cpu.record_residency") * per, "s"),
        "thermal.advance.calls": (tracer.calls("thermal.advance") * per, "count"),
        "thermal.advance_s": (tracer.total("thermal.advance") * per, "s"),
        "thermal.substeps": (
            (c("thermal.rcnetwork.substeps") + c("fleet.substeps")) * per,
            "count",
        ),
        "thermal.step_kernel_s": (tracer.total("thermal.step_kernel") * per, "s"),
        "thermal.expm_hit_ratio": (
            _ratio(c("thermal.rcnetwork.expm_cache.hits"), expm_lookups),
            "ratio",
        ),
        "thermal.short_gap_frac": (_ratio(tracer.short_segments, tracer.segments), "ratio"),
        "thermal.cohort_width.mean": (_ratio(tracer.segments, advances), "machines"),
    }
    for label, low, high in COHORT_BUCKETS:
        count = sum(n for w, n in widths.items() if w >= low and (high is None or w <= high))
        metrics[f"thermal.cohort_width.{label}"] = (_ratio(count, advances), "ratio")
    metrics.update(
        {
            "instruments.powermeter_s": (tracer.total("instruments.powermeter") * per, "s"),
            "instruments.sensor_read_s": (tracer.total("instruments.sensor_read") * per, "s"),
            "instruments.templog.samples": (
                tracer.calls("instruments.templog.sample") * per,
                "count",
            ),
            "health.samples": (c("health.samples") * per, "count"),
            "health.observe_s": (tracer.total("health.observe") * per, "s"),
            "health.alerts": (c("health.alerts") * per, "count"),
            "fleet.run_s": (tracer.total("fleet.run") * per, "s"),
            "fleet.segments": (c("fleet.segments") * per, "count"),
            "fleet.stack_reuse_ratio": (
                _ratio(c("fleet.coefficient_stacks.reuses"), stack_lookups),
                "ratio",
            ),
            "fleet.balancer.routed": (c("fleet.balancer.routed") * per, "count"),
            "fleet.balancer.select_s": (tracer.total("fleet.balancer.select") * per, "s"),
            "fleet.migrations": (c("fleet.migrations") * per, "count"),
            "workloads.requests": (tracer.calls("workloads.submit") * per, "count"),
            "workloads.submit_s": (tracer.total("workloads.submit") * per, "s"),
            "runtime.spec_key_s": (tracer.total("runtime.spec_key") * per, "s"),
            "runtime.cache_get_s": (tracer.total("runtime.cache_get") * per, "s"),
            "runtime.cache_put_s": (tracer.total("runtime.cache_put") * per, "s"),
            "runtime.cache_hit_ratio": (_ratio(c("runtime.cache.hits"), cache_lookups), "ratio"),
            "runtime.executed": (c("runtime.runner.executed") * per, "count"),
            "experiments.glue_s": (glue_s * per, "s"),
            "experiments.render_s": (render_s * per, "s"),
        }
    )
    return metrics
