"""A SPECWeb-like latency-sensitive web-serving workload (§3.7).

The paper runs SPECWeb2005's eCommerce workload with 440 simultaneous
connections from two client machines, producing 15–25 % load per core
and a ~6 °C temperature rise.  Performance is scored against QoS
thresholds: "good" (≤ 3 s response), "tolerable" (≤ 5 s), "fail".

The model preserves the pieces of that setup that interact with idle
injection:

- **open-loop request arrivals** (Poisson at ``connections /
  think_time`` requests/s): deferring a request does not stop new ones
  from arriving, so injection can grow the backlog — the paper's
  "deferring idle cycles ... increases processor load and heat";
- **two-stage service**: a kernel interrupt thread first handles the
  network event, then hands the request to a user worker thread
  (§3.1's double-delay discussion is reproducible by un-exempting
  kernel threads);
- **fragmented natural idle**: between requests cores idle in short,
  unhinted stretches that rarely reach the deep C-state, while injected
  quanta are long and scheduler-hinted — the asymmetry that lets
  injection lower average power on a partially idle machine.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sched.scheduler import Scheduler
from ..sched.thread import Thread, ThreadKind, ThreadState
from ..sim.process import Process
from .base import BLOCK, Burst, NextBurst, Workload
from .loadshapes import ArrivalProcess

#: SPECWeb QoS thresholds, seconds (§3.7).
QOS_GOOD = 3.0
QOS_TOLERABLE = 5.0

#: :class:`WebServer` defaults: 440 connections whose think time puts
#: each 4-core server at 15–25 % load (§3.7), with a 25 ms mean
#: user-level service time plus 0.2 ms of kernel work per request.
CONNECTIONS = 440
THINK_TIME = 11.0
SERVICE_MEAN = 0.025
KERNEL_OVERHEAD = 0.0002


def scoring_span(duration: float, warmup: float) -> Tuple[float, float]:
    """The arrival span ``[start, end)`` a web run is scored over: from
    ``warmup`` to ``duration`` less the ``QOS_TOLERABLE`` drain, so every
    scored request had time to be answered tolerably."""
    return warmup, duration - QOS_TOLERABLE


def check_scoring_span(duration: float, warmup: float) -> None:
    """Reject a web run whose :func:`scoring_span` is empty: its QoS
    would be NaN, not a score."""
    start, end = scoring_span(duration, warmup)
    if not end > start:  # also rejects NaN
        raise ConfigurationError(
            f"duration {duration}s leaves no scoring span past the "
            f"{warmup}s warmup and {QOS_TOLERABLE}s drain"
        )


def offered_load_per_core(
    num_cores: int,
    *,
    arrival_rate: float = CONNECTIONS / THINK_TIME,
    service_time: float = SERVICE_MEAN + KERNEL_OVERHEAD,
) -> float:
    """Offered utilisation per core (paper: 15–25 %) of requests
    arriving at ``arrival_rate`` per second, each needing
    ``service_time`` CPU seconds; the defaults are a default
    :class:`WebServer`'s (fig6's number, without building one)."""
    return arrival_rate * service_time / num_cores


@dataclass
class Request:
    """One HTTP request's lifecycle."""

    rid: int
    arrival: float
    service_time: float
    #: When the user-level worker finished producing the response.
    completed: Optional[float] = None

    @property
    def response_time(self) -> Optional[float]:
        if self.completed is None:
            return None
        return self.completed - self.arrival


@dataclass
class RequestLog:
    """All requests observed during a run, with QoS scoring."""

    requests: List[Request] = field(default_factory=list)

    def arrived_in(self, start: float, end: float) -> List[Request]:
        """Requests arriving in the half-open window ``[start, end)``.

        Half-open bounds make adjacent windows a true partition: a
        request arriving exactly at ``w`` belongs to ``[w, 2w)`` and is
        never double-counted by ``[0, w)``.
        """
        return [r for r in self.requests if start <= r.arrival < end]

    def qos_fraction(self, threshold: float, *, start: float = 0.0, end: float = float("inf")) -> float:
        """Fraction of requests (arriving in ``[start, end)``) answered
        within ``threshold`` seconds.  Unanswered requests count as
        failures — an exploding backlog shows up as a QoS collapse.

        A window with no arrivals has *no data*, not perfect QoS: it
        scores NaN so aggregations can exclude it (a diurnal trough
        must not inflate the mean).  Callers averaging across windows
        should weight by arrivals or drop NaN windows; see
        :mod:`repro.analysis.slo` for the windowed scorer.
        """
        window = self.arrived_in(start, end)
        if not window:
            return float("nan")
        good = sum(
            1 for r in window if r.response_time is not None and r.response_time <= threshold
        )
        return good / len(window)

    def mean_response_time(self, *, start: float = 0.0, end: float = float("inf")) -> float:
        done = [
            r.response_time for r in self.arrived_in(start, end) if r.response_time is not None
        ]
        if not done:
            return float("inf")
        return float(np.mean(done))


class _KernelInterruptWork(Workload):
    """Kernel-side per-request processing (interrupt + protocol work)."""

    activity = 0.60
    cpu_fraction = 1.0

    def __init__(self, server: "WebServer"):
        self._server = server
        self.pending: Deque[Request] = deque()

    def next_burst(self) -> NextBurst:
        if not self.pending:
            return BLOCK
        request = self.pending.popleft()
        return Burst(
            cpu_time=self._server.kernel_overhead,
            on_complete=lambda now, r=request: self._server._deliver_to_user(r),
            tag=request.rid,
        )

    @property
    def name(self) -> str:
        return "kernel-net"


class _WorkerWork(Workload):
    """User-level request handler (the injectable part)."""

    activity = 0.85
    cpu_fraction = 1.0

    def __init__(self, server: "WebServer"):
        self._server = server

    def next_burst(self) -> NextBurst:
        queue = self._server.ready_requests
        if not queue:
            return BLOCK
        request = queue.popleft()
        return Burst(
            cpu_time=request.service_time,
            on_complete=lambda now, r=request: self._server._complete(r),
            tag=request.rid,
        )

    @property
    def name(self) -> str:
        return "web-worker"


class WebServer:
    """Assembles the web-serving workload on a scheduler.

    Parameters mirror the paper's setup: 440 connections with a think
    time chosen to land at 15–25 % per-core load.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: np.random.Generator,
        *,
        connections: int = CONNECTIONS,
        think_time: float = THINK_TIME,
        service_mean: float = SERVICE_MEAN,
        service_sigma: float = 0.6,
        kernel_overhead: float = KERNEL_OVERHEAD,
        num_workers: int = 8,
        external_arrivals: bool = False,
        arrival_process: Optional[ArrivalProcess] = None,
    ):
        """``external_arrivals=True`` disables the server's own Poisson
        arrival process; requests then enter only through
        :meth:`submit_request` — the load-balancer mode used by the
        fleet experiment, where one fleet-level arrival stream is
        routed across many servers.  ``connections``/``think_time``
        still define :attr:`arrival_rate` (what this server is sized
        for) and the per-core load estimate.

        ``arrival_process`` replaces the fixed-rate Poisson arrival
        loop with a shaped
        :class:`~repro.workloads.loadshapes.ArrivalProcess` (diurnal,
        surge, bursty, or trace-driven); a finite process simply stops
        generating once exhausted.  Mutually exclusive with
        ``external_arrivals`` — a balancer-fed server shapes its load
        at the balancer."""
        if connections < 1 or think_time <= 0:
            raise ConfigurationError("need positive connections and think_time")
        if service_mean <= 0 or kernel_overhead <= 0:
            raise ConfigurationError("service times must be positive")
        if external_arrivals and arrival_process is not None:
            raise ConfigurationError(
                "arrival_process shapes the server's own arrival loop; "
                "with external_arrivals=True shape the balancer instead"
            )
        self.scheduler = scheduler
        self.rng = rng
        self.arrival_rate = connections / think_time
        self.service_mean = service_mean
        self.service_sigma = service_sigma
        self.kernel_overhead = kernel_overhead
        self.log = RequestLog()
        self.ready_requests: Deque[Request] = deque()
        self.arrival_process = arrival_process
        self._rid = itertools.count(1)

        self._kernel_work = _KernelInterruptWork(self)
        self.kernel_thread = Thread(self._kernel_work, name="kernel-net", kind=ThreadKind.KERNEL)
        scheduler.add_thread(self.kernel_thread)

        self.workers: List[Thread] = []
        for i in range(num_workers):
            worker = Thread(_WorkerWork(self), name=f"web-worker-{i}")
            scheduler.add_thread(worker)
            self.workers.append(worker)

        self._process: Optional[Process] = (
            None if external_arrivals else Process(scheduler.sim, self._arrival_loop())
        )

    # ------------------------------------------------------------------
    @property
    def offered_load_per_core(self) -> float:
        """Offered utilisation per core (paper: 15–25 %)."""
        return offered_load_per_core(
            self.scheduler.chip.num_cores,
            arrival_rate=self.arrival_rate,
            service_time=self.service_mean + self.kernel_overhead,
        )

    def stop(self) -> None:
        """Stop generating new requests (no-op with external arrivals)."""
        if self._process is not None:
            self._process.stop()

    def submit_request(self) -> Request:
        """Inject one request arriving now (external-arrivals mode).

        Also usable alongside the internal arrival process for burst
        injection; the request is logged and queued exactly like an
        internally generated one."""
        return self._arrive()

    # ------------------------------------------------------------------
    # Inter-machine request handoff (fleet migration)
    # ------------------------------------------------------------------
    def donate_queued(
        self,
        max_requests: int,
        *,
        accept: Optional[Callable[[Request], bool]] = None,
    ) -> List[Request]:
        """Give up to ``max_requests`` not-yet-started requests for
        migration to another server.

        Only requests sitting in the user-level ready queue are
        eligible: a request still in the kernel's interrupt queue has
        connection state that cannot be transferred, and a running
        request's thread context stays put (intra-chip migration is
        :class:`repro.core.migration.ThermalMigrationPolicy`'s job).
        Requests pop newest-first so the source queue keeps FIFO order
        for its oldest — most latency-critical — work.  ``accept``,
        when given, is consulted per request; donation stops at the
        first refusal (the queue tail is age-ordered, so later entries
        would only be costlier).

        The donated requests stay in this server's :attr:`log` — the
        request arrived *here*, and fleet-level QoS scoring pools logs
        across servers, so moving the log entry would double-count.
        """
        donated: List[Request] = []
        while self.ready_requests and len(donated) < max_requests:
            candidate = self.ready_requests[-1]
            if accept is not None and not accept(candidate):
                break
            donated.append(self.ready_requests.pop())
        return donated

    def accept_migrated(self, request: Request) -> None:
        """Receive a request handed off from another server.

        The request joins the ready queue and a blocked worker is woken,
        exactly like a locally delivered request — but it is *not*
        logged here: its log entry (and therefore its response-time
        accounting) lives with the server it arrived at.
        """
        self.ready_requests.append(request)
        self._wake_worker()

    # ------------------------------------------------------------------
    def _arrival_loop(self):
        if self.arrival_process is None:
            while True:
                yield float(self.rng.exponential(1.0 / self.arrival_rate))
                self._arrive()
        else:
            for gap in self.arrival_process.gaps(self.rng):
                yield gap
                self._arrive()

    def _draw_service_time(self) -> float:
        sigma = self.service_sigma
        scale = self.service_mean / float(np.exp(sigma**2 / 2.0))
        return float(scale * self.rng.lognormal(mean=0.0, sigma=sigma))

    def _arrive(self) -> Request:
        request = Request(
            rid=next(self._rid),
            arrival=self.scheduler.sim.now,
            service_time=self._draw_service_time(),
        )
        self.log.requests.append(request)
        self._kernel_work.pending.append(request)
        self.scheduler.wake(self.kernel_thread)
        return request

    def _deliver_to_user(self, request: Request) -> None:
        """Kernel finished the network event; hand off to a worker."""
        self.ready_requests.append(request)
        self._wake_worker()

    def _wake_worker(self) -> None:
        for worker in self.workers:
            if worker.state is ThreadState.BLOCKED:
                self.scheduler.wake(worker)
                break

    def _complete(self, request: Request) -> None:
        request.completed = self.scheduler.sim.now
