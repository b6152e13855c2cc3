"""Windowed SLO scoring for open-loop request workloads.

The paper scores the web workload's QoS over the whole run (§3.7:
"good" ≤ 3 s, "tolerable" ≤ 5 s, else failed).  One number over one
window hides exactly what time-varying load reveals: a diurnal trough
can mask a flash-crowd collapse, and a single bad minute is invisible
in a long average.  This module scores a request log over a *partition*
of half-open time windows and reports the per-window series plus
summaries a production SLO review would ask for.

Conventions (shared with
:meth:`repro.workloads.webserver.RequestLog.arrived_in` — they are
pinned by property tests):

- Windows are half-open ``[start, end)`` over *arrival* time: every
  request belongs to exactly one window of a partition, so per-window
  counts recombine exactly to whole-run totals.
- A window with zero arrivals carries **no data**: its fractions are
  ``None`` (serialized as ``null``, never NaN) and it is excluded from
  every aggregate.  An idle trough is not perfect QoS.
- An unanswered request (still queued when scoring happens) counts as
  failed — an exploding backlog must show up as a QoS collapse — but
  contributes no response-time sample to the percentiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..workloads.webserver import QOS_GOOD, QOS_TOLERABLE, Request

#: Response-time percentiles reported per window and overall.
PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class WindowScore:
    """QoS tallies for one half-open window ``[start, end)``.

    Counts are the ground truth (they recombine exactly across a
    partition); fractions are derived views that become ``None`` when
    the window has no arrivals.
    """

    start: float
    end: float
    #: Requests arriving in the window.
    arrivals: int
    #: Answered within the good threshold.
    good: int
    #: Answered within the tolerable threshold (includes ``good``).
    tolerable: int
    #: Answered at all (whatever the response time).
    answered: int
    #: Response-time percentiles over *answered* requests, seconds
    #: (``{"p50": ..., "p95": ..., "p99": ...}``; empty when nothing
    #: was answered).
    response_percentiles: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Requests neither answered within tolerable nor answered at
        all (unanswered requests are failures)."""
        return self.arrivals - self.tolerable

    @property
    def good_fraction(self) -> Optional[float]:
        return self.good / self.arrivals if self.arrivals else None

    @property
    def tolerable_fraction(self) -> Optional[float]:
        return self.tolerable / self.arrivals if self.arrivals else None

    @property
    def failed_fraction(self) -> Optional[float]:
        return self.failed / self.arrivals if self.arrivals else None

    @property
    def empty(self) -> bool:
        return self.arrivals == 0


def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {}
    values = np.percentile(np.asarray(samples, dtype=float), PERCENTILES)
    return {f"p{int(p)}": float(v) for p, v in zip(PERCENTILES, values)}


@dataclass
class SloReport:
    """A partition of windows plus whole-run summaries.

    Aggregates are computed from the per-window *counts*, so they are
    exactly the whole-run numbers (no empty-window NaN can leak in, and
    no window weighting can skew them).
    """

    windows: List[WindowScore]
    good_threshold: float
    tolerable_threshold: float
    window_length: float

    # -- whole-run totals (exact recombination) ------------------------
    @property
    def total_arrivals(self) -> int:
        return sum(w.arrivals for w in self.windows)

    @property
    def total_good(self) -> int:
        return sum(w.good for w in self.windows)

    @property
    def total_tolerable(self) -> int:
        return sum(w.tolerable for w in self.windows)

    @property
    def total_failed(self) -> int:
        return sum(w.failed for w in self.windows)

    @property
    def good_fraction(self) -> Optional[float]:
        total = self.total_arrivals
        return self.total_good / total if total else None

    @property
    def tolerable_fraction(self) -> Optional[float]:
        total = self.total_arrivals
        return self.total_tolerable / total if total else None

    @property
    def failed_fraction(self) -> Optional[float]:
        total = self.total_arrivals
        return self.total_failed / total if total else None

    # -- window summaries ----------------------------------------------
    def scored_windows(self) -> List[WindowScore]:
        """Windows that carry data (empty ones are no-data, excluded)."""
        return [w for w in self.windows if not w.empty]

    def worst_window(self, *, metric: str = "good") -> Optional[WindowScore]:
        """The non-empty window with the lowest ``good`` (or
        ``tolerable``) fraction; ``None`` when every window is empty."""
        if metric not in ("good", "tolerable"):
            raise AnalysisError(f"unknown worst-window metric {metric!r}")
        scored = self.scored_windows()
        if not scored:
            return None
        key = (
            (lambda w: w.good_fraction)
            if metric == "good"
            else (lambda w: w.tolerable_fraction)
        )
        return min(scored, key=key)

    def time_in_violation(self, *, min_good: float = 0.95) -> float:
        """Seconds of wall time spent in non-empty windows whose good
        fraction is below ``min_good`` (empty windows violate nothing:
        there was no traffic to disappoint)."""
        return sum(
            w.end - w.start
            for w in self.scored_windows()
            if w.good_fraction < min_good
        )

    # -- serialization -------------------------------------------------
    def series(self) -> Dict[str, list]:
        """Column-oriented per-window series for manifests/plots.

        Fractions of empty windows serialize as ``None`` (JSON
        ``null``) — never NaN, which JSON cannot represent and
        downstream tooling silently propagates.
        """
        return {
            "start": [w.start for w in self.windows],
            "end": [w.end for w in self.windows],
            "arrivals": [w.arrivals for w in self.windows],
            "good": [w.good for w in self.windows],
            "tolerable": [w.tolerable for w in self.windows],
            "failed": [w.failed for w in self.windows],
            "good_fraction": [w.good_fraction for w in self.windows],
            "tolerable_fraction": [w.tolerable_fraction for w in self.windows],
            "failed_fraction": [w.failed_fraction for w in self.windows],
            "p95_response": [
                w.response_percentiles.get("p95") for w in self.windows
            ],
        }

    def summary(self) -> Dict[str, object]:
        """Aggregate row for tables/manifests.  Contains no NaN: when
        there is no data at all the fractions are ``None``."""
        worst = self.worst_window()
        return {
            "arrivals": self.total_arrivals,
            "good_fraction": self.good_fraction,
            "tolerable_fraction": self.tolerable_fraction,
            "failed_fraction": self.failed_fraction,
            "worst_window_good": None if worst is None else worst.good_fraction,
            "worst_window_start": None if worst is None else worst.start,
            "time_in_violation_s": self.time_in_violation(),
            "windows": len(self.windows),
            "empty_windows": sum(1 for w in self.windows if w.empty),
        }


def score_windows(
    requests: Iterable[Request],
    *,
    start: float,
    end: float,
    window: float,
    good_threshold: float = QOS_GOOD,
    tolerable_threshold: float = QOS_TOLERABLE,
) -> SloReport:
    """Partition ``[start, end)`` into half-open windows and score each.

    ``requests`` may pool several servers' logs (the fleet case);
    requests arriving outside ``[start, end)`` are ignored.  A rack
    cell passes its pooled log and the web run's
    :func:`~repro.workloads.webserver.scoring_span`, so its windows
    partition exactly the requests its whole-run QoS scores.  The last
    window is truncated at ``end`` when ``window`` does not divide the
    span evenly, so the partition always covers the span exactly.
    """
    if window <= 0:
        raise AnalysisError(f"window length must be positive, got {window}")
    if end <= start:
        raise AnalysisError(f"empty scoring span [{start}, {end})")
    if not tolerable_threshold >= good_threshold:
        raise AnalysisError(
            f"tolerable threshold {tolerable_threshold} must be >= "
            f"good threshold {good_threshold}"
        )
    count = max(1, math.ceil((end - start) / window - 1e-12))
    edges = [start + i * window for i in range(count)] + [end]

    buckets: List[List[Request]] = [[] for _ in range(count)]
    for request in requests:
        t = request.arrival
        if not start <= t < end:
            continue
        index = min(int((t - start) / window), count - 1)
        # Guard against float rounding at the edges: the bucket whose
        # half-open interval actually contains t wins.
        while index > 0 and t < edges[index]:
            index -= 1
        while index < count - 1 and t >= edges[index + 1]:
            index += 1
        buckets[index].append(request)

    windows: List[WindowScore] = []
    for i, bucket in enumerate(buckets):
        answered_times = [
            r.response_time for r in bucket if r.response_time is not None
        ]
        windows.append(
            WindowScore(
                start=edges[i],
                end=edges[i + 1],
                arrivals=len(bucket),
                good=sum(1 for t in answered_times if t <= good_threshold),
                tolerable=sum(1 for t in answered_times if t <= tolerable_threshold),
                answered=len(answered_times),
                response_percentiles=_percentiles(answered_times),
            )
        )
    return SloReport(
        windows=windows,
        good_threshold=good_threshold,
        tolerable_threshold=tolerable_threshold,
        window_length=window,
    )
