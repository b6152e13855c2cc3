"""Simulated processor power measurement.

The paper clamps a Fluke i410 current probe around the processor power
leads and logs through a Keithley 2701 DMM at three samples per
millisecond (§3.2), quoting ≈3.5 % clamp accuracy (§3.3).

The simulated meter receives exact per-segment average powers from the
thermal integrator (so *energy accounting is exact*), and can replay
the trace as a fixed-rate sample stream with optional clamp gain error
for Figure 1 and the §3.3 energy-validation methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import AnalysisError


@dataclass
class PowerSegment:
    """One homogeneous span of package power."""

    start: float
    duration: float
    power: float


class PowerMeter:
    """Collects exact power segments; resamples like a clamp+DMM.

    ``sync``, when given, is called before every read so the trace is
    current: a machine that integrates its physics lazily passes a
    callable that records and integrates everything up to the present
    instant, so a controller reading mid-run sees whole windows.
    """

    def __init__(
        self,
        *,
        clamp_gain_error: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        sync: Optional[Callable[[], None]] = None,
    ):
        if clamp_gain_error < 0:
            raise AnalysisError("clamp gain error must be non-negative")
        if clamp_gain_error > 0 and rng is None:
            raise AnalysisError("a noisy clamp needs an RNG stream")
        self._starts: list = []
        self._durations: list = []
        self._powers: list = []
        self._sync = sync
        #: Per-run multiplicative gain error (drawn once, like a real
        #: clamp's calibration offset).
        self.gain = 1.0
        if clamp_gain_error > 0:
            self.gain = float(1.0 + rng.normal(0.0, clamp_gain_error))

    # ------------------------------------------------------------------
    def record_segment(self, start: float, duration: float, power: float) -> None:
        """Record an exact segment (called by the machine's integrator)."""
        if duration <= 0:
            return
        self._starts.append(start)
        self._durations.append(duration)
        self._powers.append(power)

    def _current(self) -> None:
        if self._sync is not None:
            self._sync()

    @property
    def num_segments(self) -> int:
        self._current()
        return len(self._starts)

    def segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._current()
        return (
            np.asarray(self._starts),
            np.asarray(self._durations),
            np.asarray(self._powers),
        )

    def iter_segments(self):
        """Yield the recorded trace as :class:`PowerSegment` objects."""
        self._current()
        for start, duration, power in zip(self._starts, self._durations, self._powers):
            yield PowerSegment(start=start, duration=duration, power=power)

    # ------------------------------------------------------------------
    def energy(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Exact energy (J) delivered in [start, end], pro-rating
        segments that straddle the window edges.  A NaN bound or
        ``end < start`` raises :class:`~repro.errors.AnalysisError`."""
        if not start <= end:  # also rejects NaN
            raise AnalysisError(f"energy needs start <= end, got [{start}, {end}]")
        starts, durations, powers = self.segments()
        if starts.size == 0:
            return 0.0
        ends = starts + durations
        overlap = np.clip(np.minimum(ends, end) - np.maximum(starts, start), 0.0, None)
        return float(np.sum(overlap * powers))

    def average_power(self, start: float, end: float) -> float:
        if end <= start:
            raise AnalysisError("average_power needs end > start")
        return self.energy(start, end) / (end - start)

    def resample(self, period: float, *, end: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Fixed-rate sample stream like the DMM would log.

        Each sample is the window-averaged power over one period,
        scaled by the clamp gain.  Returns (sample_times, watts).
        """
        if period <= 0:
            raise AnalysisError("sample period must be positive")
        starts, durations, powers = self.segments()
        if starts.size == 0:
            return np.array([]), np.array([])
        t0 = starts[0]
        data_end = float(starts[-1] + durations[-1])
        t1 = min(end, data_end) if end is not None else data_end
        # Only whole windows that lie inside the recorded data.
        n_windows = int(np.floor((t1 - t0) / period + 1e-9))
        if n_windows < 1:
            return np.array([]), np.array([])
        edges = t0 + period * np.arange(n_windows + 1)
        # Cumulative energy at segment boundaries -> energy per window.
        seg_ends = starts + durations
        cum_energy = np.concatenate([[0.0], np.cumsum(durations * powers)])

        def energy_at(t: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(seg_ends, t, side="left")
            idx = np.clip(idx, 0, len(starts) - 1)
            base = cum_energy[idx]
            partial = np.clip(t - starts[idx], 0.0, durations[idx]) * powers[idx]
            return base + partial

        window_energy = np.diff(energy_at(edges))
        watts = self.gain * window_energy / period
        return edges[:-1] + period / 2.0, watts
