"""Periodic temperature logging (the ``coretemp`` poller).

The paper reads per-core temperatures from the FreeBSD ``coretemp``
module and reports averages over trailing windows (e.g. "the average
temperature over the last 30 seconds of a 300 second execution",
§3.4).  :class:`TemperatureLog` samples a reader callback at a fixed
period and provides exactly those window statistics.

Samples land in a geometrically grown NumPy buffer (amortised O(1) per
sample, no per-sample Python list append), and trailing-window means
are cached between samples — a controller polling the same window many
times per sample period pays for the masked reduction once.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..sim.engine import Simulator
from ..sim.process import PeriodicTask

#: Initial sample-buffer capacity; doubles when full.
_INITIAL_CAPACITY = 64


class TemperatureLog:
    """Samples per-core temperatures on a fixed period."""

    def __init__(
        self,
        sim: Simulator,
        reader: Callable[[], np.ndarray],
        *,
        period: float = 1.0,
        num_cores: Optional[int] = None,
    ):
        if not (math.isfinite(period) and period > 0):
            raise AnalysisError(f"sample period must be positive and finite, got {period}")
        if num_cores is not None and num_cores < 1:
            raise AnalysisError("num_cores must be positive when given")
        self.period = period
        #: Width of the sample rows; learned from the first sample when
        #: not passed explicitly (it shapes the empty-log array).
        self.num_cores = num_cores
        self._sim = sim
        self._reader = reader
        self._count = 0
        self._time_buffer = np.empty(0)
        self._sample_buffer: Optional[np.ndarray] = None
        #: (window, end) -> per-core mean; cleared whenever a sample lands.
        self._window_cache: Dict[Tuple[float, Optional[float]], np.ndarray] = {}
        self._task = PeriodicTask(sim, period, self._sample, phase=0.0)

    def _sample(self) -> None:
        sample = np.asarray(self._reader(), dtype=float)
        width = int(sample.shape[0])
        if self.num_cores is None:
            self.num_cores = width
        elif width != self.num_cores:
            raise AnalysisError(
                f"ragged temperature sample: got {width} entries, "
                f"log is {self.num_cores} wide"
            )
        if self._sample_buffer is None or self._count == self._time_buffer.shape[0]:
            self._grow()
        self._time_buffer[self._count] = self._sim.now
        self._sample_buffer[self._count] = sample
        self._count += 1
        self._window_cache.clear()

    def _grow(self) -> None:
        capacity = max(_INITIAL_CAPACITY, 2 * self._count)
        times = np.empty(capacity)
        samples = np.empty((capacity, self.num_cores))
        if self._count:
            times[: self._count] = self._time_buffer[: self._count]
            samples[: self._count] = self._sample_buffer[: self._count]
        self._time_buffer = times
        self._sample_buffer = samples

    def stop(self) -> None:
        self._task.cancel()

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        return self._time_buffer[: self._count].copy()

    @property
    def samples(self) -> np.ndarray:
        """Array of shape (num_samples, num_cores).

        An empty log still has a well-defined width when ``num_cores``
        is known, so per-core slicing fails loudly (below) rather than
        with a bare IndexError on a ``(0, 0)`` array.
        """
        if self._count == 0:
            return np.empty((0, self.num_cores or 0))
        return self._sample_buffer[: self._count].copy()

    def latest(self) -> Optional[np.ndarray]:
        """The most recent per-core sample (°C), or ``None`` before the
        first sample lands.

        This is the sensor view a management plane sees: reading it
        costs nothing and — unlike a true-temperature read — does not
        force the owning machine to integrate pending physics, so
        telemetry-driven schedulers can poll it without perturbing the
        simulation's substep structure.
        """
        if self._count == 0:
            return None
        return self._sample_buffer[self._count - 1].copy()

    def core_series(self, core: int) -> np.ndarray:
        if self._count == 0:
            raise AnalysisError("no temperature samples recorded")
        if not 0 <= core < self.num_cores:
            raise AnalysisError(
                f"core {core} out of range (log covers {self.num_cores} cores)"
            )
        return self._sample_buffer[: self._count, core].copy()

    def mean_over_window(self, window: float, *, end: Optional[float] = None) -> float:
        """Mean of all cores' readings over the trailing ``window`` s."""
        per_core = self.per_core_mean_over_window(window, end=end)
        return float(np.mean(per_core))

    def per_core_mean_over_window(
        self, window: float, *, end: Optional[float] = None
    ) -> np.ndarray:
        if not window > 0:
            raise ConfigurationError(f"averaging window must be positive, got {window}")
        if self._count == 0:
            raise AnalysisError("no temperature samples recorded")
        key = (float(window), None if end is None else float(end))
        cached = self._window_cache.get(key)
        if cached is not None:
            return cached.copy()
        times = self._time_buffer[: self._count]
        end_time = float(times[-1]) if end is None else end
        mask = (times >= end_time - window) & (times <= end_time)
        if not np.any(mask):
            raise AnalysisError(
                f"no samples in the trailing {window}s window ending at {end_time}s"
            )
        result = self._sample_buffer[: self._count][mask].mean(axis=0)
        self._window_cache[key] = result
        return result.copy()
