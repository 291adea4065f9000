"""In-memory time series with aggregation.

The middle layer of the Device-proxy ("It collects data from the device
in a local database") and the global measurements database both store
sampled sensor data.  :class:`TimeSeries` is their common primitive:
append-mostly storage of (time, value) pairs kept sorted by time, range
queries, bucketed resampling and trapezoidal integration (power -> energy).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError, StorageError

AGGREGATIONS = ("count", "first", "last", "max", "mean", "min", "sum")

#: the ufunc behind each aggregation that reads a bucket's values
_UFUNCS: Dict[str, np.ufunc] = {"mean": np.add, "sum": np.add,
                                "min": np.minimum, "max": np.maximum}


def bucket_aggregate(times: np.ndarray, values: np.ndarray, bucket: float,
                     agg: str = "mean") -> List[Tuple[float, float]]:
    """Aggregate time-sorted samples into fixed buckets.

    Returns ``(bucket_start, aggregate)`` pairs of Python floats; starts
    are multiples of *bucket* (floor-aligned), empty buckets are omitted.
    The one loop under every bucketed read: :meth:`TimeSeries.resample`,
    the Device-proxy's ``/data``, the measurement DB's raw scan.  Each
    bucket is a contiguous slice reduced by the bare ufunc — bit-identical
    to ``np.mean`` / ``np.sum`` / ``np.min`` / ``np.max`` of that slice,
    which ``np.add.reduceat`` is not (no pairwise summation), and a
    last-ulp difference changes an answer's size on the wire.
    """
    if bucket <= 0:
        raise StorageError("bucket width must be positive")
    if agg not in AGGREGATIONS:
        raise StorageError(f"unknown aggregation {agg!r}")
    if not len(times):
        return []
    starts = np.floor(times / bucket) * bucket
    heads = ((starts[1:] != starts[:-1]).nonzero()[0] + 1).tolist()
    lows = [0, *heads]
    highs = [*heads, len(times)]
    bucket_starts = starts[lows].tolist()
    # times are sorted: the two ends bound every start in between
    if not all(map(math.isfinite, (bucket_starts[0], bucket_starts[-1]))):
        raise QueryError(f"bucket width {bucket!r} overflows a bucket start")
    if agg == "count":
        aggregates = [float(hi - lo) for lo, hi in zip(lows, highs)]
    elif agg == "first":
        aggregates = values[lows].tolist()
    elif agg == "last":
        aggregates = values[[hi - 1 for hi in highs]].tolist()
    else:
        reduce = _UFUNCS[agg].reduce
        aggregates = [float(reduce(values[lo:hi]))
                      for lo, hi in zip(lows, highs)]
        if agg == "mean":
            aggregates = [total / (hi - lo) for total, lo, hi
                          in zip(aggregates, lows, highs)]
    return list(zip(bucket_starts, aggregates))


class TimeSeries:
    """A sorted sequence of (timestamp, value) samples."""

    def __init__(self, samples: Optional[Sequence[Tuple[float, float]]] = None):
        self._times: List[float] = []
        self._values: List[float] = []
        if samples:
            for t, v in samples:
                self.append(t, v)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps as a numpy array (copy)."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as a numpy array (copy)."""
        return np.asarray(self._values, dtype=float)

    def append(self, t: float, value: float) -> None:
        """Insert a sample, keeping time order (out-of-order allowed)."""
        if not self._times or t >= self._times[-1]:
            self._times.append(float(t))
            self._values.append(float(value))
            return
        index = bisect.bisect_right(self._times, t)
        self._times.insert(index, float(t))
        self._values.insert(index, float(value))

    def latest(self) -> Tuple[float, float]:
        """Most recent (timestamp, value); raises on an empty series."""
        if not self._times:
            raise StorageError("series is empty")
        return self._times[-1], self._values[-1]

    def first(self) -> Tuple[float, float]:
        """Oldest (timestamp, value); raises on an empty series."""
        if not self._times:
            raise StorageError("series is empty")
        return self._times[0], self._values[0]

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= t < end`` as a new series."""
        if end < start:
            raise StorageError(f"reversed window [{start}, {end})")
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        out = TimeSeries()
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def resample(self, bucket: float, agg: str = "mean"
                 ) -> List[Tuple[float, float]]:
        """Aggregate into fixed buckets; empty buckets are omitted.

        Returns (bucket_start, aggregate) pairs, bucket boundaries are
        multiples of *bucket*.
        """
        return bucket_aggregate(self.times, self.values, bucket, agg)

    def integrate_hours(self) -> float:
        """Trapezoidal integral of value dt, with dt in hours.

        For a power series in watts this yields energy in watt-hours.
        """
        if len(self._times) < 2:
            return 0.0
        times = self.times / 3600.0
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.values, times))

    def mean(self) -> float:
        """Arithmetic mean of the values; raises on empty series.

        Clamped into ``[minimum, maximum]``: float accumulation can land
        the raw mean one ulp outside the value envelope.
        """
        if not self._values:
            raise StorageError("series is empty")
        values = self.values
        mean = float(np.mean(values))
        return float(min(max(mean, np.min(values)), np.max(values)))

    def minimum(self) -> float:
        """Smallest value in the series; raises on an empty series."""
        if not self._values:
            raise StorageError("series is empty")
        return float(np.min(self.values))

    def maximum(self) -> float:
        """Largest value in the series; raises on an empty series."""
        if not self._values:
            raise StorageError("series is empty")
        return float(np.max(self.values))

    def prune_before(self, cutoff: float) -> int:
        """Drop samples older than *cutoff*; returns how many were removed."""
        index = bisect.bisect_left(self._times, cutoff)
        if index == 0:
            return 0
        del self._times[:index]
        del self._values[:index]
        return index

    def to_pairs(self) -> List[Tuple[float, float]]:
        """All samples as a list of (t, value) pairs."""
        return list(zip(self._times, self._values))


def merge(series: Sequence[TimeSeries]) -> TimeSeries:
    """Merge several series into one time-ordered series."""
    out = TimeSeries()
    pairs: List[Tuple[float, float]] = []
    for s in series:
        pairs.extend(s.to_pairs())
    pairs.sort(key=lambda p: p[0])
    out._times = [p[0] for p in pairs]
    out._values = [p[1] for p in pairs]
    return out


def aligned_sum(series: Sequence[TimeSeries], bucket: float
                ) -> List[Tuple[float, float]]:
    """Bucketed sum across series — the district/building roll-up.

    Each series is first resampled with ``mean`` into *bucket*-wide
    slots (a power reading is a level, not an increment), then slots are
    summed across series.  Only slots covered by at least one series
    appear.
    """
    totals: Dict[float, float] = {}
    for s in series:
        for start, value in s.resample(bucket, "mean"):
            totals[start] = totals.get(start, 0.0) + value
    return sorted(totals.items())
