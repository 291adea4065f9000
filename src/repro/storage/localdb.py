"""Proxy-local sample database — the Device-proxy's middle layer.

Keyed by (device id, quantity), with an optional retention horizon so a
constrained gateway does not grow without bound (old samples are pruned
on insert once they age past ``retention``; the global measurement
database keeps the full history).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.cdf import Measurement
from repro.errors import SeriesNotFoundError
from repro.storage.query import RangeQuery
from repro.storage.timeseries import TimeSeries, bucket_aggregate


class LocalDatabase:
    """In-memory sample store for one proxy."""

    def __init__(self, retention: Optional[float] = None):
        self._series: Dict[Tuple[str, str], TimeSeries] = {}
        self.retention = retention
        self.inserts = 0

    def insert(self, measurement: Measurement) -> None:
        """Store one measurement, pruning expired samples of that series."""
        key = (measurement.device_id, measurement.quantity)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries()
        series.append(measurement.timestamp, measurement.value)
        self.inserts += 1
        if self.retention is not None:
            series.prune_before(measurement.timestamp - self.retention)

    def series(self, device_id: str, quantity: str) -> TimeSeries:
        """The series for one device quantity; raises if absent."""
        try:
            return self._series[(device_id, quantity)]
        except KeyError:
            raise SeriesNotFoundError(
                f"no samples for {device_id}/{quantity}"
            ) from None

    def has_series(self, device_id: str, quantity: str) -> bool:
        """True when at least one sample exists for the series."""
        return (device_id, quantity) in self._series

    def devices(self) -> List[str]:
        """Sorted device ids present in the store."""
        return sorted({device for device, _q in self._series})

    def quantities(self, device_id: str) -> List[str]:
        """Sorted quantities recorded for *device_id*."""
        return sorted(q for d, q in self._series if d == device_id)

    def latest(self, device_id: str, quantity: str) -> Tuple[float, float]:
        """Most recent (timestamp, value) for a device quantity."""
        return self.series(device_id, quantity).latest()

    def query(self, query: RangeQuery) -> List[Tuple[float, float]]:
        """Run a range query; aggregated if the query asks for buckets."""
        series = self.series(query.device_id, query.quantity)
        times, values = series._times, series._values  # in place, no copy
        start, end = query.start, query.end
        lo = 0 if start is None else bisect_left(times, start)
        hi = len(times) if end is None else bisect_left(times, end)
        if query.bucket is None:
            return list(zip(times[lo:hi], values[lo:hi]))
        return bucket_aggregate(np.asarray(times[lo:hi], dtype=float),
                                np.asarray(values[lo:hi], dtype=float),
                                query.bucket, query.agg)

    def sample_count(self) -> int:
        """Total stored samples across all series."""
        return sum(len(s) for s in self._series.values())
