"""Append-only columnar block store with rollups — the measurement TSDB.

A dict-of-lists store caps out long before the "10^5–10^6 devices" a
district deployment implies.  This module is the one storage engine of
:class:`~repro.storage.measurementdb.MeasurementDatabase`, tuned by a
:class:`TsdbConfig`:

* **columnar blocks** — each ``(device_id, quantity)`` series is a list
  of *sealed*, immutable blocks (two aligned numpy arrays, times and
  values) plus one small mutable *active* block receiving appends.
  Every sealed block carries per-column summaries (``t_min``/``t_max``,
  ``v_min``/``v_max``, ``count``) so range scans skip blocks whose time
  envelope misses the query window without touching the arrays;
* **pre-computed rollups** — every insert also folds the sample into
  downsampled buckets at the two fixed :data:`ROLLUP_RESOLUTIONS`
  (15 m and 1 h).  A bucket keeps ``(count, sum, min, max, first,
  last)``, enough to answer every aggregation in
  :data:`~repro.storage.timeseries.AGGREGATIONS` without re-reading raw
  samples;
* **compaction** — a periodic pass (driven by the measurement DB on
  the simulated clock) merges undersized sealed blocks and restores
  time order across overlapping blocks.  The store is the district's
  global history and never drops a sample; the retention horizon
  belongs to the device proxies' local databases;
* **rollup-backed range queries** — :meth:`BlockStore.query_range`
  answers ``(t0, t1, step, agg)`` dashboard queries from the coarsest
  rollup resolution that divides *step*, falling back to a raw block
  scan when none does (or when ``prefer="raw"`` forces the comparison
  path, as benchmark C10 does).

The on-disk layout (via ``to_dict``/``from_dict``), the idempotency
contract and the WAL/snapshot interplay are specified in
``docs/storage.md``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.cdf import Measurement
from repro.errors import ConfigurationError, QueryError, SeriesNotFoundError
from repro.storage.query import RangeQuery, choose_resolution
from repro.storage.timeseries import TimeSeries, bucket_aggregate

#: rollup bucket slots: [count, sum, min, max, first_t, first_v,
#: last_t, last_v]
_COUNT, _SUM, _MIN, _MAX, _FIRST_T, _FIRST_V, _LAST_T, _LAST_V = range(8)

_FORMAT_VERSION = 1

#: the pre-computed downsample resolutions, simulated seconds.  Every
#: catalog device samples every 60–300 s, so a finer bucket would hold
#: about one sample: a copy of the raw data at its own spacing.
ROLLUP_RESOLUTIONS = (900.0, 3600.0)


@dataclass
class TsdbConfig:
    """Knobs of the columnar time-series engine.

    Defaults suit the simulated district scale; every field is
    validated at construction so a misconfigured store fails at deploy
    time, not mid-ingest.
    """

    #: samples per sealed block (the active block seals when full)
    block_size: int = 512
    #: merge sealed blocks up to this many samples during compaction
    compaction_target: int = 4096
    #: period of the background compaction pass, simulated seconds
    compaction_period: float = 900.0

    def __post_init__(self) -> None:
        """Validate the knob envelope."""
        if self.block_size < 2:
            raise ConfigurationError("block size must be >= 2 samples")
        if self.compaction_target < self.block_size:
            raise ConfigurationError(
                "compaction target must be >= block size"
            )
        if self.compaction_period <= 0:
            raise ConfigurationError("compaction period must be positive")

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the config (rides inside store snapshots)."""
        return {
            "block_size": self.block_size,
            "compaction_target": self.compaction_target,
            "compaction_period": self.compaction_period,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TsdbConfig":
        """Rebuild a config from its snapshot form; other keys (older
        snapshots carried more knobs) are ignored."""
        return cls(
            block_size=int(data["block_size"]),
            compaction_target=int(data["compaction_target"]),
            compaction_period=float(data["compaction_period"]),
        )


class SealedBlock:
    """An immutable columnar run of one series: times + values arrays.

    Sealed blocks are never mutated — compaction replaces them with
    freshly built merged blocks.  The summary columns let the query
    planner prune whole blocks on the time axis and serve min/max
    probes without touching the arrays.
    """

    __slots__ = ("times", "values", "t_min", "t_max", "v_min", "v_max")

    def __init__(self, times: np.ndarray, values: np.ndarray):
        if len(times) == 0:
            raise ConfigurationError("a sealed block cannot be empty")
        self.times = times
        self.values = values
        self.t_min = float(times[0])
        self.t_max = float(times[-1])
        self.v_min = float(np.min(values))
        self.v_max = float(np.max(values))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def count(self) -> int:
        """Number of samples in the block (summary column)."""
        return len(self.times)

    def overlaps(self, start: float, end: float) -> bool:
        """True when the block's time envelope intersects ``[start, end)``."""
        return self.t_max >= start and self.t_min < end

    def slice(self, start: float, end: float
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t < end`` as (times, values) views."""
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="left"))
        return self.times[lo:hi], self.values[lo:hi]

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the block columns for a snapshot."""
        return {"times": self.times.tolist(),
                "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SealedBlock":
        """Rebuild a sealed block from its snapshot form."""
        return cls(np.asarray(data["times"], dtype=float),
                   np.asarray(data["values"], dtype=float))

    @classmethod
    def from_pairs(cls, times: Sequence[float], values: Sequence[float]
                   ) -> "SealedBlock":
        """Build a block from parallel time/value sequences."""
        return cls(np.asarray(times, dtype=float),
                   np.asarray(values, dtype=float))


class _ActiveBlock:
    """The mutable head block receiving appends (python lists).

    Appends keep time order with a bisect fallback, so a sealed block
    is always internally sorted even when samples arrive out of order
    within the head's lifetime.
    """

    __slots__ = ("times", "values")

    def __init__(self):
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def append(self, t: float, value: float) -> None:
        """Insert one sample, keeping the head sorted by timestamp."""
        if not self.times or t >= self.times[-1]:
            self.times.append(t)
            self.values.append(value)
            return
        index = bisect.bisect_right(self.times, t)
        self.times.insert(index, t)
        self.values.insert(index, value)

    def seal(self) -> SealedBlock:
        """Freeze the head into an immutable :class:`SealedBlock`."""
        return SealedBlock.from_pairs(self.times, self.values)

    def slice(self, start: float, end: float
              ) -> Tuple[List[float], List[float]]:
        """Samples with ``start <= t < end`` as (times, values) lists."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return self.times[lo:hi], self.values[lo:hi]


class _Series:
    """One ``(device, quantity)`` series: sealed blocks + head + rollups."""

    __slots__ = ("sealed", "active", "rollups")

    def __init__(self):
        self.sealed: List[SealedBlock] = []
        self.active = _ActiveBlock()
        #: resolution -> bucket_start -> 8-slot aggregate list
        self.rollups: Dict[float, Dict[float, List[float]]] = {
            resolution: {} for resolution in ROLLUP_RESOLUTIONS
        }

    def sample_count(self) -> int:
        """Raw samples held across sealed blocks and the active head."""
        return sum(len(b) for b in self.sealed) + len(self.active)


def _fold(bucket: List[float], t: float, value: float) -> None:
    """Fold one sample into an 8-slot rollup bucket aggregate."""
    bucket[_COUNT] += 1
    bucket[_SUM] += value
    if value < bucket[_MIN]:
        bucket[_MIN] = value
    if value > bucket[_MAX]:
        bucket[_MAX] = value
    if t < bucket[_FIRST_T]:
        bucket[_FIRST_T] = t
        bucket[_FIRST_V] = value
    if t >= bucket[_LAST_T]:
        bucket[_LAST_T] = t
        bucket[_LAST_V] = value


def _combine(target: List[float], source: Sequence[float]) -> None:
    """Merge rollup aggregate *source* into *target* (same invariants)."""
    target[_COUNT] += source[_COUNT]
    target[_SUM] += source[_SUM]
    if source[_MIN] < target[_MIN]:
        target[_MIN] = source[_MIN]
    if source[_MAX] > target[_MAX]:
        target[_MAX] = source[_MAX]
    if source[_FIRST_T] < target[_FIRST_T]:
        target[_FIRST_T] = source[_FIRST_T]
        target[_FIRST_V] = source[_FIRST_V]
    if source[_LAST_T] >= target[_LAST_T]:
        target[_LAST_T] = source[_LAST_T]
        target[_LAST_V] = source[_LAST_V]


def _finish(bucket: Sequence[float], agg: str) -> float:
    """Extract one aggregation from a combined rollup bucket."""
    if agg == "mean":
        return bucket[_SUM] / bucket[_COUNT]
    if agg == "sum":
        return bucket[_SUM]
    if agg == "min":
        return bucket[_MIN]
    if agg == "max":
        return bucket[_MAX]
    if agg == "count":
        return float(bucket[_COUNT])
    if agg == "first":
        return bucket[_FIRST_V]
    if agg == "last":
        return bucket[_LAST_V]
    raise QueryError(f"unknown aggregation {agg!r}")


def _new_bucket(t: float, value: float) -> List[float]:
    return [1, value, value, value, t, value, t, value]


class BlockStore:
    """Columnar measurement store: sealed blocks, rollups, compaction.

    Shares the basic storage surface of the device proxies'
    :class:`~repro.storage.localdb.LocalDatabase` (``insert`` /
    ``series`` / ``devices`` / ``quantities`` / ``latest`` / ``query`` /
    ``sample_count``) and adds the TSDB surface: :meth:`query_range`,
    :meth:`compact`, :meth:`stats` and snapshot serialisation.
    """

    def __init__(self, config: Optional[TsdbConfig] = None):
        self.config = config or TsdbConfig()
        self.inserts = 0
        self.blocks_sealed = 0
        self.compactions = 0
        self.blocks_merged = 0
        self.rollup_queries = 0
        self.raw_queries = 0
        #: where the most recent query_range was answered from
        #: ("rollup:<resolution>" or "raw"); introspection for tests
        #: and the benchmark harness
        self.last_query_source: Optional[str] = None
        self._series: Dict[Tuple[str, str], _Series] = {}

    # -- ingest -----------------------------------------------------------

    def insert(self, measurement: Measurement) -> None:
        """Append one sample to its series and fold it into every rollup."""
        key = (measurement.device_id, measurement.quantity)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series()
        t = float(measurement.timestamp)
        value = float(measurement.value)
        series.active.append(t, value)
        self.inserts += 1
        if len(series.active) >= self.config.block_size:
            series.sealed.append(series.active.seal())
            series.active = _ActiveBlock()
            self.blocks_sealed += 1
        for resolution, buckets in series.rollups.items():
            start = (t // resolution) * resolution
            bucket = buckets.get(start)
            if bucket is None:
                buckets[start] = _new_bucket(t, value)
            else:
                _fold(bucket, t, value)

    # -- LocalDatabase-compatible read surface ----------------------------

    def devices(self) -> List[str]:
        """Sorted device ids present in the store."""
        return sorted({device for device, _q in self._series})

    def quantities(self, device_id: str) -> List[str]:
        """Sorted quantities recorded for *device_id*."""
        return sorted(q for d, q in self._series if d == device_id)

    def has_series(self, device_id: str, quantity: str) -> bool:
        """True when at least one sample exists for the pair."""
        return (device_id, quantity) in self._series

    def series(self, device_id: str, quantity: str) -> TimeSeries:
        """The full series materialised as a sorted :class:`TimeSeries`.

        A compatibility view (copies every sample); hot paths should
        use :meth:`query_range` or :meth:`query` instead.
        """
        data = self._get(device_id, quantity)
        times: List[float] = []
        values: List[float] = []
        for block in data.sealed:
            times.extend(block.times.tolist())
            values.extend(block.values.tolist())
        times.extend(data.active.times)
        values.extend(data.active.values)
        pairs = sorted(zip(times, values), key=lambda p: p[0])
        out = TimeSeries()
        for t, value in pairs:
            out.append(t, value)
        return out

    def latest(self, device_id: str, quantity: str) -> Tuple[float, float]:
        """Most recent (timestamp, value) for a device quantity."""
        data = self._get(device_id, quantity)
        best: Optional[Tuple[float, float]] = None
        if data.active.times:
            best = (data.active.times[-1], data.active.values[-1])
        for block in data.sealed:
            if best is None or block.t_max >= best[0]:
                candidate = (block.t_max, float(block.values[-1]))
                if best is None or candidate[0] >= best[0]:
                    best = candidate
        if best is None:
            raise SeriesNotFoundError(
                f"no samples for {device_id}/{quantity}"
            )
        return best

    def sample_count(self) -> int:
        """Total stored samples across all series."""
        return sum(s.sample_count() for s in self._series.values())

    def query(self, query: RangeQuery) -> List[Tuple[float, float]]:
        """Run a classic :class:`RangeQuery` (raw window or resample).

        Kept for surface compatibility with
        :class:`~repro.storage.localdb.LocalDatabase`; bucketed
        variants go through :meth:`query_range` so they benefit from
        rollups when the bucket aligns.
        """
        start = query.start if query.start is not None else float("-inf")
        end = query.end if query.end is not None else float("inf")
        if query.bucket is not None:
            self._get(query.device_id, query.quantity)  # 404 on absent
            return self.query_range(query.device_id, query.quantity,
                                    start, end, query.bucket, query.agg)
        times, values = self._scan(query.device_id, query.quantity,
                                   start, end)
        return list(zip(times.tolist(), values.tolist()))

    # -- range queries ----------------------------------------------------

    def query_range(self, device_id: str, quantity: str, start: float,
                    end: float, step: float, agg: str = "mean",
                    prefer: Optional[str] = None
                    ) -> List[Tuple[float, float]]:
        """Bucketed aggregates over ``[start, end)`` at *step* width.

        Buckets are aligned to multiples of *step* (the same alignment
        :meth:`~repro.storage.timeseries.TimeSeries.resample` uses);
        empty buckets are omitted.  Served from the coarsest rollup
        resolution dividing *step* when one exists, otherwise from a
        raw block scan.  ``prefer="raw"`` forces the scan path (the
        benchmark's comparison arm); ``prefer="rollup"`` raises if no
        rollup can serve the query.
        """
        if step <= 0:
            raise QueryError("step width must be positive")
        self._get(device_id, quantity)  # raise SeriesNotFound early
        resolution = choose_resolution(step, ROLLUP_RESOLUTIONS)
        if prefer == "rollup" and resolution is None:
            raise QueryError(
                f"no rollup resolution divides step={step}"
            )
        if resolution is not None and prefer != "raw":
            self.rollup_queries += 1
            self.last_query_source = f"rollup:{resolution:g}"
            return self._query_rollup(device_id, quantity, start, end,
                                      step, agg, resolution)
        self.raw_queries += 1
        self.last_query_source = "raw"
        return self._query_raw(device_id, quantity, start, end, step, agg)

    def _query_rollup(self, device_id: str, quantity: str, start: float,
                      end: float, step: float, agg: str,
                      resolution: float) -> List[Tuple[float, float]]:
        buckets = self._series[(device_id, quantity)].rollups[resolution]
        combined: Dict[float, List[float]] = {}
        for bucket_start, aggregate in buckets.items():
            if bucket_start < start or bucket_start >= end:
                continue
            slot = (bucket_start // step) * step
            target = combined.get(slot)
            if target is None:
                combined[slot] = list(aggregate)
            else:
                _combine(target, aggregate)
        return [(slot, _finish(combined[slot], agg))
                for slot in sorted(combined)]

    def _query_raw(self, device_id: str, quantity: str, start: float,
                   end: float, step: float, agg: str
                   ) -> List[Tuple[float, float]]:
        times, values = self._scan(device_id, quantity, start, end)
        return bucket_aggregate(times, values, step, agg)

    def _scan(self, device_id: str, quantity: str, start: float,
              end: float) -> Tuple[np.ndarray, np.ndarray]:
        """Merged raw samples of one series inside ``[start, end)``."""
        data = self._get(device_id, quantity)
        chunks_t: List[np.ndarray] = []
        chunks_v: List[np.ndarray] = []
        sorted_so_far = True
        last_max = float("-inf")
        for block in data.sealed:
            if not block.overlaps(start, end):
                continue
            t, v = block.slice(start, end)
            if len(t):
                if t[0] < last_max:
                    sorted_so_far = False
                last_max = float(t[-1])
                chunks_t.append(t)
                chunks_v.append(v)
        at, av = data.active.slice(start, end)
        if at:
            if at[0] < last_max:
                sorted_so_far = False
            chunks_t.append(np.asarray(at, dtype=float))
            chunks_v.append(np.asarray(av, dtype=float))
        if not chunks_t:
            return (np.empty(0, dtype=float), np.empty(0, dtype=float))
        times = np.concatenate(chunks_t)
        values = np.concatenate(chunks_v)
        if not sorted_so_far:
            order = np.argsort(times, kind="stable")
            times = times[order]
            values = values[order]
        return times, values

    def _get(self, device_id: str, quantity: str) -> _Series:
        try:
            return self._series[(device_id, quantity)]
        except KeyError:
            raise SeriesNotFoundError(
                f"no samples for {device_id}/{quantity}"
            ) from None

    # -- compaction -------------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """One compaction pass: merge adjacent sealed blocks.

        Runs of undersized sealed blocks are merged (re-sorting, so
        out-of-order overlap between blocks is repaired) into blocks of
        up to ``compaction_target`` samples.  No sample is dropped.
        Returns the pass's counters.
        """
        merged = sum(self._merge_blocks(series)
                     for series in self._series.values())
        self.compactions += 1
        self.blocks_merged += merged
        return {"blocks_merged": merged}

    def _merge_blocks(self, series: _Series) -> int:
        """Merge undersized sealed block runs; returns blocks absorbed."""
        target = self.config.compaction_target
        out: List[SealedBlock] = []
        run: List[SealedBlock] = []
        run_len = 0
        merged = 0

        def flush_run():
            nonlocal merged, run_len
            if not run:
                return
            if len(run) == 1:
                out.append(run[0])
            else:
                times = np.concatenate([b.times for b in run])
                values = np.concatenate([b.values for b in run])
                order = np.argsort(times, kind="stable")
                out.append(SealedBlock(times[order], values[order]))
                merged += len(run)
            run.clear()
            run_len = 0

        for block in series.sealed:
            if len(block) >= target:
                flush_run()
                out.append(block)
                continue
            if run_len + len(block) > target:
                flush_run()
            run.append(block)
            run_len += len(block)
        flush_run()
        series.sealed = out
        return merged

    # -- snapshots --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the whole store (blocks + rollups) for a snapshot."""
        series_out = []
        for (device_id, quantity), series in sorted(self._series.items()):
            series_out.append({
                "device_id": device_id,
                "quantity": quantity,
                "blocks": [b.to_dict() for b in series.sealed],
                "active": {"times": list(series.active.times),
                           "values": list(series.active.values)},
                "rollups": {
                    repr(resolution): {
                        repr(start): list(bucket)
                        for start, bucket in buckets.items()
                    }
                    for resolution, buckets in series.rollups.items()
                },
            })
        return {"version": _FORMAT_VERSION,
                "config": self.config.to_dict(),
                "series": series_out}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BlockStore":
        """Rebuild a store (blocks, heads, rollups) from its snapshot."""
        store = cls(TsdbConfig.from_dict(data["config"]))
        for record in data.get("series", []):
            key = (record["device_id"], record["quantity"])
            series = _Series()
            series.sealed = [SealedBlock.from_dict(b)
                             for b in record.get("blocks", [])]
            active = record.get("active", {})
            series.active.times = [float(t)
                                   for t in active.get("times", [])]
            series.active.values = [float(v)
                                    for v in active.get("values", [])]
            for res_text, buckets in record.get("rollups", {}).items():
                # an older snapshot may carry other resolutions (60 s)
                resolution = float(res_text)
                if resolution in series.rollups:
                    series.rollups[resolution] = {
                        float(start): list(bucket)
                        for start, bucket in buckets.items()
                    }
            store._series[key] = series
        return store

    # -- observability ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Engine counters for the measurement DB's ``/metrics``."""
        sealed = sum(len(s.sealed) for s in self._series.values())
        active = sum(len(s.active) for s in self._series.values())
        rollup_points = sum(
            len(buckets)
            for s in self._series.values()
            for buckets in s.rollups.values()
        )
        return {
            "series": len(self._series),
            "sealed_blocks": sealed,
            "active_samples": active,
            "rollup_buckets": rollup_points,
            "blocks_sealed_total": self.blocks_sealed,
            "compactions": self.compactions,
            "blocks_merged": self.blocks_merged,
            "rollup_queries": self.rollup_queries,
            "raw_queries": self.raw_queries,
        }
