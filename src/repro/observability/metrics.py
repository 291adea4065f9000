"""The benchmarks' histogram book: named percentile histograms.

A benchmark times an operation straight into a :class:`Histogram` of a
:class:`MetricsRegistry`: ``registry.simulated(name, scheduler)``
records simulated seconds (differences of scheduler time),
``registry.wallclock(name)`` host CPU seconds, and
``registry.summary(name)`` is the :class:`Summary` (mean / p50 / p90 /
p99 / min / max) its table prints.

Nodes do not write here: each counts its own events and serves them
on its ``/metrics`` route (``{"component": ...}``), which is what the
fleet monitor and the SLOs read.  The registry is pure bookkeeping on
plain Python objects — no I/O, no background tasks.
"""

from __future__ import annotations

import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, QueryError


@dataclass(frozen=True)
class Summary:
    """Percentile summary of one histogram."""

    name: str
    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    minimum: float
    maximum: float

    def row(self) -> str:
        """One formatted table row (times printed in milliseconds)."""
        return (f"{self.name:<40s} n={self.count:<6d} "
                f"mean={self.mean * 1e3:9.3f}ms p50={self.p50 * 1e3:9.3f}ms "
                f"p90={self.p90 * 1e3:9.3f}ms p99={self.p99 * 1e3:9.3f}ms")


#: default per-histogram sample cap — beyond this, reservoir sampling
#: keeps a uniform subset instead of growing without bound
DEFAULT_MAX_SAMPLES = 4096


class Histogram:
    """A named sample collection summarised by percentiles.

    Memory is bounded: once *max_samples* samples are held, further
    observations replace random kept ones (Algorithm R reservoir
    sampling), so the retained set stays a uniform sample of the whole
    stream and the percentile summary remains representative.  The
    replacement RNG is seeded from the metric name, keeping snapshots
    deterministic run to run.  ``count`` and ``stats()["count"]`` keep
    reporting the number *observed*, not the number retained, and
    ``samples_dropped`` says how many fell to the reservoir.
    """

    __slots__ = ("name", "values", "max_samples", "observed",
                 "samples_dropped", "_rng")

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 1:
            raise ConfigurationError(
                "histogram needs room for at least one sample"
            )
        self.name = name
        self.values: List[float] = []
        self.max_samples = max_samples
        self.observed = 0
        self.samples_dropped = 0
        self._rng: Optional[random.Random] = None

    def observe(self, value: float) -> None:
        """Record one sample (reservoir-downsampled past the cap)."""
        self.observed += 1
        if len(self.values) < self.max_samples:
            self.values.append(float(value))
            return
        if self._rng is None:
            self._rng = random.Random(
                zlib.crc32(self.name.encode()) & 0x7FFFFFFF
            )
        self.samples_dropped += 1
        slot = self._rng.randrange(self.observed)
        if slot < self.max_samples:
            self.values[slot] = float(value)

    @property
    def count(self) -> int:
        return self.observed

    def stats(self) -> Dict[str, float]:
        """Percentile summary; raises :class:`QueryError` when empty."""
        if not self.values:
            raise QueryError(f"no samples recorded for {self.name!r}")
        values = np.asarray(self.values, dtype=float)
        return {
            "count": self.observed,
            "mean": float(np.mean(values)),
            "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
            "p99": float(np.percentile(values, 99)),
            "minimum": float(np.min(values)),
            "maximum": float(np.max(values)),
        }


class MetricsRegistry:
    """Named histograms with a get-or-create accessor."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Histogram] = {}

    def histogram(self, name: str,
                  max_samples: Optional[int] = None) -> Histogram:
        """Get or create the histogram called *name*.

        *max_samples* sets the reservoir cap when the histogram is
        first created; it is ignored on later lookups.
        """
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = Histogram(
                name, max_samples if max_samples is not None
                else DEFAULT_MAX_SAMPLES)
        return instrument

    @contextmanager
    def simulated(self, name: str, scheduler):
        """Observe the simulated seconds an operation takes into *name*."""
        start = scheduler.now
        yield
        self.histogram(name).observe(scheduler.now - start)

    @contextmanager
    def wallclock(self, name: str):
        """Observe the wall-clock (CPU) seconds an operation takes."""
        start = time.perf_counter()
        yield
        self.histogram(name).observe(time.perf_counter() - start)

    # -- queries -----------------------------------------------------------

    def summary(self, name: str) -> Summary:
        """Percentile summary of histogram *name*.

        Raises :class:`QueryError` when nothing was observed under it.
        """
        instrument = self._instruments.get(name)
        if instrument is None:
            raise QueryError(f"no samples recorded for {name!r}")
        return Summary(name=name, **instrument.stats())

    def names(self) -> List[str]:
        """Sorted instrument names."""
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """One JSON-able dict: each histogram's percentile summary.

        An empty histogram still appears, as ``{"count": 0}`` — a
        reader can then tell "no samples yet" from "metric missing".
        """
        result: Dict[str, Dict[str, float]] = {}
        for name in self.names():
            histogram = self._instruments[name]
            result[name] = histogram.stats() if histogram.values \
                else {"count": 0}
        return result

    def render(self) -> str:
        """Plain-text exposition: ``name_count`` / ``name_p50`` / ...
        lines, one per statistic of each histogram."""
        return "\n".join(f"{name}_{stat} {number}"
                         for name, stats in self.snapshot().items()
                         for stat, number in stats.items())
