"""Metrics registry: counters, gauges and percentile histograms.

The seed codebase grew ad-hoc counters wherever an experiment needed
one — attributes on the master, the broker stats dataclass, the
resilience policy, plus a benchmark-side sample recorder.  This module
is the common substrate under all of them: named instruments in a
:class:`MetricsRegistry`, snapshot-able as one flat dict and renderable
as a text exposition (the ``/metrics`` endpoints on master, proxies and
the measurement DB serve exactly that snapshot).

Three instrument types cover every existing use:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — a settable point-in-time value;
* :class:`Histogram` — sample collection with the percentile summary
  the benchmark tables print (mean/p50/p90/p99/min/max).  A benchmark
  times an operation straight into one: ``registry.simulated(name,
  scheduler)`` records simulated seconds (differences of scheduler
  time), ``registry.wallclock(name)`` host CPU seconds, and
  ``registry.summary(name)`` is the :class:`Summary` it prints.

The registry is pure bookkeeping on plain Python objects — no I/O, no
background tasks — so instruments are safe on the simulation hot path.
"""

from __future__ import annotations

import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, QueryError


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value, set directly."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge."""
        self.value = float(value)


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
    """Named instruments with get-or-create accessors.

    Instrument names are flat dot-separated strings
    (``master.registrations``, ``client.http.retries``); asking for an
    existing name with a different instrument type is an error, so two
    components cannot silently share one name with different meanings.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
            return instrument
        if not isinstance(instrument, kind):
            raise ConfigurationError(
                f"metric {name!r} is a "
                f"{type(instrument).__name__}, not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called *name*."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called *name*."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  max_samples: Optional[int] = None) -> Histogram:
        """Get or create the histogram called *name*.

        *max_samples* sets the reservoir cap when the histogram is
        first created; it is ignored on later lookups.
        """
        cap = max_samples if max_samples is not None \
            else DEFAULT_MAX_SAMPLES
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, cap))

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
        if not isinstance(instrument, Histogram):
            raise QueryError(f"no samples recorded for {name!r}")
        return Summary(name=name, **instrument.stats())

    def get(self, name: str):
        """The instrument called *name*, or None."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """Sorted instrument names."""
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """One flat JSON-able dict: scalars for counters/gauges,
        percentile dicts for histograms.

        An empty histogram still appears, as ``{"count": 0}`` — a
        scraper can then tell "no samples yet" from "metric missing".
        """
        result: Dict[str, Any] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                if instrument.values:
                    result[name] = instrument.stats()
                else:
                    result[name] = {"count": 0}
            else:
                result[name] = instrument.value
        return result

    def render(self) -> str:
        """Plain-text exposition, one ``name value`` line per scalar
        (histograms expand to ``name_count`` / ``name_p50`` / ...)."""
        lines: List[str] = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                for stat, number in value.items():
                    lines.append(f"{name}_{stat} {number}")
            else:
                lines.append(f"{name} {value}")
        return "\n".join(lines)
