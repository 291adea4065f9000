"""Query structures shared by local and global measurement stores."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import QueryError
from repro.storage.timeseries import AGGREGATIONS

#: relative tolerance for "resolution divides step" float checks
_DIVIDES_RTOL = 1e-9


def choose_resolution(step: float,
                      resolutions: Sequence[float]) -> Optional[float]:
    """Pick the coarsest rollup resolution that can serve a *step* query.

    A resolution ``r`` can serve bucket width *step* when ``r <= step``
    and ``r`` divides *step* evenly (so rollup buckets nest exactly
    inside query buckets — both are floor-aligned to multiples of their
    width).  Returns ``None`` when no configured resolution qualifies,
    which sends the query down the raw-block scan path.
    """
    best: Optional[float] = None
    for resolution in resolutions:
        if resolution > step * (1 + _DIVIDES_RTOL):
            continue
        ratio = step / resolution
        if abs(ratio - round(ratio)) > _DIVIDES_RTOL * ratio:
            continue
        if best is None or resolution > best:
            best = resolution
    return best


def _check_window(start: Optional[float], end: Optional[float],
                  width: Optional[float], what: str) -> None:
    """Reject what would put NaN on the wire or overflow the rollup
    planner: a NaN bound (``±inf`` stays legal, an open window), a
    reversed window, a *width* that is not a finite positive number."""
    if start != start or end != end:
        raise QueryError(f"query window [{start}, {end}) has a NaN bound")
    if start is not None and end is not None and end < start:
        raise QueryError(f"reversed query window [{start}, {end})")
    if width is not None and not 0 < width < math.inf:
        raise QueryError(f"{what} width must be positive and finite, "
                         f"not {width!r}")


@dataclass(frozen=True)
class RangeQuery:
    """A time-range query for one device quantity.

    *bucket*/*agg* request server-side aggregation; when *bucket* is
    ``None`` raw samples are returned.
    """

    device_id: str
    quantity: str
    start: Optional[float] = None
    end: Optional[float] = None
    bucket: Optional[float] = None
    agg: str = "mean"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, self.bucket, "bucket")
        if self.agg not in AGGREGATIONS:
            raise QueryError(f"unknown aggregation {self.agg!r}")

    def to_params(self) -> Dict[str, str]:
        """Encode as flat string params for a web-service request."""
        params = {"device_id": self.device_id, "quantity": self.quantity,
                  "agg": self.agg}
        if self.start is not None:
            params["start"] = repr(self.start)
        if self.end is not None:
            params["end"] = repr(self.end)
        if self.bucket is not None:
            params["bucket"] = repr(self.bucket)
        return params

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "RangeQuery":
        """Decode from web-service request params."""
        def opt_float(key: str) -> Optional[float]:
            raw = params.get(key)
            if raw is None or raw == "":
                return None
            try:
                return float(raw)
            except (TypeError, ValueError):
                raise QueryError(f"bad numeric parameter {key}={raw!r}") \
                    from None

        try:
            device_id = params["device_id"]
            quantity = params["quantity"]
        except KeyError as exc:
            raise QueryError(f"missing query parameter {exc}") from None
        return cls(
            device_id=device_id,
            quantity=quantity,
            start=opt_float("start"),
            end=opt_float("end"),
            bucket=opt_float("bucket"),
            agg=params.get("agg", "mean"),
        )

    @staticmethod
    def to_series_params(queries: Sequence["RangeQuery"]) -> Dict[str, str]:
        """Encode *queries* — one window, many series — as one request.

        The series travel as ``series=<device>/<quantity>,...`` beside
        the window/bucket/agg they share (taken from the first query).
        """
        params = queries[0].to_params()
        del params["device_id"], params["quantity"]
        params["series"] = ",".join(f"{query.device_id}/{query.quantity}"
                                    for query in queries)
        return params

    @classmethod
    def list_from_params(cls, params: Mapping[str, Any]
                         ) -> List["RangeQuery"]:
        """Decode a ``/data`` request into its queries, in request order.

        A request either names one series (``device_id``/``quantity``,
        see :meth:`from_params`) or carries a ``series`` list (see
        :meth:`to_series_params`); one malformed entry fails the whole
        request.
        """
        series = params.get("series")
        if series is None:
            return [cls.from_params(params)]
        queries = []
        for entry in series.split(","):
            device_id, _, quantity = entry.partition("/")
            if not device_id or not quantity:
                raise QueryError(f"malformed series entry {entry!r}")
            if not queries:  # the window the list shares: parsed once
                shared = cls.from_params({**params, "device_id": device_id,
                                          "quantity": quantity})
                queries.append(shared)
            else:
                queries.append(cls(device_id, quantity, shared.start,
                                   shared.end, shared.bucket, shared.agg))
        return queries


@dataclass(frozen=True)
class RollupQuery:
    """A rollup-backed range query against the measurement database.

    *target* is a device id (or an entity id — the measurement DB
    resolves entities to their devices and combines per-device
    buckets).  Unlike :class:`RangeQuery`, the window and *step* are
    mandatory: this is the dashboard query shape the block store plans
    rollups for.  ``prefer`` forces a serving path — ``"raw"`` for the
    scan arm of benchmark comparisons, ``"rollup"`` to fail loudly when
    no rollup resolution divides *step*.
    """

    target: str
    quantity: str
    start: float
    end: float
    step: float
    agg: str = "mean"
    prefer: Optional[str] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, self.step, "step")
        if self.agg not in AGGREGATIONS:
            raise QueryError(f"unknown aggregation {self.agg!r}")
        if self.prefer not in (None, "raw", "rollup"):
            raise QueryError(f"unknown prefer mode {self.prefer!r}")

    def to_params(self) -> Dict[str, str]:
        """Encode as flat string params for a web-service request."""
        params = {"target": self.target, "quantity": self.quantity,
                  "start": repr(self.start), "end": repr(self.end),
                  "step": repr(self.step), "agg": self.agg}
        if self.prefer is not None:
            params["prefer"] = self.prefer
        return params

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "RollupQuery":
        """Decode from web-service request params."""
        def need_float(key: str) -> float:
            raw = params.get(key)
            if raw is None or raw == "":
                raise QueryError(f"missing query parameter {key!r}")
            try:
                return float(raw)
            except (TypeError, ValueError):
                raise QueryError(f"bad numeric parameter {key}={raw!r}") \
                    from None

        try:
            target = params["target"]
            quantity = params["quantity"]
        except KeyError as exc:
            raise QueryError(f"missing query parameter {exc}") from None
        return cls(
            target=target,
            quantity=quantity,
            start=need_float("start"),
            end=need_float("end"),
            step=need_float("step"),
            agg=params.get("agg", "mean"),
            prefer=params.get("prefer") or None,
        )
