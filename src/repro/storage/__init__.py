"""Measurement storage: time series, proxy-local DB, global DB, TSDB."""

from repro.storage.blocks import BlockStore, SealedBlock, TsdbConfig
from repro.storage.localdb import LocalDatabase
from repro.storage.query import RangeQuery, RollupQuery, choose_resolution
from repro.storage.timeseries import (
    AGGREGATIONS,
    TimeSeries,
    aligned_sum,
    merge,
)


def __getattr__(name: str):
    # resolved on first use, not at package import: the measurement DB
    # is a middleware peer, and the middleware's broker journals its
    # state through repro.storage.durability — an eager import here
    # would close that loop
    if name == "MeasurementDatabase":
        from repro.storage.measurementdb import MeasurementDatabase

        return MeasurementDatabase
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AGGREGATIONS",
    "BlockStore",
    "LocalDatabase",
    "MeasurementDatabase",
    "RangeQuery",
    "RollupQuery",
    "SealedBlock",
    "TimeSeries",
    "TsdbConfig",
    "aligned_sum",
    "choose_resolution",
    "merge",
]
