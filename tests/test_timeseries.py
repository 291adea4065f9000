"""Tests for the time-series primitive."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, StorageError
from repro.storage.timeseries import (
    AGGREGATIONS,
    TimeSeries,
    aligned_sum,
    bucket_aggregate,
    merge,
)


def series_from(pairs):
    s = TimeSeries()
    for t, v in pairs:
        s.append(t, v)
    return s


class TestAppendAndOrder:
    def test_in_order_append(self):
        s = series_from([(0, 1.0), (10, 2.0), (20, 3.0)])
        assert len(s) == 3
        assert s.to_pairs() == [(0, 1.0), (10, 2.0), (20, 3.0)]

    def test_out_of_order_append_sorts(self):
        s = series_from([(10, 2.0), (0, 1.0), (5, 1.5)])
        assert [t for t, _v in s.to_pairs()] == [0, 5, 10]

    def test_duplicate_timestamps_kept_in_order(self):
        s = series_from([(5, 1.0), (5, 2.0)])
        assert s.to_pairs() == [(5, 1.0), (5, 2.0)]

    def test_latest_and_first(self):
        s = series_from([(0, 1.0), (10, 2.0)])
        assert s.latest() == (10, 2.0)
        assert s.first() == (0, 1.0)

    def test_empty_series_raises(self):
        s = TimeSeries()
        with pytest.raises(StorageError):
            s.latest()
        with pytest.raises(StorageError):
            s.first()
        with pytest.raises(StorageError):
            s.mean()

    def test_constructor_accepts_samples(self):
        s = TimeSeries([(1, 1.0), (0, 0.0)])
        assert s.to_pairs() == [(0, 0.0), (1, 1.0)]

    @given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(-1e3, 1e3)),
                    max_size=50))
    def test_times_always_sorted(self, pairs):
        s = series_from(pairs)
        times = [t for t, _v in s.to_pairs()]
        assert times == sorted(times)


class TestWindow:
    def test_half_open_interval(self):
        s = series_from([(0, 1.0), (5, 2.0), (10, 3.0)])
        w = s.window(0, 10)
        assert w.to_pairs() == [(0, 1.0), (5, 2.0)]

    def test_empty_window(self):
        s = series_from([(0, 1.0)])
        assert len(s.window(5, 10)) == 0

    def test_reversed_window_raises(self):
        with pytest.raises(StorageError):
            series_from([(0, 1.0)]).window(10, 5)


class TestResample:
    def test_mean_buckets(self):
        s = series_from([(0, 1.0), (30, 3.0), (60, 10.0)])
        assert s.resample(60.0, "mean") == [(0.0, 2.0), (60.0, 10.0)]

    @pytest.mark.parametrize(
        "agg,expected",
        [("sum", 4.0), ("min", 1.0), ("max", 3.0), ("last", 3.0),
         ("first", 1.0), ("count", 2.0)],
    )
    def test_aggregations(self, agg, expected):
        s = series_from([(0, 1.0), (30, 3.0)])
        assert s.resample(60.0, agg) == [(0.0, expected)]

    def test_empty_buckets_omitted(self):
        s = series_from([(0, 1.0), (180, 2.0)])
        starts = [b for b, _v in s.resample(60.0)]
        assert starts == [0.0, 180.0]

    def test_empty_series(self):
        assert TimeSeries().resample(60.0) == []

    def test_unknown_aggregation(self):
        with pytest.raises(StorageError):
            series_from([(0, 1.0)]).resample(60.0, "median-ish")

    def test_bad_bucket(self):
        with pytest.raises(StorageError):
            series_from([(0, 1.0)]).resample(0.0)

    @given(st.lists(st.tuples(st.floats(0, 1e5), st.floats(-100, 100)),
                    min_size=1, max_size=40))
    def test_count_aggregation_conserves_samples(self, pairs):
        s = series_from(pairs)
        counted = sum(v for _b, v in s.resample(900.0, "count"))
        assert counted == len(pairs)


class TestIntegration:
    def test_constant_power_integrates_to_energy(self):
        # 1000 W held for 3600 s = 1000 Wh
        s = series_from([(0, 1000.0), (3600, 1000.0)])
        assert s.integrate_hours() == pytest.approx(1000.0)

    def test_single_point_integrates_to_zero(self):
        assert series_from([(0, 5.0)]).integrate_hours() == 0.0

    def test_ramp(self):
        s = series_from([(0, 0.0), (3600, 100.0)])
        assert s.integrate_hours() == pytest.approx(50.0)


class TestPrune:
    def test_prune_removes_old(self):
        s = series_from([(0, 1.0), (10, 2.0), (20, 3.0)])
        removed = s.prune_before(15)
        assert removed == 2
        assert s.to_pairs() == [(20, 3.0)]

    def test_prune_noop(self):
        s = series_from([(10, 1.0)])
        assert s.prune_before(5) == 0
        assert len(s) == 1


class TestStats:
    def test_min_max_mean(self):
        s = series_from([(0, 1.0), (1, 5.0), (2, 3.0)])
        assert s.minimum() == 1.0
        assert s.maximum() == 5.0
        assert s.mean() == 3.0


class TestMergeAndAlignedSum:
    def test_merge_orders_samples(self):
        a = series_from([(0, 1.0), (20, 2.0)])
        b = series_from([(10, 5.0)])
        merged = merge([a, b])
        assert merged.to_pairs() == [(0, 1.0), (10, 5.0), (20, 2.0)]

    def test_aligned_sum_adds_levels(self):
        a = series_from([(0, 100.0), (60, 200.0)])
        b = series_from([(0, 50.0), (60, 50.0)])
        total = aligned_sum([a, b], 60.0)
        assert total == [(0.0, 150.0), (60.0, 250.0)]

    def test_aligned_sum_partial_coverage(self):
        a = series_from([(0, 100.0)])
        b = series_from([(60, 50.0)])
        assert aligned_sum([a, b], 60.0) == [(0.0, 100.0), (60.0, 50.0)]

    def test_aligned_sum_empty(self):
        assert aligned_sum([], 60.0) == []


# -- the parent's loop is the oracle ---------------------------------------
#
# ``reference_resample`` is the body ``TimeSeries.resample`` had before
# PR 22, verbatim (one ``np.split`` chunk, one fancy-index copy and one
# ``np.mean`` / ``np.sum`` / ... wrapper call per bucket).  The kernel
# that replaced it must answer the same floats bit for bit — an answer's
# size on the wire is the ``repr`` of its floats — so the comparison is
# against this reference on the running interpreter's numpy, not
# against committed numbers.

_REFERENCE_AGGREGATORS = {
    "mean": lambda v: float(np.mean(v)),
    "sum": lambda v: float(np.sum(v)),
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
    "last": lambda v: float(v[-1]),
    "first": lambda v: float(v[0]),
    "count": lambda v: float(len(v)),
}

BUCKETS = (7.0, 60.0, 300.0, 900.0, 1e6)


def reference_resample(times, values, bucket, agg="mean"):
    """The pre-PR-22 ``resample`` loop over ``(times, values)`` arrays."""
    reducer = _REFERENCE_AGGREGATORS[agg]
    if not len(times):
        return []
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    starts = np.floor(times / bucket) * bucket
    out = []
    boundaries = np.flatnonzero(np.diff(starts)) + 1
    chunks = np.split(np.arange(len(times)), boundaries)
    for chunk in chunks:
        out.append((float(starts[chunk[0]]), reducer(values[chunk])))
    return out


def assert_identical(got, expected):
    """Equal values *and* plain ``float`` types, pair by pair."""
    assert got == expected
    assert all(type(t) is float and type(v) is float for t, v in got)
    # ``==`` treats 0.0 and -0.0 alike; their reprs differ on the wire
    assert repr(got) == repr(expected)


def assert_matches_reference(series, bucket):
    times, values = series.times, series.values
    for agg in AGGREGATIONS:
        expected = reference_resample(times, values, bucket, agg)
        assert_identical(series.resample(bucket, agg), expected)
        assert_identical(bucket_aggregate(times, values, bucket, agg),
                         expected)


def seeded_series(rng, n, spread=3600.0):
    """*n* samples on both sides of t=0, one in six sharing a timestamp
    with another, appended out of order; the values span ten orders of
    magnitude so the order of a float sum shows in its last bits."""
    times = [rng.uniform(-spread, spread) for _ in range(n)]
    for index in rng.sample(range(n), n // 6):
        times[index] = times[rng.randrange(n)]
    return series_from(
        (t, rng.uniform(-1, 1) * 10 ** rng.randint(-3, 7)) for t in times)


class TestKernelMatchesTheParentLoop:
    #: 7 / 8 / 9 and 127 – 130 straddle numpy's pairwise-summation block
    #: edges (unrolled by 8, recursive above 128)
    LENGTHS = (1, 2, 3, 7, 8, 9, 10, 31, 64, 127, 128, 129, 130, 200, 300)

    @pytest.mark.parametrize("bucket", BUCKETS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_seeded_series(self, n, bucket):
        rng = random.Random(1000 * n + int(bucket) % 997)
        for spread in (50.0, 3600.0, 5e6):
            assert_matches_reference(seeded_series(rng, n, spread), bucket)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_one_bucket_holds_everything(self, n):
        series = seeded_series(random.Random(n), n, spread=400.0)
        positive = series_from((abs(t), v) for t, v in series)
        assert positive.resample(1e6, "count") == [(0.0, float(n))]
        assert_matches_reference(positive, 1e6)

    def test_one_sample_per_bucket(self):
        rng = random.Random(5)
        series = series_from((7.0 * i + 3.0, rng.random() * 1e5)
                             for i in range(-150, 150))
        assert len(series.resample(7.0)) == 300
        assert_matches_reference(series, 7.0)

    def test_negative_zero_start_is_kept(self):
        series = series_from([(-0.0, 1.0), (0.0, 2.0), (1.0, -0.0)])
        assert_matches_reference(series, 60.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(-5000, 5000).map(float),
                          st.floats(min_value=-1e7, max_value=1e7,
                                    allow_nan=False)),
                st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            ),
            min_size=1, max_size=300,
        ),
        st.sampled_from(BUCKETS),
    )
    def test_hypothesis_series(self, pairs, bucket):
        assert_matches_reference(series_from(pairs), bucket)

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=float)
        for agg in AGGREGATIONS:
            assert bucket_aggregate(empty, empty, 60.0, agg) == []

    def test_kernel_validates_like_resample(self):
        times = values = np.asarray([1.0, 2.0])
        with pytest.raises(StorageError):
            bucket_aggregate(times, values, 0.0)
        with pytest.raises(StorageError):
            bucket_aggregate(times, values, 60.0, "median")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bucket", [float("nan"), float("inf"), 1e-320])
    def test_non_finite_bucket_start_is_a_query_error(self, bucket):
        series = series_from([(1000.0, 1.0), (2000.0, 2.0)])
        with pytest.raises(QueryError):
            series.resample(bucket)

    def test_aligned_sum_runs_on_the_kernel(self):
        rng = random.Random(11)
        group = [seeded_series(rng, 40) for _ in range(3)]
        totals = {}
        for series in group:
            for start, value in reference_resample(
                    series.times, series.values, 300.0, "mean"):
                totals[start] = totals.get(start, 0.0) + value
        assert_identical(aligned_sum(group, 300.0), sorted(totals.items()))
