"""Tests for the simulated clock and calendar helpers."""

from datetime import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import simtime
from repro.errors import ConfigurationError


class TestSimClock:
    def test_starts_at_zero(self):
        assert simtime.SimClock().now == 0.0

    def test_advance(self):
        clock = simtime.SimClock()
        clock.advance_to(12.5)
        assert clock.now == 12.5

    def test_advance_backwards_rejected(self):
        clock = simtime.SimClock(10.0)
        with pytest.raises(ConfigurationError):
            clock.advance_to(5.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            simtime.SimClock(-1.0)

    def test_advance_to_same_time_ok(self):
        clock = simtime.SimClock(7.0)
        clock.advance_to(7.0)
        assert clock.now == 7.0


class TestCalendar:
    def test_epoch_is_2015(self):
        assert simtime.isoformat(0.0) == "2015-01-01T00:00:00Z"

    def test_isoformat_parse_round_trip(self):
        t = simtime.duration(days=40, hours=3, minutes=21, seconds=9)
        text = simtime.isoformat(t)
        assert text.endswith("Z")
        assert datetime.fromisoformat(text.replace("Z", "+00:00")) == \
            simtime.to_datetime(t)

    def test_hour_of_day(self):
        assert simtime.hour_of_day(simtime.duration(hours=13.5)) == 13.5
        assert simtime.hour_of_day(simtime.duration(days=2, hours=6)) == 6.0

    def test_day_of_week_epoch_is_thursday(self):
        # 2015-01-01 was a Thursday (weekday 3)
        assert simtime.day_of_week(0.0) == 3

    def test_weekend_detection(self):
        # 2015-01-03 was a Saturday
        saturday = simtime.duration(days=2, hours=12)
        assert simtime.is_weekend(saturday)
        assert not simtime.is_weekend(0.0)

    def test_day_of_year(self):
        assert simtime.day_of_year(0.0) == 1
        assert simtime.day_of_year(simtime.duration(days=31)) == 32

    @given(st.floats(0, 365 * simtime.SECONDS_PER_DAY))
    def test_hour_of_day_in_range(self, t):
        assert 0.0 <= simtime.hour_of_day(t) < 24.0


class TestBuckets:
    def test_bucket_start(self):
        assert simtime.bucket_start(3725.0, 900.0) == 3600.0

    def test_bucket_start_exact_boundary(self):
        assert simtime.bucket_start(1800.0, 900.0) == 1800.0

    def test_bucket_start_bad_width(self):
        with pytest.raises(ConfigurationError):
            simtime.bucket_start(10.0, 0.0)

    @given(
        st.floats(0, 1e7),
        st.sampled_from([60.0, 900.0, 3600.0, 86400.0]),
    )
    def test_bucket_contains_time(self, t, width):
        start = simtime.bucket_start(t, width)
        assert start <= t < start + width


class TestWindow:
    def test_duration_composition(self):
        assert simtime.duration(days=1, hours=1, minutes=1, seconds=1) == (
            86400 + 3600 + 60 + 1
        )
