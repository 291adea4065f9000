"""Simulated time.

All components share a single :class:`SimClock`.  Simulated time is a
float number of seconds since the scenario epoch (2015-01-01T00:00:00Z,
the year the paper was published).  Helpers convert between simulated
seconds, calendar fields (hour-of-day, day-of-week) used by the synthetic
load profiles, and ISO-8601 strings used by the common data format.
"""

from __future__ import annotations

import datetime as _dt

from repro.errors import ConfigurationError

#: scenario epoch as a timezone-aware datetime
EPOCH = _dt.datetime(2015, 1, 1, tzinfo=_dt.timezone.utc)

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


class SimClock:
    """Monotonic simulated clock, advanced only by the event scheduler."""

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ConfigurationError("clock cannot start before the epoch")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds since the epoch."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to *t*; moving backwards is an error."""
        if t < self._now:
            raise ConfigurationError(
                f"clock cannot move backwards ({t} < {self._now})"
            )
        self._now = float(t)


def to_datetime(sim_seconds: float) -> _dt.datetime:
    """Convert simulated seconds to a timezone-aware datetime."""
    return EPOCH + _dt.timedelta(seconds=sim_seconds)


def isoformat(sim_seconds: float) -> str:
    """Format simulated seconds as an ISO-8601 timestamp string."""
    return to_datetime(sim_seconds).isoformat().replace("+00:00", "Z")


def hour_of_day(sim_seconds: float) -> float:
    """Fractional hour of day (0..24) at *sim_seconds*."""
    return (sim_seconds % SECONDS_PER_DAY) / SECONDS_PER_HOUR


def day_of_week(sim_seconds: float) -> int:
    """Day of week (0 = Monday .. 6 = Sunday) at *sim_seconds*."""
    return to_datetime(sim_seconds).weekday()


def is_weekend(sim_seconds: float) -> bool:
    """True if *sim_seconds* falls on Saturday or Sunday."""
    return day_of_week(sim_seconds) >= 5


def day_of_year(sim_seconds: float) -> int:
    """Day of year (1-based) at *sim_seconds*."""
    return to_datetime(sim_seconds).timetuple().tm_yday


def bucket_start(sim_seconds: float, bucket: float) -> float:
    """Start time of the aggregation bucket containing *sim_seconds*."""
    if bucket <= 0:
        raise ConfigurationError("bucket width must be positive")
    return (sim_seconds // bucket) * bucket


def duration(
    days: float = 0.0,
    hours: float = 0.0,
    minutes: float = 0.0,
    seconds: float = 0.0,
) -> float:
    """Build a duration in simulated seconds from calendar components."""
    return (
        days * SECONDS_PER_DAY
        + hours * SECONDS_PER_HOUR
        + minutes * SECONDS_PER_MINUTE
        + seconds
    )
