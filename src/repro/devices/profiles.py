"""Synthetic energy and environment profiles.

The paper's testbed measures real buildings; here every sensed quantity
is a deterministic function of simulated time built from these profile
classes — daily/weekly load shapes, office and residential occupancy,
weather-driven HVAC power, photovoltaic generation — plus reproducible
pseudo-noise.  Determinism matters twice over: runs are repeatable for a
fixed seed, and the profiling benchmarks can compare roll-ups computed
through the infrastructure against ground truth evaluated directly.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

from repro.common.simtime import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    day_of_year,
    hour_of_day,
    is_weekend,
)
from repro.errors import ConfigurationError


def _hash_noise(t: float, seed: float) -> float:
    """Deterministic pseudo-noise in [-1, 1) as a pure function of (t, seed)."""
    x = math.sin(t * 12.9898e-3 + seed * 78.233) * 43758.5453
    return 2.0 * (x - math.floor(x)) - 1.0


class Profile(abc.ABC):
    """A deterministic scalar signal over simulated time."""

    @abc.abstractmethod
    def value(self, t: float) -> float:
        """Signal value at simulated time *t* (seconds since epoch)."""

    def __add__(self, other: "Profile") -> "Profile":
        return SumProfile((self, other))

    def scaled(self, factor: float) -> "Profile":
        """This profile multiplied by a constant factor."""
        return ScaledProfile(self, factor)


class ConstantProfile(Profile):
    """A flat signal."""

    def __init__(self, level: float):
        self.level = float(level)

    def value(self, t: float) -> float:
        return self.level


class SumProfile(Profile):
    """Pointwise sum of several profiles."""

    def __init__(self, parts: Sequence[Profile]):
        if not parts:
            raise ConfigurationError("sum of zero profiles")
        self.parts = tuple(parts)

    def value(self, t: float) -> float:
        return sum(p.value(t) for p in self.parts)


class ScaledProfile(Profile):
    """A profile multiplied by a constant."""

    def __init__(self, inner: Profile, factor: float):
        self.inner = inner
        self.factor = float(factor)

    def value(self, t: float) -> float:
        return self.inner.value(t) * self.factor


class NoisyProfile(Profile):
    """Adds deterministic pseudo-noise to an inner profile.

    The noise is piecewise-constant over *correlation_time* seconds
    (default one minute): real fluctuations have a time scale, and the
    quantisation also makes ``value(t)`` insensitive to the sub-second
    sampling offsets and integer-second frame timestamps of the device
    pipeline — so measured data can be validated against ground truth.
    """

    def __init__(self, inner: Profile, sigma: float, seed: int = 0,
                 correlation_time: float = 60.0):
        if sigma < 0:
            raise ConfigurationError("noise sigma must be non-negative")
        if correlation_time <= 0:
            raise ConfigurationError("correlation time must be positive")
        self.inner = inner
        self.sigma = sigma
        self.seed = float(seed)
        self.correlation_time = correlation_time

    def value(self, t: float) -> float:
        slot = math.floor(t / self.correlation_time) * self.correlation_time
        return self.inner.value(t) + self.sigma * _hash_noise(slot,
                                                              self.seed)


class ClampedProfile(Profile):
    """Clamps an inner profile to [lo, hi] (e.g. non-negative power)."""

    def __init__(self, inner: Profile, lo: float = 0.0,
                 hi: float = float("inf")):
        if hi < lo:
            raise ConfigurationError("clamp range reversed")
        self.inner = inner
        self.lo = lo
        self.hi = hi

    def value(self, t: float) -> float:
        return min(max(self.inner.value(t), self.lo), self.hi)


class DailyShapeProfile(Profile):
    """Base load plus a smooth daily bump centred on *peak_hour*."""

    def __init__(self, base: float, amplitude: float,
                 peak_hour: float = 14.0):
        self.base = base
        self.amplitude = amplitude
        self.peak_hour = peak_hour
        #: standard deviation of the bump, hours
        self.width_hours = 5.0

    def value(self, t: float) -> float:
        hour = hour_of_day(t)
        # circular distance in hours from the peak
        delta = min(abs(hour - self.peak_hour),
                    24.0 - abs(hour - self.peak_hour))
        bump = math.exp(-0.5 * (delta / self.width_hours) ** 2)
        return self.base + self.amplitude * bump


class OfficeOccupancyProfile(Profile):
    """Weekday office occupancy fraction in [0, 1]; near-zero weekends."""

    def __init__(self, open_hour: float = 8.0, close_hour: float = 18.0):
        if close_hour <= open_hour:
            raise ConfigurationError("office closes before it opens")
        self.open_hour = open_hour
        self.close_hour = close_hour
        self.ramp_hours = 1.0
        self.weekend_level = 0.03

    def value(self, t: float) -> float:
        if is_weekend(t):
            return self.weekend_level
        hour = hour_of_day(t)
        if hour < self.open_hour or hour > self.close_hour:
            return self.weekend_level
        rise = min(1.0, (hour - self.open_hour) / self.ramp_hours)
        fall = min(1.0, (self.close_hour - hour) / self.ramp_hours)
        # mild lunch dip at 13:00
        lunch = 1.0 - 0.25 * math.exp(-0.5 * ((hour - 13.0) / 0.7) ** 2)
        return max(self.weekend_level, min(rise, fall) * lunch)


class ResidentialProfile(Profile):
    """Household electrical load: morning and evening peaks, night trough."""

    def __init__(self, base_watts: float = 150.0, peak_watts: float = 900.0):
        self.base_watts = base_watts
        self.peak_watts = peak_watts

    def value(self, t: float) -> float:
        hour = hour_of_day(t)
        morning = 0.85 * math.exp(-0.5 * ((hour - 7.5) / 1.2) ** 2)
        evening = math.exp(-0.5 * ((hour - 19.5) / 2.0) ** 2)
        weekend_boost = 1.15 if is_weekend(t) else 1.0
        return self.base_watts + \
            self.peak_watts * weekend_boost * max(morning, evening)


class WeatherProfile(Profile):
    """Outdoor temperature: seasonal sinusoid plus diurnal swing (degC)."""

    def __init__(self, annual_mean: float = 12.0, annual_swing: float = 10.0,
                 seed: int = 0):
        self.annual_mean = annual_mean
        self.annual_swing = annual_swing
        self.diurnal_swing = 4.0
        self.seed = seed

    def value(self, t: float) -> float:
        yday = day_of_year(t)
        # coldest around mid January (day 15), warmest mid July
        seasonal = -math.cos(2.0 * math.pi * (yday - 15) / 365.0)
        hour = hour_of_day(t)
        diurnal = -math.cos(2.0 * math.pi * (hour - 4.0) / 24.0)
        weather_noise = 2.0 * _hash_noise(
            math.floor(t / SECONDS_PER_DAY) * SECONDS_PER_DAY, self.seed
        )
        return (self.annual_mean + self.annual_swing * seasonal
                + 0.5 * self.diurnal_swing * diurnal + weather_noise)


class HvacProfile(Profile):
    """Electrical power of a heat pump holding *setpoint* against weather.

    A simple steady-state model: thermal demand is ``ua_watts_per_k``
    times the indoor/outdoor temperature gap, divided by the COP.  The
    setpoint is mutable — actuation commands move it and the power
    profile responds, closing the paper's remote-control loop.
    """

    def __init__(self, weather: Profile, setpoint: float = 20.0,
                 ua_watts_per_k: float = 120.0, cop: float = 3.0,
                 max_power: float = 6000.0):
        if cop <= 0:
            raise ConfigurationError("COP must be positive")
        self.weather = weather
        self.setpoint = setpoint
        self.ua_watts_per_k = ua_watts_per_k
        self.cop = cop
        self.max_power = max_power

    def value(self, t: float) -> float:
        outdoor = self.weather.value(t)
        demand_k = self.setpoint - outdoor
        if demand_k <= 0:  # free-floating: warm enough outside
            return 0.0
        power = demand_k * self.ua_watts_per_k / self.cop
        return min(power, self.max_power)


class PhotovoltaicProfile(Profile):
    """PV generation as *negative* power: a daylight bell, season-scaled."""

    def __init__(self, peak_watts: float = 3000.0, seed: int = 0):
        if peak_watts < 0:
            raise ConfigurationError("peak power must be non-negative")
        self.peak_watts = peak_watts
        self.seed = seed

    def value(self, t: float) -> float:
        hour = hour_of_day(t)
        if hour < 6.0 or hour > 20.0:
            return 0.0
        bell = math.exp(-0.5 * ((hour - 13.0) / 2.6) ** 2)
        yday = day_of_year(t)
        season = 0.55 + 0.45 * math.cos(2.0 * math.pi * (yday - 172) / 365.0)
        cloud = 0.85 + 0.15 * _hash_noise(
            math.floor(t / SECONDS_PER_HOUR), self.seed
        )
        return -self.peak_watts * bell * season * max(cloud, 0.2)


class StepProfile(Profile):
    """Piecewise-constant profile; useful for scripted test scenarios."""

    def __init__(self, steps: Sequence, default: float = 0.0):
        # steps: iterable of (start_time, value), sorted by start time
        self.steps = sorted((float(t), float(v)) for t, v in steps)
        self.default = default

    def value(self, t: float) -> float:
        current = self.default
        for start, level in self.steps:
            if t >= start:
                current = level
            else:
                break
        return current


def office_building_load(floor_area_m2: float, weather: Profile,
                         seed: int = 0) -> Profile:
    """Composite electrical load of an office building (W)."""
    occupancy = OfficeOccupancyProfile()
    plug_and_light = _OccupancyDriven(
        occupancy, idle=2.0 * floor_area_m2, active=14.0 * floor_area_m2
    )
    hvac = HvacProfile(weather, ua_watts_per_k=0.9 * floor_area_m2)
    return NoisyProfile(
        ClampedProfile(SumProfile((plug_and_light, hvac))),
        sigma=0.4 * floor_area_m2,
        seed=seed,
    )


def residential_building_load(units: int, weather: Profile,
                              seed: int = 0) -> Profile:
    """Composite electrical load of a residential building (W)."""
    households = ResidentialProfile(base_watts=120.0 * units,
                                    peak_watts=650.0 * units)
    hvac = HvacProfile(weather, setpoint=20.5,
                       ua_watts_per_k=60.0 * units, cop=2.8)
    return NoisyProfile(
        ClampedProfile(SumProfile((households, hvac))),
        sigma=20.0 * units,
        seed=seed,
    )


class _OccupancyDriven(Profile):
    """Linear interpolation between idle and active load by occupancy."""

    def __init__(self, occupancy: Profile, idle: float, active: float):
        self.occupancy = occupancy
        self.idle = idle
        self.active = active

    def value(self, t: float) -> float:
        frac = self.occupancy.value(t)
        return self.idle + (self.active - self.idle) * frac


class EnergyCounter:
    """Accumulates a power profile into a cumulative energy counter (Wh).

    Real meters report monotone counters; this integrates the profile
    lazily between query times so firmware can read "the counter now".
    """

    def __init__(self, power: Profile, step: float = 300.0):
        if step <= 0:
            raise ConfigurationError("integration step must be positive")
        self.power = power
        self._last_time = 0.0
        self._total_wh = 0.0
        self._step = step

    def read(self, t: float) -> float:
        """Energy counter value (Wh) at time *t* >= the previous read."""
        if t < self._last_time:
            raise ConfigurationError("energy counter read in the past")
        time = self._last_time
        prev = self.power.value(time)
        while time < t:
            nxt = min(time + self._step, t)
            cur = self.power.value(nxt)
            self._total_wh += 0.5 * (prev + cur) * (nxt - time) / 3600.0
            prev = cur
            time = nxt
        self._last_time = t
        return self._total_wh
