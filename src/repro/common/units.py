"""Physical quantities and unit conversion for energy data.

Heterogeneous sources report the same physical quantity in different
units (a ZigBee meter in deciwatts, an EnOcean thermostat in scaled
counts, a BIM export in kWh/m2...).  The common data format normalises
every measurement to a *canonical unit* per quantity; this module defines
the quantities, the canonical units, and the conversion table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import UnitError

#: quantity name -> canonical unit symbol
CANONICAL_UNITS: Dict[str, str] = {
    "power": "W",
    "energy": "Wh",
    "temperature": "degC",
    "humidity": "%RH",
    "illuminance": "lx",
    "voltage": "V",
    "current": "A",
    "flow_rate": "m3/h",
    "pressure": "kPa",
    "occupancy": "count",
    "state": "bool",
    "setpoint": "degC",
    "co2": "ppm",
}

_Linear = Tuple[float, float]  # scale, offset: canonical = scale * x + offset

#: (quantity, unit) -> linear conversion to the canonical unit
_CONVERSIONS: Dict[Tuple[str, str], _Linear] = {
    ("power", "W"): (1.0, 0.0),
    ("power", "dW"): (0.1, 0.0),
    ("power", "kW"): (1000.0, 0.0),
    ("power", "MW"): (1e6, 0.0),
    ("energy", "Wh"): (1.0, 0.0),
    ("energy", "kWh"): (1000.0, 0.0),
    ("energy", "MWh"): (1e6, 0.0),
    ("energy", "J"): (1.0 / 3600.0, 0.0),
    ("energy", "MJ"): (1e6 / 3600.0, 0.0),
    ("temperature", "degC"): (1.0, 0.0),
    ("temperature", "ddegC"): (0.1, 0.0),
    ("temperature", "degF"): (5.0 / 9.0, -160.0 / 9.0),
    ("temperature", "K"): (1.0, -273.15),
    ("humidity", "%RH"): (1.0, 0.0),
    ("illuminance", "lx"): (1.0, 0.0),
    ("voltage", "V"): (1.0, 0.0),
    ("voltage", "mV"): (0.001, 0.0),
    ("current", "A"): (1.0, 0.0),
    ("current", "mA"): (0.001, 0.0),
    ("flow_rate", "m3/h"): (1.0, 0.0),
    ("flow_rate", "l/s"): (3.6, 0.0),
    ("pressure", "kPa"): (1.0, 0.0),
    ("pressure", "bar"): (100.0, 0.0),
    ("pressure", "Pa"): (0.001, 0.0),
    ("occupancy", "count"): (1.0, 0.0),
    ("state", "bool"): (1.0, 0.0),
    ("setpoint", "degC"): (1.0, 0.0),
    ("co2", "ppm"): (1.0, 0.0),
}


def canonical_unit(quantity: str) -> str:
    """Return the canonical unit symbol for *quantity*."""
    try:
        return CANONICAL_UNITS[quantity]
    except KeyError:
        raise UnitError(f"unknown quantity: {quantity!r}") from None


def convert(value: float, quantity: str, unit: str) -> float:
    """Convert *value* expressed in *unit* to the canonical unit.

    Raises :class:`UnitError` if the quantity or the (quantity, unit)
    pair is unknown.
    """
    if quantity not in CANONICAL_UNITS:
        raise UnitError(f"unknown quantity: {quantity!r}")
    try:
        scale, offset = _CONVERSIONS[(quantity, unit)]
    except KeyError:
        raise UnitError(
            f"no conversion from {unit!r} to canonical for {quantity!r}"
        ) from None
    return scale * value + offset


@dataclass(frozen=True)
class Quantity:
    """A value tagged with its physical quantity, in canonical units."""

    quantity: str
    value: float

    def __post_init__(self) -> None:
        if self.quantity not in CANONICAL_UNITS:
            raise UnitError(f"unknown quantity: {self.quantity!r}")

    @property
    def unit(self) -> str:
        """Canonical unit symbol of this quantity."""
        return CANONICAL_UNITS[self.quantity]

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        if other.quantity != self.quantity:
            raise UnitError(
                f"cannot add {other.quantity} to {self.quantity}"
            )
        return Quantity(self.quantity, self.value + other.value)

    def scaled(self, factor: float) -> "Quantity":
        """Return this quantity multiplied by a dimensionless factor."""
        return Quantity(self.quantity, self.value * factor)


def integrate_power_to_energy(
    power_watts: Callable[[float], float], t0: float, t1: float, step: float
) -> float:
    """Integrate a power function (W) over [t0, t1] seconds into Wh.

    Trapezoidal rule with fixed *step*; used by synthetic meters that
    accumulate energy from an instantaneous-power profile.
    """
    if t1 < t0:
        raise UnitError("integration interval is reversed")
    if step <= 0:
        raise UnitError("integration step must be positive")
    total = 0.0
    t = t0
    prev = power_watts(t0)
    while t < t1:
        t_next = min(t + step, t1)
        cur = power_watts(t_next)
        total += 0.5 * (prev + cur) * (t_next - t)
        prev = cur
        t = t_next
    return total / 3600.0
