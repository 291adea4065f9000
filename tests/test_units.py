"""Tests for physical quantities and unit conversion."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.units import (
    Quantity,
    canonical_unit,
    convert,
    integrate_power_to_energy,
)
from repro.errors import UnitError


class TestConvert:
    @pytest.mark.parametrize(
        "quantity,unit,value,expected",
        [
            ("power", "W", 42.0, 42.0),
            ("power", "kW", 1.5, 1500.0),
            ("power", "dW", 250, 25.0),
            ("energy", "kWh", 2.0, 2000.0),
            ("energy", "J", 3600.0, 1.0),
            ("temperature", "K", 293.15, 20.0),
            ("temperature", "ddegC", 215, 21.5),
            ("flow_rate", "l/s", 1.0, 3.6),
            ("pressure", "bar", 2.0, 200.0),
        ],
    )
    def test_known_conversions(self, quantity, unit, value, expected):
        assert convert(value, quantity, unit) == pytest.approx(expected)

    def test_fahrenheit(self):
        assert convert(212.0, "temperature", "degF") == pytest.approx(100.0)
        assert convert(32.0, "temperature", "degF") == pytest.approx(0.0)

    def test_unknown_quantity(self):
        with pytest.raises(UnitError):
            convert(1.0, "charm", "W")

    def test_unknown_unit(self):
        with pytest.raises(UnitError):
            convert(1.0, "power", "horsepower")

    def test_canonical_unit_lookup(self):
        assert canonical_unit("power") == "W"
        with pytest.raises(UnitError):
            canonical_unit("nope")

    @given(st.floats(-1e6, 1e6))
    def test_celsius_fahrenheit_inverse(self, celsius):
        fahrenheit = celsius * 9.0 / 5.0 + 32.0
        back = convert(fahrenheit, "temperature", "degF")
        assert math.isclose(back, celsius, rel_tol=1e-9, abs_tol=1e-6)


class TestQuantity:
    def test_add_same_quantity(self):
        total = Quantity("power", 100.0) + Quantity("power", 50.0)
        assert total.value == pytest.approx(150.0)

    def test_add_mismatched_quantity_raises(self):
        with pytest.raises(UnitError):
            Quantity("power", 1.0) + Quantity("energy", 1.0)

    def test_add_non_quantity_not_implemented(self):
        with pytest.raises(TypeError):
            Quantity("power", 1.0) + 3.0

    def test_scaled(self):
        assert Quantity("energy", 10.0).scaled(0.5).value == pytest.approx(5.0)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(UnitError):
            Quantity("speed", 1.0)


class TestIntegratePower:
    def test_constant_power(self):
        # 1 kW for one hour is exactly 1 kWh
        wh = integrate_power_to_energy(lambda t: 1000.0, 0.0, 3600.0, 60.0)
        assert wh == pytest.approx(1000.0)

    def test_linear_ramp_exact_under_trapezoid(self):
        # trapezoid integrates linear functions exactly
        wh = integrate_power_to_energy(lambda t: t, 0.0, 3600.0, 300.0)
        assert wh == pytest.approx(3600.0 * 3600.0 / 2.0 / 3600.0)

    def test_empty_interval(self):
        assert integrate_power_to_energy(lambda t: 5.0, 10.0, 10.0, 1.0) == 0.0

    def test_reversed_interval_raises(self):
        with pytest.raises(UnitError):
            integrate_power_to_energy(lambda t: 1.0, 10.0, 0.0, 1.0)

    def test_bad_step_raises(self):
        with pytest.raises(UnitError):
            integrate_power_to_energy(lambda t: 1.0, 0.0, 10.0, 0.0)

    def test_step_not_dividing_interval(self):
        wh = integrate_power_to_energy(lambda t: 100.0, 0.0, 100.0, 33.0)
        assert wh == pytest.approx(100.0 * 100.0 / 3600.0)
