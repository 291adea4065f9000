"""Device energy budgets: batteries, harvesting, lifetime.

Section III of the paper: wireless sensor development places "special
emphasis ... on network self-configuration and energy consumption
reduction, in order to increase system autonomy and minimize
installation costs", with "energy storage and/or harvesting devices"
among the building blocks.  This module models exactly that concern:

* :class:`EnergyBudget` — a device's battery capacity, harvesting
  income and per-operation costs (radio TX per byte, sensor sampling);
* :class:`DeviceEnergyModel` — attached to a
  :class:`~repro.devices.firmware.DeviceFirmware`, it meters every
  transmission and sample, accrues harvest, exposes state of charge and
  projects battery lifetime;
* :func:`fleet_energy_report` — ranks a deployment's devices by
  projected lifetime, the maintenance-planning view.

Typical budgets (orders of magnitude from coin-cell WSN practice):
a CR2032 holds ~2.3 kJ; an 802.15.4 TX costs on the order of a µJ per
byte; EnOcean devices harvest more than they spend (infinite autonomy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

#: default budgets per protocol (battery J, harvest mW, uJ/byte, uJ/sample)
PROTOCOL_BUDGETS: Dict[str, "EnergyBudget"] = {}


@dataclass(frozen=True)
class EnergyBudget:
    """Energy parameters of one device class."""

    battery_joules: float
    harvest_milliwatts: float = 0.0
    tx_microjoules_per_byte: float = 2.0
    sample_microjoules: float = 50.0
    idle_microwatts: float = 8.0

    def __post_init__(self) -> None:
        if self.battery_joules < 0 or self.harvest_milliwatts < 0:
            raise ConfigurationError("energy budget cannot be negative")


PROTOCOL_BUDGETS.update({
    # two AA cells on a metering node
    "zigbee": EnergyBudget(battery_joules=9000.0),
    "ieee802154": EnergyBudget(battery_joules=9000.0,
                               tx_microjoules_per_byte=1.5),
    # energy harvesting: no battery to run down
    "enocean": EnergyBudget(battery_joules=50.0, harvest_milliwatts=0.05,
                            tx_microjoules_per_byte=1.0,
                            sample_microjoules=20.0, idle_microwatts=1.0),
    # mains powered gateways and PLCs: effectively infinite
    "opcua": EnergyBudget(battery_joules=float("inf")),
    # coin cell on a CoAP node / BLE beacon
    "coap": EnergyBudget(battery_joules=2300.0,
                         tx_microjoules_per_byte=2.5),
    "ble": EnergyBudget(battery_joules=2300.0,
                        tx_microjoules_per_byte=0.8,
                        sample_microjoules=30.0, idle_microwatts=3.0),
})


class DeviceEnergyModel:
    """Meters one device's energy use over simulated time."""

    def __init__(self, budget: EnergyBudget, start_time: float = 0.0):
        self.budget = budget
        self.spent_joules = 0.0
        self.harvested_joules = 0.0
        self.bytes_sent = 0
        self.frames_sent = 0
        self.samples_taken = 0
        self._start_time = start_time
        self._last_time = start_time

    # -- metering hooks (called by the firmware) ---------------------------

    def _accrue(self, now: float) -> None:
        elapsed = max(now - self._last_time, 0.0)
        self.harvested_joules += \
            self.budget.harvest_milliwatts * 1e-3 * elapsed
        self.spent_joules += self.budget.idle_microwatts * 1e-6 * elapsed
        self._last_time = now

    def on_transmit(self, frame_bytes: int, now: float) -> None:
        """Account for one radio transmission."""
        self._accrue(now)
        self.frames_sent += 1
        self.bytes_sent += frame_bytes
        self.spent_joules += \
            self.budget.tx_microjoules_per_byte * 1e-6 * frame_bytes

    def on_sample(self, count: int, now: float) -> None:
        """Account for *count* sensor acquisitions."""
        self._accrue(now)
        self.samples_taken += count
        self.spent_joules += self.budget.sample_microjoules * 1e-6 * count

    # -- analysis ------------------------------------------------------------

    def net_spent_joules(self, now: Optional[float] = None) -> float:
        """Battery energy drawn so far (harvest offsets spend)."""
        if now is not None:
            self._accrue(now)
        return max(self.spent_joules - self.harvested_joules, 0.0)

    def state_of_charge(self, now: Optional[float] = None) -> float:
        """Remaining battery fraction in [0, 1]."""
        if self.budget.battery_joules == float("inf"):
            return 1.0
        if self.budget.battery_joules <= 0:
            return 0.0
        remaining = self.budget.battery_joules - self.net_spent_joules(now)
        return min(max(remaining / self.budget.battery_joules, 0.0), 1.0)

    def average_power_watts(self, now: float) -> float:
        """Mean net drain since attachment (0 for harvest-positive)."""
        elapsed = max(now - self._start_time, 1e-9)
        return self.net_spent_joules(now) / elapsed

    def projected_lifetime_days(self, now: float) -> float:
        """Days until the battery empties at the observed drain rate.

        Infinite for mains or harvest-positive devices.
        """
        drain = self.average_power_watts(now)
        if drain <= 0.0 or self.budget.battery_joules == float("inf"):
            return float("inf")
        remaining = self.budget.battery_joules - self.net_spent_joules(now)
        if remaining <= 0:
            return 0.0
        return remaining / drain / 86400.0


def budget_for_protocol(protocol: str) -> EnergyBudget:
    """Default energy budget for a protocol's device class."""
    try:
        return PROTOCOL_BUDGETS[protocol]
    except KeyError:
        raise ConfigurationError(
            f"no energy budget defined for protocol {protocol!r}"
        ) from None


@dataclass(frozen=True)
class FleetEnergyRow:
    """One device's energy standing in the fleet report."""

    device_id: str
    protocol: str
    state_of_charge: float
    projected_lifetime_days: float
    frames_sent: int


def fleet_energy_report(models: Dict[str, DeviceEnergyModel],
                        protocols: Dict[str, str],
                        now: float) -> List[FleetEnergyRow]:
    """Rank devices by projected lifetime, shortest first."""
    rows = [
        FleetEnergyRow(
            device_id=device_id,
            protocol=protocols.get(device_id, "?"),
            state_of_charge=model.state_of_charge(now),
            projected_lifetime_days=model.projected_lifetime_days(now),
            frames_sent=model.frames_sent,
        )
        for device_id, model in models.items()
    ]
    rows.sort(key=lambda r: r.projected_lifetime_days)
    return rows
