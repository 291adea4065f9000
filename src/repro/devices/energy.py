"""Device energy budgets: batteries, harvesting, lifetime.

Section III of the paper: wireless sensor development places "special
emphasis ... on network self-configuration and energy consumption
reduction, in order to increase system autonomy and minimize
installation costs", with "energy storage and/or harvesting devices"
among the building blocks.  This module models exactly that concern:

* :class:`EnergyBudget` — a device's battery capacity, harvesting
  income and per-operation costs (radio TX per byte, sensor sampling),
  and the arithmetic that prices a device's work: net battery draw,
  state of charge and projected lifetime;
* :func:`fleet_energy_report` — prices the counters every
  :class:`~repro.devices.firmware.DeviceFirmware` already keeps
  (samples taken, bytes sent, seconds powered) and ranks a deployment's
  devices by projected lifetime, the maintenance-planning view.  Spend
  is linear in the counts, so nothing meters a running device.

Typical budgets (orders of magnitude from coin-cell WSN practice):
a CR2032 holds ~2.3 kJ; an 802.15.4 TX costs on the order of a µJ per
byte; EnOcean devices harvest more than they spend (infinite autonomy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.devices.firmware import DeviceFirmware
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

    def net_spent_joules(self, samples: int, bytes_sent: int,
                         seconds: float) -> float:
        """Battery energy drawn by *samples* acquisitions and
        *bytes_sent* radio bytes over *seconds* powered (harvest
        offsets spend)."""
        spent = (self.idle_microwatts * 1e-6 * seconds
                 + self.sample_microjoules * 1e-6 * samples
                 + self.tx_microjoules_per_byte * 1e-6 * bytes_sent)
        harvested = self.harvest_milliwatts * 1e-3 * seconds
        return max(spent - harvested, 0.0)

    def state_of_charge(self, net: float) -> float:
        """Remaining battery fraction in [0, 1] after drawing *net* J."""
        if self.battery_joules == float("inf"):
            return 1.0
        if self.battery_joules <= 0:
            return 0.0
        remaining = self.battery_joules - net
        return min(max(remaining / self.battery_joules, 0.0), 1.0)

    def projected_lifetime_days(self, net: float, seconds: float) -> float:
        """Days until the battery empties at the drain of *net* J per
        *seconds*.

        Infinite for mains or harvest-positive devices.
        """
        drain = net / max(seconds, 1e-9)
        if drain <= 0.0 or self.battery_joules == float("inf"):
            return float("inf")
        remaining = self.battery_joules - net
        if remaining <= 0:
            return 0.0
        return remaining / drain / 86400.0


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


def fleet_energy_report(firmwares: Iterable[DeviceFirmware],
                        now: float) -> List[FleetEnergyRow]:
    """Price each firmware's counters at *now*; shortest lifetime first."""
    rows = []
    for firmware in firmwares:
        device = firmware.device
        budget = budget_for_protocol(device.protocol)
        seconds = now - firmware.powered_at
        net = budget.net_spent_joules(firmware.samples_taken,
                                      firmware.bytes_sent, seconds)
        rows.append(FleetEnergyRow(
            device_id=device.device_id,
            protocol=device.protocol,
            state_of_charge=budget.state_of_charge(net),
            projected_lifetime_days=budget.projected_lifetime_days(
                net, seconds),
            frames_sent=firmware.frames_sent,
        ))
    rows.sort(key=lambda r: r.projected_lifetime_days)
    return rows
