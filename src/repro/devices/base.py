"""Simulated field devices: sensors and actuators.

A :class:`SimulatedDevice` owns a set of sensed quantities (each backed
by a deterministic :class:`~repro.devices.profiles.Profile`) and,
optionally, actuation commands that mutate its state — and through it
the profiles.  Devices are protocol-agnostic here; the protocol binding
(address format, frame encoding) happens in
:mod:`repro.devices.firmware`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.cdf import (
    ActuatorCapability,
    DeviceDescription,
    SensorCapability,
)
from repro.devices.profiles import Profile
from repro.errors import ConfigurationError, UnsupportedCommandError


@dataclass
class SensorChannel:
    """One sensed quantity: its profile and native sampling period."""

    quantity: str
    profile: Profile
    sample_period: float

    def read(self, t: float) -> float:
        """Current value of the channel at simulated time *t*."""
        return self.profile.value(t)


CommandHandler = Callable[[Optional[float]], None]


@dataclass
class ActuatorChannel:
    """One accepted command with an optional legal value range."""

    command: str
    handler: CommandHandler
    value_range: Optional[Tuple[float, float]] = None


class SimulatedDevice:
    """A field device with sensor channels and actuator channels."""

    def __init__(
        self,
        device_id: str,
        protocol: str,
        address: str,
        entity_id: str,
        vendor: str = "STMicroelectronics",
        location: str = "",
    ):
        self.device_id = device_id
        self.protocol = protocol
        self.address = address
        self.entity_id = entity_id
        self.vendor = vendor
        self.location = location
        self.online = True
        self.commands_handled = 0
        self._sensors: Dict[str, SensorChannel] = {}
        self._actuators: Dict[str, ActuatorChannel] = {}

    # -- construction -------------------------------------------------------

    def add_sensor(self, quantity: str, profile: Profile,
                   sample_period: float) -> None:
        """Attach a sensed quantity; duplicate quantities are an error."""
        if quantity in self._sensors:
            raise ConfigurationError(
                f"device {self.device_id} already senses {quantity}"
            )
        if sample_period <= 0:
            raise ConfigurationError("sample period must be positive")
        self._sensors[quantity] = SensorChannel(quantity, profile,
                                                sample_period)

    def add_actuator(self, command: str, handler: CommandHandler,
                     value_range: Optional[Tuple[float, float]] = None
                     ) -> None:
        """Attach a command handler; duplicates are an error."""
        if command in self._actuators:
            raise ConfigurationError(
                f"device {self.device_id} already handles {command}"
            )
        self._actuators[command] = ActuatorChannel(command, handler,
                                                   value_range)

    # -- sensing --------------------------------------------------------------

    @property
    def quantities(self) -> List[str]:
        """Sorted sensed quantities."""
        return sorted(self._sensors)

    def channel(self, quantity: str) -> SensorChannel:
        try:
            return self._sensors[quantity]
        except KeyError:
            raise ConfigurationError(
                f"device {self.device_id} does not sense {quantity}"
            ) from None

    def channels(self) -> List[SensorChannel]:
        """All sensor channels, sorted by quantity."""
        return [self._sensors[q] for q in self.quantities]

    # -- actuation ------------------------------------------------------------

    @property
    def is_actuator(self) -> bool:
        return bool(self._actuators)

    def apply_command(self, command: str, value: Optional[float]) -> None:
        """Execute a command; raises :class:`UnsupportedCommandError`.

        Out-of-range values are rejected without side effects.
        """
        channel = self._actuators.get(command)
        if channel is None:
            raise UnsupportedCommandError(
                f"device {self.device_id} has no command {command!r}"
            )
        if channel.value_range is not None and value is not None:
            lo, hi = channel.value_range
            if not lo <= value <= hi:
                raise UnsupportedCommandError(
                    f"{command} value {value} outside [{lo}, {hi}]"
                )
        channel.handler(value)
        self.commands_handled += 1

    # -- description ------------------------------------------------------------

    def description(self) -> DeviceDescription:
        """The device's CDF description, as its proxy publishes it."""
        return DeviceDescription(
            device_id=self.device_id,
            protocol=self.protocol,
            entity_id=self.entity_id,
            sensors=tuple(
                SensorCapability(c.quantity, c.sample_period)
                for c in self.channels()
            ),
            actuators=tuple(
                ActuatorCapability(a.command, a.value_range)
                for a in sorted(self._actuators.values(),
                                key=lambda a: a.command)
            ),
            vendor=self.vendor,
            location=self.location,
            metadata={"address": self.address},
        )
