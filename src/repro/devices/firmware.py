"""Device firmware: the sampling loop and radio link.

:class:`RadioLink` models the field bus between a device and its
gateway (fixed radio latency, optional loss), outside the IP network —
frames here are the protocol-native ``bytes`` built by the adapters.

:class:`DeviceFirmware` is the device's behaviour: it groups sensor
channels by sampling period, periodically reads the profiles, encodes
protocol frames and transmits them uplink; downlink it decodes actuation
commands addressed to its device, applies them, and immediately reports
the affected channels (the post-command attribute report real devices
send, which the proxy uses to confirm actuation).  It counts its own
work — ``samples_taken``, ``frames_sent``, ``bytes_sent`` since
``powered_at`` — which :func:`~repro.devices.energy.fleet_energy_report`
prices against the protocol's energy budget.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.devices.base import SimulatedDevice
from repro.errors import (
    ConfigurationError,
    FrameDecodeError,
    FrameEncodeError,
    UnsupportedCommandError,
)
from repro.network.scheduler import PeriodicTask, Scheduler
from repro.protocols.base import ProtocolAdapter

FrameHandler = Callable[[bytes], None]


class RadioLink:
    """Point-to-point field-bus link between one device and its gateway."""

    def __init__(self, scheduler: Scheduler, latency: float = 0.01,
                 loss: float = 0.0, seed: int = 0):
        if latency < 0:
            raise ConfigurationError("link latency must be non-negative")
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError("link loss must be in [0, 1)")
        self.scheduler = scheduler
        self.latency = latency
        self.loss = loss
        self.frames_up = 0
        self.frames_down = 0
        self.frames_dropped = 0
        self._seed = seed
        #: lazily built on the first lossy check — RandomState
        #: construction is measurable per link and a loss-free link
        #: (the common fleet) never draws; first-use construction sees
        #: the identical stream
        self._rng: Optional[np.random.RandomState] = None
        self._gateway_handler: Optional[FrameHandler] = None
        self._device_handler: Optional[FrameHandler] = None

    def attach_gateway(self, handler: Optional[FrameHandler]) -> None:
        """The proxy's dedicated layer registers its frame receiver
        (None unbinds it: uplink frames are dropped)."""
        self._gateway_handler = handler

    def attach_device(self, handler: FrameHandler) -> None:
        """The firmware registers its downlink receiver."""
        self._device_handler = handler

    def _lossy(self) -> bool:
        if self.loss <= 0.0:
            return False
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.RandomState(self._seed)
        return rng.random_sample() < self.loss

    def uplink(self, frame: bytes) -> None:
        """Device -> gateway transmission."""
        if self._gateway_handler is None or self._lossy():
            self.frames_dropped += 1
            return
        self.frames_up += 1
        self.scheduler.schedule(self.latency, self._gateway_handler, frame)

    def downlink(self, frame: bytes) -> None:
        """Gateway -> device transmission."""
        if self._device_handler is None or self._lossy():
            self.frames_dropped += 1
            return
        self.frames_down += 1
        self.scheduler.schedule(self.latency, self._device_handler, frame)


class DeviceFirmware:
    """Autonomous behaviour of one simulated device."""

    def __init__(self, device: SimulatedDevice, adapter: ProtocolAdapter,
                 link: RadioLink, scheduler: Scheduler):
        if adapter.name != device.protocol:
            raise ConfigurationError(
                f"device {device.device_id} speaks {device.protocol}, "
                f"adapter speaks {adapter.name}"
            )
        self.device = device
        self.adapter = adapter
        self.link = link
        self.scheduler = scheduler
        self.powered_at = scheduler.now
        self.samples_taken = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.commands_applied = 0
        self.commands_rejected = 0
        self._tasks: List[PeriodicTask] = []
        link.attach_device(self._on_downlink)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin periodic sampling (and EnOcean teach-in if needed)."""
        if hasattr(self.adapter, "encode_teach_in"):
            eep = self.adapter.eep_for_quantities(self.device.quantities)
            self.link.uplink(
                self.adapter.encode_teach_in(self.device.address, eep)
            )
        for period, quantities in self._channel_groups().items():
            task = self.scheduler.every(
                period, self._sample, quantities,
                initial_delay=period,
            )
            self._tasks.append(task)

    def stop(self) -> None:
        """Halt sampling (device powered off)."""
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self.device.online = False

    def _channel_groups(self) -> Dict[float, List[str]]:
        groups: Dict[float, List[str]] = {}
        for channel in self.device.channels():
            groups.setdefault(channel.sample_period, []).append(
                channel.quantity
            )
        return groups

    # -- uplink ----------------------------------------------------------------

    def _sample(self, quantities: List[str]) -> None:
        if not self.device.online:
            return
        now = self.scheduler.now
        readings = [
            (q, self.device.channel(q).read(now)) for q in quantities
        ]
        self.samples_taken += len(readings)
        self._transmit(readings, now)

    def _transmit(self, readings: List[Tuple[str, float]], now: float
                  ) -> None:
        try:
            frame = self.adapter.encode_readings(
                self.device.address, readings, now
            )
        except FrameEncodeError:
            # the protocol cannot carry this combination in one frame:
            # fragment into per-quantity frames (e.g. EnOcean A5-12-01
            # alternating power/energy telegrams); a reading no frame
            # carries (NaN) is raised after the others are sent
            if len(readings) == 1:
                raise
            failed = None
            for reading in readings:
                try:
                    self._transmit([reading], now)
                except FrameEncodeError as exc:
                    failed = failed or exc
            if failed is not None:
                raise failed
            return
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        self.link.uplink(frame)

    # -- downlink ----------------------------------------------------------------

    def _on_downlink(self, frame: bytes) -> None:
        if not self.device.online:
            return
        try:
            command = self.adapter.decode_command(frame)
        except FrameDecodeError:
            return  # corrupt or foreign frame: radio silence
        if command.device_address != self.device.address:
            return  # addressed to a different device on the shared medium
        try:
            self.device.apply_command(command.command, command.value)
        except UnsupportedCommandError:
            self.commands_rejected += 1
            return  # no ack: the proxy's pending actuation will time out
        self.commands_applied += 1
        # post-command report: transmit affected channels immediately
        now = self.scheduler.now
        affected = [
            (q, self.device.channel(q).read(now))
            for q in self.device.quantities
        ]
        self._transmit(affected, now)
