"""Protocol adapter interface — the proxy's "dedicated layer" contract.

The paper's Device-proxy has a bottom layer "specific for the device"
that speaks the device's native protocol.  Each protocol module in this
package implements :class:`ProtocolAdapter` twice over:

* the *uplink*: devices encode sensor readings into protocol-native
  binary frames (:meth:`encode_readings`), the proxy decodes them back
  into canonical-unit :class:`RawReading` tuples (:meth:`decode_frame`);
* the *downlink*: the proxy encodes actuation commands
  (:meth:`encode_command`), the device decodes them
  (:meth:`decode_command`).

Frames are genuine ``bytes`` with per-protocol headers, addressing and
checksums, so the heterogeneity the paper sets out to hide is physically
present in the simulation.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import (
    ConfigurationError,
    FrameDecodeError,
    FrameEncodeError,
)


@dataclass(frozen=True)
class RawReading:
    """One decoded sensor sample, already converted to canonical units."""

    device_address: str
    quantity: str
    value: float
    timestamp: float


@dataclass(frozen=True)
class RawCommand:
    """One decoded actuation command on the device side."""

    device_address: str
    command: str
    value: Optional[float]


class ProtocolAdapter(abc.ABC):
    """Bidirectional codec between one protocol and the common model."""

    #: short protocol name, e.g. ``"zigbee"``; set by subclasses
    name: str = ""

    @abc.abstractmethod
    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        """Device side: encode (quantity, canonical value) pairs to a frame."""

    @abc.abstractmethod
    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        """Proxy side: decode a frame into canonical readings.

        *received_at* is the arrival time at the gateway; protocols whose
        frames carry no timestamp (EnOcean) stamp readings with it, the
        others ignore it in favour of the embedded timestamp.

        Raises :class:`FrameDecodeError` on corrupt or foreign frames.
        """

    @abc.abstractmethod
    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        """Proxy side: encode an actuation command into a frame."""

    @abc.abstractmethod
    def decode_command(self, frame: bytes) -> RawCommand:
        """Device side: decode an actuation command frame."""

    def supports_quantity(self, quantity: str) -> bool:
        """True if the protocol can carry *quantity* on its uplink."""
        return quantity in self.uplink_quantities()

    @abc.abstractmethod
    def uplink_quantities(self) -> Tuple[str, ...]:
        """Quantities this protocol's sensor profiles can carry."""


_REGISTRY: Dict[str, Type[ProtocolAdapter]] = {}


def register_protocol(cls: Type[ProtocolAdapter]) -> Type[ProtocolAdapter]:
    """Class decorator adding an adapter to the protocol registry."""
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} has no protocol name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"protocol {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_protocols() -> Tuple[str, ...]:
    """Names of all registered protocols."""
    return tuple(sorted(_REGISTRY))


def make_adapter(name: str) -> ProtocolAdapter:
    """Instantiate the adapter for protocol *name*."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(f"unknown protocol {name!r}") from None
    return cls()


# --------------------------------------------------------------------------
# shared checksum helpers


def crc16_ccitt(data: bytes, seed: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE, as used for the IEEE 802.15.4 frame FCS."""
    crc = seed
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def crc8(data: bytes) -> int:
    """CRC-8 (poly 0x07), as used for EnOcean ERP1 telegram checksums."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ 0x07) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc


def require(condition: bool, message: str) -> None:
    """Raise :class:`FrameDecodeError` with *message* unless *condition*."""
    if not condition:
        raise FrameDecodeError(message)


def int16_arg(value: Optional[float], scale: float) -> int:
    """An actuation argument as the int16 field a downlink frame carries.

    ``round(value * scale)``, or 0 when the command takes no value.  A
    reading saturates at its field's range; a command must not silently
    do something else, so a value the field cannot carry (NaN, infinite
    or outside int16) raises :class:`FrameEncodeError`.
    """
    if value is None:
        return 0
    scaled = value * scale
    if math.isfinite(scaled):
        native = round(scaled)
        if -0x8000 <= native <= 0x7FFF:
            return native
    raise FrameEncodeError(
        f"command value {value!r} does not fit an int16 field")
