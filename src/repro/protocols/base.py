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
present in the simulation.  Where a protocol's records are a table —
a key, then a scaled integer — the adapter declares that table and
:class:`RecordCodec` / :class:`CommandCodec` run it; the adapter writes
by hand only its header, addressing and checksum.
"""

from __future__ import annotations

import abc
import binascii
import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

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
    return binascii.crc_hqx(data, seed)


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


def octet_address(address: str, octets: int, protocol: str) -> bytes:
    """The bytes of an ``aa:bb:...`` hardware address of *octets* octets."""
    parts = address.split(":")
    try:
        if len(parts) == octets:
            return bytes(int(part, 16) for part in parts)
    except ValueError:
        pass
    raise FrameEncodeError(f"bad {protocol} address {address!r}")


def require(condition: bool, message: str) -> None:
    """Raise :class:`FrameDecodeError` with *message* unless *condition*."""
    if not condition:
        raise FrameDecodeError(message)


@dataclass(frozen=True)
class Field:
    """One record's value: canonical = native * *scale* + *offset*.

    *code* is a :mod:`struct` code (``B h H i I Q``; lower case is
    signed) or ``"u24"``, a 3-byte unsigned integer.  A reading
    saturates at the range of *bits* bits, by default the whole field
    (ZigBee carries an int24 in an int32, and a boolean in a byte).
    """

    code: str
    scale: float = 1.0
    offset: float = 0.0
    bits: int = 0


class _Uint24:
    """The ``struct.Struct`` surface for a 3-byte unsigned integer."""

    size = 3

    def __init__(self, order: str) -> None:
        self._order = "little" if order == "<" else "big"

    def pack(self, native: int) -> bytes:
        return native.to_bytes(3, self._order)

    def unpack_from(self, buffer: bytes, offset: int) -> Tuple[int]:
        return (int.from_bytes(buffer[offset:offset + 3], self._order),)


class RecordCodec:
    """Quantity <-> (key, scaled integer) records, compiled from a table.

    *table* maps each quantity to its key, a tuple packed with
    *key_format* (whose first character is the byte order of every
    field), and its :class:`Field`.  Each key is packed once here, so a
    record is its key's bytes followed by its value.
    """

    def __init__(self, protocol: str, key_format: str,
                 table: Mapping[str, Tuple[Tuple[int, ...], Field]]) -> None:
        self._protocol = protocol
        key = struct.Struct(key_format)
        self._key_width = key.size
        self.quantities = tuple(sorted(table))
        self._by_quantity = {}
        self._by_key = {}
        for quantity, (key_values, field) in table.items():
            if field.code == "u24":
                packer = _Uint24(key_format[0])
            else:
                packer = struct.Struct(key_format[0] + field.code)
            bits = field.bits or 8 * packer.size
            if field.code in ("b", "h", "i", "q"):
                lo, hi = -(1 << bits - 1), (1 << bits - 1) - 1
            else:
                lo, hi = 0, (1 << bits) - 1
            prefix = key.pack(*key_values)
            self._by_quantity[quantity] = (prefix, packer, lo, hi,
                                           field.scale, field.offset)
            self._by_key[prefix] = (quantity, packer, field.scale,
                                    field.offset)

    def encode(self, readings: Sequence[Tuple[str, float]]) -> bytes:
        """The records of (quantity, canonical value) pairs, in order.

        A value is clamped to its field's range, then rounded, so a
        reading saturates.  Raises :class:`FrameEncodeError` when there
        is no reading, the table lacks a quantity or a value is NaN.
        """
        if not readings:
            raise FrameEncodeError(f"{self._protocol} frame needs a reading")
        out = bytearray()
        for quantity, value in readings:
            try:
                prefix, packer, lo, hi, scale, offset = \
                    self._by_quantity[quantity]
            except KeyError:
                raise FrameEncodeError(
                    f"{self._protocol} cannot carry quantity {quantity!r}"
                ) from None
            if math.isnan(value):
                raise FrameEncodeError(
                    f"{self._protocol} cannot carry a NaN {quantity}")
            out += prefix
            out += packer.pack(
                round(min(max((value - offset) / scale, lo), hi)))
        return bytes(out)

    def decode(self, frame: bytes, start: int, end: int, address: str,
               timestamp: float, count: Optional[int] = None
               ) -> List[RawReading]:
        """The *count* readings in ``frame[start:end]``, or all of them.

        Raises :class:`FrameDecodeError` on a truncated record, an
        unknown key or bytes left before *end*.
        """
        readings: List[RawReading] = []
        width = self._key_width
        at = start
        while (at < end) if count is None else (len(readings) < count):
            require(at + width <= end, f"truncated {self._protocol} record")
            key = frame[at:at + width]
            entry = self._by_key.get(key)
            require(entry is not None,
                    f"unknown {self._protocol} record key {key.hex()}")
            quantity, packer, scale, offset = entry
            at += width
            require(at + packer.size <= end,
                    f"truncated {self._protocol} value")
            native = packer.unpack_from(frame, at)[0]
            readings.append(RawReading(address, quantity,
                                       native * scale + offset, timestamp))
            at += packer.size
        require(at == end, f"trailing bytes in {self._protocol} frame")
        return readings


class CommandCodec:
    """Command name <-> (key, int16 argument), compiled from a table.

    *table* maps each command to its key, a tuple packed with
    *key_format*; the argument follows as an int16 carrying
    ``round(value * scale)``, or 0 when the command takes no value.
    """

    def __init__(self, protocol: str, key_format: str,
                 table: Mapping[str, Tuple[int, ...]], scale: float) -> None:
        self._protocol = protocol
        self._struct = struct.Struct(key_format + "h")
        self._keys = dict(table)
        self._names = {key: name for name, key in table.items()}
        self._scale = scale

    def encode(self, command: str, value: Optional[float]) -> bytes:
        """The key and argument of *command*.

        A reading saturates, but a command must not silently do
        something else: a value the int16 cannot carry (NaN, infinite
        or out of range) raises :class:`FrameEncodeError`.
        """
        try:
            key = self._keys[command]
        except KeyError:
            raise FrameEncodeError(
                f"{self._protocol} has no command {command!r}") from None
        if value is None:
            return self._struct.pack(*key, 0)
        scaled = value * self._scale
        if math.isfinite(scaled) and -0x8000 <= round(scaled) <= 0x7FFF:
            return self._struct.pack(*key, round(scaled))
        raise FrameEncodeError(
            f"command value {value!r} does not fit an int16 field")

    def decode(self, frame: bytes, start: int = 0,
               end: Optional[int] = None) -> Tuple[str, float]:
        """The (command, value) at ``frame[start:]``, within *end*."""
        end = len(frame) if end is None else end
        require(start + self._struct.size <= end,
                f"truncated {self._protocol} command")
        fields = self._struct.unpack_from(frame, start)
        name = self._names.get(fields[:-1])
        require(name is not None,
                f"unknown {self._protocol} command {fields[:-1]}")
        return name, fields[-1] / self._scale
