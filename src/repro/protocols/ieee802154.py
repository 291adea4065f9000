"""IEEE 802.15.4 protocol adapter.

Models a bare-metal 802.15.4 deployment (no ZigBee stack on top): MAC
data frames carrying a compact TLV sensor payload, with the real frame
layout — frame control field, sequence number, PAN id, short addresses,
and a CRC-16/CCITT FCS trailer.

Native encodings deliberately differ from the other protocols:
readings travel as typed TLVs whose value width depends on the type
(32-bit watts/watt-hours for metering, 16-bit scaled integers such as
deci-degrees and half-percent humidity for environment channels), so
the adapter exercises genuine unit translation.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.common.units import convert
from repro.errors import FrameEncodeError
from repro.protocols.base import (
    ProtocolAdapter,
    RawCommand,
    RawReading,
    crc16_ccitt,
    int16_arg,
    register_protocol,
    require,
)

#: frame control field for a data frame, short addressing both ways
_FCF_DATA = 0x8841
#: frame control field used for our command (downlink) frames
_FCF_COMMAND = 0x8843

_PAN_ID = 0x1A2B

#: TLV type code -> (quantity, native unit, big-endian struct format).
#: Each type defines its own value width: metering types (power in W,
#: energy in Wh) use 32-bit fields so building feeders (>65 kW) and
#: cumulative counters (>65 kWh) never saturate; environment types stay
#: at the compact 16-bit width a constrained node would choose.
_SENSOR_TYPES = {
    0x01: ("power", "W", ">I"),
    0x02: ("temperature", "ddegC", ">h"),
    0x03: ("humidity", "%RH", ">H"),        # value is half-percent, see scale
    0x04: ("illuminance", "lx", ">H"),
    0x05: ("energy", "Wh", ">I"),
    0x06: ("occupancy", "count", ">H"),
    0x07: ("co2", "ppm", ">H"),
}
#: extra multiplier applied before unit conversion (humidity in 0.5 %RH)
_PRE_SCALE = {0x03: 0.5}

#: struct format -> (value byte width, min, max)
_FIELD_RANGES = {
    ">h": (2, -32768, 32767),
    ">H": (2, 0, 65535),
    ">I": (4, 0, 4294967295),
}

_QUANTITY_TO_TYPE = {q: code for code, (q, _u, _f) in _SENSOR_TYPES.items()}

#: command code -> command name
_COMMANDS = {0x10: "switch", 0x11: "setpoint", 0x12: "dim"}
_COMMAND_CODES = {name: code for code, name in _COMMANDS.items()}


def _to_native(quantity: str, value: float) -> int:
    """Convert a canonical value into the protocol's scaled integer."""
    code = _QUANTITY_TO_TYPE[quantity]
    _q, unit, fmt = _SENSOR_TYPES[code]
    pre = _PRE_SCALE.get(code, 1.0)
    # invert: canonical = convert(native * pre, unit); conversions are linear
    scale = convert(1.0, quantity, unit) - convert(0.0, quantity, unit)
    offset = convert(0.0, quantity, unit)
    native = (value - offset) / scale / pre
    _width, lo, hi = _FIELD_RANGES[fmt]
    return int(round(min(max(native, lo), hi)))


def _from_native(code: int, raw: int) -> Tuple[str, float]:
    quantity, unit, _fmt = _SENSOR_TYPES[code]
    pre = _PRE_SCALE.get(code, 1.0)
    return quantity, convert(raw * pre, quantity, unit)


def _parse_address(address: str) -> int:
    try:
        value = int(address, 16)
    except ValueError:
        raise FrameEncodeError(
            f"bad 802.15.4 short address {address!r}"
        ) from None
    if not 0 <= value <= 0xFFFF:
        raise FrameEncodeError(f"802.15.4 address out of range: {address!r}")
    return value


@register_protocol
class Ieee802154Adapter(ProtocolAdapter):
    """Codec for raw IEEE 802.15.4 TLV sensor frames."""

    name = "ieee802154"

    #: coordinator short address used as the proxy-side source
    COORDINATOR = 0x0000

    def __init__(self) -> None:
        self._seq = 0

    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) & 0xFF
        return self._seq

    def uplink_quantities(self) -> Tuple[str, ...]:
        return tuple(sorted(_QUANTITY_TO_TYPE))

    # -- uplink -----------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        if not readings:
            raise FrameEncodeError("802.15.4 frame needs at least one TLV")
        src = _parse_address(device_address)
        payload = bytearray()
        payload += struct.pack(">I", int(timestamp) & 0xFFFFFFFF)
        for quantity, value in readings:
            if quantity not in _QUANTITY_TO_TYPE:
                raise FrameEncodeError(
                    f"802.15.4 cannot carry quantity {quantity!r}"
                )
            code = _QUANTITY_TO_TYPE[quantity]
            _q, _unit, fmt = _SENSOR_TYPES[code]
            payload += struct.pack(">B", code)
            payload += struct.pack(fmt, _to_native(quantity, value))
        header = struct.pack(
            "<HBHHH",
            _FCF_DATA,
            self._next_seq(),
            _PAN_ID,
            self.COORDINATOR,
            src,
        )
        body = header + bytes(payload)
        return body + struct.pack("<H", crc16_ccitt(body))

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        require(len(frame) >= 11 + 2, "802.15.4 frame too short")
        body, fcs = frame[:-2], struct.unpack("<H", frame[-2:])[0]
        require(crc16_ccitt(body) == fcs, "802.15.4 FCS mismatch")
        fcf, _seq, pan, _dst, src = struct.unpack("<HBHHH", body[:9])
        require(fcf == _FCF_DATA, f"not an 802.15.4 data frame (FCF {fcf:#x})")
        require(pan == _PAN_ID, f"foreign PAN id {pan:#x}")
        payload = body[9:]
        require(len(payload) >= 4, "802.15.4 payload missing timestamp")
        timestamp = float(struct.unpack(">I", payload[:4])[0])
        readings: List[RawReading] = []
        offset = 4
        address = f"0x{src:04x}"
        while offset < len(payload):
            require(offset + 1 <= len(payload), "truncated 802.15.4 TLV")
            code = payload[offset]
            require(code in _SENSOR_TYPES, f"unknown TLV type {code:#x}")
            _q, _unit, fmt = _SENSOR_TYPES[code]
            width = _FIELD_RANGES[fmt][0]
            require(offset + 1 + width <= len(payload),
                    "truncated 802.15.4 TLV value")
            raw = struct.unpack(
                fmt, payload[offset + 1:offset + 1 + width]
            )[0]
            quantity, value = _from_native(code, raw)
            readings.append(RawReading(address, quantity, value, timestamp))
            offset += 1 + width
        return readings

    # -- downlink ---------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        if command not in _COMMAND_CODES:
            raise FrameEncodeError(f"802.15.4 has no command {command!r}")
        dst = _parse_address(device_address)
        payload = struct.pack(
            ">Bh",
            _COMMAND_CODES[command],
            int16_arg(value, 10.0),
        )
        header = struct.pack(
            "<HBHHH",
            _FCF_COMMAND,
            self._next_seq(),
            _PAN_ID,
            dst,
            self.COORDINATOR,
        )
        body = header + payload
        return body + struct.pack("<H", crc16_ccitt(body))

    def decode_command(self, frame: bytes) -> RawCommand:
        require(len(frame) >= 11 + 2, "802.15.4 command frame too short")
        body, fcs = frame[:-2], struct.unpack("<H", frame[-2:])[0]
        require(crc16_ccitt(body) == fcs, "802.15.4 FCS mismatch")
        fcf, _seq, pan, dst, _src = struct.unpack("<HBHHH", body[:9])
        require(fcf == _FCF_COMMAND, "not an 802.15.4 command frame")
        require(pan == _PAN_ID, f"foreign PAN id {pan:#x}")
        code, scaled = struct.unpack(">Bh", body[9:12])
        require(code in _COMMANDS, f"unknown command code {code:#x}")
        return RawCommand(
            device_address=f"0x{dst:04x}",
            command=_COMMANDS[code],
            value=scaled / 10.0,
        )
