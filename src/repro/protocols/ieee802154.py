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
    CommandCodec,
    Field,
    ProtocolAdapter,
    RawCommand,
    RawReading,
    RecordCodec,
    crc16_ccitt,
    register_protocol,
    require,
)

#: frame control field for a data frame, short addressing both ways
_FCF_DATA = 0x8841
#: frame control field used for our command (downlink) frames
_FCF_COMMAND = 0x8843

_PAN_ID = 0x1A2B

#: TLV type code -> (quantity, native unit, big-endian struct code, and
#: the multiplier applied before unit conversion).  Each type defines its
#: own value width: metering types (power in W, energy in Wh) use 32-bit
#: fields so building feeders (>65 kW) and cumulative counters (>65 kWh)
#: never saturate; environment types stay at the compact 16-bit width a
#: constrained node would choose.
_SENSOR_TYPES = {
    0x01: ("power", "W", "I", 1.0),
    0x02: ("temperature", "ddegC", "h", 1.0),
    0x03: ("humidity", "%RH", "H", 0.5),    # in half-percent steps
    0x04: ("illuminance", "lx", "H", 1.0),
    0x05: ("energy", "Wh", "I", 1.0),
    0x06: ("occupancy", "count", "H", 1.0),
    0x07: ("co2", "ppm", "H", 1.0),
}
# canonical = convert(native * pre, unit), and conversions are linear
_RECORDS = RecordCodec("802.15.4", ">B", {
    quantity: ((type_code,), Field(
        code, (convert(1.0, quantity, unit) - convert(0.0, quantity, unit))
        * pre, convert(0.0, quantity, unit)))
    for type_code, (quantity, unit, code, pre) in _SENSOR_TYPES.items()
})

#: command name -> command code; the argument is in 0.1 units
_COMMANDS = CommandCodec("802.15.4", ">B", {
    "switch": (0x10,), "setpoint": (0x11,), "dim": (0x12,),
}, scale=10.0)


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


def _open(frame: bytes, fcf: int, what: str) -> Tuple[int, int]:
    """The (destination, source) of an *fcf* frame whose checks pass."""
    require(len(frame) >= 11 + 2, f"802.15.4 {what} too short")
    fcs = struct.unpack("<H", frame[-2:])[0]
    require(crc16_ccitt(frame[:-2]) == fcs, "802.15.4 FCS mismatch")
    got, _seq, pan, dst, src = struct.unpack_from("<HBHHH", frame)
    require(got == fcf, f"not an 802.15.4 {what} (FCF {got:#x})")
    require(pan == _PAN_ID, f"foreign PAN id {pan:#x}")
    return dst, src


@register_protocol
class Ieee802154Adapter(ProtocolAdapter):
    """Codec for raw IEEE 802.15.4 TLV sensor frames."""

    name = "ieee802154"

    #: coordinator short address used as the proxy-side source
    COORDINATOR = 0x0000

    def __init__(self) -> None:
        self._seq = 0

    def _frame(self, fcf: int, dst: int, src: int, payload: bytes) -> bytes:
        """MAC header, *payload* and FCS; takes the next sequence number."""
        self._seq = (self._seq + 1) & 0xFF
        body = struct.pack("<HBHHH", fcf, self._seq, _PAN_ID, dst, src)
        body += payload
        return body + struct.pack("<H", crc16_ccitt(body))

    def uplink_quantities(self) -> Tuple[str, ...]:
        return _RECORDS.quantities

    # -- uplink -----------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        src = _parse_address(device_address)
        payload = struct.pack(">I", int(timestamp) & 0xFFFFFFFF)
        payload += _RECORDS.encode(readings)
        return self._frame(_FCF_DATA, self.COORDINATOR, src, payload)

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        _dst, src = _open(frame, _FCF_DATA, "data frame")
        require(len(frame) >= 15, "802.15.4 payload missing timestamp")
        return _RECORDS.decode(frame, 13, len(frame) - 2, f"0x{src:04x}",
                               float(struct.unpack_from(">I", frame, 9)[0]))

    # -- downlink ---------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        payload = _COMMANDS.encode(command, value)
        return self._frame(_FCF_COMMAND, _parse_address(device_address),
                           self.COORDINATOR, payload)

    def decode_command(self, frame: bytes) -> RawCommand:
        dst, _src = _open(frame, _FCF_COMMAND, "command frame")
        command, value = _COMMANDS.decode(frame, 9, len(frame) - 2)
        return RawCommand(f"0x{dst:04x}", command, value)
