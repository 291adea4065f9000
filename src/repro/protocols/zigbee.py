"""ZigBee (ZCL) protocol adapter.

Models a ZigBee deployment at the ZigBee Cluster Library level:
attribute-report commands on standard clusters (Metering 0x0702,
Temperature 0x0402, Humidity 0x0405, On/Off 0x0006, Thermostat 0x0201,
Level 0x0008, Occupancy 0x0406, Illuminance 0x0400, Electrical
Measurement 0x0B04).  Devices are addressed by 64-bit IEEE addresses
(``00:12:4b:...``), and every cluster uses its real ZCL attribute
scaling (temperature in 0.01 degC, humidity in 0.01 %RH, metering demand
in watts).

The frame layout is little-endian, per the ZigBee specification, which
is itself a source of heterogeneity vs. the big-endian 802.15.4 TLVs.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.protocols.base import (
    CommandCodec,
    Field,
    ProtocolAdapter,
    RawCommand,
    RawReading,
    RecordCodec,
    octet_address,
    register_protocol,
    require,
)

_MAGIC = 0x5A  # frame delimiter for our simulated NWK encapsulation

_REPORT_ATTRIBUTES = 0x0A
_CLUSTER_COMMAND = 0x01

#: quantity -> (cluster, attribute, zcl data type, scale to canonical)
_UPLINK: Dict[str, Tuple[int, int, int, float]] = {
    "power": (0x0702, 0x0400, 0x2A, 1.0),          # instantaneous demand, W
    "energy": (0x0702, 0x0000, 0x25, 1.0),         # current summation, Wh
    "temperature": (0x0402, 0x0000, 0x29, 0.01),   # measured value, 0.01 C
    "humidity": (0x0405, 0x0000, 0x21, 0.01),      # measured value, 0.01 %
    "illuminance": (0x0400, 0x0000, 0x21, 1.0),    # lux (simplified linear)
    "occupancy": (0x0406, 0x0000, 0x18, 1.0),      # bitmap -> count
    "voltage": (0x0B04, 0x0505, 0x21, 0.1),        # RMS voltage, 0.1 V
    "current": (0x0B04, 0x0508, 0x21, 0.001),      # RMS current, mA
    "state": (0x0006, 0x0000, 0x10, 1.0),          # on/off boolean
    "setpoint": (0x0201, 0x0012, 0x29, 0.01),      # occupied heating setpoint
}

#: ZCL data type -> struct code and the bits of the type's value range,
#: which a reading saturates at
_ZCL_TYPES: Dict[int, Tuple[str, int]] = {
    0x10: ("B", 1),     # boolean
    0x18: ("B", 8),     # 8-bit bitmap
    0x21: ("H", 16),    # uint16
    0x25: ("Q", 48),    # uint48 stored as uint64
    0x29: ("h", 16),    # int16
    0x2A: ("i", 24),    # int24 stored as int32
}

#: a record is keyed by (cluster, attribute, ZCL data type), so a value
#: of the wrong type is an unknown record
_RECORDS = RecordCodec("ZCL", "<HHB", {
    quantity: ((cluster, attr, dtype),
               Field(_ZCL_TYPES[dtype][0], scale, bits=_ZCL_TYPES[dtype][1]))
    for quantity, (cluster, attr, dtype, scale) in _UPLINK.items()
})

#: command name -> (cluster, command id); the argument is in 0.01 units
_COMMANDS = CommandCodec("ZigBee", "<HB", {
    "switch": (0x0006, 0x02),    # on/off toggle-with-arg (0/1)
    "setpoint": (0x0201, 0x00),  # setpoint raise/lower absolute
    "dim": (0x0008, 0x04),       # move to level
}, scale=100.0)


def _frame(kind: int, address: str, payload: bytes) -> bytes:
    """Delimiter, frame kind, IEEE address, *payload*, checksum."""
    out = bytearray((_MAGIC, kind))
    out += octet_address(address, 8, "ZigBee IEEE")
    out += payload
    out.append(sum(out) & 0xFF)  # trailing additive checksum
    return bytes(out)


def _open(frame: bytes, kind: int, shortest: int, what: str) -> str:
    """The IEEE address of a *kind* frame whose envelope checks pass."""
    require(len(frame) >= shortest, f"{what} too short")
    require(frame[0] == _MAGIC, "not a ZigBee frame (bad delimiter)")
    require(sum(frame[:-1]) & 0xFF == frame[-1], f"{what} checksum mismatch")
    require(frame[1] == kind, f"not a {what}")
    return frame[2:10].hex(":")


@register_protocol
class ZigbeeAdapter(ProtocolAdapter):
    """Codec for ZCL attribute reports and cluster commands."""

    name = "zigbee"

    def uplink_quantities(self) -> Tuple[str, ...]:
        return _RECORDS.quantities

    # -- uplink -----------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        header = struct.pack("<I", int(timestamp) & 0xFFFFFFFF)
        return _frame(_REPORT_ATTRIBUTES, device_address, header
                      + bytes((len(readings),)) + _RECORDS.encode(readings))

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        address = _open(frame, _REPORT_ATTRIBUTES, 16, "ZCL attribute report")
        return _RECORDS.decode(
            frame, 15, len(frame) - 1, address,
            float(struct.unpack_from("<I", frame, 10)[0]), count=frame[14])

    # -- downlink ---------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        return _frame(_CLUSTER_COMMAND, device_address,
                      _COMMANDS.encode(command, value))

    def decode_command(self, frame: bytes) -> RawCommand:
        address = _open(frame, _CLUSTER_COMMAND, 14, "ZigBee cluster command")
        command, value = _COMMANDS.decode(frame, 10, len(frame) - 1)
        return RawCommand(address, command, value)
