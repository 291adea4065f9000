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

from repro.errors import FrameEncodeError
from repro.protocols.base import (
    ProtocolAdapter,
    RawCommand,
    RawReading,
    int16_arg,
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

_BY_CLUSTER_ATTR = {
    (cluster, attr): (quantity, dtype, scale)
    for quantity, (cluster, attr, dtype, scale) in _UPLINK.items()
}

#: ZCL data type -> struct format (little-endian), width and the
#: type's value range, which a reading saturates at
_ZCL_TYPES: Dict[int, Tuple[str, int, int, int]] = {
    0x10: ("<B", 1, 0, 1),                  # boolean
    0x18: ("<B", 1, 0, 0xFF),               # 8-bit bitmap
    0x21: ("<H", 2, 0, 0xFFFF),             # uint16
    0x25: ("<Q", 8, 0, (1 << 48) - 1),      # uint48 stored as uint64
    0x29: ("<h", 2, -0x8000, 0x7FFF),       # int16
    0x2A: ("<i", 4, -(1 << 23), (1 << 23) - 1),  # int24 stored as int32
}

#: command name -> (cluster, command id, has int16 payload)
_COMMANDS: Dict[str, Tuple[int, int, bool]] = {
    "switch": (0x0006, 0x02, True),    # on/off toggle-with-arg (0/1)
    "setpoint": (0x0201, 0x00, True),  # setpoint raise/lower absolute
    "dim": (0x0008, 0x04, True),       # move to level
}
_COMMANDS_BY_ID = {
    (cluster, cmd): (name, has_arg)
    for name, (cluster, cmd, has_arg) in _COMMANDS.items()
}


def _pack_address(address: str) -> bytes:
    parts = address.split(":")
    if len(parts) != 8:
        raise FrameEncodeError(f"bad ZigBee IEEE address {address!r}")
    try:
        return bytes(int(part, 16) for part in parts)
    except ValueError:
        raise FrameEncodeError(
            f"bad ZigBee IEEE address {address!r}"
        ) from None


def _unpack_address(blob: bytes) -> str:
    return ":".join(f"{byte:02x}" for byte in blob)


@register_protocol
class ZigbeeAdapter(ProtocolAdapter):
    """Codec for ZCL attribute reports and cluster commands."""

    name = "zigbee"

    def uplink_quantities(self) -> Tuple[str, ...]:
        return tuple(sorted(_UPLINK))

    # -- uplink -----------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        if not readings:
            raise FrameEncodeError("ZCL report needs at least one attribute")
        addr = _pack_address(device_address)
        out = bytearray()
        out.append(_MAGIC)
        out.append(_REPORT_ATTRIBUTES)
        out += addr
        out += struct.pack("<I", int(timestamp) & 0xFFFFFFFF)
        out.append(len(readings))
        for quantity, value in readings:
            if quantity not in _UPLINK:
                raise FrameEncodeError(
                    f"ZigBee cannot carry quantity {quantity!r}"
                )
            cluster, attr, dtype, scale = _UPLINK[quantity]
            fmt, _width, lo, hi = _ZCL_TYPES[dtype]
            native = int(round(min(max(value / scale, lo), hi)))
            out += struct.pack("<HHB", cluster, attr, dtype)
            out += struct.pack(fmt, native)
        out.append(sum(out) & 0xFF)  # trailing additive checksum
        return bytes(out)

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        require(len(frame) >= 16, "ZCL frame too short")
        require(frame[0] == _MAGIC, "not a ZigBee frame (bad delimiter)")
        require(sum(frame[:-1]) & 0xFF == frame[-1], "ZCL checksum mismatch")
        require(frame[1] == _REPORT_ATTRIBUTES, "not a ZCL attribute report")
        address = _unpack_address(frame[2:10])
        timestamp = float(struct.unpack("<I", frame[10:14])[0])
        count = frame[14]
        readings: List[RawReading] = []
        offset = 15
        for _ in range(count):
            require(offset + 5 <= len(frame) - 1, "truncated ZCL record")
            cluster, attr, dtype = struct.unpack(
                "<HHB", frame[offset:offset + 5]
            )
            offset += 5
            require(dtype in _ZCL_TYPES, f"unknown ZCL data type {dtype:#x}")
            fmt, width, _lo, _hi = _ZCL_TYPES[dtype]
            require(offset + width <= len(frame) - 1, "truncated ZCL value")
            raw = struct.unpack(fmt, frame[offset:offset + width])[0]
            offset += width
            key = (cluster, attr)
            require(key in _BY_CLUSTER_ATTR,
                    f"unknown cluster/attribute {cluster:#x}/{attr:#x}")
            quantity, expected_type, scale = _BY_CLUSTER_ATTR[key]
            require(dtype == expected_type,
                    f"wrong ZCL type for {quantity}: {dtype:#x}")
            readings.append(
                RawReading(address, quantity, raw * scale, timestamp)
            )
        require(offset == len(frame) - 1, "trailing bytes in ZCL frame")
        return readings

    # -- downlink ---------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        if command not in _COMMANDS:
            raise FrameEncodeError(f"ZigBee has no command {command!r}")
        cluster, cmd_id, has_arg = _COMMANDS[command]
        out = bytearray()
        out.append(_MAGIC)
        out.append(_CLUSTER_COMMAND)
        out += _pack_address(device_address)
        out += struct.pack("<HB", cluster, cmd_id)
        if has_arg:
            out += struct.pack("<h", int16_arg(value, 100.0))
        out.append(sum(out) & 0xFF)
        return bytes(out)

    def decode_command(self, frame: bytes) -> RawCommand:
        require(len(frame) >= 14, "ZigBee command frame too short")
        require(frame[0] == _MAGIC, "not a ZigBee frame (bad delimiter)")
        require(sum(frame[:-1]) & 0xFF == frame[-1],
                "ZigBee command checksum mismatch")
        require(frame[1] == _CLUSTER_COMMAND, "not a ZigBee cluster command")
        address = _unpack_address(frame[2:10])
        cluster, cmd_id = struct.unpack("<HB", frame[10:13])
        key = (cluster, cmd_id)
        require(key in _COMMANDS_BY_ID,
                f"unknown ZigBee command {cluster:#x}/{cmd_id:#x}")
        name, has_arg = _COMMANDS_BY_ID[key]
        value: Optional[float] = None
        if has_arg:
            require(len(frame) >= 16, "missing ZigBee command argument")
            value = struct.unpack("<h", frame[13:15])[0] / 100.0
        return RawCommand(address, name, value)
