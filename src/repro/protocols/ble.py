"""Bluetooth Low Energy protocol adapter.

Section III names "reliable and energy-efficient radio transceivers,
e.g., Bluetooth Low Energy or sub-GHz" among the building blocks of
smart sensing devices.  This adapter models the GATT layer:

* uplink: ATT *Handle Value Notification* PDUs (opcode 0x1B) carrying
  standard Environmental Sensing characteristics — Temperature 0x2A6E
  (sint16, 0.01 degC), Humidity 0x2A6F (uint16, 0.01 %RH), Illuminance
  0x2AFB (uint24, 0.01 lx) — plus a vendor power/energy service
  (uint32 mW / uint32 Wh);
* downlink: ATT *Write Request* PDUs (opcode 0x12) to the control-point
  characteristics.

Several notifications are packed into one link-layer frame prefixed by
the device's 48-bit public address, as a connection event would deliver
them.  Multi-byte fields are little-endian, per the Bluetooth spec.
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

_MAGIC = 0xB1  # link frame delimiter
_OP_NOTIFY = 0x1B
_OP_WRITE = 0x12

#: quantity -> (attribute handle, struct format or None for uint24,
#:              scale to canonical)
_CHARACTERISTICS: Dict[str, Tuple[int, Optional[str], float]] = {
    "temperature": (0x0010, "<h", 0.01),    # GATT 0x2A6E
    "humidity": (0x0012, "<H", 0.01),       # GATT 0x2A6F
    "illuminance": (0x0014, None, 0.01),    # GATT 0x2AFB, uint24
    "power": (0x0020, "<I", 0.001),         # vendor: milliwatts
    "energy": (0x0022, "<I", 1.0),          # vendor: watt-hours
    "state": (0x0024, "<B", 1.0),           # vendor: on/off
    "occupancy": (0x0026, "<B", 1.0),       # vendor: presence count
    "setpoint": (0x0028, "<h", 0.01),       # vendor: 0.01 degC
}
_BY_HANDLE = {
    handle: (quantity, fmt, scale)
    for quantity, (handle, fmt, scale) in _CHARACTERISTICS.items()
}

#: command -> control-point handle
_CONTROL_POINTS = {
    "switch": 0x0030,
    "setpoint": 0x0032,
    "dim": 0x0034,
}
_COMMANDS_BY_HANDLE = {handle: cmd
                       for cmd, handle in _CONTROL_POINTS.items()}


def _parse_address(address: str) -> bytes:
    parts = address.split(":")
    if len(parts) != 6:
        raise FrameEncodeError(f"bad BLE address {address!r}")
    try:
        return bytes(int(part, 16) for part in parts)
    except ValueError:
        raise FrameEncodeError(f"bad BLE address {address!r}") from None


def _format_address(blob: bytes) -> str:
    return ":".join(f"{b:02x}" for b in blob)


def _field_width(fmt: Optional[str]) -> int:
    return 3 if fmt is None else struct.calcsize(fmt)


def _pack_value(fmt: Optional[str], native: int) -> bytes:
    lo, hi = {
        None: (0, 0xFFFFFF),
        "<h": (-32768, 32767),
        "<H": (0, 65535),
        "<I": (0, 4294967295),
        "<B": (0, 255),
    }[fmt]
    native = min(max(native, lo), hi)   # a reading saturates
    if fmt is None:  # uint24 little-endian
        return struct.pack("<I", native)[:3]
    return struct.pack(fmt, native)


def _unpack_value(fmt: Optional[str], blob: bytes) -> int:
    if fmt is None:
        return struct.unpack("<I", blob + b"\x00")[0]
    return struct.unpack(fmt, blob)[0]


@register_protocol
class BleAdapter(ProtocolAdapter):
    """Codec for BLE GATT notifications and control-point writes."""

    name = "ble"

    def uplink_quantities(self) -> Tuple[str, ...]:
        return tuple(sorted(_CHARACTERISTICS))

    # -- uplink ------------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        if not readings:
            raise FrameEncodeError("BLE frame needs a notification")
        out = bytearray()
        out.append(_MAGIC)
        out += _parse_address(device_address)
        out += struct.pack("<I", int(timestamp) & 0xFFFFFFFF)
        out.append(len(readings))
        for quantity, value in readings:
            if quantity not in _CHARACTERISTICS:
                raise FrameEncodeError(
                    f"no BLE characteristic for {quantity!r}"
                )
            handle, fmt, scale = _CHARACTERISTICS[quantity]
            native = int(round(value / scale))
            out.append(_OP_NOTIFY)
            out += struct.pack("<H", handle)
            out += _pack_value(fmt, native)
        return bytes(out)

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        require(len(frame) >= 13, "BLE frame too short")
        require(frame[0] == _MAGIC, "not a BLE link frame")
        address = _format_address(frame[1:7])
        timestamp = float(struct.unpack("<I", frame[7:11])[0])
        count = frame[11]
        offset = 12
        readings: List[RawReading] = []
        for _ in range(count):
            require(offset + 3 <= len(frame), "truncated BLE PDU")
            require(frame[offset] == _OP_NOTIFY,
                    f"unexpected ATT opcode {frame[offset]:#x}")
            handle = struct.unpack("<H", frame[offset + 1:offset + 3])[0]
            require(handle in _BY_HANDLE,
                    f"unknown GATT handle {handle:#06x}")
            quantity, fmt, scale = _BY_HANDLE[handle]
            width = _field_width(fmt)
            require(offset + 3 + width <= len(frame),
                    "truncated BLE characteristic value")
            native = _unpack_value(
                fmt, frame[offset + 3:offset + 3 + width]
            )
            readings.append(RawReading(address, quantity, native * scale,
                                       timestamp))
            offset += 3 + width
        require(offset == len(frame), "trailing bytes in BLE frame")
        return readings

    # -- downlink ----------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        if command not in _CONTROL_POINTS:
            raise FrameEncodeError(f"BLE has no command {command!r}")
        out = bytearray()
        out.append(_MAGIC)
        out += _parse_address(device_address)
        out.append(_OP_WRITE)
        out += struct.pack("<H", _CONTROL_POINTS[command])
        out += struct.pack("<h", int16_arg(value, 100.0))
        return bytes(out)

    def decode_command(self, frame: bytes) -> RawCommand:
        require(len(frame) == 12, "bad BLE write-request length")
        require(frame[0] == _MAGIC, "not a BLE link frame")
        require(frame[7] == _OP_WRITE, "not an ATT write request")
        handle = struct.unpack("<H", frame[8:10])[0]
        require(handle in _COMMANDS_BY_HANDLE,
                f"unknown control point {handle:#06x}")
        scaled = struct.unpack("<h", frame[10:12])[0]
        return RawCommand(
            _format_address(frame[1:7]),
            _COMMANDS_BY_HANDLE[handle],
            scaled / 100.0,
        )
