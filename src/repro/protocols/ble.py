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
from typing import List, Optional, Sequence, Tuple

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

_MAGIC = 0xB1  # link frame delimiter
_OP_NOTIFY = 0x1B
_OP_WRITE = 0x12

#: quantity -> ((ATT opcode, attribute handle), value field)
_CHARACTERISTICS = RecordCodec("BLE", "<BH", {
    "temperature": ((_OP_NOTIFY, 0x0010), Field("h", 0.01)),    # 0x2A6E
    "humidity": ((_OP_NOTIFY, 0x0012), Field("H", 0.01)),       # 0x2A6F
    "illuminance": ((_OP_NOTIFY, 0x0014), Field("u24", 0.01)),  # 0x2AFB
    "power": ((_OP_NOTIFY, 0x0020), Field("I", 0.001)),  # vendor: mW
    "energy": ((_OP_NOTIFY, 0x0022), Field("I")),        # vendor: Wh
    "state": ((_OP_NOTIFY, 0x0024), Field("B")),         # vendor: on/off
    "occupancy": ((_OP_NOTIFY, 0x0026), Field("B")),     # vendor: presence
    "setpoint": ((_OP_NOTIFY, 0x0028), Field("h", 0.01)),  # vendor: 0.01 C
})

#: command -> (ATT opcode, control-point handle); the argument is in
#: 0.01 units
_CONTROL_POINTS = CommandCodec("BLE", "<BH", {
    "switch": (_OP_WRITE, 0x0030),
    "setpoint": (_OP_WRITE, 0x0032),
    "dim": (_OP_WRITE, 0x0034),
}, scale=100.0)


@register_protocol
class BleAdapter(ProtocolAdapter):
    """Codec for BLE GATT notifications and control-point writes."""

    name = "ble"

    def uplink_quantities(self) -> Tuple[str, ...]:
        return _CHARACTERISTICS.quantities

    # -- uplink ------------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        out = bytearray((_MAGIC,))
        out += octet_address(device_address, 6, "BLE")
        out += struct.pack("<I", int(timestamp) & 0xFFFFFFFF)
        out.append(len(readings))
        out += _CHARACTERISTICS.encode(readings)
        return bytes(out)

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        require(len(frame) >= 13, "BLE frame too short")
        require(frame[0] == _MAGIC, "not a BLE link frame")
        return _CHARACTERISTICS.decode(
            frame, 12, len(frame), frame[1:7].hex(":"),
            float(struct.unpack_from("<I", frame, 7)[0]), count=frame[11])

    # -- downlink ----------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        payload = _CONTROL_POINTS.encode(command, value)
        address = octet_address(device_address, 6, "BLE")
        return bytes((_MAGIC,)) + address + payload

    def decode_command(self, frame: bytes) -> RawCommand:
        require(len(frame) == 12, "bad BLE write-request length")
        require(frame[0] == _MAGIC, "not a BLE link frame")
        command, value = _CONTROL_POINTS.decode(frame, 7)
        return RawCommand(frame[1:7].hex(":"), command, value)
