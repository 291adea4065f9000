"""EnOcean protocol adapter.

Models energy-harvesting EnOcean radio: ERP1-style telegrams with RORG
byte, 4BS data payload, 32-bit sender id, status byte and a CRC-8
trailer.  Sensor semantics follow EnOcean Equipment Profiles (EEP):

* ``A5-02-05`` — temperature 0..40 degC, inverted 8-bit range;
* ``A5-04-01`` — temperature + humidity, 0..250 scaled bytes;
* ``A5-12-01`` — automated meter reading (power W / energy Wh with a
  divisor field);
* ``A5-06-01`` — illuminance;
* ``A5-07-01`` — PIR occupancy.

Like the real radio, data telegrams do not identify their profile: the
receiver must first observe a *teach-in* telegram binding the sender id
to an EEP.  The proxy-side adapter keeps that teach-in table; decoding a
data telegram from an un-taught sender raises
:class:`~repro.errors.FrameDecodeError`, exactly the failure mode a real
gateway shows.  Telegrams carry no timestamp — readings are stamped with
the gateway arrival time (``received_at``).
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FrameDecodeError, FrameEncodeError
from repro.protocols.base import (
    CommandCodec,
    ProtocolAdapter,
    RawCommand,
    RawReading,
    crc8,
    register_protocol,
    require,
)

RORG_4BS = 0xA5
RORG_RPS = 0xF6
RORG_VLD = 0xD2
_TEACH_IN_BIT = 0x08  # DB0 bit 3: set = data telegram, clear = teach-in

#: EEP name -> numeric (func, type) used inside teach-in telegrams
_EEP_CODES = {
    "A5-02-05": (0x02, 0x05),
    "A5-04-01": (0x04, 0x01),
    "A5-06-01": (0x06, 0x01),
    "A5-07-01": (0x07, 0x01),
    "A5-12-01": (0x12, 0x01),
}
_EEP_BY_CODE = {code: name for name, code in _EEP_CODES.items()}

#: quantity combination (sorted tuple) -> EEP that carries it
_EEP_FOR_QUANTITIES = {
    ("temperature",): "A5-02-05",
    ("humidity",): "A5-04-01",
    ("humidity", "temperature"): "A5-04-01",
    ("illuminance",): "A5-06-01",
    ("occupancy",): "A5-07-01",
    ("power",): "A5-12-01",
    ("energy",): "A5-12-01",
    # a meter senses both; one telegram carries one reading (DT bit),
    # so encoding the pair raises and the firmware fragments
    ("energy", "power"): "A5-12-01",
}

_EEP_QUANTITIES = {
    "A5-02-05": ("temperature",),
    "A5-04-01": ("temperature", "humidity"),
    "A5-06-01": ("illuminance",),
    "A5-07-01": ("occupancy",),
    "A5-12-01": ("power", "energy"),
}

#: downlink command -> VLD command code; the argument is in 0.01 units
_COMMANDS = CommandCodec("EnOcean", ">B", {
    "switch": (0x01,), "setpoint": (0x02,), "dim": (0x03,),
}, scale=100.0)


def _parse_sender(address: str) -> int:
    try:
        value = int(address, 16)
    except ValueError:
        raise FrameEncodeError(f"bad EnOcean sender id {address!r}") from None
    if not 0 <= value <= 0xFFFFFFFF:
        raise FrameEncodeError(f"EnOcean sender id out of range {address!r}")
    return value


def _clamp_byte(value: float) -> int:
    require_encode(not math.isnan(value),
                   "a NaN reading has no EnOcean byte")
    return int(round(min(max(value, 0.0), 255.0)))


@register_protocol
class EnOceanAdapter(ProtocolAdapter):
    """Codec for EnOcean 4BS telegrams with a per-gateway teach-in table."""

    name = "enocean"

    def __init__(self) -> None:
        self._taught: Dict[str, str] = {}  # sender id -> EEP name

    def uplink_quantities(self) -> Tuple[str, ...]:
        quantities = set()
        for combo in _EEP_FOR_QUANTITIES:
            quantities.update(combo)
        return tuple(sorted(quantities))

    @property
    def taught_devices(self) -> Dict[str, str]:
        """Read-only view of the teach-in table (sender id -> EEP)."""
        return dict(self._taught)

    # -- teach-in ----------------------------------------------------------

    def encode_teach_in(self, device_address: str, eep: str) -> bytes:
        """Device side: build the teach-in telegram announcing *eep*."""
        if eep not in _EEP_CODES:
            raise FrameEncodeError(f"unknown EEP {eep!r}")
        func, type_ = _EEP_CODES[eep]
        # 4BS teach-in: DB3..DB1 carry func/type, DB0 teach-in bit clear
        data = bytes([func, type_, 0x00, 0x00])
        return self._build_telegram(RORG_4BS, data, device_address)

    def eep_for_quantities(self, quantities: Sequence[str]) -> str:
        """Pick the EEP able to carry *quantities*; raises if none can."""
        key = tuple(sorted(quantities))
        try:
            return _EEP_FOR_QUANTITIES[key]
        except KeyError:
            raise FrameEncodeError(
                f"no EnOcean profile carries quantities {key!r}"
            ) from None

    # -- uplink ------------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        if not readings:
            raise FrameEncodeError("EnOcean telegram needs a reading")
        values = dict(readings)
        eep = self.eep_for_quantities(list(values))
        if eep == "A5-02-05":
            temp = values["temperature"]
            db1 = _clamp_byte(255.0 - temp * 255.0 / 40.0)
            data = bytes([0x00, 0x00, db1, _TEACH_IN_BIT])
        elif eep == "A5-04-01":
            humidity = values.get("humidity", 0.0)
            temp = values.get("temperature", 0.0)
            db2 = _clamp_byte(humidity * 250.0 / 100.0)
            db1 = _clamp_byte(temp * 250.0 / 40.0)
            data = bytes([0x00, db2, db1, _TEACH_IN_BIT])
        elif eep == "A5-06-01":
            lux = values["illuminance"]
            raw = _clamp_byte(lux * 255.0 / 30000.0)
            data = bytes([0x00, raw, 0x00, _TEACH_IN_BIT])
        elif eep == "A5-07-01":
            occupied = values["occupancy"] >= 0.5
            data = bytes([0x00, 0x00, 0xC8 if occupied else 0x00,
                          _TEACH_IN_BIT])
        else:  # A5-12-01 meter reading
            if "power" in values and "energy" in values:
                raise FrameEncodeError(
                    "A5-12-01 carries one reading per telegram"
                )
            if "power" in values:
                reading, data_type = values["power"], 1
            else:
                reading, data_type = values["energy"], 0
            reading = max(reading, 0.0)
            # below 2**24 - 0.5 a reading rounds into 24 bits; NaN and
            # +inf are not below it either
            require_encode(reading < (1 << 24) - 0.5,
                           "meter counter overflow")
            counter = int(round(reading))
            db0 = _TEACH_IN_BIT | (data_type << 2)
            data = bytes([
                (counter >> 16) & 0xFF,
                (counter >> 8) & 0xFF,
                counter & 0xFF,
                db0,
            ])
        return self._build_telegram(RORG_4BS, data, device_address)

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        rorg, data, sender, _status = self._parse_telegram(frame)
        require(rorg == RORG_4BS, f"unexpected RORG {rorg:#x} on uplink")
        require(len(data) == 4, "EnOcean 4BS data field is not 4 bytes")
        db3, db2, db1, db0 = data
        if not db0 & _TEACH_IN_BIT:  # teach-in telegram
            code = (db3, db2)
            require(code in _EEP_BY_CODE,
                    f"teach-in for unknown EEP func/type {code}")
            self._taught[sender] = _EEP_BY_CODE[code]
            return []
        eep = self._taught.get(sender)
        if eep is None:
            raise FrameDecodeError(
                f"data telegram from un-taught sender {sender}"
            )
        readings: List[RawReading] = []
        if eep == "A5-02-05":
            temp = (255.0 - db1) * 40.0 / 255.0
            readings.append(RawReading(sender, "temperature", temp,
                                       received_at))
        elif eep == "A5-04-01":
            readings.append(RawReading(
                sender, "temperature", db1 * 40.0 / 250.0, received_at))
            readings.append(RawReading(
                sender, "humidity", db2 * 100.0 / 250.0, received_at))
        elif eep == "A5-06-01":
            readings.append(RawReading(
                sender, "illuminance", db2 * 30000.0 / 255.0, received_at))
        elif eep == "A5-07-01":
            readings.append(RawReading(
                sender, "occupancy", 1.0 if db1 >= 0x80 else 0.0,
                received_at))
        elif eep == "A5-12-01":
            counter = (db3 << 16) | (db2 << 8) | db1
            quantity = "power" if (db0 >> 2) & 0x01 else "energy"
            readings.append(RawReading(sender, quantity, float(counter),
                                       received_at))
        return readings

    # -- downlink ------------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        data = _COMMANDS.encode(command, value) + b"\x00"
        return self._build_telegram(RORG_VLD, data, device_address)

    def decode_command(self, frame: bytes) -> RawCommand:
        rorg, data, sender, _status = self._parse_telegram(frame)
        require(rorg == RORG_VLD, "not an EnOcean VLD command telegram")
        command, value = _COMMANDS.decode(data)
        return RawCommand(sender, command, value)

    # -- telegram framing ------------------------------------------------------

    @staticmethod
    def _build_telegram(rorg: int, data: bytes, address: str) -> bytes:
        sender = _parse_sender(address)
        body = bytes([rorg]) + data + struct.pack(">I", sender) + b"\x00"
        return body + bytes([crc8(body)])

    @staticmethod
    def _parse_telegram(frame: bytes) -> Tuple[int, bytes, str, int]:
        require(len(frame) >= 7, "EnOcean telegram too short")
        body, checksum = frame[:-1], frame[-1]
        require(crc8(body) == checksum, "EnOcean CRC8 mismatch")
        rorg = body[0]
        data = body[1:-5]
        sender = struct.unpack(">I", body[-5:-1])[0]
        status = body[-1]
        require(len(data) >= 3, "EnOcean data field too short")
        return rorg, data, f"{sender:08x}", status


def require_encode(condition: bool, message: str) -> None:
    """Raise :class:`FrameEncodeError` unless *condition* holds."""
    if not condition:
        raise FrameEncodeError(message)
