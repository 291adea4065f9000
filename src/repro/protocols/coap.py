"""CoAP / 6LoWPAN protocol adapter.

Section III of the paper points at the emerging IoT stack — "based,
e.g., on the 6LoWPAN, RPL and CoAP protocols" — as the direction for
smart sensing devices.  This adapter models that stack's application
layer: RFC 7252 CoAP messages carrying SenML-JSON payloads.

* uplink: Observe notifications (2.05 Content) from resource
  ``/sensors`` with a SenML record per quantity (name/value/unit/time);
* downlink: confirmable PUT to ``/actuators/<command>`` with a SenML
  value.

The binary layout follows RFC 7252: version/type/token-length byte,
code, message id, token, delta-encoded options, 0xFF payload marker.
Devices are addressed by 6LoWPAN-style IPv6 suffixes (``fd00::1a2b``).
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FrameDecodeError, FrameEncodeError
from repro.protocols.base import (
    ProtocolAdapter,
    RawCommand,
    RawReading,
    register_protocol,
    require,
)

_VERSION = 1
_TYPE_NON = 1        # non-confirmable: sensor notifications
_TYPE_CON = 0        # confirmable: actuation requests
_CODE_CONTENT = 0x45  # 2.05 Content
_CODE_PUT = 0x03      # 0.03 PUT

_OPT_URI_PATH = 11
_OPT_CONTENT_FORMAT = 12
_OPT_OBSERVE = 6
_CF_SENML_JSON = 110  # application/senml+json

#: SenML unit symbol <-> canonical quantity
_SENML_UNITS: Dict[str, str] = {
    "power": "W",
    "energy": "Wh",
    "temperature": "Cel",
    "humidity": "%RH",
    "illuminance": "lx",
    "co2": "ppm",
    "occupancy": "count",
    "state": "/",          # SenML boolean-ish
    "setpoint": "Cel",
}
_QUANTITY_FOR_UNIT = {
    ("Cel", "temperature"): "temperature",
}

_COMMAND_PATHS = {
    "switch": "actuators/switch",
    "setpoint": "actuators/setpoint",
    "dim": "actuators/dim",
}
_COMMANDS_FOR_PATH = {path: cmd for cmd, path in _COMMAND_PATHS.items()}


def _parse_address(address: str) -> bytes:
    if not address.startswith("fd00::"):
        raise FrameEncodeError(f"bad 6LoWPAN address {address!r}")
    try:
        suffix = int(address[6:], 16)
    except ValueError:
        raise FrameEncodeError(f"bad 6LoWPAN address {address!r}") from None
    if not 0 <= suffix <= 0xFFFFFFFF:
        raise FrameEncodeError(f"6LoWPAN suffix out of range {address!r}")
    return struct.pack(">I", suffix)


def _format_address(token: bytes) -> str:
    return f"fd00::{struct.unpack('>I', token)[0]:x}"


def _encode_option(out: bytearray, last_number: int, number: int,
                   value: bytes) -> int:
    delta = number - last_number
    if delta > 12 or len(value) > 12:
        raise FrameEncodeError("extended CoAP options not supported")
    out.append((delta << 4) | len(value))
    out += value
    return number


class _MessageReader:
    def __init__(self, frame: bytes):
        require(len(frame) >= 4, "CoAP message too short")
        first = frame[0]
        require(first >> 6 == _VERSION, "unsupported CoAP version")
        self.msg_type = (first >> 4) & 0x03
        token_length = first & 0x0F
        self.code = frame[1]
        self.message_id = struct.unpack(">H", frame[2:4])[0]
        require(len(frame) >= 4 + token_length, "truncated CoAP token")
        self.token = frame[4:4 + token_length]
        self.options: Dict[int, List[bytes]] = {}
        offset = 4 + token_length
        number = 0
        while offset < len(frame):
            if frame[offset] == 0xFF:
                offset += 1
                break
            byte = frame[offset]
            delta, length = byte >> 4, byte & 0x0F
            require(delta <= 12 and length <= 12,
                    "extended CoAP options not supported")
            offset += 1
            require(offset + length <= len(frame),
                    "truncated CoAP option")
            number += delta
            self.options.setdefault(number, []).append(
                frame[offset:offset + length]
            )
            offset += length
        self.payload = frame[offset:]

    @property
    def uri_path(self) -> str:
        segments = self.options.get(_OPT_URI_PATH, [])
        try:
            return "/".join(segment.decode("utf-8") for segment in segments)
        except UnicodeDecodeError as exc:
            raise FrameDecodeError(f"bad CoAP Uri-Path: {exc}") from exc


@register_protocol
class CoapAdapter(ProtocolAdapter):
    """Codec for CoAP Observe notifications with SenML-JSON payloads."""

    name = "coap"

    def __init__(self) -> None:
        self._message_id = 0

    def _next_id(self) -> int:
        self._message_id = (self._message_id + 1) & 0xFFFF
        return self._message_id

    def uplink_quantities(self) -> Tuple[str, ...]:
        return tuple(sorted(_SENML_UNITS))

    # -- uplink -------------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        if not readings:
            raise FrameEncodeError("SenML pack needs at least one record")
        token = _parse_address(device_address)
        records = []
        for quantity, value in readings:
            if quantity not in _SENML_UNITS:
                raise FrameEncodeError(
                    f"no SenML mapping for quantity {quantity!r}"
                )
            records.append({
                "n": quantity,
                "u": _SENML_UNITS[quantity],
                "v": float(value),
                "t": float(timestamp),
            })
        payload = json.dumps(records).encode("utf-8")
        out = bytearray()
        out.append((_VERSION << 6) | (_TYPE_NON << 4) | len(token))
        out.append(_CODE_CONTENT)
        out += struct.pack(">H", self._next_id())
        out += token
        last = _encode_option(out, 0, _OPT_OBSERVE, b"\x01")
        last = _encode_option(out, last, _OPT_URI_PATH, b"sensors")
        _encode_option(out, last, _OPT_CONTENT_FORMAT,
                       bytes([_CF_SENML_JSON]))
        out.append(0xFF)
        out += payload
        return bytes(out)

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        reader = _MessageReader(frame)
        require(reader.code == _CODE_CONTENT,
                f"not a CoAP 2.05 notification (code {reader.code:#x})")
        require(reader.uri_path == "sensors",
                f"unexpected CoAP resource {reader.uri_path!r}")
        content_format = reader.options.get(_OPT_CONTENT_FORMAT, [b""])[0]
        require(content_format == bytes([_CF_SENML_JSON]),
                "unexpected CoAP content format")
        require(len(reader.token) == 4, "bad CoAP token length")
        address = _format_address(reader.token)
        try:
            records = json.loads(reader.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameDecodeError(f"bad SenML payload: {exc}") from exc
        require(isinstance(records, list), "SenML pack must be a list")
        readings = []
        for record in records:
            try:
                quantity = record["n"]
                value = float(record["v"])
                timestamp = float(record.get("t", received_at))
            except (TypeError, KeyError, ValueError) as exc:
                raise FrameDecodeError(
                    f"bad SenML record {record!r}"
                ) from exc
            require(quantity in _SENML_UNITS,
                    f"unknown SenML quantity {quantity!r}")
            readings.append(RawReading(address, quantity, value, timestamp))
        return readings

    # -- downlink -----------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        if command not in _COMMAND_PATHS:
            raise FrameEncodeError(f"CoAP has no command {command!r}")
        token = _parse_address(device_address)
        payload = json.dumps(
            [{"n": command, "v": 0.0 if value is None else float(value)}]
        ).encode("utf-8")
        out = bytearray()
        out.append((_VERSION << 6) | (_TYPE_CON << 4) | len(token))
        out.append(_CODE_PUT)
        out += struct.pack(">H", self._next_id())
        out += token
        last = 0
        for segment in _COMMAND_PATHS[command].split("/"):
            last = _encode_option(out, last, _OPT_URI_PATH,
                                  segment.encode("utf-8"))
            # subsequent Uri-Path options repeat the same number
        _encode_option(out, last, _OPT_CONTENT_FORMAT,
                       bytes([_CF_SENML_JSON]))
        out.append(0xFF)
        out += payload
        return bytes(out)

    def decode_command(self, frame: bytes) -> RawCommand:
        reader = _MessageReader(frame)
        require(reader.code == _CODE_PUT, "not a CoAP PUT request")
        path = reader.uri_path
        require(path in _COMMANDS_FOR_PATH,
                f"unknown CoAP actuator resource {path!r}")
        require(len(reader.token) == 4, "bad CoAP token length")
        try:
            records = json.loads(reader.payload.decode("utf-8"))
            value = float(records[0]["v"])
        except (ValueError, TypeError, LookupError, OverflowError) as exc:
            # bad UTF-8, JSON or number; no record or no "v"; overflow
            raise FrameDecodeError(
                f"bad CoAP actuation payload: {exc}"
            ) from exc
        return RawCommand(
            _format_address(reader.token),
            _COMMANDS_FOR_PATH[path],
            value,
        )
