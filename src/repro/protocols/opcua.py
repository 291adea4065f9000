"""OPC Unified Architecture adapter.

The paper: "another proxy allows the interoperability with the OPC
Unified Architecture, which provides backward compatibility with wired
standards to the whole infrastructure."  This module models that wired
world: an :class:`AddressSpace` of nodes (``ns=2;s=PLC1.Meter.Power``)
holding ``DataValue`` s, and a binary codec for publish notifications
and write requests in the style of OPC UA binary encoding (little-
endian, length-prefixed strings, variant type bytes, status codes,
float64 source timestamps).

Structurally nothing here resembles the radio protocols — readings are
addressed by hierarchical node path instead of radio address, values are
IEEE-754 doubles instead of scaled integers, and quality arrives as a
status code — which is precisely the heterogeneity the Device-proxy's
dedicated layer must absorb.
"""

from __future__ import annotations

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

_MAGIC = b"OPCU"
_MSG_NOTIFICATION = 0x01
_MSG_WRITE = 0x02

_VARIANT_DOUBLE = 0x0B  # OPC UA built-in type id for Double

STATUS_GOOD = 0x00000000
STATUS_BAD = 0x80000000

#: node-path suffix <-> quantity
_NODE_FOR_QUANTITY = {
    "power": "Power",
    "energy": "Energy",
    "temperature": "Temperature",
    "humidity": "Humidity",
    "flow_rate": "FlowRate",
    "pressure": "Pressure",
    "voltage": "Voltage",
    "current": "Current",
    "state": "State",
    "setpoint": "SetPoint",
}
_QUANTITY_FOR_NODE = {node: q for q, node in _NODE_FOR_QUANTITY.items()}

#: command -> writable node suffix
_COMMAND_NODES = {
    "switch": "Commands.Switch",
    "setpoint": "Commands.SetPoint",
    "dim": "Commands.Dim",
}
_COMMANDS_FOR_NODE = {node: cmd for cmd, node in _COMMAND_NODES.items()}


def node_id(path: str) -> str:
    """Format a string NodeId in namespace 2 for *path*."""
    return f"ns=2;s={path}"


def parse_node_id(text: str) -> str:
    """Extract the string path from a ``ns=2;s=...`` NodeId."""
    if not text.startswith("ns=2;s="):
        raise FrameDecodeError(f"unsupported NodeId {text!r}")
    return text[len("ns=2;s="):]


class DataValue:
    """An OPC UA attribute value with quality and source timestamp."""

    def __init__(self, value: float, status: int = STATUS_GOOD,
                 source_timestamp: float = 0.0):
        self.value = float(value)
        self.status = status
        self.source_timestamp = float(source_timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DataValue({self.value}, status={self.status:#010x}, "
                f"ts={self.source_timestamp})")


class AddressSpace:
    """A minimal OPC UA server address space: path -> DataValue."""

    def __init__(self) -> None:
        self._nodes: Dict[str, DataValue] = {}
        self._writable: Dict[str, bool] = {}

    def add_node(self, path: str, value: float = 0.0,
                 writable: bool = False) -> None:
        """Declare a node; duplicates are an error."""
        if path in self._nodes:
            raise FrameEncodeError(f"node {path!r} already exists")
        self._nodes[path] = DataValue(value)
        self._writable[path] = writable

    def read(self, path: str) -> DataValue:
        """Read a node's DataValue; unknown nodes raise."""
        try:
            return self._nodes[path]
        except KeyError:
            raise FrameDecodeError(f"no such node {path!r}") from None

    def update(self, path: str, value: float, timestamp: float,
               status: int = STATUS_GOOD) -> None:
        """Server-side update (the wired device feeding the server)."""
        node = self.read(path)
        node.value = float(value)
        node.status = status
        node.source_timestamp = float(timestamp)

    def write(self, path: str, value: float) -> bool:
        """Client write; returns False for unknown/read-only nodes."""
        if not self._writable.get(path, False):
            return False
        self._nodes[path].value = float(value)
        return True


def _pack_string(text: str) -> bytes:
    blob = text.encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def _unpack_string(frame: bytes, offset: int) -> Tuple[str, int]:
    require(offset + 4 <= len(frame), "truncated OPC UA string length")
    length = struct.unpack_from("<I", frame, offset)[0]
    offset += 4
    require(offset + length <= len(frame), "truncated OPC UA string")
    try:
        text = frame[offset:offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameDecodeError(f"corrupt OPC UA string: {exc}") from exc
    return text, offset + length


@register_protocol
class OpcUaAdapter(ProtocolAdapter):
    """Codec for OPC UA publish notifications and write requests."""

    name = "opcua"

    def uplink_quantities(self) -> Tuple[str, ...]:
        return tuple(sorted(_NODE_FOR_QUANTITY))

    # -- uplink ------------------------------------------------------------

    def encode_readings(
        self,
        device_address: str,
        readings: Sequence[Tuple[str, float]],
        timestamp: float,
    ) -> bytes:
        if not readings:
            raise FrameEncodeError("OPC UA notification needs an item")
        out = bytearray()
        out += _MAGIC
        out.append(_MSG_NOTIFICATION)
        out += struct.pack("<H", len(readings))
        for quantity, value in readings:
            if quantity not in _NODE_FOR_QUANTITY:
                raise FrameEncodeError(
                    f"OPC UA mapping has no node for {quantity!r}"
                )
            path = f"{device_address}.{_NODE_FOR_QUANTITY[quantity]}"
            out += _pack_string(node_id(path))
            out.append(_VARIANT_DOUBLE)
            out += struct.pack("<d", float(value))
            out += struct.pack("<I", STATUS_GOOD)
            out += struct.pack("<d", float(timestamp))
        return bytes(out)

    def decode_frame(self, frame: bytes, received_at: float = 0.0
                     ) -> List[RawReading]:
        require(frame[:4] == _MAGIC, "not an OPC UA message")
        require(len(frame) >= 7, "OPC UA message too short")
        require(frame[4] == _MSG_NOTIFICATION,
                "not an OPC UA publish notification")
        count = struct.unpack_from("<H", frame, 5)[0]
        offset = 7
        readings: List[RawReading] = []
        for _ in range(count):
            nid, offset = _unpack_string(frame, offset)
            require(offset + 1 + 8 + 4 + 8 <= len(frame),
                    "truncated OPC UA monitored item")
            variant = frame[offset]
            require(variant == _VARIANT_DOUBLE,
                    f"unsupported OPC UA variant {variant:#x}")
            offset += 1
            value = struct.unpack_from("<d", frame, offset)[0]
            offset += 8
            status = struct.unpack_from("<I", frame, offset)[0]
            offset += 4
            source_ts = struct.unpack_from("<d", frame, offset)[0]
            offset += 8
            path = parse_node_id(nid)
            device_address, _, node = path.rpartition(".")
            require(bool(device_address), f"NodeId {nid!r} has no device path")
            require(node in _QUANTITY_FOR_NODE,
                    f"unknown OPC UA node {node!r}")
            if status >= STATUS_BAD:
                continue  # bad-quality values never enter the system
            readings.append(
                RawReading(
                    device_address,
                    _QUANTITY_FOR_NODE[node],
                    value,
                    source_ts,
                )
            )
        require(offset == len(frame), "trailing bytes in OPC UA message")
        return readings

    # -- downlink ----------------------------------------------------------

    def encode_command(
        self, device_address: str, command: str, value: Optional[float]
    ) -> bytes:
        if command not in _COMMAND_NODES:
            raise FrameEncodeError(f"OPC UA has no command {command!r}")
        path = f"{device_address}.{_COMMAND_NODES[command]}"
        out = bytearray()
        out += _MAGIC
        out.append(_MSG_WRITE)
        out += _pack_string(node_id(path))
        out.append(_VARIANT_DOUBLE)
        out += struct.pack("<d", 0.0 if value is None else float(value))
        return bytes(out)

    def decode_command(self, frame: bytes) -> RawCommand:
        require(frame[:4] == _MAGIC, "not an OPC UA message")
        require(len(frame) >= 6, "OPC UA message too short")
        require(frame[4] == _MSG_WRITE, "not an OPC UA write request")
        nid, offset = _unpack_string(frame, 5)
        require(offset + 1 + 8 <= len(frame), "truncated OPC UA write value")
        require(frame[offset] == _VARIANT_DOUBLE,
                "unsupported OPC UA variant in write")
        value = struct.unpack_from("<d", frame, offset + 1)[0]
        path = parse_node_id(nid)
        for node_suffix, command in _COMMANDS_FOR_NODE.items():
            suffix = "." + node_suffix
            if path.endswith(suffix):
                return RawCommand(path[:-len(suffix)], command, value)
        raise FrameDecodeError(f"write to non-command node {path!r}")
