"""Device protocols: the heterogeneous field-bus layer.

One module per protocol the paper names — IEEE 802.15.4, ZigBee,
EnOcean and OPC UA from §II, plus the §III "enabling technologies"
CoAP/6LoWPAN and Bluetooth Low Energy — each with its own frame format,
addressing, native units and failure modes, behind the Device-proxy's
dedicated-layer contract :class:`~repro.protocols.base.ProtocolAdapter`.
Where records and commands are tables, base.py's codecs run them.
"""

from repro.protocols.base import (
    ProtocolAdapter,
    RawCommand,
    RawReading,
    available_protocols,
    crc8,
    crc16_ccitt,
    make_adapter,
    register_protocol,
)
from repro.protocols.ble import BleAdapter
from repro.protocols.coap import CoapAdapter
from repro.protocols.enocean import EnOceanAdapter
from repro.protocols.ieee802154 import Ieee802154Adapter
from repro.protocols.opcua import AddressSpace, DataValue, OpcUaAdapter
from repro.protocols.zigbee import ZigbeeAdapter

__all__ = [
    "AddressSpace",
    "BleAdapter",
    "CoapAdapter",
    "DataValue",
    "EnOceanAdapter",
    "Ieee802154Adapter",
    "OpcUaAdapter",
    "ProtocolAdapter",
    "RawCommand",
    "RawReading",
    "ZigbeeAdapter",
    "available_protocols",
    "crc16_ccitt",
    "crc8",
    "make_adapter",
    "register_protocol",
]
