"""The Common Data Format (CDF).

The paper's central interoperability device: every proxy translates its
native source (protocol frames, BIM/SIM/GIS databases) into one shared,
open data format before anything crosses the infrastructure.  This
module defines the typed records of that format:

* :class:`Measurement` — one sensor sample, value in canonical units;
* :class:`DeviceDescription` — what a device is, where it sits, what it
  can sense and actuate;
* :class:`EntityModel` — the translated model of a building, network or
  district exported from a BIM / SIM / GIS source;
* :class:`ActuationCommand` / :class:`ActuationResult` — remote control.

Records are plain frozen dataclasses with ``to_dict``/``from_dict``;
the JSON and XML wire encodings live in
:mod:`repro.common.serialization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SerializationError
from repro.common.units import CANONICAL_UNITS, canonical_unit

#: entity types an EntityModel may describe
ENTITY_TYPES = ("district", "building", "network", "space", "segment")

#: source kinds a model may originate from
SOURCE_KINDS = ("bim", "sim", "gis", "measurement")


def _require(mapping: Mapping[str, Any], key: str, doc: str) -> Any:
    try:
        return mapping[key]
    except KeyError:
        raise SerializationError(f"{doc} record missing field {key!r}") from None


@dataclass(frozen=True)
class Measurement:
    """One sensor sample in canonical units.

    ``value`` is always expressed in ``canonical_unit(quantity)``; the
    proxy's dedicated layer performs the unit conversion when decoding
    the native protocol frame.

    On the bus a lone sample is ``to_event()`` on its measurement topic,
    which names device, entity and quantity (hence the unit);
    :func:`repro.middleware.topics.decode_event` rebuilds the record.
    """

    device_id: str
    entity_id: str
    quantity: str
    value: float
    timestamp: float
    source: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        canonical_unit(self.quantity)  # validates the quantity name

    @property
    def unit(self) -> str:
        """Canonical unit symbol for this measurement's quantity."""
        return CANONICAL_UNITS[self.quantity]

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dict (CDF document body)."""
        return {
            "record": "measurement",
            "device_id": self.device_id,
            "entity_id": self.entity_id,
            "quantity": self.quantity,
            "value": self.value,
            "unit": self.unit,
            "timestamp": self.timestamp,
            "source": self.source,
            "metadata": dict(self.metadata),
        }

    def to_event(self) -> Dict[str, Any]:
        """The pub/sub event body: what the measurement topic does not say."""
        return {"value": self.value, "timestamp": self.timestamp,
                "source": self.source, "metadata": dict(self.metadata)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Measurement":
        """Rebuild a measurement from its dict form."""
        return cls(
            device_id=_require(data, "device_id", "measurement"),
            entity_id=_require(data, "entity_id", "measurement"),
            quantity=_require(data, "quantity", "measurement"),
            value=float(_require(data, "value", "measurement")),
            timestamp=float(_require(data, "timestamp", "measurement")),
            source=data.get("source", ""),
            metadata=dict(data.get("metadata", {})),
        )


@dataclass(frozen=True)
class SensorCapability:
    """One quantity a device can sense, with its native sampling period."""

    quantity: str
    sample_period: float

    def to_dict(self) -> Dict[str, Any]:
        return {"quantity": self.quantity, "sample_period": self.sample_period}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SensorCapability":
        return cls(
            quantity=_require(data, "quantity", "sensor-capability"),
            sample_period=float(_require(data, "sample_period", "sensor-capability")),
        )


@dataclass(frozen=True)
class ActuatorCapability:
    """One command a device accepts (e.g. ``switch``, ``setpoint``)."""

    command: str
    value_range: Optional[Tuple[float, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "value_range": list(self.value_range) if self.value_range else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ActuatorCapability":
        rng = data.get("value_range")
        return cls(
            command=_require(data, "command", "actuator-capability"),
            value_range=tuple(rng) if rng else None,
        )


@dataclass(frozen=True)
class DeviceDescription:
    """Abstract, protocol-independent description of a field device."""

    device_id: str
    protocol: str
    entity_id: str
    sensors: Tuple[SensorCapability, ...] = ()
    actuators: Tuple[ActuatorCapability, ...] = ()
    vendor: str = ""
    location: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def quantities(self) -> Tuple[str, ...]:
        """Quantities this device senses."""
        return tuple(s.quantity for s in self.sensors)

    @property
    def is_actuator(self) -> bool:
        """True if the device accepts at least one command."""
        return bool(self.actuators)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record": "device",
            "device_id": self.device_id,
            "protocol": self.protocol,
            "entity_id": self.entity_id,
            "sensors": [s.to_dict() for s in self.sensors],
            "actuators": [a.to_dict() for a in self.actuators],
            "vendor": self.vendor,
            "location": self.location,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeviceDescription":
        return cls(
            device_id=_require(data, "device_id", "device"),
            protocol=_require(data, "protocol", "device"),
            entity_id=_require(data, "entity_id", "device"),
            sensors=tuple(
                SensorCapability.from_dict(s) for s in data.get("sensors", [])
            ),
            actuators=tuple(
                ActuatorCapability.from_dict(a) for a in data.get("actuators", [])
            ),
            vendor=data.get("vendor", ""),
            location=data.get("location", ""),
            metadata=dict(data.get("metadata", {})),
        )


@dataclass(frozen=True)
class Component:
    """A sub-element of an entity model (space, storey, pipe segment...)."""

    component_id: str
    component_type: str
    name: str = ""
    properties: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component_id": self.component_id,
            "component_type": self.component_type,
            "name": self.name,
            "properties": dict(self.properties),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Component":
        return cls(
            component_id=_require(data, "component_id", "component"),
            component_type=_require(data, "component_type", "component"),
            name=data.get("name", ""),
            properties=dict(data.get("properties", {})),
        )


@dataclass(frozen=True)
class Relation:
    """A typed edge between two components or entities (``feeds``, ...)."""

    relation: str
    subject: str
    object: str
    properties: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "subject": self.subject,
            "object": self.object,
            "properties": dict(self.properties),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Relation":
        return cls(
            relation=_require(data, "relation", "relation"),
            subject=_require(data, "subject", "relation"),
            object=_require(data, "object", "relation"),
            properties=dict(data.get("properties", {})),
        )


@dataclass(frozen=True)
class EntityModel:
    """Common-format model of a district entity, translated from a source.

    ``source_kind`` records which native family produced it (bim / sim /
    gis); clients integrating several models for the same entity use it
    to attribute properties and detect conflicts.
    """

    entity_id: str
    entity_type: str
    source_kind: str
    name: str = ""
    properties: Dict[str, Any] = field(default_factory=dict)
    geometry: Optional[Dict[str, Any]] = None
    components: Tuple[Component, ...] = ()
    relations: Tuple[Relation, ...] = ()

    def __post_init__(self) -> None:
        if self.entity_type not in ENTITY_TYPES:
            raise SerializationError(
                f"unknown entity type {self.entity_type!r}"
            )
        if self.source_kind not in SOURCE_KINDS:
            raise SerializationError(
                f"unknown source kind {self.source_kind!r}"
            )

    def component(self, component_id: str) -> Component:
        """Look up a component by id; raises ``KeyError`` if absent."""
        for comp in self.components:
            if comp.component_id == component_id:
                return comp
        raise KeyError(component_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record": "entity_model",
            "entity_id": self.entity_id,
            "entity_type": self.entity_type,
            "source_kind": self.source_kind,
            "name": self.name,
            "properties": dict(self.properties),
            "geometry": dict(self.geometry) if self.geometry else None,
            "components": [c.to_dict() for c in self.components],
            "relations": [r.to_dict() for r in self.relations],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EntityModel":
        geometry = data.get("geometry")
        return cls(
            entity_id=_require(data, "entity_id", "entity_model"),
            entity_type=_require(data, "entity_type", "entity_model"),
            source_kind=_require(data, "source_kind", "entity_model"),
            name=data.get("name", ""),
            properties=dict(data.get("properties", {})),
            geometry=dict(geometry) if geometry else None,
            components=tuple(
                Component.from_dict(c) for c in data.get("components", [])
            ),
            relations=tuple(
                Relation.from_dict(r) for r in data.get("relations", [])
            ),
        )


@dataclass(frozen=True)
class ActuationCommand:
    """A remote-control request for an actuator device."""

    device_id: str
    command: str
    value: Optional[float] = None
    issued_at: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record": "actuation_command",
            "device_id": self.device_id,
            "command": self.command,
            "value": self.value,
            "issued_at": self.issued_at,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ActuationCommand":
        value = data.get("value")
        return cls(
            device_id=_require(data, "device_id", "actuation_command"),
            command=_require(data, "command", "actuation_command"),
            value=None if value is None else float(value),
            issued_at=float(data.get("issued_at", 0.0)),
        )


@dataclass(frozen=True)
class ActuationResult:
    """Outcome of an actuation command, reported back through the proxy
    as ``to_event()`` on the actuation topic, which names the device."""

    device_id: str
    command: str
    accepted: bool
    detail: str = ""
    completed_at: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record": "actuation_result",
            "device_id": self.device_id,
            "command": self.command,
            "accepted": self.accepted,
            "detail": self.detail,
            "completed_at": self.completed_at,
        }

    def to_event(self) -> Dict[str, Any]:
        """The pub/sub event body: what neither the actuation topic (the
        device) nor the envelope says (``completed_at`` is the result's
        ``published_at``: it is published when it completes)."""
        return {"command": self.command, "accepted": self.accepted,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ActuationResult":
        return cls(
            device_id=_require(data, "device_id", "actuation_result"),
            command=_require(data, "command", "actuation_result"),
            accepted=bool(_require(data, "accepted", "actuation_result")),
            detail=data.get("detail", ""),
            completed_at=float(data.get("completed_at", 0.0)),
        )


#: record tag -> class, used by the serialization layer
RECORD_TYPES = {
    "measurement": Measurement,
    "device": DeviceDescription,
    "entity_model": EntityModel,
    "actuation_command": ActuationCommand,
    "actuation_result": ActuationResult,
}


def record_from_dict(data: Mapping[str, Any]) -> Any:
    """Dispatch a dict to the right CDF record class via its tag."""
    tag = data.get("record")
    try:
        cls = RECORD_TYPES[tag]
    except KeyError:
        raise SerializationError(f"unknown CDF record tag {tag!r}") from None
    return cls.from_dict(data)


def records_from_dicts(items: List[Mapping[str, Any]]) -> List[Any]:
    """Decode a list of dicts into CDF records."""
    return [record_from_dict(item) for item in items]
