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

Records are plain frozen dataclasses whose declaration is their codec:
:func:`~repro.common.records.codec` compiles ``to_dict`` / ``from_dict``
from the fields once per class.  A field's keys travel in declaration
order; a field without a default is required, and ``wire(...)`` declares
what a field needs beyond its name and default: its converter pair
(``FLOAT`` decodes a numeric string, ``DICT`` copies, ``nested`` records
travel as a list of dicts), a wire name other than its own, or that it
never travels.  A tagged record leads its dict with ``"record": tag``
(:data:`RECORD_TYPES` dispatches on it) and may emit derived keys
(``Measurement.unit`` after ``value``) that decoding ignores, as it does
every key the record does not declare.  A missing required field or a
value its converter refuses raises :class:`SerializationError` naming
the record and the field.  The ontology, resolve, TSDB-config and
broker records use the same helper.  The JSON and XML wire encodings
live in :mod:`repro.common.serialization`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SerializationError
from repro.common.records import BOOL, DICT, FLOAT, codec, nested, wire
from repro.common.units import CANONICAL_UNITS, canonical_unit

#: entity types an EntityModel may describe
ENTITY_TYPES = ("district", "building", "network", "space", "segment")

#: source kinds a model may originate from
SOURCE_KINDS = ("bim", "sim", "gis", "measurement")


@codec("measurement", tagged=True, derived=[("unit", "value")])
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
    value: float = wire(codec=FLOAT)
    timestamp: float = wire(codec=FLOAT)
    source: str = ""
    metadata: Dict[str, Any] = wire(factory=dict, codec=DICT)

    def __post_init__(self) -> None:
        canonical_unit(self.quantity)  # validates the quantity name

    @property
    def unit(self) -> str:
        """Canonical unit symbol for this measurement's quantity."""
        return CANONICAL_UNITS[self.quantity]

    def to_event(self) -> Dict[str, Any]:
        """The pub/sub event body: what the measurement topic does not say."""
        return {"value": self.value, "timestamp": self.timestamp,
                "source": self.source, "metadata": dict(self.metadata)}


@codec("sensor-capability")
@dataclass(frozen=True)
class SensorCapability:
    """One quantity a device can sense, with its native sampling period."""

    quantity: str
    sample_period: float = wire(codec=FLOAT)


@codec("actuator-capability")
@dataclass(frozen=True)
class ActuatorCapability:
    """One command a device accepts (e.g. ``switch``, ``setpoint``)."""

    command: str
    value_range: Optional[Tuple[float, float]] = wire(None, codec=(
        "list({0}) if {0} else None", "tuple({0}) if {0} else None"))


@codec("device", tagged=True)
@dataclass(frozen=True)
class DeviceDescription:
    """Abstract, protocol-independent description of a field device."""

    device_id: str
    protocol: str
    entity_id: str
    sensors: Tuple[SensorCapability, ...] = wire(
        (), codec=nested("SensorCapability"))
    actuators: Tuple[ActuatorCapability, ...] = wire(
        (), codec=nested("ActuatorCapability"))
    vendor: str = ""
    location: str = ""
    metadata: Dict[str, Any] = wire(factory=dict, codec=DICT)

    @property
    def quantities(self) -> Tuple[str, ...]:
        """Quantities this device senses."""
        return tuple(s.quantity for s in self.sensors)

    @property
    def is_actuator(self) -> bool:
        """True if the device accepts at least one command."""
        return bool(self.actuators)


@codec("component")
@dataclass(frozen=True)
class Component:
    """A sub-element of an entity model (space, storey, pipe segment...)."""

    component_id: str
    component_type: str
    name: str = ""
    properties: Dict[str, Any] = wire(factory=dict, codec=DICT)


@codec("relation")
@dataclass(frozen=True)
class Relation:
    """A typed edge between two components or entities (``feeds``, ...)."""

    relation: str
    subject: str
    object: str
    properties: Dict[str, Any] = wire(factory=dict, codec=DICT)


@codec("entity_model", tagged=True)
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
    properties: Dict[str, Any] = wire(factory=dict, codec=DICT)
    geometry: Optional[Dict[str, Any]] = wire(None, codec=(
        "dict({0}) if {0} else None",) * 2)
    components: Tuple[Component, ...] = wire((), codec=nested("Component"))
    relations: Tuple[Relation, ...] = wire((), codec=nested("Relation"))

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


@codec("actuation_command", tagged=True)
@dataclass(frozen=True)
class ActuationCommand:
    """A remote-control request for an actuator device."""

    device_id: str
    command: str
    value: Optional[float] = wire(
        None, codec=(None, "None if {0} is None else float({0})"))
    issued_at: float = wire(0.0, codec=FLOAT)


@codec("actuation_result", tagged=True)
@dataclass(frozen=True)
class ActuationResult:
    """Outcome of an actuation command, reported back through the proxy
    as ``to_event()`` on the actuation topic, which names the device."""

    device_id: str
    command: str
    accepted: bool = wire(codec=BOOL)
    detail: str = ""
    completed_at: float = wire(0.0, codec=FLOAT)

    def to_event(self) -> Dict[str, Any]:
        """The pub/sub event body: what neither the actuation topic (the
        device) nor the envelope says (``completed_at`` is the result's
        ``published_at``: it is published when it completes)."""
        return {"command": self.command, "accepted": self.accepted,
                "detail": self.detail}


#: record tag -> class, used by the serialization layer
RECORD_TYPES = {cls.record_tag: cls for cls in (
    Measurement, DeviceDescription, EntityModel, ActuationCommand,
    ActuationResult)}


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
