"""The district ontology held by the master node.

Per the paper: "The ontology depicts the structure of one or more
districts, each one structured as a tree.  The root node of each tree
stores the global properties of the corresponding district (the name,
the URIs of the GIS Database-proxies' Web Services, etc.).  Under the
root node, intermediate nodes represent buildings or energy distribution
networks, with associated properties such as the BIM or SIM
Database-proxy Web Service URI, or the mapping of the system in the GIS
databases.  Each intermediate node has associated leaf nodes, which
represent the devices."

This module implements exactly that forest: districts -> entities
(buildings / networks) -> devices, where each node carries the proxy
Web-Service URIs and GIS mapping needed to *redirect* clients to data.
The tree is the only copy: :func:`repro.ontology.queries.resolve` walks
it, so a write to any node is seen by the next resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.identifiers import entity_kind
from repro.datasources.geometry import BoundingBox
from repro.errors import OntologyError, UnknownEntityError


@dataclass
class DeviceNode:
    """Leaf node: one device, served by a Device-proxy."""

    device_id: str
    proxy_uri: str
    protocol: str
    quantities: Tuple[str, ...] = ()
    is_actuator: bool = False
    properties: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "device_id": self.device_id,
            "proxy_uri": self.proxy_uri,
            "protocol": self.protocol,
            "quantities": list(self.quantities),
            "is_actuator": self.is_actuator,
            "properties": dict(self.properties),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DeviceNode":
        return cls(
            device_id=data["device_id"],
            proxy_uri=data["proxy_uri"],
            protocol=data["protocol"],
            quantities=tuple(data.get("quantities", [])),
            is_actuator=bool(data.get("is_actuator", False)),
            properties=dict(data.get("properties", {})),
        )


@dataclass
class EntityNode:
    """Intermediate node: a building or distribution network."""

    entity_id: str
    entity_type: str  # building | network
    name: str = ""
    #: source kind (bim/sim/measurement) -> Database-proxy WS URI
    proxy_uris: Dict[str, str] = field(default_factory=dict)
    #: the entity's mapping into the GIS databases
    gis_feature_id: str = ""
    #: cached footprint bounds, for master-side area resolution
    bounds: Optional[BoundingBox] = None
    properties: Dict[str, object] = field(default_factory=dict)
    devices: Dict[str, DeviceNode] = field(default_factory=dict)

    def add_device(self, node: DeviceNode) -> None:
        if node.device_id in self.devices:
            raise OntologyError(
                f"device {node.device_id} already under {self.entity_id}"
            )
        self.devices[node.device_id] = node

    def to_dict(self) -> Dict:
        return {
            "entity_id": self.entity_id,
            "entity_type": self.entity_type,
            "name": self.name,
            "proxy_uris": dict(self.proxy_uris),
            "gis_feature_id": self.gis_feature_id,
            "bounds": self.bounds.to_list() if self.bounds else None,
            "properties": dict(self.properties),
            "devices": [d.to_dict() for d in self.devices.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EntityNode":
        bounds = data.get("bounds")
        node = cls(
            entity_id=data["entity_id"],
            entity_type=data["entity_type"],
            name=data.get("name", ""),
            proxy_uris=dict(data.get("proxy_uris", {})),
            gis_feature_id=data.get("gis_feature_id", ""),
            bounds=BoundingBox.from_list(bounds) if bounds else None,
            properties=dict(data.get("properties", {})),
        )
        for device_data in data.get("devices", []):
            node.add_device(DeviceNode.from_dict(device_data))
        return node


@dataclass
class DistrictNode:
    """Root node: one district's global properties and entities."""

    district_id: str
    name: str = ""
    #: URIs of the district's GIS Database-proxy Web Services
    gis_uris: List[str] = field(default_factory=list)
    #: URIs of the district's global measurement databases
    measurement_uris: List[str] = field(default_factory=list)
    properties: Dict[str, object] = field(default_factory=dict)
    entities: Dict[str, EntityNode] = field(default_factory=dict)

    def add_entity(self, node: EntityNode) -> None:
        if node.entity_id in self.entities:
            raise OntologyError(
                f"entity {node.entity_id} already in {self.district_id}"
            )
        self.entities[node.entity_id] = node

    def entity(self, entity_id: str) -> EntityNode:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownEntityError(
                f"no entity {entity_id!r} in district {self.district_id}"
            ) from None

    def to_dict(self) -> Dict:
        return {
            "district_id": self.district_id,
            "name": self.name,
            "gis_uris": list(self.gis_uris),
            "measurement_uris": list(self.measurement_uris),
            "properties": dict(self.properties),
            "entities": [e.to_dict() for e in self.entities.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DistrictNode":
        node = cls(
            district_id=data["district_id"],
            name=data.get("name", ""),
            gis_uris=list(data.get("gis_uris", [])),
            measurement_uris=list(data.get("measurement_uris", [])),
            properties=dict(data.get("properties", {})),
        )
        for entity_data in data.get("entities", []):
            node.add_entity(EntityNode.from_dict(entity_data))
        return node


class DistrictOntology:
    """The master node's forest of district trees."""

    def __init__(self) -> None:
        self._districts: Dict[str, DistrictNode] = {}

    # -- construction -------------------------------------------------------

    def add_district(self, district_id: str, name: str = "") -> DistrictNode:
        """Create a district root; duplicates are an error."""
        if entity_kind(district_id) != "district":
            raise OntologyError(f"{district_id!r} is not a district id")
        if district_id in self._districts:
            raise OntologyError(f"district {district_id!r} already exists")
        node = DistrictNode(district_id, name)
        self._districts[district_id] = node
        return node

    def add_entity(self, district_id: str, entity: EntityNode) -> EntityNode:
        """Attach a building/network under a district root."""
        kind = entity_kind(entity.entity_id)
        if kind not in ("building", "network"):
            raise OntologyError(
                f"{entity.entity_id!r} is not a building or network id"
            )
        if entity.entity_type not in ("building", "network"):
            raise OntologyError(
                f"bad entity type {entity.entity_type!r}"
            )
        self.district(district_id).add_entity(entity)
        return entity

    def add_device(self, district_id: str, entity_id: str,
                   device: DeviceNode) -> DeviceNode:
        """Attach a device leaf under an entity node."""
        if entity_kind(device.device_id) != "device":
            raise OntologyError(f"{device.device_id!r} is not a device id")
        self.district(district_id).entity(entity_id).add_device(device)
        return device

    # -- lookups --------------------------------------------------------------

    def district(self, district_id: str) -> DistrictNode:
        try:
            return self._districts[district_id]
        except KeyError:
            raise UnknownEntityError(
                f"no district {district_id!r} in ontology"
            ) from None

    def districts(self) -> List[DistrictNode]:
        return list(self._districts.values())

    def node_count(self) -> int:
        """Total nodes in the forest (roots + entities + devices)."""
        total = len(self._districts)
        for district in self._districts.values():
            total += len(district.entities)
            total += sum(len(e.devices) for e in district.entities.values())
        return total

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        return {"districts": [d.to_dict() for d in
                              self._districts.values()]}

    @classmethod
    def from_dict(cls, data: Dict) -> "DistrictOntology":
        ontology = cls()
        for district_data in data.get("districts", []):
            node = DistrictNode.from_dict(district_data)
            if node.district_id in ontology._districts:
                raise OntologyError(
                    f"duplicate district {node.district_id!r}"
                )
            ontology._districts[node.district_id] = node
        return ontology
