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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.identifiers import entity_kind
from repro.common.records import (
    BOOL, DICT, LIST, TUPLE, codec, nested, wire,
)
from repro.datasources.geometry import BoundingBox
from repro.errors import OntologyError, UnknownEntityError


@codec("device-node")
@dataclass
class DeviceNode:
    """Leaf node: one device, served by a Device-proxy."""

    device_id: str
    proxy_uri: str
    protocol: str
    quantities: Tuple[str, ...] = wire((), codec=TUPLE)
    is_actuator: bool = wire(False, codec=BOOL)
    properties: Dict[str, object] = wire(factory=dict, codec=DICT)


@codec("entity-node")
@dataclass
class EntityNode:
    """Intermediate node: a building or distribution network."""

    entity_id: str
    entity_type: str  # building | network
    name: str = ""
    #: source kind (bim/sim/measurement) -> Database-proxy WS URI
    proxy_uris: Dict[str, str] = wire(factory=dict, codec=DICT)
    #: the entity's mapping into the GIS databases
    gis_feature_id: str = ""
    #: cached footprint bounds, for master-side area resolution
    bounds: Optional[BoundingBox] = wire(None, codec=(
        "{0}.to_list() if {0} else None",
        "BoundingBox.from_list({0}) if {0} else None"))
    properties: Dict[str, object] = wire(factory=dict, codec=DICT)
    #: travels as a list; decoding adds each through :meth:`add_device`
    devices: Dict[str, DeviceNode] = wire(
        factory=dict, adder="add_device",
        codec=nested("DeviceNode", keyed=True))

    def add_device(self, node: DeviceNode) -> None:
        if node.device_id in self.devices:
            raise OntologyError(
                f"device {node.device_id} already under {self.entity_id}"
            )
        self.devices[node.device_id] = node


@codec("district-node")
@dataclass
class DistrictNode:
    """Root node: one district's global properties and entities."""

    district_id: str
    name: str = ""
    #: URIs of the district's GIS Database-proxy Web Services
    gis_uris: List[str] = wire(factory=list, codec=LIST)
    #: URIs of the district's global measurement databases
    measurement_uris: List[str] = wire(factory=list, codec=LIST)
    properties: Dict[str, object] = wire(factory=dict, codec=DICT)
    #: travels as a list; decoding adds each through :meth:`add_entity`
    entities: Dict[str, EntityNode] = wire(
        factory=dict, adder="add_entity",
        codec=nested("EntityNode", keyed=True))

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
