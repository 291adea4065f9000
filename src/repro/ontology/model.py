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

Each district root additionally maintains three **secondary indexes**
over its entities, kept incrementally consistent by the mutation API
(:meth:`DistrictNode.add_entity`, :meth:`DistrictNode.add_device`,
:meth:`DistrictNode.remove_device`, :meth:`DistrictNode.remove_entity`,
:meth:`DistrictNode.set_bounds`, :meth:`DistrictNode.replace_device`):

* an entity-type index (``building`` / ``network`` -> entity ids);
* a quantity -> entity inverted index (refcounted per device, so a
  device removal only unindexes a quantity when no sibling still
  senses it);
* a coarse spatial grid over the entities' cached GIS bounds, for
  bounding-box candidate pruning.

The indexes return candidate *supersets*: query evaluation
(:func:`repro.ontology.queries.resolve`) still applies the exact
predicates, so a coarse grid cell can never change an answer.  Code
that mutates an attached entity's devices or bounds directly (rather
than through the district methods) bypasses the indexes and may make
area queries miss entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.identifiers import entity_kind
from repro.datasources.geometry import BoundingBox
from repro.errors import OntologyError, UnknownEntityError

#: side length (metres) of the coarse spatial-grid cells
GRID_CELL_SIZE = 100.0

#: a bbox spanning more grid cells than this skips the grid index
#: (scanning that many cells would cost more than the full entity walk)
_GRID_SCAN_CAP = 4096


def _grid_cells(bounds: BoundingBox) -> Iterable[Tuple[int, int]]:
    """The grid cells an axis-aligned box overlaps."""
    x0 = int(bounds.min_x // GRID_CELL_SIZE)
    x1 = int(bounds.max_x // GRID_CELL_SIZE)
    y0 = int(bounds.min_y // GRID_CELL_SIZE)
    y1 = int(bounds.max_y // GRID_CELL_SIZE)
    for cx in range(x0, x1 + 1):
        for cy in range(y0, y1 + 1):
            yield (cx, cy)


def _grid_cell_count(bounds: BoundingBox) -> int:
    x0 = int(bounds.min_x // GRID_CELL_SIZE)
    x1 = int(bounds.max_x // GRID_CELL_SIZE)
    y0 = int(bounds.min_y // GRID_CELL_SIZE)
    y1 = int(bounds.max_y // GRID_CELL_SIZE)
    return (x1 - x0 + 1) * (y1 - y0 + 1)


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

    def __post_init__(self) -> None:
        # secondary indexes, maintained incrementally by the mutation
        # API below; never serialized (rebuilt entity-by-entity on load)
        self._by_type: Dict[str, Set[str]] = {}
        self._by_quantity: Dict[str, Dict[str, int]] = {}
        self._grid: Dict[Tuple[int, int], Set[str]] = {}
        for entity in self.entities.values():
            self._index_entity(entity)

    def add_entity(self, node: EntityNode) -> None:
        if node.entity_id in self.entities:
            raise OntologyError(
                f"entity {node.entity_id} already in {self.district_id}"
            )
        self.entities[node.entity_id] = node
        self._index_entity(node)

    def remove_entity(self, entity_id: str) -> EntityNode:
        """Detach one entity subtree, unindexing it."""
        node = self.entity(entity_id)
        del self.entities[entity_id]
        self._unindex_entity(node)
        return node

    def add_device(self, entity_id: str, device: DeviceNode) -> None:
        """Attach a device leaf under an entity, indexing its quantities."""
        self.entity(entity_id).add_device(device)
        self._index_quantities(entity_id, device)

    def replace_device(self, entity_id: str, device: DeviceNode) -> None:
        """Swap a device leaf in place (heartbeat refresh), re-indexing."""
        entity = self.entity(entity_id)
        old = entity.devices.get(device.device_id)
        if old is not None:
            self._unindex_quantities(entity_id, old)
        entity.devices[device.device_id] = device
        self._index_quantities(entity_id, device)

    def remove_device(self, entity_id: str,
                      device_id: str) -> Optional[DeviceNode]:
        """Detach a device leaf, unindexing its quantities."""
        entity = self.entity(entity_id)
        node = entity.devices.pop(device_id, None)
        if node is not None:
            self._unindex_quantities(entity_id, node)
        return node

    def set_bounds(self, entity_id: str,
                   bounds: Optional[BoundingBox]) -> None:
        """Update an entity's cached footprint, re-gridding it."""
        entity = self.entity(entity_id)
        if entity.bounds is not None:
            self._grid_remove(entity.entity_id, entity.bounds)
        entity.bounds = bounds
        if bounds is not None:
            self._grid_add(entity.entity_id, bounds)

    def entity(self, entity_id: str) -> EntityNode:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownEntityError(
                f"no entity {entity_id!r} in district {self.district_id}"
            ) from None

    # -- secondary indexes ------------------------------------------------

    def _index_entity(self, node: EntityNode) -> None:
        self._by_type.setdefault(node.entity_type, set()).add(node.entity_id)
        for device in node.devices.values():
            self._index_quantities(node.entity_id, device)
        if node.bounds is not None:
            self._grid_add(node.entity_id, node.bounds)

    def _unindex_entity(self, node: EntityNode) -> None:
        ids = self._by_type.get(node.entity_type)
        if ids is not None:
            ids.discard(node.entity_id)
            if not ids:
                del self._by_type[node.entity_type]
        for device in node.devices.values():
            self._unindex_quantities(node.entity_id, device)
        if node.bounds is not None:
            self._grid_remove(node.entity_id, node.bounds)

    def _index_quantities(self, entity_id: str, device: DeviceNode) -> None:
        for quantity in device.quantities:
            owners = self._by_quantity.setdefault(quantity, {})
            owners[entity_id] = owners.get(entity_id, 0) + 1

    def _unindex_quantities(self, entity_id: str,
                            device: DeviceNode) -> None:
        for quantity in device.quantities:
            owners = self._by_quantity.get(quantity)
            if owners is None:
                continue
            count = owners.get(entity_id, 0) - 1
            if count > 0:
                owners[entity_id] = count
            else:
                owners.pop(entity_id, None)
                if not owners:
                    del self._by_quantity[quantity]

    def _grid_add(self, entity_id: str, bounds: BoundingBox) -> None:
        for cell in _grid_cells(bounds):
            self._grid.setdefault(cell, set()).add(entity_id)

    def _grid_remove(self, entity_id: str, bounds: BoundingBox) -> None:
        for cell in _grid_cells(bounds):
            ids = self._grid.get(cell)
            if ids is not None:
                ids.discard(entity_id)
                if not ids:
                    del self._grid[cell]

    def entity_ids_of_type(self, entity_type: str) -> Set[str]:
        """Entity ids of one type (index lookup; do not mutate)."""
        return self._by_type.get(entity_type, set())

    def entity_ids_with_quantity(self, quantity: str) -> Set[str]:
        """Entity ids owning >= 1 device sensing *quantity*."""
        return set(self._by_quantity.get(quantity, ()))

    def entity_ids_in_bbox(self, bbox: BoundingBox) -> Optional[Set[str]]:
        """Candidate entity ids whose bounds may intersect *bbox*.

        A superset: grid cells are coarse, so callers must still apply
        the exact ``intersects`` predicate.  Returns None when the box
        spans so many cells that scanning them would cost more than the
        full entity walk (the planner then skips this index).
        """
        if _grid_cell_count(bbox) > _GRID_SCAN_CAP:
            return None
        candidates: Set[str] = set()
        for cell in _grid_cells(bbox):
            ids = self._grid.get(cell)
            if ids:
                candidates |= ids
        return candidates

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
        self.district(district_id).add_device(entity_id, device)
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
