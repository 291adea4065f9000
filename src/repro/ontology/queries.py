"""Area queries and their resolution against the ontology.

"When the end-user application queries the master node for a particular
area of the district, the master node refers to the ontology and returns
the URIs of the proxies' Web Services for the interested entities in the
area, accompanied with additional information."

An :class:`AreaQuery` selects entities of one district by any mix of:
explicit entity ids, a geographic bounding box (matched against the
cached GIS bounds on each entity node), entity type, and sensed
quantity.  :func:`resolve` tests each entity of the district (only the
named ones, when ids are given) against those predicates and produces
the :class:`ResolvedArea` the master returns — URIs only, never data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.records import DICT, TUPLE, codec, nested, wire
from repro.datasources.geometry import BoundingBox
from repro.errors import QueryError
from repro.ontology.model import DistrictOntology, EntityNode

ENTITY_TYPES = ("building", "network")


@dataclass(frozen=True)
class AreaQuery:
    """A client's selection of district entities."""

    district_id: str
    entity_ids: Tuple[str, ...] = ()
    bbox: Optional[BoundingBox] = None
    entity_type: Optional[str] = None
    quantity: Optional[str] = None

    def __post_init__(self) -> None:
        if self.entity_type is not None and \
                self.entity_type not in ENTITY_TYPES:
            raise QueryError(f"unknown entity type {self.entity_type!r}")

    def to_params(self) -> Dict[str, str]:
        """Flat string params for the master's resolve endpoint."""
        params = {"district_id": self.district_id}
        if self.entity_ids:
            params["entity_ids"] = ",".join(self.entity_ids)
        if self.bbox is not None:
            params["bbox"] = ",".join(repr(v) for v in self.bbox.to_list())
        if self.entity_type is not None:
            params["entity_type"] = self.entity_type
        if self.quantity is not None:
            params["quantity"] = self.quantity
        return params

    @classmethod
    def from_params(cls, params: Dict[str, str]) -> "AreaQuery":
        try:
            district_id = params["district_id"]
        except KeyError:
            raise QueryError("missing district_id parameter") from None
        bbox_raw = params.get("bbox")
        bbox = None
        if bbox_raw:
            try:
                bbox = BoundingBox.from_list(
                    [float(v) for v in bbox_raw.split(",")]
                )
            except (ValueError, TypeError):
                raise QueryError(f"bad bbox parameter {bbox_raw!r}") \
                    from None
        ids_raw = params.get("entity_ids", "")
        return cls(
            district_id=district_id,
            entity_ids=tuple(i for i in ids_raw.split(",") if i),
            bbox=bbox,
            entity_type=params.get("entity_type") or None,
            quantity=params.get("quantity") or None,
        )


@dataclass(frozen=True)
class ResolvedDevice:
    """Device leaf information returned to the client."""

    device_id: str
    proxy_uri: str
    protocol: str
    quantities: Tuple[str, ...]
    is_actuator: bool


def _runs(devices: Sequence[ResolvedDevice]) -> List[Dict]:
    """A resolved entity's devices as its wire ``device_proxies``."""
    runs = []
    for (uri, protocol), group in groupby(
            devices, attrgetter("proxy_uri", "protocol")):
        run = list(group)
        runs.append({
            "uri": uri,
            "protocol": protocol,
            "devices": {d.device_id: list(d.quantities) for d in run},
            "actuators": [d.device_id for d in run if d.is_actuator],
        })
    return runs


def _devices(runs: Sequence[Dict]) -> Tuple[ResolvedDevice, ...]:
    """The devices of the wire ``device_proxies`` *runs*."""
    return tuple([
        ResolvedDevice(device_id, run["uri"], run["protocol"],
                       tuple(quantities), device_id in run["actuators"])
        for run in runs for device_id, quantities in run["devices"].items()
    ])


@codec("resolved-entity")
@dataclass(frozen=True)
class ResolvedEntity:
    """One matched entity with the URIs a client needs to fetch its data.

    On the wire its devices travel as ``device_proxies``: one *run* per
    maximal sequence of consecutive devices behind the same Device-proxy
    URI and protocol, ``{"uri", "protocol", "devices": {device_id:
    [quantity, ...]}, "actuators": [device_id, ...]}``, so each proxy is
    named once per run rather than once per device.  Runs, not a map
    keyed by URI: they round-trip any device order, and one proxy may
    front devices of several protocols.
    """

    entity_id: str
    entity_type: str
    name: str = ""
    proxy_uris: Dict[str, str] = wire(factory=dict, codec=DICT)
    gis_feature_id: str = ""
    devices: Tuple[ResolvedDevice, ...] = wire(
        (), key="device_proxies", codec=(_runs, _devices))


@codec("resolved-area")
@dataclass(frozen=True)
class ResolvedArea:
    """The master's answer: redirections, not data."""

    district_id: str
    district_name: str = ""
    gis_uris: Tuple[str, ...] = wire((), codec=TUPLE)
    measurement_uris: Tuple[str, ...] = wire((), codec=TUPLE)
    entities: Tuple[ResolvedEntity, ...] = wire(
        (), codec=nested("ResolvedEntity"))

    @property
    def entity_ids(self) -> List[str]:
        return [e.entity_id for e in self.entities]

    @property
    def device_count(self) -> int:
        return sum(len(e.devices) for e in self.entities)


def _matches(entity: EntityNode, query: AreaQuery) -> bool:
    if query.entity_type is not None and \
            entity.entity_type != query.entity_type:
        return False
    if query.bbox is not None:
        if entity.bounds is None:
            return False
        if not entity.bounds.intersects(query.bbox):
            return False
    if query.quantity is not None:
        if not any(query.quantity in d.quantities
                   for d in entity.devices.values()):
            return False
    return True


def _device_matches(device_quantities: Sequence[str],
                    query: AreaQuery) -> bool:
    if query.quantity is None:
        return True
    return query.quantity in device_quantities


def _candidate_entities(district, query: AreaQuery):
    """The entities :func:`_matches` tests: the named ones, or all.

    Either way the walk is in insertion order, which is answer order.
    """
    if not query.entity_ids:
        return district.entities.values()
    named = set(query.entity_ids)
    return [entity for entity_id, entity in district.entities.items()
            if entity_id in named]


def resolve(ontology: DistrictOntology, query: AreaQuery) -> ResolvedArea:
    """Evaluate an area query against the ontology.

    Raises :class:`~repro.errors.UnknownEntityError` for an unknown
    district; an empty result (no matching entities) is a valid answer.
    """
    district = ontology.district(query.district_id)
    matched: List[ResolvedEntity] = []
    for entity in _candidate_entities(district, query):
        if not _matches(entity, query):
            continue
        devices = tuple(
            ResolvedDevice(
                device_id=d.device_id,
                proxy_uri=d.proxy_uri,
                protocol=d.protocol,
                quantities=d.quantities,
                is_actuator=d.is_actuator,
            )
            for d in entity.devices.values()
            if _device_matches(d.quantities, query)
        )
        matched.append(ResolvedEntity(
            entity_id=entity.entity_id,
            entity_type=entity.entity_type,
            name=entity.name,
            proxy_uris=dict(entity.proxy_uris),
            gis_feature_id=entity.gis_feature_id,
            devices=devices,
        ))
    return ResolvedArea(
        district_id=district.district_id,
        district_name=district.name,
        gis_uris=tuple(district.gis_uris),
        measurement_uris=tuple(district.measurement_uris),
        entities=tuple(matched),
    )
