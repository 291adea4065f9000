"""Native-to-common-format translators.

"Database-proxies are necessary to translate different databases, each
one encoded differently from the others, to a common data format."

One translator per native family turns a BIM record tree, a SIM table
set or a GIS feature into a CDF :class:`~repro.common.cdf.EntityModel`.
Everything protocol-side (frames -> measurements) is handled by the
protocol adapters; these translators cover the *database* side.
"""

from __future__ import annotations

from typing import Optional

from repro.common.cdf import Component, EntityModel, Relation
from repro.datasources.bim import (
    IFC_SPACE,
    IFC_STOREY,
    BimStore,
)
from repro.datasources.gis import Feature
from repro.datasources.sim import NODE_CONSUMER, SimStore
from repro.errors import QueryError, TranslationError, UnknownEntityError


def translate_bim(bim: BimStore, entity_id: str) -> EntityModel:
    """Translate a BIM export into a building EntityModel.

    GUID-keyed records with detached property sets become a flat model:
    root properties merged from ``Pset_BuildingCommon``, storeys and
    spaces as typed components, containment as relations.
    """
    try:
        root = bim.root()
    except UnknownEntityError as exc:
        raise TranslationError(f"BIM export has no building: {exc}") from exc
    root_guid = root["GlobalId"]
    root_props = bim.property_sets(root_guid)
    properties = {
        "floor_area_m2": root_props.get("GrossFloorArea"),
        "storeys": root_props.get("NumberOfStoreys"),
        "year_built": root_props.get("YearOfConstruction"),
        "cadastral_id": root_props.get("CadastralReference"),
        "use": root_props.get("OccupancyType"),
    }
    components = []
    relations = []
    for storey in bim.by_type(IFC_STOREY):
        storey_props = bim.property_sets(storey["GlobalId"])
        components.append(Component(
            component_id=storey["GlobalId"],
            component_type="storey",
            name=storey["Name"],
            properties={
                "elevation_m": storey_props.get("Elevation"),
                "area_m2": storey_props.get("GrossArea"),
            },
        ))
        relations.append(Relation("contains", entity_id,
                                  storey["GlobalId"]))
    for space in bim.by_type(IFC_SPACE):
        space_props = bim.property_sets(space["GlobalId"])
        components.append(Component(
            component_id=space["GlobalId"],
            component_type="space",
            name=space_props.get("LongName", space["Name"]),
            properties={"area_m2": space_props.get("NetArea")},
        ))
        if space["parent"] is not None:
            relations.append(Relation("contains", space["parent"],
                                      space["GlobalId"]))
    return EntityModel(
        entity_id=entity_id,
        entity_type="building",
        source_kind="bim",
        name=root["Name"],
        properties=properties,
        components=tuple(components),
        relations=tuple(relations),
    )


def translate_sim(sim: SimStore, entity_id: str) -> EntityModel:
    """Translate a SIM export into a network EntityModel.

    Node and edge tables become components; edges and service points
    become ``feeds``/``serves`` relations.  Service points keep their
    cadastral parcel ids — resolving those to building entities is the
    integrator's job, via the GIS join.
    """
    nodes = sim.nodes()
    if not nodes:
        raise TranslationError(
            f"SIM export {sim.network_name!r} has no nodes"
        )
    components = []
    relations = []
    for node in nodes:
        components.append(Component(
            component_id=node["node_id"],
            component_type=node["kind"],
            name=node["node_id"],
            properties={
                "x": node["x"], "y": node["y"],
                "capacity_kw": node["capacity_kw"],
            },
        ))
    for edge in sim.edges():
        components.append(Component(
            component_id=edge["edge_id"],
            component_type="segment",
            name=edge["edge_id"],
            properties={
                "length_m": edge["length_m"],
                "rating": edge["rating"],
                "loss_coeff": edge["loss_coeff"],
            },
        ))
        relations.append(Relation(
            "feeds", edge["source"], edge["target"],
            {"via": edge["edge_id"]},
        ))
    for consumer, cadastral_id in sorted(sim.service_points().items()):
        relations.append(Relation(
            "serves", consumer, cadastral_id,
            {"key": "cadastral_id"},
        ))
    return EntityModel(
        entity_id=entity_id,
        entity_type="network",
        source_kind="sim",
        name=sim.network_name,
        properties={
            "commodity": sim.commodity,
            "total_length_m": sim.total_length_m(),
            "consumer_count": len(sim.nodes(NODE_CONSUMER)),
        },
        components=tuple(components),
        relations=tuple(relations),
    )


def translate_gis_feature(feature: Feature, entity_id: str,
                          entity_type: Optional[str] = None) -> EntityModel:
    """Translate one GIS feature into an EntityModel with geometry.

    The feature's WKT is parsed and re-emitted as a structured geometry
    payload (type, coordinates, derived centroid/area) so clients never
    touch WKT.
    """
    try:
        geometry = feature.geometry
    except QueryError as exc:
        raise TranslationError(
            f"feature {feature.feature_id} has bad geometry: {exc}"
        ) from exc
    if entity_type is None:
        entity_type = "building" if feature.layer == "buildings" \
            else "district"
    centroid = geometry.centroid()
    return EntityModel(
        entity_id=entity_id,
        entity_type=entity_type,
        source_kind="gis",
        name=str(feature.properties.get("address",
                                        feature.properties.get("name", ""))),
        properties={
            key: value for key, value in feature.properties.items()
        },
        geometry={
            "type": geometry.kind.title(),
            "coordinates": [list(p) for p in geometry.points],
            "centroid": list(centroid),
            "area_m2": geometry.area(),
            "bounds": geometry.bounds().to_list(),
        },
    )
