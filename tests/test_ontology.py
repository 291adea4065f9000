"""Tests for the district ontology and area-query resolution."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datasources.geometry import BoundingBox
from repro.errors import OntologyError, QueryError, UnknownEntityError
from repro.ontology.model import (
    DeviceNode,
    DistrictOntology,
    EntityNode,
)
from repro.ontology.queries import (
    AreaQuery,
    ResolvedArea,
    ResolvedDevice,
    ResolvedEntity,
    resolve,
)


def build_ontology():
    onto = DistrictOntology()
    district = onto.add_district("dst-0001", "Test District")
    district.gis_uris.append("svc://proxy-gis/")
    district.measurement_uris.append("svc://mdb/")
    onto.add_entity("dst-0001", EntityNode(
        entity_id="bld-0001", entity_type="building", name="B1",
        proxy_uris={"bim": "svc://proxy-bim-1/"},
        gis_feature_id="ft-00001",
        bounds=BoundingBox(0, 0, 50, 50),
    ))
    onto.add_entity("dst-0001", EntityNode(
        entity_id="bld-0002", entity_type="building", name="B2",
        proxy_uris={"bim": "svc://proxy-bim-2/"},
        gis_feature_id="ft-00002",
        bounds=BoundingBox(100, 100, 150, 150),
    ))
    onto.add_entity("dst-0001", EntityNode(
        entity_id="net-0001", entity_type="network", name="N1",
        proxy_uris={"sim": "svc://proxy-sim-1/"},
    ))
    onto.add_device("dst-0001", "bld-0001", DeviceNode(
        device_id="dev-0101", proxy_uri="svc://proxy-dev-1/",
        protocol="zigbee", quantities=("power", "energy"),
    ))
    onto.add_device("dst-0001", "bld-0001", DeviceNode(
        device_id="dev-0102", proxy_uri="svc://proxy-dev-1/",
        protocol="enocean", quantities=("temperature", "humidity"),
    ))
    onto.add_device("dst-0001", "bld-0002", DeviceNode(
        device_id="dev-0201", proxy_uri="svc://proxy-dev-2/",
        protocol="zigbee", quantities=("power",), is_actuator=True,
    ))
    return onto


class TestOntologyStructure:
    def test_node_count(self):
        assert build_ontology().node_count() == 1 + 3 + 3

    def test_duplicate_district_rejected(self):
        onto = build_ontology()
        with pytest.raises(OntologyError):
            onto.add_district("dst-0001")

    def test_non_district_id_rejected(self):
        with pytest.raises(OntologyError):
            DistrictOntology().add_district("bld-0001")

    def test_duplicate_entity_rejected(self):
        onto = build_ontology()
        with pytest.raises(OntologyError):
            onto.add_entity("dst-0001", EntityNode("bld-0001", "building"))

    def test_device_id_validated(self):
        onto = build_ontology()
        with pytest.raises(OntologyError):
            onto.add_device("dst-0001", "bld-0001",
                            DeviceNode("bld-0009", "svc://x/", "zigbee"))

    def test_duplicate_device_rejected(self):
        onto = build_ontology()
        with pytest.raises(OntologyError):
            onto.add_device("dst-0001", "bld-0001",
                            DeviceNode("dev-0101", "svc://x/", "zigbee"))

    def test_unknown_district(self):
        with pytest.raises(UnknownEntityError):
            build_ontology().district("dst-0999")

    def test_serialization_round_trip(self):
        onto = build_ontology()
        again = DistrictOntology.from_dict(onto.to_dict())
        assert again.to_dict() == onto.to_dict()
        assert again.node_count() == onto.node_count()
        # bounds survive the round trip
        entity = again.district("dst-0001").entity("bld-0001")
        assert entity.bounds == BoundingBox(0, 0, 50, 50)


class TestAreaQuerySerialization:
    def test_params_round_trip_full(self):
        query = AreaQuery(
            district_id="dst-0001",
            entity_ids=("bld-0001", "bld-0002"),
            bbox=BoundingBox(0, 0, 10, 10),
            entity_type="building",
            quantity="power",
        )
        assert AreaQuery.from_params(query.to_params()) == query

    def test_params_round_trip_minimal(self):
        query = AreaQuery(district_id="dst-0001")
        again = AreaQuery.from_params(query.to_params())
        assert again == query
        assert again.bbox is None and again.entity_ids == ()

    def test_missing_district_rejected(self):
        with pytest.raises(QueryError):
            AreaQuery.from_params({})

    def test_bad_bbox_rejected(self):
        with pytest.raises(QueryError):
            AreaQuery.from_params({"district_id": "dst-0001",
                                   "bbox": "1,2,three,4"})

    def test_bad_entity_type_rejected(self):
        with pytest.raises(QueryError):
            AreaQuery(district_id="dst-0001", entity_type="starport")


class TestResolution:
    def test_whole_district(self):
        resolved = resolve(build_ontology(), AreaQuery("dst-0001"))
        assert set(resolved.entity_ids) == {"bld-0001", "bld-0002",
                                            "net-0001"}
        assert resolved.device_count == 3
        assert resolved.gis_uris == ("svc://proxy-gis/",)
        assert resolved.measurement_uris == ("svc://mdb/",)

    def test_by_entity_ids(self):
        resolved = resolve(build_ontology(),
                           AreaQuery("dst-0001", entity_ids=("bld-0002",)))
        assert resolved.entity_ids == ["bld-0002"]

    def test_by_bbox(self):
        resolved = resolve(build_ontology(),
                           AreaQuery("dst-0001",
                                     bbox=BoundingBox(0, 0, 60, 60)))
        # bld-0001 intersects; bld-0002 does not; net-0001 has no bounds
        assert resolved.entity_ids == ["bld-0001"]

    def test_by_entity_type(self):
        resolved = resolve(build_ontology(),
                           AreaQuery("dst-0001", entity_type="network"))
        assert resolved.entity_ids == ["net-0001"]

    def test_by_quantity_filters_entities_and_devices(self):
        resolved = resolve(build_ontology(),
                           AreaQuery("dst-0001", quantity="temperature"))
        assert resolved.entity_ids == ["bld-0001"]
        devices = resolved.entities[0].devices
        assert [d.device_id for d in devices] == ["dev-0102"]

    def test_empty_result_is_valid(self):
        resolved = resolve(build_ontology(),
                           AreaQuery("dst-0001", quantity="co2"))
        assert resolved.entities == ()

    def test_unknown_district_raises(self):
        with pytest.raises(UnknownEntityError):
            resolve(build_ontology(), AreaQuery("dst-0404"))

    def test_combined_filters(self):
        resolved = resolve(build_ontology(), AreaQuery(
            "dst-0001", entity_type="building", quantity="power",
            bbox=BoundingBox(90, 90, 200, 200),
        ))
        assert resolved.entity_ids == ["bld-0002"]

    def test_direct_mutation_is_visible_to_resolve(self):
        # the tree is the only copy of what it says: a write straight
        # into an attached entity is seen by the next resolve
        onto = DistrictOntology()
        onto.add_district("dst-0001")
        entity = onto.add_entity("dst-0001", EntityNode(
            entity_id="bld-0001", entity_type="building"))
        entity.bounds = BoundingBox(0, 0, 50, 50)
        entity.devices["dev-000001"] = DeviceNode(
            device_id="dev-000001", proxy_uri="svc://proxy-dev-1/",
            protocol="zigbee", quantities=("co2",))
        by_bbox = resolve(onto, AreaQuery(
            "dst-0001", bbox=BoundingBox(0, 0, 60, 60)))
        by_quantity = resolve(onto, AreaQuery("dst-0001", quantity="co2"))
        assert by_bbox.entity_ids == ["bld-0001"]
        assert by_quantity.entity_ids == ["bld-0001"]

    def test_resolved_area_round_trip(self):
        resolved = resolve(build_ontology(), AreaQuery("dst-0001"))
        again = ResolvedArea.from_dict(resolved.to_dict())
        assert again == resolved

    def test_proxy_uris_surface_in_resolution(self):
        resolved = resolve(build_ontology(),
                           AreaQuery("dst-0001", entity_ids=("bld-0001",)))
        entity = resolved.entities[0]
        assert entity.proxy_uris == {"bim": "svc://proxy-bim-1/"}
        assert entity.gis_feature_id == "ft-00001"
        assert entity.devices[0].proxy_uri == "svc://proxy-dev-1/"


P1, P2 = "svc://proxy-dev-1/", "svc://proxy-dev-2/"

_devices = st.lists(
    st.builds(
        ResolvedDevice,
        device_id=st.from_regex(r"dev-[0-9]{4}", fullmatch=True),
        proxy_uri=st.sampled_from((P1, P2, "svc://proxy-dev-3/")),
        protocol=st.sampled_from(("zigbee", "enocean", "opcua")),
        quantities=st.lists(st.sampled_from(("power", "energy", "humidity")),
                            unique=True, max_size=3).map(tuple),
        is_actuator=st.booleans(),
    ),
    max_size=6, unique_by=lambda d: d.device_id,
).map(tuple)

_areas = st.builds(
    ResolvedArea,
    district_id=st.just("dst-0001"),
    district_name=st.text(max_size=4),
    gis_uris=st.lists(st.just("svc://proxy-gis/"), max_size=1).map(tuple),
    measurement_uris=st.lists(st.just("svc://mdb/"), max_size=1).map(tuple),
    entities=st.lists(st.builds(
        ResolvedEntity,
        entity_id=st.from_regex(r"bld-[0-9]{4}", fullmatch=True),
        entity_type=st.sampled_from(("building", "network")),
        name=st.text(max_size=4),
        proxy_uris=st.dictionaries(st.sampled_from(("bim", "sim")),
                                   st.just("svc://proxy-bim-1/")),
        gis_feature_id=st.just(""),
        devices=_devices,
    ), max_size=4).map(tuple),
)


def _device(device_id, uri, protocol, is_actuator=False):
    return ResolvedDevice(device_id, uri, protocol, ("power",), is_actuator)


#: one proxy fronting two protocols, the same proxy again after another
#: one, an actuator mix inside a run, and an entity with no devices
MIXED = ResolvedArea("dst-0001", "D", (), (), (
    ResolvedEntity("bld-0001", "building", "B1", {}, "", (
        _device("dev-0101", P1, "zigbee"),
        _device("dev-0102", P1, "zigbee", is_actuator=True),
        _device("dev-0103", P1, "enocean"),
        _device("dev-0104", P2, "zigbee", is_actuator=True),
        _device("dev-0105", P1, "zigbee"),
    )),
    ResolvedEntity("net-0001", "network", "N1", {}, "", ()),
))


class TestResolvedAreaWire:
    @settings(max_examples=150, deadline=None)
    @given(_areas)
    @example(MIXED)
    def test_round_trip_is_exact(self, area):
        assert ResolvedArea.from_dict(area.to_dict()) == area

    def test_each_run_names_its_proxy_once(self):
        building, network = MIXED.to_dict()["entities"]
        assert building["device_proxies"] == [
            {"uri": P1, "protocol": "zigbee",
             "devices": {"dev-0101": ["power"], "dev-0102": ["power"]},
             "actuators": ["dev-0102"]},
            {"uri": P1, "protocol": "enocean",
             "devices": {"dev-0103": ["power"]}, "actuators": []},
            {"uri": P2, "protocol": "zigbee",
             "devices": {"dev-0104": ["power"]}, "actuators": ["dev-0104"]},
            {"uri": P1, "protocol": "zigbee",
             "devices": {"dev-0105": ["power"]}, "actuators": []},
        ]
        assert network["device_proxies"] == []
