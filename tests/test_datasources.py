"""Tests for the BIM / SIM / GIS native stores and the district generator."""

import numpy as np
import pytest

from repro.datasources import geometry as G
from repro.datasources.bim import (
    IFC_BUILDING,
    IFC_SPACE,
    IFC_STOREY,
    BimStore,
    build_office_bim,
    make_guid,
)
from repro.datasources.generators import synthesize_district
from repro.datasources.gis import (
    LAYER_BOUNDARY,
    LAYER_BUILDINGS,
    LAYER_ROUTES,
    GisStore,
)
from repro.datasources.sim import (
    COMMODITY_HEAT,
    NODE_CONSUMER,
    NODE_JUNCTION,
    NODE_PLANT,
    SimStore,
)
from repro.errors import ConfigurationError, UnknownEntityError


class TestBimStore:
    def test_build_office_structure(self):
        rng = np.random.RandomState(0)
        bim = build_office_bim(rng, "HQ", storeys=3, spaces_per_storey=4,
                               floor_area_m2=3000.0,
                               cadastral_id="TO-01-1000", year_built=1987)
        assert bim.root()["Name"] == "HQ"
        assert len(bim.by_type(IFC_STOREY)) == 3
        assert len(bim.spaces()) == 12
        props = bim.property_sets(bim.root()["GlobalId"])
        assert props["GrossFloorArea"] == 3000.0
        assert props["CadastralReference"] == "TO-01-1000"

    def test_children_navigation(self):
        rng = np.random.RandomState(1)
        bim = build_office_bim(rng, "HQ", 2, 3, 1000.0, "TO-01-1001", 2000)
        storeys = bim.children(bim.root()["GlobalId"])
        assert len(storeys) == 2
        spaces = bim.children(storeys[0]["GlobalId"])
        assert all(s["type"] == IFC_SPACE for s in spaces)

    def test_guids_are_22_chars_and_unique(self):
        rng = np.random.RandomState(2)
        guids = {make_guid(rng) for _ in range(500)}
        assert len(guids) == 500
        assert all(len(g) == 22 for g in guids)

    def test_duplicate_guid_rejected(self):
        store = BimStore("x")
        guid = "A" * 22
        store.add_record(guid, IFC_BUILDING, "b")
        with pytest.raises(ConfigurationError):
            store.add_record(guid, IFC_SPACE, "s")

    def test_second_root_rejected(self):
        store = BimStore("x")
        store.add_record("A" * 22, IFC_BUILDING, "b1")
        with pytest.raises(ConfigurationError):
            store.add_record("B" * 22, IFC_BUILDING, "b2")

    def test_missing_parent_rejected(self):
        store = BimStore("x")
        with pytest.raises(ConfigurationError):
            store.add_record("A" * 22, IFC_SPACE, "s", parent="Z" * 22)

    def test_unknown_record_raises(self):
        with pytest.raises(UnknownEntityError):
            BimStore("x").record("nope")

    def test_empty_store_has_no_root(self):
        with pytest.raises(UnknownEntityError):
            BimStore("x").root()

    def test_property_set_requires_target(self):
        store = BimStore("x")
        with pytest.raises(ConfigurationError):
            store.add_property_set("missing", "P" * 22, "pset", {})

    def test_set_property_is_a_versioned_edit(self):
        store = BimStore("x")
        root = store.add_record("A" * 22, IFC_BUILDING, "b")
        pset = store.add_property_set(root, "P" * 22, "Pset_BuildingCommon",
                                      {"YearOfConstruction": 1979})
        assert store.version == 2
        store.set_property(pset, "YearOfConstruction", 2015)
        assert store.version == 3
        assert store.property_sets(root) == {"YearOfConstruction": 2015}
        for not_a_pset in (root, "missing"):
            with pytest.raises(ConfigurationError):
                store.set_property(not_a_pset, "YearOfConstruction", 1)
        assert store.version == 3


class TestSimStore:
    def build_network(self):
        sim = SimStore("heat-1", COMMODITY_HEAT)
        sim.add_node("plant", NODE_PLANT, 0, 0, capacity_kw=1000)
        sim.add_node("j1", NODE_JUNCTION, 50, 0)
        sim.add_node("c1", NODE_CONSUMER, 100, 0, capacity_kw=80)
        sim.add_node("c2", NODE_CONSUMER, 50, 50, capacity_kw=60)
        sim.add_edge("e1", "plant", "j1", length_m=50, rating=500)
        sim.add_edge("e2", "j1", "c1", length_m=50, rating=100)
        sim.add_edge("e3", "j1", "c2", length_m=50, rating=100)
        sim.add_service_point("c1", "TO-01-1000")
        sim.add_service_point("c2", "TO-01-1001")
        return sim

    def test_unknown_commodity_rejected(self):
        with pytest.raises(ConfigurationError):
            SimStore("x", "hydrogen")

    def test_nodes_by_kind(self):
        sim = self.build_network()
        assert len(sim.nodes(NODE_CONSUMER)) == 2
        assert len(sim.nodes()) == 4

    def test_edges_at(self):
        sim = self.build_network()
        assert {e["edge_id"] for e in sim.edges_at("j1")} == \
            {"e1", "e2", "e3"}

    def test_edge_validation(self):
        sim = self.build_network()
        with pytest.raises(ConfigurationError):
            sim.add_edge("bad", "plant", "ghost", length_m=1, rating=1)
        with pytest.raises(ConfigurationError):
            sim.add_edge("bad2", "plant", "j1", length_m=0, rating=1)
        with pytest.raises(ConfigurationError):
            sim.add_edge("e1", "plant", "j1", length_m=1, rating=1)

    def test_service_points_and_parcels(self):
        sim = self.build_network()
        assert sorted(set(sim.service_points().values())) == \
            ["TO-01-1000", "TO-01-1001"]
        assert sim.consumer_for_parcel("TO-01-1001") == "c2"
        with pytest.raises(UnknownEntityError):
            sim.consumer_for_parcel("TO-99-9999")

    def test_service_point_requires_consumer(self):
        sim = self.build_network()
        with pytest.raises(ConfigurationError):
            sim.add_service_point("j1", "TO-01-1002")

    def test_path_to_plant(self):
        sim = self.build_network()
        assert sim.path_to_plant("c1") == ["c1", "j1", "plant"]

    def test_path_to_plant_disconnected(self):
        sim = self.build_network()
        sim.add_node("island", NODE_CONSUMER, 999, 999)
        with pytest.raises(UnknownEntityError):
            sim.path_to_plant("island")

    def test_total_length(self):
        assert self.build_network().total_length_m() == 150.0


class TestGisStore:
    def build_gis(self):
        gis = GisStore("Test District")
        gis.add_feature(LAYER_BUILDINGS, G.rectangle(50, 50, 20, 20),
                        {"cadastral_id": "TO-01-1000"})
        gis.add_feature(LAYER_BUILDINGS, G.rectangle(150, 50, 20, 20),
                        {"cadastral_id": "TO-01-1001"})
        gis.add_feature(LAYER_ROUTES, G.linestring([(0, 0), (150, 50)]),
                        {"network": "heat-1"})
        return gis

    def test_layers(self):
        gis = self.build_gis()
        assert len(gis.layer(LAYER_BUILDINGS)) == 2
        assert len(gis.layer(LAYER_ROUTES)) == 1
        assert gis.layer(LAYER_BOUNDARY) == []

    def test_unknown_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            self.build_gis().add_feature("rivers", G.point(0, 0))
        with pytest.raises(ConfigurationError):
            self.build_gis().layer("rivers")

    def test_bbox_query(self):
        gis = self.build_gis()
        hits = gis.query_bbox(G.BoundingBox(0, 0, 100, 100),
                              layer=LAYER_BUILDINGS)
        assert len(hits) == 1
        assert hits[0].properties["cadastral_id"] == "TO-01-1000"

    def test_point_query(self):
        gis = self.build_gis()
        hits = gis.query_point(150, 50)
        assert len(hits) == 1
        assert hits[0].properties["cadastral_id"] == "TO-01-1001"
        assert gis.query_point(999, 999) == []

    def test_district_bounds(self):
        bounds = self.build_gis().district_bounds()
        assert bounds.min_x == 0.0
        assert bounds.max_x == 160.0

    def test_empty_store_bounds_raise(self):
        with pytest.raises(UnknownEntityError):
            GisStore("empty").district_bounds()

    def test_duplicate_feature_id_rejected(self):
        gis = GisStore("x")
        gis.add_feature(LAYER_BUILDINGS, G.point(0, 0), feature_id="f1")
        with pytest.raises(ConfigurationError):
            gis.add_feature(LAYER_BUILDINGS, G.point(1, 1), feature_id="f1")


class TestDistrictGenerator:
    def test_basic_shape(self):
        district = synthesize_district(seed=7, n_buildings=6,
                                       devices_per_building=4, n_networks=2)
        assert len(district.buildings) == 6
        assert len(district.networks) == 2
        assert all(len(b.devices) == 4 for b in district.buildings)
        # every building leads with its feeder meter
        assert all(b.devices[0].kind == "power_meter"
                   for b in district.buildings)

    def test_deterministic_for_seed(self):
        a = synthesize_district(seed=3, n_buildings=4)
        b = synthesize_district(seed=3, n_buildings=4)
        assert [d.device_id for d in a.devices] == \
            [d.device_id for d in b.devices]
        assert [d.address for d in a.devices] == \
            [d.address for d in b.devices]

    def test_different_seeds_differ(self):
        a = synthesize_district(seed=1, n_buildings=4)
        b = synthesize_district(seed=2, n_buildings=4)
        assert [d.protocol for d in a.devices] != \
            [d.protocol for d in b.devices] or \
            a.buildings[0].floor_area_m2 != b.buildings[0].floor_area_m2

    def test_device_ids_unique(self):
        district = synthesize_district(seed=0, n_buildings=10,
                                       devices_per_building=7, n_networks=2)
        ids = [d.device_id for d in district.devices]
        assert len(ids) == len(set(ids))

    def test_addresses_unique_per_protocol(self):
        district = synthesize_district(seed=0, n_buildings=10,
                                       devices_per_building=7)
        seen = set()
        for device in district.devices:
            key = (device.protocol, device.address)
            assert key not in seen
            seen.add(key)

    def test_gis_covers_every_building(self):
        district = synthesize_district(seed=5, n_buildings=9)
        by_parcel = {feature.properties["cadastral_id"]: feature
                     for feature in district.gis.layer(LAYER_BUILDINGS)}
        for building in district.buildings:
            assert by_parcel[building.cadastral_id].feature_id == \
                building.feature_id

    def test_bim_cadastral_reference_matches(self):
        district = synthesize_district(seed=5, n_buildings=4)
        for building in district.buildings:
            props = building.bim.property_sets(
                building.bim.root()["GlobalId"]
            )
            assert props["CadastralReference"] == building.cadastral_id

    def test_networks_serve_known_parcels(self):
        district = synthesize_district(seed=5, n_buildings=6, n_networks=2)
        parcels = {b.cadastral_id for b in district.buildings}
        for network in district.networks:
            assert set(network.sim.service_points().values()) <= parcels

    def test_network_substations_have_meters(self):
        district = synthesize_district(seed=5, n_buildings=6, n_networks=1)
        network = district.networks[0]
        consumers = network.sim.nodes(NODE_CONSUMER)
        assert len(network.devices) == len(consumers)
        assert all(d.kind == "heat_flow_meter" for d in network.devices)

    def test_protocol_constraints_respected(self):
        district = synthesize_district(seed=11, n_buildings=12,
                                       devices_per_building=7, n_networks=1)
        from repro.datasources.generators import _DEVICE_PROTOCOLS
        for device in district.devices:
            assert device.protocol in _DEVICE_PROTOCOLS[device.kind]

    def test_load_profiles_positive_during_day(self):
        district = synthesize_district(seed=4, n_buildings=3)
        noon_monday = 4 * 86400 + 12 * 3600.0
        for building in district.buildings:
            assert building.load_profile.value(noon_monday) > 0.0

    def test_boundary_feature_present(self):
        district = synthesize_district(seed=4, n_buildings=3)
        assert len(district.gis.layer(LAYER_BOUNDARY)) == 1

    def test_lookup_helpers(self):
        district = synthesize_district(seed=4, n_buildings=3, n_networks=1)
        building = district.buildings[1]
        assert district.building(building.entity_id) is building
        with pytest.raises(ConfigurationError):
            district.building("bld-9999")
        network = district.networks[0]
        assert district.network(network.entity_id) is network
        with pytest.raises(ConfigurationError):
            district.network("net-9999")

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            synthesize_district(n_buildings=0)
        with pytest.raises(ConfigurationError):
            synthesize_district(devices_per_building=0)
        with pytest.raises(ConfigurationError):
            synthesize_district(n_networks=-1)
