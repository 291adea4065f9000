"""Tests for the master node: registration and redirect-only resolution."""

import pytest

from repro.errors import RegistrationError
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.core.master import MasterNode
from repro.ontology.queries import AreaQuery


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


@pytest.fixture
def master(net):
    return MasterNode(net.add_host("master"))


def gis_payload(uri="svc://proxy-gis/"):
    return {"proxy_kind": "database", "source_kind": "gis",
            "district_id": "dst-0001", "uri": uri, "name": "Torino Nord"}


def bim_payload(entity="bld-0001", uri="svc://proxy-bim-1/"):
    return {"proxy_kind": "database", "source_kind": "bim",
            "district_id": "dst-0001", "entity_id": entity, "uri": uri,
            "entity_type": "building", "name": f"Building {entity}",
            "bounds": [0.0, 0.0, 50.0, 50.0], "gis_feature_id": "ft-00001"}


def sim_payload(entity="net-0001", uri="svc://proxy-sim-1/"):
    return {"proxy_kind": "database", "source_kind": "sim",
            "district_id": "dst-0001", "entity_id": entity, "uri": uri,
            "entity_type": "network", "name": "Heat 1",
            "commodity": "heat"}


def device_payload(uri="svc://proxy-dev-1/"):
    return {
        "proxy_kind": "device", "district_id": "dst-0001", "uri": uri,
        "protocol": "zigbee",
        "devices": [{
            "record": "device", "device_id": "dev-0101",
            "protocol": "zigbee", "entity_id": "bld-0001",
            "sensors": [{"quantity": "power", "sample_period": 60.0}],
            "actuators": [],
        }],
    }


def measurement_payload(uri="svc://mdb/"):
    return {"proxy_kind": "measurement", "district_id": "dst-0001",
            "uri": uri}


class TestRegistration:
    def test_gis_attaches_to_district_root(self, master):
        body = master.register(gis_payload())
        assert body["attached"] == "district"
        district = master.ontology.district("dst-0001")
        assert district.gis_uris == ["svc://proxy-gis/"]
        assert district.name == "Torino Nord"

    def test_gis_registration_idempotent_uri(self, master):
        master.register(gis_payload())
        master.register(gis_payload())
        assert master.ontology.district("dst-0001").gis_uris == \
            ["svc://proxy-gis/"]

    def test_bim_creates_entity_with_bounds(self, master):
        master.register(bim_payload())
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert entity.proxy_uris["bim"] == "svc://proxy-bim-1/"
        assert entity.bounds is not None
        assert entity.gis_feature_id == "ft-00001"

    def test_sim_creates_network_entity(self, master):
        master.register(sim_payload())
        entity = master.ontology.district("dst-0001").entity("net-0001")
        assert entity.entity_type == "network"
        assert entity.properties["commodity"] == "heat"

    def test_device_proxy_creates_skeleton_entity(self, master):
        # devices may register before the building's BIM proxy exists
        master.register(device_payload())
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert "dev-0101" in entity.devices
        assert entity.proxy_uris == {}

    def test_device_then_bim_fills_in_entity(self, master):
        master.register(device_payload())
        master.register(bim_payload())
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert entity.proxy_uris["bim"] == "svc://proxy-bim-1/"
        assert "dev-0101" in entity.devices

    def test_measurement_db_attaches_to_root(self, master):
        master.register(measurement_payload())
        assert master.ontology.district("dst-0001").measurement_uris == \
            ["svc://mdb/"]

    def test_duplicate_device_registration_rejected(self, master):
        master.register(device_payload())
        with pytest.raises(RegistrationError):
            master.register(device_payload(uri="svc://proxy-dev-2/"))

    @pytest.mark.parametrize("mutilate", [
        lambda p: p.pop("district_id"),
        lambda p: p.pop("uri"),
        lambda p: p.update(proxy_kind="hologram"),
        lambda p: p.update(source_kind="csv"),
    ])
    def test_malformed_registrations_rejected(self, master, mutilate):
        payload = gis_payload()
        mutilate(payload)
        with pytest.raises(RegistrationError):
            master.register(payload)

    def test_bim_without_entity_rejected(self, master):
        payload = bim_payload()
        del payload["entity_id"]
        with pytest.raises(RegistrationError):
            master.register(payload)

    def test_device_proxy_without_devices_rejected(self, master):
        payload = device_payload()
        payload["devices"] = []
        with pytest.raises(RegistrationError):
            master.register(payload)

    def test_registration_counter(self, master):
        master.register(gis_payload())
        master.register(bim_payload())
        assert master.registrations == 2


class TestResolveRoutes:
    def populate(self, master):
        master.register(gis_payload())
        master.register(bim_payload())
        master.register(sim_payload())
        master.register(device_payload())
        master.register(measurement_payload())

    def test_resolve_over_web_service(self, net, master):
        self.populate(master)
        client = HttpClient(net.add_host("user"))
        response = client.get(
            master.uri.rstrip("/") + "/resolve",
            params=AreaQuery(district_id="dst-0001").to_params(),
        )
        body = response.body
        assert body["district_id"] == "dst-0001"
        assert len(body["entities"]) == 2
        assert body["gis_uris"] == ["svc://proxy-gis/"]
        assert body["measurement_uris"] == ["svc://mdb/"]

    def test_resolve_unknown_district_404(self, net, master):
        client = HttpClient(net.add_host("user"))
        response = client.call(
            master.uri.rstrip("/") + "/resolve",
            params={"district_id": "dst-0404"}, check=False,
        )
        assert response.status == 404

    def test_resolve_bad_query_400(self, net, master):
        self.populate(master)
        client = HttpClient(net.add_host("user"))
        response = client.call(
            master.uri.rstrip("/") + "/resolve",
            params={"district_id": "dst-0001", "bbox": "zzz"}, check=False,
        )
        assert response.status == 400

    def test_register_route(self, net, master):
        client = HttpClient(net.add_host("proxy"))
        response = client.post(master.uri.rstrip("/") + "/register",
                               body=gis_payload())
        assert response.body["attached"] == "district"
        bad = client.call(master.uri.rstrip("/") + "/register",
                          method="POST", body={}, check=False)
        assert bad.status == 400

    def test_ontology_route(self, net, master):
        self.populate(master)
        client = HttpClient(net.add_host("user"))
        body = client.get(master.uri.rstrip("/") + "/ontology").body
        assert len(body["districts"]) == 1
        assert len(body["districts"][0]["entities"]) == 2

    def test_resolves_counter(self, master):
        self.populate(master)
        master.resolve_area(AreaQuery("dst-0001"))
        master.resolve_area(AreaQuery("dst-0001"))
        assert master.resolves_served == 2
