"""Tests for the centralized monolithic baseline."""

import pytest

from repro.baselines import centralized
from repro.baselines.centralized import (
    CentralDatabase,
    deploy_centralized,
)
from repro.datasources.generators import synthesize_district
from repro.datasources.geometry import BoundingBox
from repro.errors import RequestTimeoutError
from repro.network.futures import Future
from repro.network.webservice import POST, Request
from repro.protocols.base import RawReading
from repro.storage.query import RangeQuery


@pytest.fixture(scope="module")
def dataset():
    return synthesize_district(seed=9, n_buildings=4,
                               devices_per_building=4, n_networks=1)


@pytest.fixture()
def deployment(dataset):
    return deploy_centralized(dataset, seed=9, net_jitter=0.0,
                              sync_period=None)


class TestCentralDatabase:
    def test_union_merge_counts_conflicts(self):
        db = CentralDatabase()
        db.upsert_entity("bld-0001", "building", {"name": "A", "area": 10})
        db.upsert_entity("bld-0001", "building", {"name": "B"})
        assert db.conflicts_overwritten == 1
        # lossy: the later import silently won
        assert db.entities["bld-0001"]["properties"]["name"] == "B"

    def test_union_merge_same_values_no_conflict(self):
        db = CentralDatabase()
        db.upsert_entity("bld-0001", "building", {"name": "A"})
        db.upsert_entity("bld-0001", "building", {"name": "A"})
        assert db.conflicts_overwritten == 0

    def test_entities_in_bbox(self):
        db = CentralDatabase()
        db.upsert_entity("bld-0001", "building", {},
                         geometry={"bounds": [0, 0, 10, 10]})
        db.upsert_entity("bld-0002", "building", {},
                         geometry={"bounds": [100, 100, 110, 110]})
        db.upsert_entity("net-0001", "network", {})  # no geometry
        hits = db.entities_in(BoundingBox(0, 0, 50, 50))
        assert [r["entity_id"] for r in hits] == ["bld-0001"]
        assert len(db.entities_in(None)) == 3


class TestCentralizedDeployment:
    def test_sync_imports_every_entity(self, dataset, deployment):
        rows = deployment.server.database.entities
        assert len(rows) == len(dataset.buildings) + len(dataset.networks)
        building = dataset.buildings[0]
        row = rows[building.entity_id]
        assert row["properties"]["cadastral_id"] == building.cadastral_id
        assert row["geometry"] is not None

    def test_union_import_loses_information(self, dataset, deployment):
        # BIM and GIS both carry 'use'-style values; with this generator
        # no key disagrees except when sources genuinely conflict, so
        # simulate a source edit followed by a re-sync
        building = dataset.buildings[0]
        root_guid = building.bim.root()["GlobalId"]
        before = deployment.server.database.conflicts_overwritten
        # the BIM gets re-surveyed: the floor area is corrected
        for record in building.bim.by_type("IfcPropertySet"):
            if record["parent"] == root_guid and \
                    "GrossFloorArea" in record["props"]:
                building.bim.set_property(
                    record["GlobalId"], "GrossFloorArea",
                    record["props"]["GrossFloorArea"] + 100.0)
        deployment.sync_models()
        assert deployment.server.database.conflicts_overwritten > before

    def test_device_samples_relayed_over_http(self, dataset, deployment):
        deployment.run(180.0)
        assert deployment.server.ingests > 0
        total_relayed = sum(g.relayed for g in deployment.gateways)
        assert total_relayed >= deployment.server.ingests > 0
        measurements = deployment.server.database.measurements
        assert measurements.sample_count() == deployment.server.ingests

    def test_central_is_the_ingest_hotspot(self, dataset, deployment):
        deployment.run(300.0)
        received = deployment.network.stats.per_host_received
        # the central host receives more messages than any gateway
        central = received.get("central", 0)
        assert central > 0
        for gateway in deployment.gateways:
            assert central >= received.get(gateway.host.name, 0)

    def test_area_query_returns_data_inline(self, dataset, deployment):
        deployment.run(120.0)
        client = deployment.client_host()
        response = client.get(deployment.server.uri.rstrip("/") + "/area",
                              params={"with_data": "1"})
        entities = response.body["entities"]
        assert len(entities) == len(dataset.buildings) + \
            len(dataset.networks)
        sampled = [e for e in entities if e.get("samples")]
        assert sampled, "no entity carried inline samples"

    def test_measurement_query_route(self, dataset, deployment):
        deployment.run(120.0)
        meter = dataset.buildings[0].devices[0]
        client = deployment.client_host("query-user")
        query = RangeQuery(meter.device_id, "power")
        response = client.get(
            deployment.server.uri.rstrip("/") + "/measurements",
            params=query.to_params(),
        )
        assert response.body["samples"]

    def test_entity_route(self, dataset, deployment):
        client = deployment.client_host("entity-user")
        entity_id = dataset.buildings[0].entity_id
        response = client.get(
            deployment.server.uri.rstrip("/") + f"/entity/{entity_id}"
        )
        assert response.body["entity_id"] == entity_id
        missing = client.call(
            deployment.server.uri.rstrip("/") + "/entity/bld-9999",
            check=False,
        )
        assert missing.status == 404

    def test_staleness_until_next_sync(self, dataset):
        deployment = deploy_centralized(dataset, seed=9, net_jitter=0.0,
                                        sync_period=600.0)
        building = dataset.buildings[0]
        root_guid = building.bim.root()["GlobalId"]
        for record in building.bim.by_type("IfcPropertySet"):
            if record["parent"] == root_guid and \
                    "YearOfConstruction" in record["props"]:
                building.bim.set_property(record["GlobalId"],
                                          "YearOfConstruction", 2015)
        row = deployment.server.database.entities[building.entity_id]
        assert row["properties"]["year_built"] != 2015  # stale
        deployment.run(601.0)  # periodic sync fires
        row = deployment.server.database.entities[building.entity_id]
        assert row["properties"]["year_built"] == 2015

    def test_bad_ingest_rejected(self, dataset, deployment):
        client = deployment.client_host("bad-ingester")
        response = client.call(
            deployment.server.uri.rstrip("/") + "/ingest",
            method="POST", body={"record": "nonsense"}, check=False,
        )
        assert response.status == 400


class TestCentralizedCatchesOnlyWhatItMeans:
    """A malformed body is a 400 and a lost request a failed relay; any
    other exception is a bug and propagates (the 500 path counts it)."""

    GOOD = {"device_id": "dev-0001", "entity_id": "bld-0001",
            "quantity": "power", "value": 1.0, "timestamp": 0.0}

    @pytest.mark.parametrize("body", [
        {"record": "nonsense"},                       # SerializationError
        {**GOOD, "quantity": "flux"},                 # UnitError
        {**GOOD, "value": "high"},                    # ValueError
        {**GOOD, "timestamp": None},                  # TypeError
        ["not", "a", "mapping"],                      # TypeError
    ])
    def test_every_malformed_body_is_a_400(self, deployment, body):
        response = deployment.server._ingest_route(
            Request(POST, "/ingest", body=body))
        assert response.status == 400
        assert response.reason.startswith("bad measurement")

    def test_a_decoder_bug_is_not_a_bad_measurement(self, deployment,
                                                    monkeypatch):
        def broken(data):
            raise KeyError("decoder bug")

        monkeypatch.setattr(centralized.Measurement, "from_dict", broken)
        client = deployment.client_host("bug-ingester")
        response = client.call(
            deployment.server.uri.rstrip("/") + "/ingest",
            method="POST", body=self.GOOD, check=False)
        assert response.status == 500
        assert deployment.server.service.handler_errors == 1

    def test_only_network_failures_count_as_failed_relays(self, deployment):
        gateway = deployment.gateways[0]
        address = next(iter(gateway._by_address))
        futures = []

        def request(*_args, **_kwargs):
            futures.append(Future())
            return futures[-1]

        gateway.http.request = request
        reading = RawReading(address, "power", 1.0, 0.0)
        gateway._relay(reading)
        futures[-1].set_exception(RequestTimeoutError("no answer"))
        assert gateway.failed == 1
        gateway._relay(reading)
        with pytest.raises(KeyError):
            futures[-1].set_exception(KeyError("not a network failure"))
        assert gateway.failed == 1
