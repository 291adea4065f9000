"""Tests for ontology snapshots and measurement-DB state snapshots."""

import json

import pytest

from repro.errors import SerializationError
from repro.persistence import (
    load_measurement_state,
    load_ontology,
    load_ontology_snapshot,
    save_measurement_state,
    save_ontology,
)
from repro.storage.blocks import BlockStore

from tests.test_ontology import build_ontology


class TestOntologySnapshots:
    def test_round_trip(self, tmp_path):
        ontology = build_ontology()
        path = str(tmp_path / "ontology.json")
        save_ontology(ontology, path)
        again = load_ontology(path)
        assert again.to_dict() == ontology.to_dict()
        assert again.node_count() == ontology.node_count()

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(SerializationError):
            load_ontology(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = str(tmp_path / "old.json")
        with open(path, "w") as handle:
            json.dump({"format": "repro-ontology", "version": 99,
                       "ontology": {}}, handle)
        with pytest.raises(SerializationError):
            load_ontology(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            load_ontology(str(tmp_path / "ghost.json"))

    def test_corrupt_json_rejected(self, tmp_path):
        path = str(tmp_path / "corrupt.json")
        with open(path, "w") as handle:
            handle.write("{broken")
        with pytest.raises(SerializationError):
            load_ontology(path)

    def test_master_restart_recovery_from_snapshot(self, tmp_path):
        from repro.network.scheduler import Scheduler
        from repro.network.transport import LatencyModel, Network
        from repro.core.master import MasterNode
        from repro.ontology.queries import AreaQuery

        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        master = MasterNode(net.add_host("master"))
        master.ontology = build_ontology()
        path = str(tmp_path / "snapshot.json")
        save_ontology(master.ontology, path)
        master.reset()  # crash
        master.ontology = load_ontology(path)  # recovery
        resolved = master.resolve_area(AreaQuery("dst-0001"))
        assert len(resolved.entities) == 3

    def test_snapshot_round_trips_registration_uris(self, tmp_path):
        ontology = build_ontology()
        path = str(tmp_path / "snapshot.json")
        save_ontology(ontology, path)
        again = load_ontology(path)
        district = again.district("dst-0001")
        assert district.gis_uris == ["svc://proxy-gis/"]
        assert district.measurement_uris == ["svc://mdb/"]
        assert district.entities["bld-0001"].proxy_uris == \
            {"bim": "svc://proxy-bim-1/"}
        devices = district.entities["bld-0001"].devices
        assert devices["dev-0101"].proxy_uri == "svc://proxy-dev-1/"
        assert devices["dev-0101"].quantities == ("power", "energy")
        assert district.entities["bld-0002"] \
            .devices["dev-0201"].is_actuator

    def test_snapshot_round_trips_lease_metadata(self, tmp_path):
        ontology = build_ontology()
        leases = {
            "svc://proxy-bim-1/": 1234.5,
            "svc://proxy-dev-1/": 987.25,
        }
        path = str(tmp_path / "leased.json")
        save_ontology(ontology, path, leases=leases)
        snap = load_ontology_snapshot(path)
        assert snap.leases == leases
        assert all(isinstance(v, float) for v in snap.leases.values())
        assert snap.ontology.to_dict() == ontology.to_dict()
        # plain load_ontology keeps working on a lease-bearing file
        assert load_ontology(path).to_dict() == ontology.to_dict()

    def test_snapshot_without_leases_loads_empty_table(self, tmp_path):
        path = str(tmp_path / "legacy.json")
        save_ontology(build_ontology(), path)  # pre-lease file shape
        snap = load_ontology_snapshot(path)
        assert snap.leases == {}
        assert snap.ontology.node_count() == build_ontology().node_count()

    def test_master_restart_restores_lease_expiries(self, tmp_path):
        from repro.network.scheduler import Scheduler
        from repro.network.transport import LatencyModel, Network
        from repro.core.master import MasterNode

        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        master = MasterNode(net.add_host("master"))
        master.ontology = build_ontology()
        master._leases = {"svc://proxy-bim-1/": 500.0}
        path = str(tmp_path / "snapshot.json")
        master.start_snapshots(path, period=60.0)
        master.write_snapshot()
        master.reset()  # crash: ontology and leases wiped
        assert master.active_leases == 0
        assert master.recover_from_snapshot()
        # original absolute expiry preserved: eviction still on schedule
        assert master._leases == {"svc://proxy-bim-1/": 500.0}
        net.scheduler.run_until(501.0)
        master.expire_leases()
        assert master.active_leases == 0
        assert "bim" not in master.ontology.district("dst-0001") \
            .entities["bld-0001"].proxy_uris


class TestMeasurementArchives:
    """The measurement DB's one on-disk format: the state snapshot."""

    def test_empty_database_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.json")
        save_measurement_state(BlockStore(), path)
        state = load_measurement_state(path)
        assert state.database.sample_count() == 0
        assert state.freshness == state.entity_for_device == {}
        assert state.dedup_keys == []

    def test_deployment_archive_workflow(self, tmp_path):
        from repro.simulation import ScenarioConfig, deploy

        district = deploy(ScenarioConfig(seed=31, n_buildings=2,
                                         devices_per_building=2,
                                         net_jitter=0.0))
        district.run(300.0)
        store = district.measurement_db.store
        path = str(tmp_path / "measurements.json")
        save_measurement_state(store, path)
        restored = load_measurement_state(path).database
        assert restored.sample_count() == store.sample_count() > 0
        for device in store.devices():
            for quantity in store.quantities(device):
                assert restored.series(device, quantity).to_pairs() == \
                    store.series(device, quantity).to_pairs()
