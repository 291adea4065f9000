"""Tests for what the snapshot files carry: ontology and measurement state.

The envelope itself (format/version gate, fsync-before-rename) and the
recovery algorithm are node-agnostic and covered once for every node
kind in ``test_recovery_contract.py``; these tests pin the *contents*
the master and the measurement DB put in their snapshots.
"""

import pytest

from repro.core.master import MasterNode
from repro.errors import SerializationError
from repro.middleware.broker import Broker
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.ontology.queries import AreaQuery
from repro.storage.blocks import BlockStore
from repro.storage.durability import (
    DurabilityConfig,
    HubConfig,
    load_state,
    save_state,
)
from repro.storage.measurementdb import MeasurementDatabase

from tests.test_ontology import build_ontology

ONTOLOGY = ("repro-ontology", 2)
MDB_STATE = ("repro-mdb-state", 3)


def make_master(path, name="master"):
    """A master on its own network, snapshotting to *path*."""
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    return MasterNode(net.add_host(name), durability=HubConfig(
        snapshot_path=path, snapshot_period=60.0))


def reloaded(master, path):
    """What a fresh master process recovers from *master*'s snapshot."""
    master.write_snapshot()
    again = make_master(path)
    assert again.recover()
    return again


class TestOntologySnapshots:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ontology.json")
        master = make_master(path)
        master.ontology = build_ontology()
        again = reloaded(master, path)
        assert again.ontology.to_dict() == master.ontology.to_dict()
        assert again.ontology.node_count() == master.ontology.node_count()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            load_state(str(tmp_path / "ghost.json"), *ONTOLOGY)

    def test_corrupt_json_rejected(self, tmp_path):
        path = str(tmp_path / "corrupt.json")
        with open(path, "w") as handle:
            handle.write("{broken")
        with pytest.raises(SerializationError):
            make_master(path).recover()

    def test_master_restart_recovery_from_snapshot(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        master = make_master(path)
        master.ontology = build_ontology()
        master.write_snapshot()
        master.reset()  # crash
        assert master.recover()
        resolved = master.resolve_area(AreaQuery("dst-0001"))
        assert len(resolved.entities) == 3

    def test_snapshot_round_trips_registration_uris(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        master = make_master(path)
        master.ontology = build_ontology()
        district = reloaded(master, path).ontology.district("dst-0001")
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
        leases = {
            "svc://proxy-bim-1/": 1234.5,
            "svc://proxy-dev-1/": 987.25,
        }
        path = str(tmp_path / "leased.json")
        master = make_master(path)
        master.ontology = build_ontology()
        master._leases = dict(leases)
        again = reloaded(master, path)
        assert again._leases == leases
        assert all(isinstance(v, float) for v in again._leases.values())
        assert again.ontology.to_dict() == master.ontology.to_dict()

    def test_snapshot_without_leases_loads_empty_table(self, tmp_path):
        path = str(tmp_path / "unleased.json")
        # every registration permanent: the state carries no lease table
        save_state(path, *ONTOLOGY,
                   {"ontology": build_ontology().to_dict()})
        master = make_master(path)
        assert master.recover()
        assert master._leases == {}
        assert master.ontology.node_count() == \
            build_ontology().node_count()

    def test_master_restart_restores_lease_expiries(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        master = make_master(path)
        net = master.host.network
        master.ontology = build_ontology()
        master._leases = {"svc://proxy-bim-1/": 500.0}
        master.write_snapshot()
        master.reset()  # crash: ontology and leases wiped
        assert master.active_leases == 0
        assert master.recover()
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
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        Broker(net.add_host("broker"))
        mdb = MeasurementDatabase(
            net.add_host("mdb"), "broker", "dst-0001",
            durability=DurabilityConfig(
                snapshot_path=str(tmp_path / "empty.json")),
        )
        mdb.write_snapshot()
        mdb.reset()
        assert mdb.recover() == 0
        assert mdb.store.sample_count() == 0
        assert mdb._freshness == mdb._entity_for_device == {}
        assert not mdb._dedup_order

    def test_deployment_archive_workflow(self, tmp_path):
        from repro.simulation import ScenarioConfig, deploy

        district = deploy(ScenarioConfig(seed=31, n_buildings=2,
                                         devices_per_building=2,
                                         net_jitter=0.0))
        district.run(300.0)
        store = district.measurement_db.store
        path = str(tmp_path / "measurements.json")
        save_state(path, *MDB_STATE, district.measurement_db.snapshot())
        restored = BlockStore.from_dict(load_state(path, *MDB_STATE)["tsdb"])
        assert restored.sample_count() == store.sample_count() > 0
        for device in store.devices():
            for quantity in store.quantities(device):
                assert restored.series(device, quantity).to_pairs() == \
                    store.series(device, quantity).to_pairs()
