"""Everything switched on at once: the features must compose.

Every optional feature is tested on its own elsewhere, mostly with the
others off.  Here one small district runs with master snapshots and two
master standbys, a durable *and* replicated broker, a durable
measurement DB, proxy batching, leases, publish buffers and peer
keepalive — and each of the three stateful hubs is crash-restarted in
turn.  After the drain the written promises must hold together: every
published sample is stored exactly once, rollup answers equal raw
answers, and the same run twice is the same run.
"""

import pytest

from repro.core.replication import ReplicationConfig
from repro.proxies.device_proxy import BatchConfig
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import DurabilityConfig, HubConfig
from repro.storage.query import RollupQuery

REPLICATION = ReplicationConfig(heartbeat_period=1.0, fencing_timeout=3.0,
                                failover_timeout=5.0, promotion_stagger=3.0,
                                snapshot_period=20.0)


def run_scenario(state_dir):
    """Deploy everything-on, crash-restart each hub, drain."""
    state_dir.mkdir()
    deployment = deploy(ScenarioConfig(
        seed=13, n_buildings=2, devices_per_building=3,
        heartbeat_period=10.0, publish_buffer=256, peer_keepalive=5.0,
        proxy_batching=BatchConfig(max_samples=8, max_age=5.0),
        master=HubConfig(
            snapshot_path=str(state_dir / "master.snap"),
            snapshot_period=60.0,
            standbys=2, replication=REPLICATION),
        broker=HubConfig(
            wal_path=str(state_dir / "broker.wal"),
            snapshot_path=str(state_dir / "broker.snap"),
            snapshot_period=60.0,
            standbys=1, replication=REPLICATION),
        mdb_durability=DurabilityConfig(
            wal_path=str(state_dir / "mdb.wal"),
            snapshot_path=str(state_dir / "mdb.snap"),
            snapshot_period=120.0),
    ))
    faults = FaultInjector(deployment)
    restored = {}
    deployment.run(200.0)
    restored["master"] = faults.restart_master()
    deployment.run(60.0)
    restored["broker"] = faults.restart_broker()
    deployment.run(60.0)
    faults.kill_measurement_db()
    deployment.run(8.0)  # deliveries pend on the broker meanwhile
    restored["measurement"] = faults.restart_measurement_db()
    deployment.run(120.0)
    deployment.stop_devices()
    deployment.run(60.0)  # batches age out, redeliveries and acks drain
    return deployment, restored


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    return run_scenario(tmp_path_factory.mktemp("everything") / "a")


def stored_series(mdb):
    return {(device, quantity): mdb.store.series(device, quantity).to_pairs()
            for device in mdb.store.devices()
            for quantity in mdb.store.quantities(device)}


class TestEverythingOn:
    def test_every_hub_recovered_its_state(self, outcome):
        deployment, restored = outcome
        assert all(count > 0 for count in restored.values()), restored
        assert deployment.master.ontology.node_count() > 0
        assert deployment.master.active_leases > 0
        assert deployment.broker.stats.recoveries == 1
        assert deployment.measurement_db.recoveries == 1

    def test_published_equals_ingested_equals_stored(self, outcome):
        deployment, restored = outcome
        mdb = deployment.measurement_db
        proxies = list(deployment.device_proxies.values())
        published = sum(p.measurements_published for p in proxies)
        assert published > 0
        assert all(p.peer.publications_dropped == 0 for p in proxies)
        assert all(p.peer.buffered == 0 for p in proxies)
        assert len(deployment.broker.state.deliveries) == 0
        stored = mdb.store.sample_count()
        assert stored == published
        # ingested restarts from zero at the crash: what the journal
        # brought back plus what arrived since is everything stored
        assert restored["measurement"] + mdb.ingested == stored

    def test_no_sample_double_counted(self, outcome):
        deployment, _restored = outcome
        series = stored_series(deployment.measurement_db)
        assert series
        for key, pairs in series.items():
            times = [t for t, _value in pairs]
            assert len(times) == len(set(times)), key

    def test_rollup_answers_equal_raw_answers(self, outcome):
        deployment, _restored = outcome
        mdb = deployment.measurement_db
        end = deployment.scheduler.now
        for device, quantity in stored_series(mdb):
            for agg in ("mean", "sum", "count", "min", "max"):
                query = dict(target=device, quantity=quantity, start=0.0,
                             end=end, step=900.0, agg=agg)
                rollup = mdb.query_range(RollupQuery(prefer="rollup",
                                                     **query))
                raw = mdb.query_range(RollupQuery(prefer="raw", **query))
                assert [t for t, _v in rollup] == [t for t, _v in raw]
                assert [v for _t, v in rollup] == \
                    pytest.approx([v for _t, v in raw])

    def test_same_run_twice_is_the_same_run(self, outcome, tmp_path):
        deployment, _restored = outcome
        again, _ = run_scenario(tmp_path / "b")
        first, second = deployment.network.stats, again.network.stats
        assert second.messages_delivered == first.messages_delivered
        assert second.bytes_sent == first.bytes_sent
        assert again.scheduler.events_processed == \
            deployment.scheduler.events_processed
        assert stored_series(again.measurement_db) == \
            stored_series(deployment.measurement_db)
