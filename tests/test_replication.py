"""Tests for master replication: streaming, failover, epoch fencing."""

import pytest

from repro.core.master import MasterNode
from repro.core.replication import (
    ReplicationConfig,
    ReplicationGroup,
    replicate,
)
from repro.errors import (
    ConfigurationError,
    NotPrimaryError,
    ServiceError,
)
from repro.network.resilience import FailoverSet
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.ontology.queries import AreaQuery
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig

from tests.test_master import bim_payload, device_payload, gis_payload

CONFIG = ReplicationConfig(heartbeat_period=1.0, fencing_timeout=3.0,
                           failover_timeout=5.0, promotion_stagger=3.0,
                           snapshot_period=20.0)
# silence long enough for the most senior standby (rank 1) to promote,
# plus tick granularity slack
FAILOVER_WAIT = (CONFIG.failover_timeout + CONFIG.promotion_stagger
                 + 2.0 * CONFIG.heartbeat_period)


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


@pytest.fixture
def group(net):
    master = MasterNode(net.add_host("master"))
    group = replicate(master, standbys=2, config=CONFIG)
    net.scheduler.run_for(2.0)  # first heartbeat round
    return group


def run(net, duration):
    net.scheduler.run_for(duration)


class TestFailoverSet:
    def test_single_uri_never_fails_over(self):
        masters = FailoverSet("svc://master/")
        assert masters.current == "svc://master"
        assert masters.advance() == "svc://master"
        assert masters.failovers == 0

    def test_rotation_and_counting(self):
        masters = FailoverSet(["svc://a/", "svc://b/", "svc://c/"])
        assert masters.current == "svc://a"
        assert masters.advance() == "svc://b"
        assert masters.advance() == "svc://c"
        assert masters.advance() == "svc://a"
        assert masters.failovers == 3
        assert len(masters) == 3

    def test_wrapping_an_existing_set_shares_state(self):
        inner = FailoverSet(["svc://a/", "svc://b/"])
        inner.advance()
        outer = FailoverSet(inner)
        assert outer.current == "svc://b"

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            FailoverSet([])


class TestReplicationConfig:
    def test_defaults_satisfy_invariant(self):
        cfg = ReplicationConfig()
        assert cfg.fencing_timeout + cfg.heartbeat_period \
            <= cfg.failover_timeout

    def test_split_brain_window_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(heartbeat_period=2.0, fencing_timeout=7.0,
                              failover_timeout=8.0)

    def test_fencing_must_exceed_heartbeat(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(heartbeat_period=3.0, fencing_timeout=2.0)


class TestReplicationGroupWiring:
    def test_group_needs_two_members(self, net):
        master = MasterNode(net.add_host("m"))
        with pytest.raises(ConfigurationError):
            replicate(master, standbys=0)
        with pytest.raises(ConfigurationError):
            ReplicationGroup([])

    def test_double_replication_rejected(self, group, net):
        with pytest.raises(ConfigurationError):
            replicate(group.primary.node, standbys=1)

    def test_member_lookup(self, group):
        assert group.member("master-r1").rank == 1
        with pytest.raises(ConfigurationError):
            group.member("ghost")


class TestLogStreaming:
    def test_writes_stream_to_standbys(self, group, net):
        group.primary.node.register(gis_payload())
        group.primary.node.register(bim_payload())
        run(net, 1.0)  # async replication delivery
        for member in group.members:
            district = member.node.ontology.district("dst-0001")
            assert district.gis_uris == ["svc://proxy-gis/"]
            assert "bld-0001" in district.entities

    def test_standby_serves_read_only_resolve(self, group, net):
        group.primary.node.register(bim_payload())
        run(net, 1.0)
        standby = group.member("master-r1")
        client = HttpClient(net.add_host("reader"))
        response = client.get(standby.uri + "resolve",
                              params={"district_id": "dst-0001"})
        assert len(response.body["entities"]) == 1
        ontology = client.get(standby.uri + "ontology")
        assert any(d["district_id"] == "dst-0001"
                   for d in ontology.body["districts"])

    def test_standby_rejects_writes_with_503(self, group, net):
        standby = group.member("master-r1")
        with pytest.raises(NotPrimaryError):
            standby.node.register(gis_payload())
        client = HttpClient(net.add_host("writer"))
        with pytest.raises(ServiceError) as exc:
            client.post(standby.uri + "register", body=gis_payload())
        assert exc.value.status == 503
        assert standby.counters["writes_rejected_not_primary"] >= 2

    def test_periodic_snapshot_catches_up_late_divergence(self, group, net):
        # corrupt a standby's state out-of-band; the next full-snapshot
        # stream replaces it wholesale
        group.primary.node.register(gis_payload())
        run(net, 1.0)
        standby = group.member("master-r2")
        standby.node.reset()
        standby.applied_seq = 0
        run(net, CONFIG.snapshot_period + 2.0)
        assert standby.node.ontology.district("dst-0001").gis_uris == \
            ["svc://proxy-gis/"]

    def test_replication_lag_reported(self, group, net):
        run(net, 2.0)
        for member in group.members:
            assert member.status()["replication_lag"] == 0
        group.primary.log_seq += 5  # pretend unacked entries
        assert group.primary.replication_lag() == 5


class TestFailover:
    def test_senior_standby_promotes_with_new_epoch(self, group, net):
        net.set_host_online("master", False)
        run(net, FAILOVER_WAIT)
        new_primary = group.primary
        assert new_primary.name == "master-r1"  # seniority order
        assert new_primary.epoch == 1
        assert group.member("master-r2").role == "standby"
        assert group.member("master-r2").epoch == 1

    def test_promoted_standby_accepts_writes(self, group, net):
        group.primary.node.register(gis_payload())
        run(net, 1.0)
        net.set_host_online("master", False)
        run(net, FAILOVER_WAIT)
        body = group.primary.node.register(bim_payload())
        assert body["attached"] == "entity"
        run(net, 1.0)
        assert "bld-0001" in group.member("master-r2").node \
            .ontology.district("dst-0001").entities

    def test_rejoined_primary_steps_down_and_resyncs(self, group, net):
        group.primary.node.register(gis_payload())
        run(net, 1.0)
        old_primary = group.member("master")
        net.set_host_online("master", False)
        run(net, FAILOVER_WAIT)
        group.primary.node.register(bim_payload())
        net.set_host_online("master", True)
        run(net, 3.0 * CONFIG.heartbeat_period)
        assert old_primary.role == "standby"
        assert old_primary.epoch == 1
        assert old_primary.counters["stepdowns"] == 1
        # resynced: it has the write accepted while it was down
        assert "bld-0001" in old_primary.node.ontology \
            .district("dst-0001").entities

    def test_client_fails_over_to_standby_reads(self, net):
        master = MasterNode(net.add_host("master"))
        group = replicate(master, standbys=1, config=CONFIG)
        master.register(bim_payload())
        run(net, 2.0)
        from repro.core.client import DistrictClient
        client = DistrictClient(net.add_host("user"), group.uris(),
                                timeout=1.0)
        net.set_host_online("master", False)
        resolved = client.resolve(AreaQuery(district_id="dst-0001"))
        assert len(resolved.entities) == 1
        assert client.master_failovers == 1
        # sticky: the next call goes straight to the live replica
        client.resolve(AreaQuery(district_id="dst-0001"))
        assert client.master_failovers == 1


class TestEpochFencing:
    def test_cut_off_primary_fences_itself(self, group, net):
        old_primary = group.member("master")
        net.partition(["master"])
        run(net, CONFIG.fencing_timeout + CONFIG.heartbeat_period + 1.0)
        assert old_primary.fenced
        with pytest.raises(NotPrimaryError):
            old_primary.node.register(gis_payload())
        assert old_primary.counters["writes_rejected_fenced"] == 1

    def test_no_split_brain_through_partition_and_heal(self, group, net):
        old_primary = group.member("master")
        net.partition(["master"])
        run(net, FAILOVER_WAIT)
        # both sides settled: old primary fenced, standby promoted
        assert old_primary.fenced
        assert group.primary.name == "master-r1"
        # a write to the deposed side is rejected, not silently accepted
        with pytest.raises(NotPrimaryError):
            old_primary.node.register(gis_payload())
        net.heal_partition()
        run(net, 3.0 * CONFIG.heartbeat_period)
        assert old_primary.role == "standby"
        assert old_primary.epoch == group.primary.epoch
        total = group.counters()
        assert total["writes_accepted"] == 0  # nothing split-brained in

    @pytest.mark.parametrize("standbys", [1, 2])
    def test_lone_survivor_fences_and_a_third_member_keeps_writing(
            self, standbys):
        # the old primary never comes back.  A promoted standby with no
        # peer left fences itself and refuses every lease renewal, while
        # leases keep expiring, so the district empties (ROADMAP 8(b));
        # with a third member the survivor keeps a peer and stays writable
        d = deploy(ScenarioConfig(seed=3, n_buildings=2,
                                  heartbeat_period=10.0,
                                  master=HubConfig(standbys=standbys)))
        d.run(60.0)
        FaultInjector(d).take_offline("master")
        d.run(60.0)
        survivor = d.replication.member("master-r1")
        assert d.replication.primary is survivor
        assert survivor.fenced is (standbys == 1)
        before = dict(survivor.counters)
        d.run(60.0)  # six heartbeat rounds of lease renewals
        accepted = survivor.counters["writes_accepted"] \
            - before["writes_accepted"]
        rejected = survivor.counters["writes_rejected_fenced"] \
            - before["writes_rejected_fenced"]
        client = d.client("operator", with_broker=False)
        entities = client.resolve(AreaQuery(district_id=d.district_id),
                                  use_cache=False).entities
        if standbys == 1:
            assert (accepted, len(entities)) == (0, 0)
            assert rejected > 0
            with pytest.raises(NotPrimaryError):
                survivor.node.register(gis_payload())
        else:
            assert (rejected, len(entities)) == (0, 3)
            assert accepted > 0

    def test_stale_epoch_stream_rejected(self, group, net):
        standby = group.member("master-r1")
        standby.epoch = 5
        group.primary.node.register(gis_payload())
        run(net, 2.0)
        assert standby.counters["stale_epoch_rejections"] >= 1


class TestDeployedReplication:
    def test_deploy_wires_standbys_and_proxies(self):
        d = deploy(ScenarioConfig(
            seed=11, n_buildings=2, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=10.0,
            master=HubConfig(standbys=2, replication=CONFIG),
        ))
        d.run(60.0)
        assert d.replication is not None
        assert len(d.master_uris) == 3
        for member in d.replication.members[1:]:
            assert member.node.ontology.node_count() == \
                d.master.ontology.node_count()

    def test_area_queries_survive_primary_kill(self):
        d = deploy(ScenarioConfig(
            seed=11, n_buildings=2, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=10.0,
            master=HubConfig(standbys=1, replication=CONFIG),
        ))
        d.run(60.0)
        client = d.client("ha-user", with_broker=False)
        client.http.timeout = 1.0
        injector = FaultInjector(d)
        injector.take_offline("master")
        resolved = client.resolve(AreaQuery(district_id=d.district_id))
        assert len(resolved.entities) == 3
        # after failover the promoted standby keeps accepting heartbeats
        d.run(FAILOVER_WAIT + 30.0)
        assert d.replication.primary.name == "master-r1"
        assert d.replication.primary.counters["writes_accepted"] > 0

    def test_partition_master_triggers_failover_and_rejoin(self):
        d = deploy(ScenarioConfig(
            seed=11, n_buildings=2, devices_per_building=2,
            net_jitter=0.0, heartbeat_period=10.0,
            master=HubConfig(standbys=1, replication=CONFIG),
        ))
        d.run(30.0)
        injector = FaultInjector(d)
        isolated = injector.partition_master()
        assert isolated == "master"
        d.run(FAILOVER_WAIT)
        assert d.replication.primary.name == "master-r1"
        injector.heal_partition()
        d.run(4.0 * CONFIG.heartbeat_period)
        assert d.replication.member("master").role == "standby"

    def test_health_reports_role_epoch_and_lag(self):
        d = deploy(ScenarioConfig(
            seed=11, n_buildings=1, devices_per_building=1,
            net_jitter=0.0,
            master=HubConfig(standbys=1, replication=CONFIG),
        ))
        d.run(10.0)
        client = HttpClient(d.network.add_host("operator"))
        health = client.get(d.master.uri + "metrics").body["component"]
        assert health["role"] == "primary"
        assert health["epoch"] == 0
        assert health["fenced"] is False
        assert health["replication_lag"] == 0
        assert health["peers"] == 1
        assert "last_snapshot_age" in health
        assert "snapshots_written" in health
        standby_uri = d.master_uris[1].rstrip("/")
        standby_health = client.get(
            standby_uri + "/metrics").body["component"]
        assert standby_health["role"] == "standby"
        assert standby_health["primary"] == "master"

    def test_single_master_health_keeps_uniform_shape(self):
        d = deploy(ScenarioConfig(seed=11, n_buildings=1,
                                  devices_per_building=1, net_jitter=0.0))
        d.run(5.0)
        client = HttpClient(d.network.add_host("operator"))
        health = client.get(d.master.uri + "metrics").body["component"]
        assert health["role"] == "primary"
        assert health["epoch"] == 0
        assert health["peers"] == 0

    def test_one_schedule_persists_the_snapshot(self, tmp_path):
        # the journal persists at HubConfig.snapshot_period; replication
        # only streams at its own, faster period (30 streams in 600 s)
        # and never writes to disk — 32 snapshots here meant both did
        d = deploy(ScenarioConfig(
            seed=23, n_buildings=3, devices_per_building=3,
            master=HubConfig(
                snapshot_path=str(tmp_path / "master.json"),
                snapshot_period=300.0, standbys=1,
                replication=ReplicationConfig(snapshot_period=20.0)),
        ))
        d.run(600.0)
        assert d.replication.counters()["snapshots_sent"] == 30
        assert d.master.snapshots_written == 2
