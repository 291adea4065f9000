"""The durable, replicable state contract — one suite, every node kind.

Master, broker and measurement DB implement the same
:class:`~repro.storage.durability.StateMachine` contract and share one
:class:`~repro.storage.durability.Journal` and one
:class:`~repro.core.replication.ReplicatedNode`.  So the recovery and
replication behaviour is checked once, parameterised over the node
kind, instead of once per node: each kind below only says how to build
the node and how to drive a few state mutations through its public
write path.  They are configured with one value too
(:class:`~repro.storage.durability.HubConfig`), so what that value
means — and what each kind refuses — is checked here the same way.
"""

import json
import os

import pytest

from repro.common.cdf import Measurement
from repro.core.master import MasterNode
from repro.core.replication import ReplicationConfig, hub_group
from repro.errors import (
    ConfigurationError,
    NotPrimaryError,
    SerializationError,
)
from repro.middleware.broker import Broker
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import measurement_topic
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import (
    DurabilityConfig,
    HubConfig,
    WriteAheadLog,
    save_state,
)
from repro.storage.measurementdb import MeasurementDatabase

from tests.test_master import bim_payload

CONFIG = ReplicationConfig(heartbeat_period=1.0, fencing_timeout=3.0,
                           failover_timeout=5.0, promotion_stagger=3.0,
                           snapshot_period=20.0)
# silence long enough for the most senior standby (rank 1) to promote,
# plus tick granularity slack
FAILOVER_WAIT = (CONFIG.failover_timeout + CONFIG.promotion_stagger
                 + 2.0 * CONFIG.heartbeat_period)


def paths(tmp_path, name):
    return {"wal_path": str(tmp_path / f"{name}.wal"),
            "snapshot_path": str(tmp_path / f"{name}.snap")}


def hub_config(kind, tmp_path=None, **fields):
    """The one value a *kind* node is built and wired from: its paths
    under *tmp_path*, plus *fields*; None when there is nothing to say."""
    if tmp_path is not None:
        fields.update(paths(tmp_path, kind.name))
        if not kind.has_wal:
            del fields["wal_path"]
    if not fields:
        return None
    return kind.config_type(snapshot_period=600.0, replication=CONFIG,
                            **fields)


def serving(node, config):
    """The group serving *node*, after its first heartbeat round when it
    has standbys."""
    group = hub_group(node, config)
    if group.members:
        node.host.network.scheduler.run_for(2.0)
    return group


class MasterKind:
    """The master: snapshots only (its log is the replication stream)."""

    name = "master"
    envelope = ("repro-ontology", 2)
    #: what the parent commit wrote: rejected by version, never guessed at
    parent_layout = {"format": "repro-ontology", "version": 1,
                     "ontology": {}, "leases": {}, "ontology_epoch": 0}
    has_wal = False
    config_type = HubConfig
    scenario_field = deployed_as = "master"

    def __init__(self, net, tmp_path=None, **hub):
        self.net = net
        config = hub_config(self, tmp_path, **hub)
        self.node = MasterNode(net.add_host("master"), durability=config)
        self.group = serving(self.node, config)

    def drive(self, round, settle=1.0):
        """Register one more building on whoever is primary now."""
        self.group.acting().register(
            bim_payload(entity=f"bld-{round:04d}",
                        uri=f"svc://proxy-bim-{round}/"))
        self.net.scheduler.run_for(settle)

    def isolate(self):
        """Cut the original primary off from the rest of the group."""
        self.net.partition(["master"])

    def refused_write(self):
        """Write to the isolated primary; True when it was refused."""
        try:
            self.node.register(bim_payload(entity="bld-0999"))
        except NotPrimaryError:
            return True
        return False

    @staticmethod
    def view(node):
        # restore() deliberately jumps the epoch (tokens stay monotone)
        state = node.snapshot()
        del state["ontology_epoch"]
        return state


class BrokerKind:
    """The broker: retained events, subscriptions, pending deliveries."""

    name = "broker"
    envelope = ("repro-broker-state", 1)
    has_wal = True
    config_type = HubConfig
    scenario_field = deployed_as = "broker"

    def __init__(self, net, tmp_path=None, **hub):
        self.net = net
        config = hub_config(self, tmp_path, **hub)
        # a long ack timeout: no redelivery fires inside a test, so the
        # in-memory attempt counters stay what the log says they are
        self.node = Broker(net.add_host("broker"), durability=config,
                           delivery_ack_timeout=60.0)
        self.group = serving(self.node, config)
        hosts = self.group.hosts()
        self.publisher = MiddlewarePeer(net.add_host("pub"), hosts,
                                        publish_buffer=64, ack_timeout=1.0)
        consumer = MiddlewarePeer(net.add_host("sub"), hosts)
        consumer.subscribe("area/#", lambda event: None, ack=True)
        # a consumer that went dark: its deliveries stay pending
        dark = MiddlewarePeer(net.add_host("dark"), hosts)
        dark.subscribe("area/#", lambda event: None, ack=True)
        net.scheduler.run_for(1.0)
        net.set_host_online("dark", False)

    def drive(self, round, settle=1.0):
        self.publisher.publish(f"area/b{round}/t", {"v": round},
                               retain=True)
        self.net.scheduler.run_for(settle)

    def isolate(self):
        """Cut the original primary off, with one publisher that only
        knows it: no split-brain ack may reach that peer."""
        self.stale = MiddlewarePeer(self.net.add_host("stale"), "broker",
                                    publish_buffer=16, ack_timeout=1.0)
        self.net.scheduler.run_for(1.0)
        self.net.partition(["broker", "stale"])

    def refused_write(self):
        self.stale.publish("area/b999/t", {"v": 999})
        self.net.scheduler.run_for(5.0)
        return self.stale.publications_acked == 0 \
            and self.node.stats.not_primary_refusals >= 1

    @staticmethod
    def view(node):
        return node.snapshot()


class MeasurementKind:
    """The measurement DB: block store, freshness, dedup window."""

    name = "measurement"
    envelope = ("repro-mdb-state", 3)
    parent_layout = {"format": "repro-mdb-state", "version": 2,
                     "engine": "blocks", "tsdb": {}, "freshness": {},
                     "dedup_keys": [], "entity_for_device": {}}
    has_wal = True
    config_type = DurabilityConfig
    scenario_field = "mdb_durability"
    deployed_as = "measurement_db"

    def __init__(self, net, tmp_path=None, **hub):
        self.net = net
        Broker(net.add_host("broker"))
        config = hub_config(self, tmp_path, **hub)
        self.node = MeasurementDatabase(net.add_host("mdb"), "broker",
                                        "dst-0001", durability=config)
        self.group = serving(self.node, config)
        self.publisher = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)

    def drive(self, round, settle=1.0):
        for i in range(3):
            seq = round * 10 + i
            self.publisher.publish(
                measurement_topic("dst-0001", "bld-0001", "dev-0001",
                                  "temperature"),
                Measurement(device_id="dev-0001", entity_id="bld-0001",
                            quantity="temperature", value=20.0 + seq,
                            timestamp=float(seq), source="test",
                            metadata={"seq": seq}).to_dict())
        self.net.scheduler.run_for(settle)

    @staticmethod
    def view(node):
        return node.snapshot()


KINDS = [MasterKind, BrokerKind, MeasurementKind]
WAL_KINDS = [BrokerKind, MeasurementKind]
REPLICATED_KINDS = [MasterKind, BrokerKind]


def by_name(kind):
    return kind.name


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


def dumped(view):
    return json.dumps(view, sort_keys=True)


@pytest.mark.parametrize("kind", KINDS, ids=by_name)
class TestStateTransitions:
    def test_restore_of_snapshot_round_trips(self, kind, net):
        rig = kind(net)
        for round in (1, 2, 3):
            rig.drive(round)
        node = rig.node
        state = json.loads(json.dumps(node.snapshot()))  # as on the wire
        before = dumped(rig.view(node))
        node.reset()
        assert dumped(rig.view(node)) != before
        node.restore(state)
        assert dumped(rig.view(node)) == before

    def test_volatile_node_has_nothing_to_recover(self, kind, net):
        rig = kind(net)
        rig.drive(1)
        rig.node.reset()
        assert rig.node.recover() is None
        assert not rig.node.journal.durable


@pytest.mark.parametrize("kind", KINDS, ids=by_name)
class TestCrashRecovery:
    def test_snapshot_then_tail_recovers(self, kind, net, tmp_path):
        rig = kind(net, tmp_path)
        node = rig.node
        rig.drive(1)
        rig.drive(2)
        node.write_snapshot()
        at_snapshot = dumped(rig.view(node))
        if kind.has_wal:
            assert node.wal.size_bytes() == 0  # truncated by the snapshot
        rig.drive(3)
        before_crash = dumped(rig.view(node))
        assert before_crash != at_snapshot
        node.reset()
        assert node.recover() > 0
        # a WAL carries the tail past the snapshot; the master has no
        # WAL (later registrations come back with the next heartbeats)
        expected = before_crash if kind.has_wal else at_snapshot
        assert dumped(rig.view(node)) == expected

    def test_discard_then_recover_restores_nothing(self, kind, net,
                                                   tmp_path):
        rig = kind(net, tmp_path)
        node = rig.node
        rig.drive(1)
        node.write_snapshot()
        rig.drive(2)
        node.reset()
        empty = dumped(rig.view(node))
        node.journal.discard()  # the disk is lost too
        assert node.recover() == 0
        assert dumped(rig.view(node)) == empty
        assert not os.path.exists(node.journal.snapshot_path)

    def test_wrong_format_rejected(self, kind, net, tmp_path):
        rig = kind(net, tmp_path)
        _format, version = kind.envelope
        save_state(rig.node.journal.snapshot_path, "something-else",
                   version, {})
        with pytest.raises(SerializationError, match="is not a"):
            rig.node.recover()

    def test_unknown_version_rejected(self, kind, net, tmp_path):
        rig = kind(net, tmp_path)
        format, _version = kind.envelope
        save_state(rig.node.journal.snapshot_path, format, 99, {})
        with pytest.raises(SerializationError, match="version 99"):
            rig.node.recover()


@pytest.mark.parametrize("kind", [MasterKind, MeasurementKind], ids=by_name)
def test_parent_commit_layout_rejected_by_version(kind, net, tmp_path):
    """Where this change moved the layout it bumped the version: a file
    the parent commit wrote is refused loudly, never half-loaded."""
    rig = kind(net, tmp_path)
    with open(rig.node.journal.snapshot_path, "w") as handle:
        json.dump(kind.parent_layout, handle)
    with pytest.raises(SerializationError, match="version"):
        rig.node.recover()


@pytest.mark.parametrize("kind", WAL_KINDS, ids=by_name)
class TestWalReplay:
    def test_crash_between_snapshot_and_truncate_replays_idempotently(
            self, kind, net, tmp_path, monkeypatch):
        rig = kind(net, tmp_path)
        node = rig.node
        rig.drive(1)
        rig.drive(2)
        covered = len(node.wal.records())
        assert covered > 0
        with monkeypatch.context() as patch:
            # the crash lands after the snapshot is durable and before
            # the truncation: the WAL keeps records the snapshot covers
            patch.setattr(WriteAheadLog, "reset", lambda self: None)
            node.write_snapshot()
        assert len(node.wal.records()) == covered
        rig.drive(3)
        before = dumped(rig.view(node))
        node.reset()
        node.recover()
        assert dumped(rig.view(node)) == before

    def test_torn_final_line_skipped_and_counted(self, kind, net,
                                                 tmp_path):
        rig = kind(net, tmp_path)
        node = rig.node
        rig.drive(1)
        rig.drive(2)
        before = dumped(rig.view(node))
        node.reset()
        with open(node.wal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "retain", "tru')  # crash mid-append
        node.recover()
        assert node.wal.torn_records_skipped == 1
        assert dumped(rig.view(node)) == before

    def test_torn_tail_does_not_poison_the_next_append(self, kind, net,
                                                       tmp_path):
        """Two crashes: the fragment the first one left must be cut off
        before the recovered node appends, or its first acknowledged
        record is glued onto it and the second recovery cannot read
        the log at all."""
        rig = kind(net, tmp_path)
        node = rig.node
        rig.drive(1)
        rig.drive(2)
        node.reset()
        with open(node.wal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "retain", "tru')  # crash mid-append
        node.recover()
        rig.drive(3)
        rig.drive(4)
        before = dumped(rig.view(node))
        node.reset()
        node.recover()
        assert node.wal.torn_records_skipped == 1
        assert dumped(rig.view(node)) == before

    def test_torn_middle_line_raises(self, kind, net, tmp_path):
        rig = kind(net, tmp_path)
        node = rig.node
        rig.drive(1)
        rig.drive(2)
        node.reset()
        with open(node.wal.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) >= 2
        lines.insert(1, "not json at all\n")
        with open(node.wal.path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(json.JSONDecodeError):
            node.recover()


@pytest.mark.parametrize("kind", KINDS, ids=by_name)
def test_snapshot_fsynced_before_rename_before_truncate(
        kind, net, tmp_path, monkeypatch):
    """The snapshot's bytes reach the disk before it replaces the old
    one, and the WAL it covers is truncated only after that."""
    rig = kind(net, tmp_path)
    node = rig.node
    rig.drive(1)
    snapshot_path = node.journal.snapshot_path
    events = []
    real_fsync, real_replace = os.fsync, os.replace
    real_reset = WriteAheadLog.reset

    def fsync(fd):
        tmp = os.stat(snapshot_path + ".tmp")
        if os.fstat(fd).st_ino == tmp.st_ino:
            assert tmp.st_size > 0  # flushed, not still in a buffer
            events.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", src, dst))
        real_replace(src, dst)

    def reset(wal):
        events.append("truncate")
        real_reset(wal)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(WriteAheadLog, "reset", reset)
    node.write_snapshot()
    expected = ["fsync",
                ("replace", snapshot_path + ".tmp", snapshot_path)]
    if kind.has_wal:
        expected.append("truncate")
    assert events == expected


def everything_durable(tmp_path, **overrides):
    return deploy(ScenarioConfig(
        n_buildings=1, devices_per_building=2, net_jitter=0.0,
        heartbeat_period=30.0, publish_buffer=64, peer_keepalive=5.0,
        master=HubConfig(
            snapshot_path=paths(tmp_path, "master")["snapshot_path"],
            snapshot_period=60.0),
        broker=HubConfig(snapshot_period=60.0, **paths(tmp_path, "broker")),
        mdb_durability=DurabilityConfig(**paths(tmp_path, "mdb")),
        **overrides,
    ))


def deployed(kind, deployment):
    """*deployment*'s node of *kind* and the injector verb restarting it."""
    return (getattr(deployment, kind.deployed_as),
            getattr(FaultInjector(deployment), f"restart_{kind.deployed_as}"))


@pytest.mark.parametrize("kind", KINDS, ids=by_name)
class TestFaultInjectorRestart:
    def test_restart_with_recovery(self, kind, tmp_path):
        deployment = everything_durable(tmp_path)
        deployment.run(130.0)
        node, restart = deployed(kind, deployment)
        deployment.stop_devices()
        deployment.run(10.0)
        node.write_snapshot()
        before = dumped(kind.view(node))
        assert restart(recover=True) > 0
        assert dumped(kind.view(node)) == before

    def test_restart_without_recovery_loses_the_disk(self, kind,
                                                     tmp_path):
        deployment = everything_durable(tmp_path)
        deployment.run(130.0)
        node, restart = deployed(kind, deployment)
        node.write_snapshot()
        assert os.path.exists(node.journal.snapshot_path)
        assert restart(recover=False) is None
        assert not os.path.exists(node.journal.snapshot_path)
        deployment.stop_devices()
        deployment.run(10.0)


def journal_facts(node):
    """Where *node*'s journal writes, and how often it snapshots."""
    journal = node.journal
    return (journal.wal.path if journal.wal else None,
            journal.snapshot_path, journal._snapshot_task._period)


#: the unreplicated seed-23 district of ``test_fastpath_determinism``,
#: recorded on the commit before the hubs shared one configuration (its
#: ``deploy`` wired no group at all): the hosts it creates, in order,
#: and the events 300 simulated seconds process (218 -> 203 when a web
#: request's processing delay moved onto its delivery, one event fewer
#: per served request)
LONE_HOSTS = [
    "broker", "master", "mdb", "proxy-gis", "proxy-bim-bld-0001",
    "proxy-bim-bld-0002", "proxy-bim-bld-0003", "proxy-sim-net-0001",
    "proxy-dev-bld-0001-coap", "proxy-dev-bld-0001-zigbee",
    "proxy-dev-bld-0002-enocean", "proxy-dev-bld-0002-ieee802154",
    "proxy-dev-bld-0002-zigbee", "proxy-dev-bld-0003-coap",
    "proxy-dev-bld-0003-enocean", "proxy-dev-bld-0003-zigbee",
    "proxy-dev-net-0001-opcua"]
LONE_EVENTS = 203


class TestHubConfiguration:
    """One value configures every kind, whichever way it is passed."""

    @pytest.mark.parametrize("kind", KINDS, ids=by_name)
    def test_same_journal_through_scenario_and_constructor(
            self, kind, net, tmp_path):
        config = hub_config(kind, tmp_path)
        deployment = deploy(ScenarioConfig(
            n_buildings=1, devices_per_building=1,
            **{kind.scenario_field: config}))
        node = getattr(deployment, kind.deployed_as)
        expected = paths(tmp_path, kind.name)
        assert journal_facts(kind(net, tmp_path).node) \
            == journal_facts(node) \
            == (expected["wal_path"] if kind.has_wal else None,
                expected["snapshot_path"], 600.0)

    @pytest.mark.parametrize("kind, asked", [
        pytest.param(MasterKind, {"wal_path": "master.wal"}, id="master"),
        pytest.param(MeasurementKind, {"standbys": 1}, id="measurement"),
    ])
    def test_what_a_kind_cannot_honour_is_refused(self, kind, asked, net):
        with pytest.raises(ConfigurationError):
            kind(net, **asked)
        # refused before anything was stood up for it
        assert not any(host.name.endswith("-r1") for host in net.hosts())
        with pytest.raises(ConfigurationError):
            deploy(ScenarioConfig(
                n_buildings=1, devices_per_building=1,
                **{kind.scenario_field: hub_config(kind, **asked)}))

    @pytest.mark.parametrize("kind", KINDS, ids=by_name)
    def test_group_of_one_attaches_nothing(self, kind, net):
        rig = kind(net)
        node, group = rig.node, rig.group
        assert node.replication is None
        assert group.uris() == [node.service.base_uri]
        assert group.hosts() == [node.host.name]
        assert group.nodes() == [node]
        assert group.acting() is node
        assert group.counters() == {}
        operator = HttpClient(net.add_host("operator"))
        uri = node.service.base_uri
        assert operator.post(uri + "replicate", check=False).status == 404

    def test_unreplicated_deploy_is_what_it_was(self):
        district = deploy(ScenarioConfig(seed=23, n_buildings=3,
                                         devices_per_building=3))
        assert [host.name for host in district.network.hosts()] \
            == LONE_HOSTS
        district.run(300.0)
        assert district.scheduler.events_processed == LONE_EVENTS
        assert district.replication.acting() is district.master
        assert district.broker_replication.acting() is district.broker
        assert district.master_uris == [district.master.uri]
        assert district.broker_hosts == [district.broker.name]


@pytest.mark.parametrize("kind", REPLICATED_KINDS, ids=by_name)
class TestReplicaGroup:
    """``replicate(node, ...)`` behaves identically for every kind."""

    # two standbys: a promoted rank-1 still has a live peer to ack its
    # stream, so it does not self-fence
    def group(self, kind, net, tmp_path=None):
        rig = kind(net, tmp_path, standbys=2)
        return rig, rig.group

    def test_wiring(self, kind, net):
        rig, group = self.group(kind, net)
        name = rig.node.host.name
        assert group.hosts() == [name, f"{name}-r1", f"{name}-r2"]
        assert group.primary.node is rig.node
        assert [m.role for m in group.members] == \
            ["primary", "standby", "standby"]
        assert all(type(n) is type(rig.node) for n in group.nodes())
        assert all(n.replication is m
                   for n, m in zip(group.nodes(), group.members))

    def test_writes_stream_to_standbys(self, kind, net):
        rig, group = self.group(kind, net)
        rig.drive(1)
        rig.drive(2)
        primary = dumped(rig.view(rig.node))
        for standby in group.nodes()[1:]:
            assert dumped(rig.view(standby)) == primary
        assert group.primary.counters["writes_accepted"] > 0
        assert group.primary.replication_lag() == 0

    def test_failover_promotes_senior_standby(self, kind, net):
        rig, group = self.group(kind, net)
        rig.drive(1)
        name = rig.node.host.name
        net.set_host_online(name, False)
        net.scheduler.run_for(FAILOVER_WAIT)
        promoted = group.primary
        assert promoted.name == f"{name}-r1"  # seniority order
        assert promoted.epoch == 1
        assert group.member(f"{name}-r2").epoch == 1
        rig.drive(2, settle=20.0)  # peers rotate to the promoted member
        assert dumped(rig.view(group.member(f"{name}-r2").node)) == \
            dumped(rig.view(promoted.node))
        assert promoted.counters["writes_accepted"] > 0

    def test_partitioned_primary_fences_then_rejoins(self, kind, net):
        rig, group = self.group(kind, net)
        rig.drive(1)
        name = rig.node.host.name
        old = group.member(name)
        rig.isolate()
        net.scheduler.run_for(FAILOVER_WAIT)
        assert old.fenced
        assert group.primary.name == f"{name}-r1"
        accepted = old.counters["writes_accepted"]
        assert rig.refused_write()
        assert old.counters["writes_accepted"] == accepted
        assert old.counters["writes_rejected_fenced"] >= 1
        net.heal_partition()
        net.scheduler.run_for(4.0 * CONFIG.heartbeat_period)
        assert old.role == "standby"
        assert old.epoch == group.primary.epoch
        assert old.counters["stepdowns"] == 1
        assert dumped(rig.view(rig.node)) == \
            dumped(rig.view(group.primary.node))

    def test_resynced_replica_rewrites_its_own_disk(self, kind, net,
                                                    tmp_path):
        rig, group = self.group(kind, net, tmp_path)
        rig.drive(1)
        rig.node.write_snapshot()
        name = rig.node.host.name
        net.set_host_online(name, False)
        net.scheduler.run_for(FAILOVER_WAIT)
        rig.drive(2, settle=20.0)  # accepted by the promoted member only
        net.set_host_online(name, True)
        net.scheduler.run_for(4.0 * CONFIG.heartbeat_period)
        assert group.member(name).role == "standby"
        resynced = dumped(rig.view(group.primary.node))
        assert dumped(rig.view(rig.node)) == resynced
        # a later crash-restart of the deposed primary must come back
        # with the resynced state, not resurrect the pre-failover one
        rig.node.reset()
        rig.node.recover()
        assert dumped(rig.view(rig.node)) == resynced
