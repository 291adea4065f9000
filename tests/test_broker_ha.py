"""Tests for broker high availability.

What every replicated or journaled node does the same way (envelope
checks, WAL replay edge cases, group wiring, streaming, fencing,
resync) is in ``test_recovery_contract.py``; this file keeps what is
the broker's own.

Layer 1 — durable broker state: retained events, subscriptions, pending
acked deliveries and the dead-letter queue survive a broker
crash-restart byte-for-byte through the WAL + snapshot pair, and
restored pending deliveries are redelivered (not dropped, not
double-counted).

Layer 2 — replicated failover: the primary broker streams its
durable-state log to standbys; a killed primary is replaced by the most
senior standby (epoch bump), peers rotate to it, and a fenced deposed
primary refuses every data-plane frame so a healed partition cannot
split-brain deliveries.
"""

import json

import pytest

from repro.core.replication import ReplicationConfig, replicate
from repro.errors import ConfigurationError
from repro.middleware.broker import BROKER_PORT, Broker
from repro.middleware.peer import MiddlewarePeer
from repro.network.scheduler import Scheduler
from repro.network.webservice import HttpClient
from repro.network.transport import LatencyModel, Network
from repro.observability.slo import default_slos
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig

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


def run(net, duration):
    net.scheduler.run_for(duration)


def durability(tmp_path, name="broker"):
    return HubConfig(
        wal_path=str(tmp_path / f"{name}.wal"),
        snapshot_path=str(tmp_path / f"{name}.snap"),
        snapshot_period=60.0,
    )


def durable_broker(net, tmp_path, **kwargs):
    return Broker(net.add_host("broker"),
                  durability=durability(tmp_path), **kwargs)


class TestDurableBrokerState:
    def test_retained_and_dlq_survive_crash_restart_byte_for_byte(
            self, net, tmp_path):
        broker = durable_broker(net, tmp_path, max_delivery_attempts=2,
                                delivery_ack_timeout=1.0)
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=16)
        consumer = MiddlewarePeer(net.add_host("sub"), "broker")
        consumer.subscribe("area/#", lambda e: None)
        poison = MiddlewarePeer(net.add_host("poison"), "broker")

        def bad(event):
            raise ValueError("cannot translate")

        poison.subscribe("area/b2/#", bad, ack=True)
        run(net, 1.0)
        publisher.publish("area/b1/t", {"v": 1}, retain=True)
        publisher.publish("area/b2/t", {"v": 2}, retain=True)
        run(net, 10.0)  # poison nacks exhaust the attempt budget
        assert len(broker.state.retained) == 2
        assert len(broker.dead_letters) == 1
        before = json.dumps(broker.snapshot(), sort_keys=True)

        broker.reset()
        assert broker.subscription_count() == 0
        assert len(broker.state.retained) == 0
        restored = broker.recover()
        assert restored is not None and restored > 0
        after = json.dumps(broker.snapshot(), sort_keys=True)
        assert after == before
        assert broker.stats.recoveries == 1
        assert broker.stats.recovered_items == restored

    def test_wal_tail_over_snapshot_replays_idempotently(
            self, net, tmp_path):
        broker = durable_broker(net, tmp_path)
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=16)
        consumer = MiddlewarePeer(net.add_host("sub"), "broker")
        consumer.subscribe("area/#", lambda e: None)
        run(net, 1.0)
        publisher.publish("area/b1/t", {"v": 1}, retain=True)
        run(net, 1.0)
        broker.write_snapshot()  # crash before the next WAL truncation
        publisher.publish("area/b2/t", {"v": 2}, retain=True)
        run(net, 1.0)
        before = json.dumps(broker.snapshot(), sort_keys=True)
        broker.reset()
        broker.recover()
        assert json.dumps(broker.snapshot(), sort_keys=True) == before
        assert len(broker.state.retained) == 2
        # the subscription from before the snapshot exists exactly once
        assert broker.subscription_count() == 1

    def test_pending_deliveries_redelivered_not_double_counted(
            self, net, tmp_path):
        broker = durable_broker(net, tmp_path, delivery_ack_timeout=1.0)
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=16)
        seen = []
        dedup = set()

        def consume(event):
            key = event.payload["seq"]
            if key not in dedup:
                dedup.add(key)
                seen.append(event)

        consumer = MiddlewarePeer(net.add_host("sub"), "broker")
        consumer.subscribe("area/#", consume, ack=True)
        run(net, 1.0)
        net.set_host_online("sub", False)  # consumer dies before delivery
        publisher.publish("area/b1/t", {"seq": 1})
        run(net, 0.5)
        assert len(broker.state.deliveries) == 1

        broker.reset()
        broker.recover()
        assert len(broker.state.deliveries) == 1  # restored, not lost
        net.set_host_online("sub", True)
        run(net, 10.0)  # redelivery timers fire
        assert len(seen) == 1  # delivered exactly once after dedup
        assert len(broker.state.deliveries) == 0  # acked and settled
        assert broker.stats.redeliveries >= 1

    def test_broker_health_uniform_role_epoch_fields(self, net, tmp_path):
        broker = durable_broker(net, tmp_path)
        operator = HttpClient(net.add_host("operator"))
        payload = operator.get(broker.uri + "metrics").body["component"]
        assert payload["role"] == "primary"
        assert payload["epoch"] == 0
        assert payload["fenced"] is False
        assert payload["replication_lag"] == 0
        assert "last_snapshot_age" in payload

    @pytest.mark.parametrize("restarts", [0, 1, 3])
    def test_poison_budget_is_soft_per_incarnation_and_bounded(
            self, net, tmp_path, restarts):
        # poison_count is not logged, so every recovered incarnation
        # grants a fresh budget.  The worst schedule restarts the broker
        # just before each nack that would exhaust it; the delivery is
        # still poison-nacked at most max x incarnations times and
        # dead-lettered once
        broker = durable_broker(net, tmp_path, max_delivery_attempts=3)
        publisher = MiddlewarePeer(net.add_host("pub"), "broker")
        consumer = MiddlewarePeer(net.add_host("poison"), "broker")
        attempts, restarted = [], []

        def poison(event):
            attempts.append(event)
            pending = list(broker.state.deliveries.values())
            if len(restarted) < restarts and pending \
                    and pending[0].poison_count == 2:
                broker.reset()   # what FaultInjector.restart_broker does
                restarted.append(broker.recover())
            raise ValueError("cannot translate")

        consumer.subscribe("area/b1/#", poison, ack=True)
        run(net, 1.0)
        publisher.publish("area/b1/t", {"v": 1})
        run(net, 30.0)
        assert len(restarted) == restarts and None not in restarted
        assert len(attempts) <= 3 * (restarts + 1)
        assert broker.stats.poison_nacks == len(attempts)
        assert broker.stats.dead_lettered == 1
        assert len(broker.dead_letters) == 1
        assert len(broker.state.deliveries) == 0


class TestBrokerFaultVerbs:
    def deploy_durable(self, tmp_path, **overrides):
        config = ScenarioConfig(
            n_buildings=1, devices_per_building=2, net_jitter=0.0,
            publish_buffer=64, peer_keepalive=5.0,
            broker=durability(tmp_path),
            **overrides,
        )
        return deploy(config)

    def test_restart_broker_recovers_middleware_state(self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        faults = FaultInjector(deployment)
        deployment.run(60.0)
        broker = deployment.broker
        subs_before = broker.subscription_count()
        retained_before = dict(broker.state.retained)
        assert subs_before > 0 and retained_before
        restored = faults.restart_broker()
        assert restored is not None and restored > 0
        # the subscription table and retained store are back
        # immediately — no keepalive round needed
        assert broker.subscription_count() == subs_before
        assert broker.state.retained == retained_before
        assert broker.stats.unrecovered_restarts == 0
        deployment.stop_devices()
        deployment.run(5.0)

    def test_restart_broker_without_recover_counts_unrecovered(
            self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        faults = FaultInjector(deployment)
        deployment.run(60.0)
        broker = deployment.broker
        assert faults.restart_broker(recover=False) is None
        assert broker.subscription_count() == 0
        assert broker.state.retained == {}
        assert broker.stats.unrecovered_restarts == 1
        # losing the disk too means a later recover restores nothing
        broker.reset()
        assert broker.recover() == 0
        deployment.stop_devices()
        deployment.run(5.0)

    def test_restart_without_durability_stays_unrecovered(self):
        deployment = deploy(ScenarioConfig(
            n_buildings=1, devices_per_building=1, net_jitter=0.0,
        ))
        faults = FaultInjector(deployment)
        deployment.run(30.0)
        assert faults.restart_broker() is None
        assert deployment.broker.stats.unrecovered_restarts == 1
        deployment.stop_devices()
        deployment.run(5.0)


class TestReplicatedBrokerWiring:
    def test_double_replication_rejected(self, net):
        broker = Broker(net.add_host("broker"))
        replicate(broker, standbys=1, config=CONFIG)
        with pytest.raises(ConfigurationError):
            replicate(broker, standbys=1, config=CONFIG)

    def test_needs_at_least_one_standby(self, net):
        broker = Broker(net.add_host("broker"))
        with pytest.raises(ConfigurationError):
            replicate(broker, standbys=0, config=CONFIG)

    def test_default_slos_watch_broker_replication_lag(self):
        slos = {slo.name: slo for slo in default_slos(15.0)}
        slo = slos["broker-replication-lag"]
        assert slo.metric == "component.replication_lag"
        assert slo.applies_to("broker")
        assert not slo.applies_to("master")


class TestBrokerLogStreaming:
    def make_group(self, net, standbys=1):
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=1.0)
        group = replicate(broker, standbys=standbys, config=CONFIG)
        run(net, 2.0)  # first heartbeat round
        return broker, group

    def test_state_streams_to_standby(self, net):
        broker, group = self.make_group(net)
        publisher = MiddlewarePeer(net.add_host("pub"), group.hosts(),
                                   publish_buffer=16)
        consumer = MiddlewarePeer(net.add_host("sub"), group.hosts())
        consumer.subscribe("area/#", lambda e: None)
        run(net, 1.0)
        publisher.publish("area/b1/t", {"v": 1}, retain=True)
        run(net, 2.0)
        standby = group.nodes()[1]
        assert standby.state.retained == broker.state.retained
        assert standby.subscription_count() == broker.subscription_count()

    def test_standby_answers_not_primary_and_peer_rotates(self, net):
        broker, group = self.make_group(net)
        # point the peer at the standby first: its first frame is
        # refused with a hint and the rotation lands on the primary
        peer = MiddlewarePeer(net.add_host("sub"),
                              ["broker-r1", "broker"])
        peer.subscribe("area/#", lambda e: None)
        run(net, 2.0)
        assert peer.broker_host == "broker"
        assert peer.broker_failovers == 1
        assert broker.subscription_count() == 1
        standby = group.nodes()[1]
        assert standby.stats.not_primary_refusals >= 1


class TestBrokerFailover:
    # two standbys: a promoted rank-1 still has a live peer to ack its
    # stream, so it does not self-fence (same idiom as the master tests)
    def make_group(self, net, tmp_path=None):
        kwargs = {"delivery_ack_timeout": 1.0}
        if tmp_path is not None:
            kwargs["durability"] = durability(tmp_path)
        broker = Broker(net.add_host("broker"), **kwargs)
        group = replicate(broker, standbys=2, config=CONFIG)
        run(net, 2.0)
        return broker, group

    def test_standby_promotes_and_publisher_rotates(self, net):
        broker, group = self.make_group(net)
        received = []
        consumer = MiddlewarePeer(net.add_host("sub"), group.hosts())
        consumer.subscribe("area/#", received.append, ack=True)
        publisher = MiddlewarePeer(net.add_host("pub"), group.hosts(),
                                   publish_buffer=64, ack_timeout=1.0)
        run(net, 1.0)
        publisher.publish("area/b1/t", {"seq": 1})
        run(net, 2.0)
        assert len(received) == 1

        net.set_host_online("broker", False)
        run(net, FAILOVER_WAIT)
        promoted = group.primary
        assert promoted.name == "broker-r1"
        assert promoted.epoch == 1
        publisher.publish("area/b1/t", {"seq": 2})
        run(net, 20.0)  # probe rounds rotate the publisher, then flush
        assert publisher.broker_host == "broker-r1"
        seqs = {e.payload["seq"] for e in received}
        assert 2 in seqs
        assert publisher.publications_dropped == 0

    def test_retained_events_replay_from_promoted_standby(self, net):
        broker, group = self.make_group(net)
        publisher = MiddlewarePeer(net.add_host("pub"), group.hosts(),
                                   publish_buffer=16)
        run(net, 1.0)
        publisher.publish("area/b1/t", {"v": 1}, retain=True)
        run(net, 2.0)
        net.set_host_online("broker", False)
        run(net, FAILOVER_WAIT)
        replayed = []
        late = MiddlewarePeer(net.add_host("late"), group.hosts())
        late.subscribe("area/#", replayed.append)
        run(net, 15.0)  # probes steer the subscribe to the promoted broker
        assert [e.payload for e in replayed] == [{"v": 1}]
        assert replayed[0].retained

    def test_pending_deliveries_redelivered_after_failover(self, net):
        broker, group = self.make_group(net)
        seen = []
        dedup = set()

        def consume(event):
            key = event.payload["seq"]
            if key not in dedup:
                dedup.add(key)
                seen.append(event)

        consumer = MiddlewarePeer(net.add_host("sub"), group.hosts())
        consumer.subscribe("area/#", consume, ack=True)
        publisher = MiddlewarePeer(net.add_host("pub"), group.hosts(),
                                   publish_buffer=16)
        run(net, 2.0)
        net.set_host_online("sub", False)  # consumer down at publish time
        publisher.publish("area/b1/t", {"seq": 1})
        run(net, 1.5)  # the delivery record streams to the standby
        assert len(broker.state.deliveries) == 1
        standby = group.nodes()[1]
        assert len(standby.state.deliveries) == 1

        net.set_host_online("broker", False)
        net.set_host_online("sub", True)
        run(net, FAILOVER_WAIT + 10.0)
        # the promoted standby re-armed the replicated delivery and
        # redelivered it; the consumer rotated to it to ack
        assert len(seen) == 1
        assert len(standby.state.deliveries) == 0
        assert consumer.broker_host == "broker-r1"

    def test_fenced_deposed_primary_refuses_publishes(self, net):
        broker, group = self.make_group(net)
        stale = MiddlewarePeer(net.add_host("stale"), "broker",
                               publish_buffer=16, ack_timeout=1.0)
        run(net, 1.0)
        # the old primary is partitioned together with one publisher
        # that only knows it: no split-brain ack may reach that peer
        net.partition(["broker", "stale"])
        run(net, FAILOVER_WAIT)
        old = group.member("broker")
        assert old.fenced
        assert group.primary.name == "broker-r1"
        stale.publish("area/b1/t", {"seq": 99})
        run(net, 5.0)
        assert stale.publications_acked == 0  # refused, not accepted
        assert broker.stats.not_primary_refusals >= 1
        assert old.counters["writes_accepted"] == 0

        net.heal_partition()
        run(net, 4.0 * CONFIG.heartbeat_period)
        assert old.role == "standby"
        assert old.epoch == group.primary.epoch

    def test_deposed_primary_resyncs_durable_artifacts(self, net,
                                                       tmp_path):
        broker, group = self.make_group(net, tmp_path)
        publisher = MiddlewarePeer(net.add_host("pub"), group.hosts(),
                                   publish_buffer=16, ack_timeout=1.0)
        run(net, 1.0)
        publisher.publish("area/b1/t", {"v": 1}, retain=True)
        run(net, 1.0)
        net.set_host_online("broker", False)
        run(net, FAILOVER_WAIT)
        run(net, 15.0)  # publisher rotates to the promoted standby
        publisher.publish("area/b2/t", {"v": 2}, retain=True)
        run(net, 2.0)
        net.set_host_online("broker", True)
        run(net, 4.0 * CONFIG.heartbeat_period)
        # rejoined at the new epoch with the write it missed, and its
        # durable snapshot matches the resynced state (a later
        # crash-restart must not resurrect the pre-failover state)
        assert broker.replication.role == "standby"
        assert set(broker.state.retained) == {"area/b1/t", "area/b2/t"}
        broker.reset()
        broker.recover()
        assert set(broker.state.retained) == {"area/b1/t", "area/b2/t"}


class TestDeployedBrokerReplication:
    def test_deploy_wires_broker_standbys(self):
        deployment = deploy(ScenarioConfig(
            n_buildings=1, devices_per_building=2, net_jitter=0.0,
            publish_buffer=64,
            broker=HubConfig(standbys=1, replication=CONFIG),
        ))
        assert deployment.broker_replication is not None
        assert deployment.broker_hosts == ["broker", "broker-r1"]
        for proxy in deployment.device_proxies.values():
            assert proxy.peer.broker_hosts == ["broker", "broker-r1"]
        assert deployment.measurement_db.peer.broker_hosts == \
            ["broker", "broker-r1"]
        deployment.stop_devices()
        deployment.run(5.0)

    def test_measurement_flow_survives_primary_broker_kill(self):
        deployment = deploy(ScenarioConfig(
            n_buildings=1, devices_per_building=2, net_jitter=0.0,
            publish_buffer=256, peer_keepalive=5.0,
            broker=HubConfig(standbys=2, replication=CONFIG),
        ))
        faults = FaultInjector(deployment)
        deployment.run(150.0)  # device sample periods are ~60s
        mdb = deployment.measurement_db
        before = mdb.ingested
        assert before > 0
        killed = faults.kill_primary_broker()
        assert killed == "broker"
        deployment.run(FAILOVER_WAIT + 150.0)
        assert deployment.broker_replication.primary.name == "broker-r1"
        # samples flow again through the promoted broker
        assert mdb.ingested > before
        assert mdb.peer.broker_host == "broker-r1"
        deployment.stop_devices()
        deployment.run(5.0)

    def test_fleet_monitor_watches_standby_brokers(self):
        from repro.observability.collector import FleetMonitorConfig

        deployment = deploy(ScenarioConfig(
            n_buildings=1, devices_per_building=1, net_jitter=0.0,
            broker=HubConfig(standbys=1, replication=CONFIG),
            observability=True,
            fleet_monitor=FleetMonitorConfig(scrape_interval=10.0),
        ))
        deployment.run(30.0)
        kinds = {name: t.kind for name, t in
                 deployment.fleet.collector.targets.items()}
        assert kinds.get("broker") == "broker"
        assert kinds.get("broker-r1") == "broker"
        deployment.stop_devices()
        deployment.run(5.0)
