"""Experiment R4 — broker availability and data safety through failover.

After R2 the master fails over and R3 makes the data plane durable —
the broker remained the one hub whose outage stalls every publication
and delivery.  This experiment drives one district through an identical
fault schedule under two configurations:

* **single** — the seed architecture: one broker, no replication;
* **replicated** — a three-broker group
  (:mod:`repro.core.replication`): the primary's durable-state
  log (retained events, subscriptions, pending deliveries, dead
  letters) streams to two standbys, epoch-fenced seniority failover,
  and every peer on a broker rotation over the whole group.

Schedule (identical phases, identical probe cadence):

1. *steady* — warm-up, a retained config event, baseline probes;
2. *kill* — the primary broker goes dark; probes continue;
3. *heal* — the old primary returns (and, replicated, rejoins as a
   standby of the new epoch and resyncs);
4. *partition* — the current primary is cut off together with a stale
   publisher that keeps publishing straight at it: every publication
   the deposed side acknowledges would be split-brain custody;
5. *final* — the partition heals; convergence probes and settle.

A probe is one published event round-trip: it counts as *available*
when the (deduplicating, acking) probe subscriber receives it within
``WINDOW`` simulated seconds of publication — buffered publications
that flush after a failover still count, a 90-second outage does not.

Measured per configuration:

* *delivery availability* — fraction of probes delivered in-window;
* *acknowledged-publication loss* — probes published but never
  delivered after the full schedule (replicated: must be zero);
* *split-brain acks* — publications acknowledged by a deposed primary
  after its successor promoted (must be zero);
* *retained-event loss* — the steady-phase retained event must replay
  to a fresh subscriber after the full schedule;
* the broker replication counters (promotions, fencings, ...).

A separate quick case proves the durable-state half of the tentpole:
``FaultInjector.restart_broker(recover=True)`` restores the broker's
middleware state byte-for-byte from WAL + snapshot.

Expected shape: the single broker loses probe availability for the
whole kill and partition phases (< 90%) and dead-letters the probes it
could not deliver, while the replicated group hides both faults inside
the probe window (>= 99% availability, zero loss, zero split-brain).

Set ``REPRO_BENCH_QUICK=1`` for a shortened CI smoke run.
"""

import json
import os

import pytest

from repro.core.replication import ReplicationConfig
from repro.middleware.peer import MiddlewarePeer
from repro.simulation.faults import FaultInjector
from repro.simulation.metrics import broker_replication_counters
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import HubConfig

EXPERIMENT = "R4"
SEED = 41
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
PHASE = 40.0 if QUICK else 90.0   # length of each schedule phase
PROBE_PERIOD = 4.0
WINDOW = 16.0                     # in-window delivery budget per probe
REPLICATION = ReplicationConfig(heartbeat_period=1.0, fencing_timeout=2.5,
                                failover_timeout=4.0, promotion_stagger=2.0,
                                snapshot_period=20.0)
# silence before the senior standby promotes, plus tick slack — the
# stale publisher starts hammering the deposed primary only after this,
# so every ack it wins would be a true split-brain ack
FAILOVER_WAIT = (REPLICATION.failover_timeout
                 + REPLICATION.promotion_stagger
                 + 2.0 * REPLICATION.heartbeat_period)
SPLIT_BRAIN_ATTEMPTS = 3 if QUICK else 8
RETAINED_TOPIC = "probe/config"
PROBE_TOPIC = "probe/ha"


def _deploy(replicated: bool):
    config = ScenarioConfig(
        seed=SEED, n_buildings=2, devices_per_building=2, n_networks=1,
        net_jitter=0.0, publish_buffer=256, peer_keepalive=5.0,
        broker=HubConfig(standbys=2, replication=REPLICATION)
        if replicated else None,
    )
    return deploy(config)


class _Prober:
    """Publish/subscribe round-trip probes with per-probe latency."""

    def __init__(self, district):
        net = district.network
        self.district = district
        self.published = {}   # seq -> publish time
        self.delivered = {}   # seq -> first delivery time
        self.duplicates = 0
        self._seq = 0
        self.publisher = MiddlewarePeer(
            net.add_host("probe-pub"), district.broker_hosts,
            publish_buffer=1024, ack_timeout=1.0,
        )
        self.consumer = MiddlewarePeer(
            net.add_host("probe-sub"), district.broker_hosts,
            keepalive=5.0,
        )
        self.consumer.subscribe(PROBE_TOPIC + "/#", self._consume,
                                ack=True)

    def _consume(self, event):
        seq = event.payload["seq"]
        if seq in self.delivered:
            self.duplicates += 1
            return
        self.delivered[seq] = self.district.network.scheduler.now

    def probe_phase(self, duration: float) -> None:
        """Publish one probe every PROBE_PERIOD for *duration*."""
        for _ in range(int(duration / PROBE_PERIOD)):
            self._seq += 1
            now = self.district.network.scheduler.now
            self.published[self._seq] = now
            self.publisher.publish(f"{PROBE_TOPIC}/{self._seq % 4}",
                                   {"seq": self._seq})
            self.district.run(PROBE_PERIOD)

    def availability(self) -> float:
        in_window = sum(
            1 for seq, sent in self.published.items()
            if seq in self.delivered
            and self.delivered[seq] - sent <= WINDOW
        )
        return in_window / len(self.published)

    def lost(self) -> int:
        return len(self.published) - len(self.delivered)


def _ha_run(replicated: bool):
    district = _deploy(replicated)
    injector = FaultInjector(district)
    prober = _Prober(district)

    district.run(20.0)  # warm-up: subscriptions + first heartbeats
    prober.publisher.publish(RETAINED_TOPIC, {"rev": 7}, retain=True)
    prober.probe_phase(PHASE)                             # 1. steady

    killed = injector.kill_primary_broker()
    prober.probe_phase(PHASE)                             # 2. kill
    injector.restore(killed)
    prober.probe_phase(PHASE)                             # 3. heal

    # the stale publisher must exist before the partition so it is cut
    # off together with the deposed primary
    stale_host = district.network.add_host("stale-pub")
    current_primary = district.broker_replication.acting().name
    stale = MiddlewarePeer(stale_host, current_primary,
                           publish_buffer=8, ack_timeout=1.0)
    deposed = injector.partition_broker(
        with_hosts=[stale_host.name])                     # 4. partition
    prober.probe_phase(FAILOVER_WAIT)  # successor promotes meanwhile
    for attempt in range(SPLIT_BRAIN_ATTEMPTS):
        # outside the probe subscription's subtree: the split-brain
        # accounting must not perturb the delivery accounting
        stale.publish("probe/stale", {"attempt": attempt})
        prober.probe_phase(PROBE_PERIOD)
    split_brain = stale.publications_acked if replicated else 0
    injector.heal_partition()
    prober.probe_phase(PHASE)                             # 5. final
    district.run(WINDOW + 4.0)  # settle: let late deliveries land

    # retained-event loss: a fresh subscriber after the full schedule
    # must still get the steady-phase config event replayed
    replayed = []
    late = MiddlewarePeer(district.network.add_host("late-sub"),
                          district.broker_hosts)
    late.subscribe(RETAINED_TOPIC, replayed.append)
    district.run(15.0)
    district.stop_devices()
    district.run(2.0)

    return {
        "messages": district.network.stats.messages_delivered,
        "sim_seconds": district.scheduler.now,
        "availability": prober.availability(),
        "probes": len(prober.published),
        "lost": prober.lost(),
        "duplicates": prober.duplicates,
        "dropped": prober.publisher.publications_dropped,
        "split_brain": split_brain,
        "deposed": deposed,
        "retained_replayed": [e.payload for e in replayed],
        "publisher_failovers": prober.publisher.broker_failovers,
        "dead_lettered": sum(b.stats.dead_lettered
                             for b in district.broker_replication.nodes()),
        "counters": broker_replication_counters(district),
    }


@pytest.mark.slow
@pytest.mark.parametrize("replicated", [False, True],
                         ids=["single", "replicated"])
def test_broker_availability_through_failover(replicated, benchmark,
                                              report):
    with report.measure(EXPERIMENT):
        result = benchmark.pedantic(_ha_run, args=(replicated,),
                                    rounds=1, iterations=1)
    label = "replicated" if replicated else "single"
    counters = result["counters"]
    report.header(EXPERIMENT,
                  "broker availability and data safety through failover")
    report.record(EXPERIMENT,
                  sim_seconds=result["sim_seconds"],
                  messages_total=result["messages"])
    report.add(
        EXPERIMENT,
        f"{label:<10s} availability={result['availability']:6.1%} "
        f"probes={result['probes']} lost={result['lost']} "
        f"duplicates={result['duplicates']} "
        f"split_brain_acks={result['split_brain']} "
        f"publisher_failovers={result['publisher_failovers']} "
        f"dead_lettered={result['dead_lettered']}"
    )
    if replicated:
        report.add(
            EXPERIMENT,
            f"{'':<10s} promotions={counters.get('promotions', 0)} "
            f"stepdowns={counters.get('stepdowns', 0)} "
            f"fencings={counters.get('fencings', 0)} "
            f"entries_applied={counters.get('entries_applied', 0)} "
            f"not_primary_refusals="
            f"{counters.get('broker_not_primary_refusals', 0)}"
        )
    assert result["split_brain"] == 0     # both configs: no ghost acks
    assert result["dropped"] == 0         # the probe buffer never spills
    assert result["retained_replayed"] == [{"rev": 7}]  # no retained loss
    if replicated:
        # the tentpole claim: deliveries stay >= 99% in-window available
        # through a primary kill, a partition of its successor and both
        # heals, with zero acknowledged-publication loss
        assert result["availability"] >= 0.99
        assert result["lost"] == 0
        assert counters["promotions"] >= 2
        assert counters["stepdowns"] >= 1
        assert counters["fencings"] >= 1
    else:
        # the single broker loses the kill and partition phases outright
        assert result["availability"] < 0.90


def _restart_run(tmp_path):
    district = deploy(ScenarioConfig(
        seed=SEED, n_buildings=1, devices_per_building=2, n_networks=1,
        net_jitter=0.0, publish_buffer=64, peer_keepalive=5.0,
        broker=HubConfig(
            wal_path=str(tmp_path / "broker.wal"),
            snapshot_path=str(tmp_path / "broker.snap"),
            snapshot_period=45.0,
        ),
    ))
    injector = FaultInjector(district)
    district.run(20.0)
    client = district.client("r4-user")
    client.peer.publish(RETAINED_TOPIC, {"rev": 7}, retain=True)
    district.run(100.0 if QUICK else 200.0)

    broker = district.broker
    before = json.dumps(broker.snapshot(), sort_keys=True)
    restored = injector.restart_broker(recover=True)
    after = json.dumps(broker.snapshot(), sort_keys=True)
    district.run(30.0)  # deliveries resume without a resubscribe round
    district.stop_devices()
    district.run(2.0)
    return {
        "byte_identical": after == before,
        "restored_items": restored,
        "recoveries": broker.stats.recoveries,
        "unrecovered": broker.stats.unrecovered_restarts,
        "wal_appends": broker.metrics().get("wal_appends", 0),
        "retained": len(broker.state.retained),
        "subscriptions": broker.subscription_count(),
    }


@pytest.mark.slow
def test_broker_crash_restart_restores_state(benchmark, report,
                                             tmp_path):
    result = benchmark.pedantic(_restart_run, args=(tmp_path,),
                                rounds=1, iterations=1)
    report.header(EXPERIMENT,
                  "broker availability and data safety through failover")
    report.add(
        EXPERIMENT,
        f"{'restart':<10s} byte_identical={result['byte_identical']} "
        f"restored_items={result['restored_items']} "
        f"retained={result['retained']} "
        f"subscriptions={result['subscriptions']} "
        f"wal_appends={result['wal_appends']}"
    )
    assert result["byte_identical"]
    assert result["restored_items"] > 0
    assert result["recoveries"] == 1
    assert result["unrecovered"] == 0
