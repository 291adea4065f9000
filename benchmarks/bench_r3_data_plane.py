"""Experiment R3 — durable data plane under churn and overload.

Drives one district's ingest path (publisher peers → broker →
measurement DB) with the durability stack enabled — write-ahead log +
snapshots on the measurement DB, acked deliveries with redelivery and
dead-lettering on the broker, bounded ingest queues with watermark
shedding — through the two failure regimes the stack exists for.
Samples travel as lone envelopes, i.e. frames of one through the same
ingest path and columnar store that C10 feeds with batch frames:

* **churn** — the measurement DB crash-restarts mid-ingest (recovered
  from snapshot + WAL tail), then the broker crash-restarts (peers
  re-flush their offline buffers), then a client that lost its acks
  retransmits a whole batch verbatim;
* **flood** — a rogue fire-and-forget publisher outpublishes the
  well-behaved fleet by an order of magnitude while the DB ingests at
  bounded speed, so the broker's per-publisher quota and watermark
  shedding have to protect the modest publishers' goodput.

Three invariants are asserted, not just measured:

* **acknowledged-sample loss = 0** — every sample a well-behaved
  publisher produced is in the store after the churn settles;
* **duplicate-counted samples = 0** — redeliveries, buffer re-flushes
  and the verbatim retransmission batch are absorbed by the idempotent
  ingest (the dedup window reports them, the store never double-counts);
* **well-behaved goodput ≥ 90 %** under flood.
"""

import os

import pytest

from repro.common.cdf import Measurement
from repro.middleware.broker import BrokerOverloadConfig
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import measurement_topic
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import DurabilityConfig

EXPERIMENT = "R3"
SEED = 31
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

N_PUBLISHERS = 3                      # well-behaved fleet
PUBLISH_PERIOD = 2.0                  # one sample each, every 2 s
STEADY = 20.0 if QUICK else 60.0      # warm-up publishing window
MDB_OUTAGE = 8.0                      # < the 16 s dead-letter horizon
SETTLE = 40.0 if QUICK else 60.0      # drain window after each phase
REPLAY = 10 if QUICK else 20          # verbatim retransmission batch
FLOOD_BURST = 150 if QUICK else 250   # rogue publishes per burst
FLOOD_BURSTS = 2 if QUICK else 3      # bursts, 15 s apart

ENTITY = "bld-0001"


class BenchPublisher:
    """A well-behaved publisher peer with exact sent-sample accounting."""

    def __init__(self, deployment, index, buffer=4096):
        self.device_id = f"bench-pub-{index:02d}"
        self.topic = measurement_topic(
            deployment.district_id, ENTITY, self.device_id, "temperature"
        )
        host = deployment.network.add_host(self.device_id)
        self.peer = MiddlewarePeer(host, deployment.broker.name,
                                   publish_buffer=buffer, keepalive=2.0)
        self.scheduler = deployment.network.scheduler
        self.sent = []                # every payload ever published
        self._task = None

    def start(self, period=PUBLISH_PERIOD):
        self._task = self.scheduler.every(period, self._tick)

    def stop(self):
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _tick(self):
        seq = len(self.sent) + 1
        measurement = Measurement(
            device_id=self.device_id, entity_id=ENTITY,
            quantity="temperature", value=20.0 + seq * 0.01,
            timestamp=self.scheduler.now, source="bench",
            metadata={"seq": seq},
        )
        payload = measurement.to_dict()
        self.sent.append(payload)
        self.peer.publish(self.topic, payload)

    def stored(self, mdb):
        try:
            return len(mdb.store.series(self.device_id, "temperature"))
        except Exception:
            return 0


def _deploy(tmp_path):
    config = ScenarioConfig(
        seed=SEED, n_buildings=1, devices_per_building=1,
        net_jitter=0.0, observability=True,
        publish_buffer=256, peer_keepalive=2.0, heartbeat_period=30.0,
        mdb_durability=DurabilityConfig(
            wal_path=str(tmp_path / "mdb.wal"),
            snapshot_path=str(tmp_path / "mdb.snap"),
            snapshot_period=30.0,
            queue_capacity=64,
            ingest_delay=0.05,        # bounded ingest speed: queues matter
        ),
        broker_overload=BrokerOverloadConfig(
            high_watermark=64, low_watermark=16,
            publisher_quota=16, retry_after=2.0,
        ),
    )
    deployment = deploy(config)
    deployment.stop_devices()         # exact accounting: bench pubs only
    return deployment


def _churn_and_flood(tmp_path):
    deployment = _deploy(tmp_path)
    faults = FaultInjector(deployment)
    mdb = deployment.measurement_db
    publishers = [BenchPublisher(deployment, i)
                  for i in range(N_PUBLISHERS)]
    for publisher in publishers:
        publisher.start()

    # -- phase 1: steady ingest, then the measurement DB crash-restarts
    deployment.run(STEADY)
    faults.kill_measurement_db()
    deployment.run(MDB_OUTAGE)        # deliveries pend on the broker
    restored = faults.restart_measurement_db(recover=True)
    deployment.run(SETTLE)            # redeliveries drain into the store

    # -- phase 2: broker crash-restart; peers re-flush their buffers
    faults.restart_broker()
    deployment.run(SETTLE)

    # -- phase 3: a client that lost its acks retransmits verbatim
    replayed = publishers[0].sent[:REPLAY]
    for payload in replayed:
        publishers[0].peer.publish(publishers[0].topic, payload)
    for publisher in publishers:
        publisher.stop()
    deployment.run(SETTLE)

    sent = sum(len(p.sent) for p in publishers)
    stored = sum(p.stored(mdb) for p in publishers)
    duplicates = mdb.ingest_duplicates
    churn = {
        "sent": sent,
        "stored": stored,
        "lost": sent - stored,
        "overcounted": stored - sent,
        "restored": restored,
        "duplicates_absorbed": duplicates,
        "redeliveries": deployment.broker.stats.redeliveries,
        "dead_lettered": deployment.broker.stats.dead_lettered,
        "wal_fsynced_bytes": mdb.metrics().get("wal_fsynced_bytes", 0),
    }

    # -- phase 4: rogue flood vs the well-behaved fleet
    for publisher in publishers:
        publisher.sent.clear()
        publisher.start()
    flooder = BenchPublisher(deployment, 99, buffer=None)  # fire-and-forget
    for _ in range(FLOOD_BURSTS):
        for _ in range(FLOOD_BURST):  # one synchronized burst: the
            flooder._tick()           # per-publisher quota caps it while
        deployment.run(15.0)          # the fleet keeps trickling through
    for publisher in publishers:
        publisher.stop()
    deployment.run(SETTLE)            # the queues drain, rejects retry

    # the fleet's series carry the churn-phase samples too: the flood
    # phase's contribution is the delta past the churn-phase total
    flood_sent = sum(len(p.sent) for p in publishers)
    flood_stored = sum(p.stored(mdb) for p in publishers) - stored
    goodput = flood_stored / flood_sent if flood_sent else 1.0
    stats = deployment.broker.stats
    flood = {
        "flood_sent": len(flooder.sent),
        "flood_stored": flooder.stored(mdb),
        "well_behaved_sent": flood_sent,
        "well_behaved_stored": flood_stored,
        "goodput": goodput,
        "shed": stats.publications_shed,
        "rejections": stats.publisher_rejections,
        "backpressure_signals": mdb.metrics().get(
            "backpressure_signals", 0),
    }
    return {
        "churn": churn, "flood": flood,
        "messages": deployment.network.stats.messages_delivered,
        "sim_seconds": deployment.scheduler.now,
    }


@pytest.mark.slow
def test_durable_data_plane(tmp_path, benchmark, report):
    with report.measure(EXPERIMENT):
        result = benchmark.pedantic(_churn_and_flood, args=(tmp_path,),
                                    rounds=1, iterations=1)
    churn, flood = result["churn"], result["flood"]
    report.header(EXPERIMENT, "durable data plane under churn and flood")
    report.record(EXPERIMENT,
                  sim_seconds=result["sim_seconds"],
                  messages_total=result["messages"])
    report.add(
        EXPERIMENT,
        f"{'churn':<8s} sent={churn['sent']:<4d} "
        f"stored={churn['stored']:<4d} lost={churn['lost']:<2d} "
        f"overcounted={churn['overcounted']:<2d} "
        f"recovered={churn['restored']:<4d} "
        f"dups_absorbed={churn['duplicates_absorbed']:<3d} "
        f"redeliveries={churn['redeliveries']:<3d} "
        f"wal_fsynced={churn['wal_fsynced_bytes']}B"
    )
    report.add(
        EXPERIMENT,
        f"{'flood':<8s} rogue sent={flood['flood_sent']:<4d} "
        f"fleet sent={flood['well_behaved_sent']:<3d} "
        f"stored={flood['well_behaved_stored']:<3d} "
        f"goodput={flood['goodput']:6.1%} "
        f"shed={flood['shed']:<4d} rejections={flood['rejections']:<3d} "
        f"db_backpressure={flood['backpressure_signals']}"
    )
    # the three data-plane invariants
    assert churn["lost"] == 0, "acknowledged samples were lost"
    assert churn["overcounted"] <= 0 and churn["stored"] == churn["sent"], \
        "duplicate deliveries were double-counted"
    assert flood["goodput"] >= 0.90, \
        "flood starved the well-behaved publishers"
    # the machinery demonstrably engaged (not a vacuous pass)
    assert churn["restored"] > 0
    assert churn["duplicates_absorbed"] >= REPLAY
    assert flood["shed"] > 0
