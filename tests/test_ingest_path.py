"""The measurement DB's one ingest path, over every way it is fed.

Payload shape {lone sample envelope, line-protocol frame} × durability
{volatile default, WAL + snapshot with acked deliveries} must agree on
what ends up stored and how it is counted; only the frame counters
(``batches_ingested`` / ``batch_samples``), the WAL and what a crash
loses may differ between the arms.

The durable arm commits in groups (one fsync and one ack frame per
``COMMIT_WINDOW``); :class:`TestGroupCommit` holds it to the promise
that replaced "an fsync per delivery": no delivery is acknowledged
before the fsync that covers its record has returned.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cdf import Measurement
from repro.common.lineproto import encode_frame
from repro.core.replication import ReplicationConfig, replicate
from repro.middleware.broker import Broker
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import join, measurement_topic
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.proxies.device_proxy import BatchConfig
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import (
    COMMIT_WINDOW,
    DurabilityConfig,
    WriteAheadLog,
)
from repro.storage.measurementdb import MeasurementDatabase

DISTRICT = "dst-0001"
DEVICES = ("dev-0001", "dev-0002")
PER_DEVICE = 6
FRAME = 4  # samples per frame: 12 samples -> 3 frames


def samples():
    return [
        Measurement(device_id=device, entity_id="bld-0001",
                    quantity="temperature", value=20.0 + i,
                    timestamp=10.0 * i, source="test",
                    metadata={"seq": i + 1})
        for device in DEVICES for i in range(PER_DEVICE)
    ]


#: long enough after a publish for its delivery to have reached the
#: measurement DB (two ~2 ms hops), well inside the commit window
DELIVERED = COMMIT_WINDOW / 2


class Rig:
    """Broker + measurement DB + one publisher on a jitter-free net."""

    def __init__(self, shape, durable, tmp_path, ack_timeout=0.5,
                 standbys=0):
        self.shape = shape
        self.durable = durable
        self.net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        self.broker = Broker(self.net.add_host("broker"),
                             delivery_ack_timeout=ack_timeout,
                             max_delivery_attempts=3)
        brokers = "broker"
        if standbys:
            self.group = replicate(self.broker, standbys=standbys,
                                   config=REPLICATION)
            brokers = self.group.hosts()
        durability = DurabilityConfig(
            wal_path=str(tmp_path / "mdb.wal"),
            snapshot_path=str(tmp_path / "mdb.snap"),
        ) if durable else None
        self.mdb = MeasurementDatabase(self.net.add_host("mdb"), brokers,
                                       DISTRICT, durability=durability)
        self.peer = MiddlewarePeer(self.net.add_host("pub"), brokers)
        self.net.scheduler.run_for(2.0 if standbys else 1.0)

    def publish(self, measurements, settle=2.0):
        """Send *measurements* in this rig's payload shape, then run
        *settle* seconds; returns the number of deliveries that makes."""
        if self.shape == "sample":
            payloads = [(measurement_topic(DISTRICT, m.entity_id,
                                           m.device_id, m.quantity),
                         m.to_dict()) for m in measurements]
        else:
            topic = join("district", DISTRICT, "batch", "pub")
            payloads = [(topic, encode_frame(measurements[i:i + FRAME]))
                        for i in range(0, len(measurements), FRAME)]
        for topic, payload in payloads:
            self.peer.publish(topic, payload)
        self.net.scheduler.run_for(settle)
        return len(payloads)

    def publish_poison(self):
        if self.shape == "sample":
            poison = samples()[0].to_dict()
            poison["value"] = "not-a-number"
            topic = measurement_topic(DISTRICT, "bld-0001", "dev-0001",
                                      "temperature")
        else:
            poison = {"record": "measurement_batch",
                      "lines": ["not a valid line"]}
            topic = join("district", DISTRICT, "batch", "pub")
        self.peer.publish(topic, poison)
        self.net.scheduler.run_for(5.0)  # past every redelivery round

    def contents(self):
        store = self.mdb.store
        return {(device, quantity):
                store.series(device, quantity).to_pairs()
                for device in store.devices()
                for quantity in store.quantities(device)}


EXPECTED = {(device, "temperature"):
            [(10.0 * i, 20.0 + i) for i in range(PER_DEVICE)]
            for device in DEVICES}


@pytest.fixture(params=["sample", "frame"])
def shape(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["volatile", "durable"])
def rig(request, shape, tmp_path):
    rig = Rig(shape, request.param, tmp_path)
    yield rig
    rig.mdb.close()


class TestOneIngestPath:
    def test_store_contents_and_counters(self, rig):
        deliveries = rig.publish(samples())
        mdb = rig.mdb
        assert rig.contents() == EXPECTED
        assert mdb.ingested == len(DEVICES) * PER_DEVICE
        assert mdb.rejected == mdb.ingest_duplicates == 0
        assert mdb.freshness("dev-0002") == 10.0 * (PER_DEVICE - 1)
        # frame counters mean line-protocol frames only
        frames = deliveries if rig.shape == "frame" else 0
        assert mdb.batches_ingested == frames
        assert mdb.batch_samples == (mdb.ingested if frames else 0)
        if rig.durable:
            # every delivery logged and acknowledged; how few fsyncs
            # that took is TestGroupCommit's subject
            assert mdb.wal.appends == deliveries
            assert 1 <= mdb.wal.fsyncs <= deliveries
            assert rig.broker.stats.deliveries_acked == deliveries
        else:
            assert mdb.wal is None
            assert rig.broker.stats.deliveries_acked == 0

    def test_duplicates_absorbed(self, rig):
        rig.publish(samples())
        rig.publish(samples())         # verbatim retransmission
        rig.publish(samples()[3:9])    # partial overlap, other framing
        assert rig.contents() == EXPECTED
        assert rig.mdb.ingested == 12
        assert rig.mdb.ingest_duplicates == 12 + 6

    def test_crash_then_recover(self, rig):
        rig.publish(samples()[:8])
        rig.mdb.write_snapshot()       # a no-op on the volatile arm
        rig.publish(samples()[8:])     # durable arm: the WAL tail
        rig.mdb.reset()
        assert rig.contents() == {}
        restored = rig.mdb.recover()
        if rig.durable:
            assert restored == 12
            assert rig.contents() == EXPECTED
            # the restored dedup window still absorbs a redelivery
            rig.publish(samples())
            assert rig.mdb.ingest_duplicates == 12
        else:
            assert restored is None    # nothing durable to recover from
            rig.publish(samples())     # nothing survived: all fresh
        assert rig.contents() == EXPECTED

    def test_poison_payload_counted_not_stored(self, rig):
        rig.publish_poison()           # must not raise into the scheduler
        mdb = rig.mdb
        assert mdb.store.sample_count() == 0 == mdb.ingested
        if rig.durable:
            # acked subscription: poison nacks until it dead-letters
            assert rig.broker.stats.dead_lettered == 1
            assert mdb.rejected == mdb.poison_rejected == 3
        else:
            assert rig.broker.stats.dead_lettered == 0
            assert mdb.rejected == mdb.poison_rejected == 1
        assert rig.net.scheduler.periodic_task_errors == 0
        rig.publish(samples())         # the pipeline is not wedged
        assert rig.contents() == EXPECTED


# -- group commit: ack-after-fsync, checked not assumed -----------------------

REPLICATION = ReplicationConfig(heartbeat_period=1.0, fencing_timeout=3.0,
                                failover_timeout=5.0, promotion_stagger=3.0,
                                snapshot_period=20.0)
FAILOVER_WAIT = (REPLICATION.failover_timeout + REPLICATION.promotion_stagger
                 + 2.0 * REPLICATION.heartbeat_period)


def points(keys):
    """Dedup keys as the (device, timestamp) pairs a store holds."""
    return {(key[0], key[1]) for key in keys}


def stored_points(rig):
    return {(device, t) for (device, _quantity), pairs
            in rig.contents().items() for t, _value in pairs}


class AckSpy:
    """Relates the two things the promise is about.

    ``durable`` is every sample key the WAL file held when an
    ``os.fsync`` of it *returned*; each ``delivery_ack`` frame leaving
    the measurement DB is checked against it at send time, by the keys
    of the samples its deliveries carried.  ``early`` lists deliveries
    acknowledged before the fsync covering them — it must stay empty.
    """

    def __init__(self, rig, monkeypatch):
        mdb, wal = rig.mdb, rig.mdb.wal
        self.durable = set()
        self.carried = {}    # delivery id -> keys of its samples
        self.acked = set()   # keys of every acknowledged delivery
        self.ack_frames = 0
        self.early = []
        real_fsync, real_send = os.fsync, rig.net.send

        def keys_of(payload):
            return {mdb._dedup_key(m) for m in mdb._decode(payload)[1]}

        def fsync(fd):
            real_fsync(fd)
            if os.path.exists(wal.path) \
                    and os.fstat(fd).st_ino == os.stat(wal.path).st_ino:
                fresh = WriteAheadLog(wal.path)  # a reader of its own
                for record in fresh.replay():
                    self.durable |= keys_of(record)

        def send(sender, recipient, port, payload, size=None):
            if isinstance(payload, dict):
                if recipient == "mdb" and payload.get("kind") == "event" \
                        and payload.get("delivery_id") is not None:
                    self.carried[payload["delivery_id"]] = \
                        keys_of(payload["payload"])
                elif sender == "mdb" \
                        and payload.get("verb") == "delivery_ack":
                    self.ack_frames += 1
                    for delivery_id in payload.get("delivery_ids") \
                            or [payload["delivery_id"]]:
                        keys = self.carried[delivery_id]
                        if not keys <= self.durable:
                            self.early.append(delivery_id)
                        self.acked |= keys
            real_send(sender, recipient, port, payload, size=size)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(rig.net, "send", send)


@pytest.fixture
def durable_rig(shape, tmp_path):
    rig = Rig(shape, True, tmp_path)
    yield rig
    rig.mdb.close()


class TestGroupCommit:
    def test_no_ack_before_the_fsync_covering_its_record(
            self, durable_rig, monkeypatch):
        rig, mdb = durable_rig, durable_rig.mdb
        spy = AckSpy(rig, monkeypatch)
        first = rig.publish(samples()[:8], settle=DELIVERED)
        # inside the window: staged, so neither visible nor acked
        assert mdb.metrics()["ingest_staged"] == 8
        assert mdb.metrics()["ingest_queue_depth"] == 8
        assert rig.contents() == {} and mdb.wal.fsyncs == 0
        assert spy.ack_frames == 0
        rig.net.scheduler.run_for(COMMIT_WINDOW)
        assert mdb.metrics()["ingest_staged"] == 0
        assert spy.ack_frames == 1 == mdb.wal.fsyncs
        second = rig.publish(samples()[8:])
        assert rig.contents() == EXPECTED
        assert spy.early == []
        assert points(spy.acked) == stored_points(rig)
        # one fsync and one ack frame per commit, not per delivery
        assert spy.ack_frames == mdb.wal.fsyncs == 2 < first + second
        assert rig.broker.stats.deliveries_acked == first + second
        metrics = mdb.metrics()
        assert metrics["wal_records_per_fsync"] == (first + second) / 2
        assert metrics["commit_group_max"] == max(first, second)

    def test_crash_inside_window_drops_the_group_unacked(
            self, durable_rig, monkeypatch):
        rig, mdb = durable_rig, durable_rig.mdb
        spy = AckSpy(rig, monkeypatch)
        deliveries = rig.publish(samples(), settle=DELIVERED)
        mdb.reset()                      # crash with the group open
        assert mdb.recover() == 0        # nothing of it reached the disk
        assert rig.contents() == {}
        rig.net.scheduler.run_for(COMMIT_WINDOW)  # its timer died too
        assert spy.ack_frames == 0 == rig.broker.stats.deliveries_acked
        assert len(rig.broker.state.deliveries) == deliveries
        rig.net.scheduler.run_for(2.0)   # the broker's ack timeout
        assert rig.broker.stats.redeliveries == deliveries
        assert len(rig.broker.state.deliveries) == 0
        assert rig.contents() == EXPECTED
        assert mdb.ingested == 12 and mdb.ingest_duplicates == 0
        assert spy.early == []

    def test_snapshot_inside_window_commits_the_group_first(
            self, durable_rig, monkeypatch):
        rig, mdb = durable_rig, durable_rig.mdb
        spy = AckSpy(rig, monkeypatch)
        deliveries = rig.publish(samples(), settle=DELIVERED)
        mdb.write_snapshot()             # the periodic tick's call
        # the snapshot truncates the WAL and persists the dedup window:
        # whatever it covers must be in it, and the group was
        assert rig.contents() == EXPECTED
        assert mdb.wal.size_bytes() == 0
        mdb.reset()                      # crash right behind it
        assert mdb.recover() == 12
        assert rig.contents() == EXPECTED
        rig.net.scheduler.run_for(2.0)
        assert spy.early == []
        assert points(spy.acked) <= stored_points(rig)
        assert len(rig.broker.state.deliveries) == 0
        assert rig.broker.stats.deliveries_acked == deliveries
        assert rig.contents() == EXPECTED

    def test_duplicate_of_a_staged_delivery_waits_for_its_fsync(
            self, durable_rig, monkeypatch):
        rig, mdb = durable_rig, durable_rig.mdb
        spy = AckSpy(rig, monkeypatch)
        deliveries = rig.publish(samples(), settle=0.0)
        deliveries += rig.publish(samples(), settle=DELIVERED)  # verbatim
        # absorbed at once, counted once — and acknowledged with the
        # originals, not before them
        assert mdb.ingest_duplicates == 12
        assert spy.ack_frames == 0
        rig.net.scheduler.run_for(2.0)
        assert spy.early == []
        assert spy.ack_frames == 1 == mdb.wal.fsyncs
        assert rig.broker.stats.deliveries_acked == deliveries
        assert rig.broker.stats.redeliveries == 0
        assert mdb.ingested == 12 and mdb.ingest_duplicates == 12
        assert rig.contents() == EXPECTED

    def test_redelivery_of_a_staged_delivery_waits_for_its_fsync(
            self, shape, tmp_path, monkeypatch):
        # an ack timeout shorter than the window: the broker redelivers
        # while the original is still staged
        rig = Rig(shape, True, tmp_path, ack_timeout=0.4 * COMMIT_WINDOW)
        spy = AckSpy(rig, monkeypatch)
        rig.publish(samples(), settle=DELIVERED)
        assert rig.broker.stats.redeliveries > 0
        assert rig.mdb.ingest_duplicates > 0
        assert spy.ack_frames == 0
        rig.net.scheduler.run_for(2.0)
        assert spy.early == []
        assert len(rig.broker.state.deliveries) == 0
        assert rig.broker.stats.dead_lettered == 0
        assert rig.mdb.ingested == 12
        assert rig.contents() == EXPECTED
        rig.mdb.close()

    def test_broker_failover_between_delivery_and_settle(
            self, shape, tmp_path, monkeypatch):
        rig = Rig(shape, True, tmp_path, standbys=2)
        spy = AckSpy(rig, monkeypatch)
        deliveries = rig.publish(samples(), settle=DELIVERED)
        rig.net.set_host_online("broker", False)  # acks have no taker
        rig.net.scheduler.run_for(FAILOVER_WAIT + 5.0)
        promoted = rig.group.primary.node
        assert promoted is not rig.broker
        # the promoted broker redelivered what it saw pending; the
        # store had committed it, so it was absorbed and acked there
        assert promoted.stats.redeliveries == deliveries
        assert promoted.stats.deliveries_acked == deliveries
        assert len(promoted.state.deliveries) == 0
        assert spy.early == []
        assert rig.mdb.ingested == 12
        assert rig.mdb.ingest_duplicates == 12
        assert rig.contents() == EXPECTED
        rig.mdb.close()

    def test_volatile_store_applies_on_delivery(self, shape, tmp_path):
        # no WAL, nothing to wait for: visible as it arrives
        rig = Rig(shape, False, tmp_path)
        rig.publish(samples(), settle=DELIVERED)
        assert rig.contents() == EXPECTED
        assert rig.mdb.metrics()["ingest_staged"] == 0


# random arrival gaps, duplicates (overlapping slices), snapshot ticks
# and one crash point
_OPS = st.lists(st.one_of(
    st.tuples(st.just("publish"), st.integers(0, 11), st.integers(1, 5)),
    st.tuples(st.just("publish"), st.integers(0, 11), st.integers(1, 5)),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.004, 0.03, 0.07, 0.12, 0.6])),
    st.tuples(st.just("snapshot")),
), min_size=1, max_size=16)


class TestAckedNeverLost:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["sample", "frame"]), _OPS, st.integers(0, 16))
    def test_acked_is_recovered_and_everything_lands_once(
            self, shape, ops, crash_at):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as monkeypatch:
            rig = Rig(shape, True, Path(tmp))
            spy = AckSpy(rig, monkeypatch)
            mdb, run_for = rig.mdb, rig.net.scheduler.run_for
            published, restored = set(), 0
            for index, (op, *args) in enumerate(ops):
                if index == crash_at:
                    acked = points(spy.acked)
                    mdb.reset()
                    restored = mdb.recover()
                    assert acked <= stored_points(rig)
                if op == "publish":
                    chunk = samples()[args[0]:args[0] + args[1]]
                    published |= {(m.device_id, m.timestamp)
                                  for m in chunk}
                    rig.publish(chunk, settle=0.0)
                elif op == "advance":
                    run_for(args[0])
                else:
                    mdb.write_snapshot()
            run_for(5.0)  # heal + drain: every redelivery round
            assert spy.early == []
            assert points(spy.acked) == published
            assert len(rig.broker.state.deliveries) == 0
            assert rig.broker.stats.dead_lettered == 0
            # published == ingested == stored, nothing counted twice
            assert restored + mdb.ingested == len(published) \
                == mdb.store.sample_count()
            assert rig.contents() == {
                series: [pair for pair in pairs
                         if (series[0], pair[0]) in published]
                for series, pairs in EXPECTED.items()
                if any((series[0], t) in published for t, _v in pairs)}
            mdb.close()


def test_small_district_fsyncs_per_commit_not_per_delivery(tmp_path):
    """Exact-integer gate: a regression to an fsync per delivery fails
    on any runner.  13 proxies whose devices sample in the same
    instants flush within milliseconds of one another, so a commit
    window covers a whole burst."""
    deployment = deploy(ScenarioConfig(
        seed=3, n_buildings=4, devices_per_building=4,
        proxy_batching=BatchConfig(25, 10.0),
        mdb_durability=DurabilityConfig(
            wal_path=str(tmp_path / "mdb.wal"),
            snapshot_path=str(tmp_path / "mdb.snap")),
    ))
    deployment.run(600.0)
    mdb = deployment.measurement_db
    assert mdb.batches_ingested == mdb.wal.appends > 50
    assert mdb.wal.fsyncs * 5 <= mdb.batches_ingested
    assert deployment.broker.stats.deliveries_acked == mdb.batches_ingested
    assert deployment.broker.stats.redeliveries == 0
    assert mdb.ingest_duplicates == 0
    assert mdb.store.sample_count() == mdb.ingested
    mdb.close()
