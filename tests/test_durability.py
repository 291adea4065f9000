"""Tests for the durable data plane.

Covers the write-ahead log + snapshot crash safety of the measurement
DB, the broker's consumer acks / redelivery / dead-letter queue, the
idempotent-ingest dedup window (including the duplicate-delivery paths
that exist without durability: offline-buffer re-flushes and broker
restarts replaying retained events), backpressure and load shedding
with per-publisher fairness, the HTTP client's 429 Retry-After
handling, and the measurement-DB fault-injection verbs.
"""

import json

import pytest

from repro.common.cdf import Measurement
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    SerializationError,
)
from repro.middleware.broker import BROKER_PORT, Broker, BrokerOverloadConfig
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import join, measurement_topic
from repro.network.resilience import ResiliencePolicy, RetryPolicy
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.middleware.topics import district_filter
from repro.network.webservice import (
    GET,
    HttpClient,
    Response,
    WebService,
    ok,
)
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import (
    DurabilityConfig,
    WriteAheadLog,
    load_state,
    save_state,
)
from repro.storage.measurementdb import MeasurementDatabase
from repro.storage.query import RangeQuery

DISTRICT = "dst-0001"


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


def sample(t=1.0, seq=1, device="dev-0001", value=20.0):
    return Measurement(
        device_id=device, entity_id="bld-0001", quantity="temperature",
        value=value, timestamp=t, source="test",
        metadata={"seq": seq},
    )


def topic_for(device="dev-0001"):
    return measurement_topic(DISTRICT, "bld-0001", device, "temperature")


def make_mdb(net, tmp_path=None, broker_host="broker", **overrides):
    """A measurement DB on *net* with a durability config."""
    kwargs = {}
    if tmp_path is not None:
        kwargs["wal_path"] = str(tmp_path / "mdb.wal")
        kwargs["snapshot_path"] = str(tmp_path / "mdb.snap")
    kwargs.update(overrides)
    return MeasurementDatabase(
        net.add_host("mdb"), broker_host, DISTRICT,
        durability=DurabilityConfig(**kwargs),
    )


def stored_count(mdb):
    return sum(
        len(mdb.store.series(device, quantity))
        for device in mdb.store.devices()
        for quantity in mdb.store.quantities(device)
    )


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "test.wal"))
        records = [{"n": i, "payload": "x" * i} for i in range(5)]
        for record in records:
            wal.append(record)
        assert wal.records() == records
        assert wal.appends == 5
        assert wal.fsyncs == 5
        assert wal.fsynced_bytes == wal.size_bytes() > 0

    def test_torn_final_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "torn.wal"
        wal = WriteAheadLog(str(path))
        wal.append({"n": 1})
        wal.append({"n": 2})
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"n": 3, "tru')  # crash mid-append
        assert wal.records() == [{"n": 1}, {"n": 2}]
        assert wal.torn_records_skipped == 1

    def test_torn_tail_is_cut_off_before_the_next_append(self, tmp_path):
        path = tmp_path / "torn.wal"
        wal = WriteAheadLog(str(path))
        wal.append({"n": 1})
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"n": 2, "tru')
        assert wal.records() == [{"n": 1}]     # recovery reads the log
        wal.append({"n": 3})                   # ... then appends to it
        assert path.read_text() == '{"n":1}\n{"n":3}\n'
        assert wal.records() == [{"n": 1}, {"n": 3}]
        assert wal.torn_records_skipped == 1   # and is not re-counted

    def test_unterminated_final_record_counts_as_torn(self, tmp_path):
        # the write was cut exactly before its newline: the record
        # parses, but it was never synced whole, so never acknowledged
        path = tmp_path / "cut.wal"
        path.write_text('{"n":1}\n{"n":2}')
        wal = WriteAheadLog(str(path))
        assert wal.records() == [{"n": 1}]
        assert wal.torn_records_skipped == 1
        assert path.read_text() == '{"n":1}\n'

    def test_staged_records_share_one_fsync(self, tmp_path, monkeypatch):
        import os
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        wal = WriteAheadLog(str(tmp_path / "group.wal"))
        for n in range(3):
            wal.stage({"n": n})
        assert wal.size_bytes() == 0 and wal.appends == 0  # memory only
        wal.sync()
        assert len(synced) == 1 == wal.fsyncs
        assert wal.appends == 3 == wal.group_max
        assert wal.fsynced_bytes == wal.size_bytes()
        assert wal.records() == [{"n": 0}, {"n": 1}, {"n": 2}]
        wal.sync()                     # nothing staged: nothing to do
        assert len(synced) == 1

    def test_close_drops_what_was_only_staged(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "crash.wal"))
        wal.append({"n": 1})
        wal.stage({"n": 2})
        wal.close()                    # the process died
        wal.sync()
        assert wal.records() == [{"n": 1}]

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "corrupt.wal"
        path.write_text('{"n": 1}\nnot json at all\n{"n": 3}\n')
        wal = WriteAheadLog(str(path))
        with pytest.raises(Exception):
            wal.records()

    def test_reset_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "reset.wal"))
        wal.append({"n": 1})
        wal.reset()
        assert wal.records() == []
        assert wal.size_bytes() == 0
        wal.append({"n": 2})  # still usable after reset
        assert wal.records() == [{"n": 2}]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "never-written.wal"))
        assert wal.records() == []
        assert wal.size_bytes() == 0


class TestDurabilityConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            DurabilityConfig(dedup_window=0)
        with pytest.raises(ConfigurationError):
            DurabilityConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            DurabilityConfig(ingest_delay=-1.0)
        with pytest.raises(ConfigurationError):
            DurabilityConfig(snapshot_period=0.0)

    def test_overload_config_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            BrokerOverloadConfig(high_watermark=0)
        with pytest.raises(ConfigurationError):
            BrokerOverloadConfig(high_watermark=10, low_watermark=20)
        with pytest.raises(ConfigurationError):
            BrokerOverloadConfig(publisher_quota=0)
        with pytest.raises(ConfigurationError):
            BrokerOverloadConfig(retry_after=0.0)


class TestMeasurementStateSnapshot:
    def test_round_trip(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        for t, seq in ((1.0, 1), (2.0, 2)):
            measurement = sample(t=t, seq=seq)
            mdb._remember(mdb._dedup_key(measurement))
            mdb._store(measurement)
        path = str(tmp_path / "state.json")
        save_state(path, "repro-mdb-state", 3, mdb.snapshot())
        state = load_state(path, "repro-mdb-state", 3)
        assert state["freshness"] == {"dev-0001": 2.0}
        assert state["entity_for_device"] == {"dev-0001": "bld-0001"}
        mdb.reset()
        mdb.restore(state)
        assert len(mdb.store.series("dev-0001", "temperature")) == 2
        assert mdb.freshness("dev-0001") == 2.0
        assert ("dev-0001", 1.0, "temperature", 1) in mdb._dedup_keys
        assert mdb._entity_for_device == {"dev-0001": "bld-0001"}

    def test_version_1_row_dump_rejected_by_version(self, net, tmp_path):
        # the pre-BlockStore row-per-series dump: refused loudly, never
        # half-loaded into the wrong engine
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        (tmp_path / "mdb.snap").write_text(json.dumps({
            "format": "repro-mdb-state", "version": 1,
            "series": [{"device_id": "dev-0001",
                        "quantity": "temperature",
                        "samples": [[1.0, 20.0]]}],
            "freshness": {"dev-0001": 1.0}, "dedup_keys": [],
            "entity_for_device": {"dev-0001": "bld-0001"},
        }))
        with pytest.raises(SerializationError, match="version 1"):
            mdb.recover()


class TestDurableIngest:
    def publish(self, net, peer, t, seq, **kwargs):
        peer.publish(topic_for(kwargs.get("device", "dev-0001")),
                     sample(t=t, seq=seq, **kwargs).to_dict())
        net.scheduler.run_for(1.0)

    def test_acknowledged_samples_survive_crash_restart(self, net,
                                                        tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        for i in range(1, 6):
            self.publish(net, peer, t=float(i), seq=i)
        assert stored_count(mdb) == 5
        mdb.reset()
        assert stored_count(mdb) == 0
        restored = mdb.recover()
        assert restored == 5
        assert stored_count(mdb) == 5
        assert mdb.freshness("dev-0001") == 5.0

    def test_snapshot_plus_wal_tail_recovery_is_idempotent(self, net,
                                                           tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        for i in range(1, 4):
            self.publish(net, peer, t=float(i), seq=i)
        mdb.write_snapshot()
        assert mdb.wal.size_bytes() == 0  # truncated by the snapshot
        for i in range(4, 6):
            self.publish(net, peer, t=float(i), seq=i)
        mdb.reset()
        assert mdb.recover() == 5
        assert stored_count(mdb) == 5
        # crash between snapshot and WAL truncation: WAL still holds
        # records the snapshot already contains -> dedup absorbs them
        mdb.write_snapshot()
        self.publish(net, peer, t=6.0, seq=6)
        save_before = mdb.wal.records()
        assert len(save_before) == 1
        mdb.reset()
        assert mdb.recover() == 6
        assert stored_count(mdb) == 6

    def test_recover_false_loses_everything(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        self.publish(net, peer, t=1.0, seq=1)
        mdb.reset()
        assert stored_count(mdb) == 0
        assert mdb.freshness("dev-0001") is None

    def test_duplicate_deliveries_counted_once(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        payload = sample(t=1.0, seq=1).to_dict()
        for _ in range(4):  # a redelivery storm of the same sample
            peer.publish(topic_for(), payload)
        net.scheduler.run_for(2.0)
        assert stored_count(mdb) == 1
        assert mdb.ingested == 1
        assert mdb.ingest_duplicates == 3

    def test_same_timestamp_different_seq_not_deduplicated(self, net,
                                                           tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        self.publish(net, peer, t=1.0, seq=1, value=20.0)
        self.publish(net, peer, t=1.0, seq=2, value=21.0)
        assert mdb.ingested == 2
        assert mdb.ingest_duplicates == 0

    def test_wal_and_recovery_counters_exported(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        self.publish(net, peer, t=1.0, seq=1)
        mdb.reset()
        mdb.recover()
        metrics = mdb.metrics()
        assert metrics["wal_appends"] == 1
        assert metrics["wal_fsynced_bytes"] > 0
        assert metrics["recoveries"] == 1
        assert metrics["recovered_samples"] == 1
        assert metrics["wal_records_replayed"] == 1
        assert metrics["dedup_window_size"] == 1

    def test_snapshot_preserves_queued_acked_samples(self, net, tmp_path):
        # acked samples still sitting in the ingest queue must survive
        # a snapshot (which truncates their WAL records) + crash: their
        # dedup keys are persisted, so a redelivered copy would be
        # suppressed and the data gone for good
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path, ingest_delay=30.0)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        for i in range(1, 4):
            peer.publish(topic_for(), sample(t=float(i), seq=i).to_dict())
        net.scheduler.run_for(1.0)  # delivered, WAL'd, acked — not drained
        assert len(mdb._queue) == 3
        mdb.write_snapshot()        # folds the queue in, then truncates
        mdb.reset()                 # crash before the queue ever drained
        assert mdb.recover() == 3
        assert stored_count(mdb) == 3

    def test_poison_payload_dead_letters_instead_of_wedging(self, net,
                                                            tmp_path):
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=0.5,
                        max_delivery_attempts=3)
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        poison = sample(t=1.0, seq=1).to_dict()
        poison["value"] = "not-a-number"  # fails translation
        peer.publish(topic_for(), poison)
        net.scheduler.run_for(5.0)
        assert broker.stats.dead_lettered == 1
        assert len(broker.dead_letters) == 1
        assert broker.dead_letters[0]["reason"] == "poison"
        assert len(broker.state.deliveries) == 0
        # the pipeline is not wedged: good samples still flow
        self.publish(net, peer, t=2.0, seq=2)
        assert mdb.ingested == 1

    def test_dead_letter_routes_list_and_drain(self, net, tmp_path):
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=0.5,
                        max_delivery_attempts=2)
        make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        client = HttpClient(net.add_host("operator"))
        net.scheduler.run_for(1.0)
        poison = sample(t=1.0, seq=1).to_dict()
        del poison["device_id"]
        peer.publish(topic_for(), poison)
        net.scheduler.run_for(5.0)
        listing = client.call(broker.uri + "deadletter").body
        assert listing["count"] == 1
        drained = client.call(broker.uri + "deadletter/drain",
                              method="POST").body
        assert drained["drained"] == 1
        assert client.call(broker.uri + "deadletter").body["count"] == 0
        assert broker.stats.dead_letters_drained == 1

    def test_dead_letter_eviction_counted(self, net, tmp_path):
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=0.2,
                        max_delivery_attempts=1, dead_letter_capacity=2)
        make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        for i in range(1, 4):
            poison = sample(t=float(i), seq=i).to_dict()
            poison["value"] = "not-a-number"
            peer.publish(topic_for(), poison)
            net.scheduler.run_for(1.0)
        assert broker.stats.dead_lettered == 3
        # the bounded store overflowed: the oldest entry was evicted,
        # and the eviction is accounted, not silent
        assert len(broker.dead_letters) == 2
        assert broker.stats.dead_letters_evicted == 1
        assert broker.metrics()["dead_letters_evicted"] == 1

    def test_poison_redelivery_does_not_stack_timeout_timers(self, net):
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=1.0,
                        max_delivery_attempts=10)
        sub_host = net.add_host("sub")
        received = []

        def on_delivery(message):
            if message.payload.get("kind") != "event":
                return  # sub-ack
            received.append(message.payload)
            if len(received) == 1:  # nack once, then go silent
                sub_host.send("broker", BROKER_PORT, {
                    "verb": "delivery_nack",
                    "delivery_id": message.payload["delivery_id"],
                    "poison": True,
                })

        sub_host.bind("inbox", on_delivery)
        sub_host.send("broker", BROKER_PORT, {
            "verb": "subscribe", "pattern": "district/#",
            "port": "inbox", "ack": True,
        })
        pub = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(0.5)
        pub.publish(topic_for(), sample().to_dict())
        net.scheduler.run_for(3.6)
        # the poison nack triggers an immediate redelivery; the
        # original timeout timer for the same delivery must go stale
        # instead of redelivering again — so the cadence is one
        # immediate resend plus one per ack-timeout period, not two
        assert broker.stats.redeliveries == len(received) - 1
        assert broker.stats.redeliveries <= 4


class TestLoneSampleWire:
    """A lone sample travels as a topic-named event; the measurement DB
    still accepts the self-contained record and keeps writing it to the
    WAL, so the WAL shape does not change and an old WAL replays."""

    #: a lone-sample WAL record as written before events were
    #: topic-named: the self-contained CDF record, spelled out literally
    OLD_RECORD = {"record": "measurement", "device_id": "dev-0001",
                  "entity_id": "bld-0001", "quantity": "temperature",
                  "value": 20.0, "unit": "degC", "timestamp": 1.0,
                  "source": "test", "metadata": {"seq": 1}}

    def rig(self, net, tmp_path):
        broker = Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        return broker, mdb, peer

    def test_topic_named_event_ingests_and_logs_the_full_record(
            self, net, tmp_path):
        _broker, mdb, peer = self.rig(net, tmp_path)
        peer.publish(topic_for(), sample().to_event())
        net.scheduler.run_for(1.0)
        assert mdb.ingested == 1 and mdb.poison_rejected == 0
        assert mdb.wal.records() == [self.OLD_RECORD]
        assert mdb.query(RangeQuery("dev-0001", "temperature")) == \
            [(1.0, 20.0)]

    def test_self_contained_record_on_a_measurement_topic_ingests(
            self, net, tmp_path):
        _broker, mdb, peer = self.rig(net, tmp_path)
        peer.publish(topic_for(), dict(self.OLD_RECORD))
        net.scheduler.run_for(1.0)
        assert mdb.ingested == 1 and mdb.poison_rejected == 0
        assert mdb.wal.records() == [self.OLD_RECORD]

    def test_short_payload_off_a_measurement_topic_is_poison(
            self, net, tmp_path):
        broker, mdb, peer = self.rig(net, tmp_path)
        for topic in (join("district", DISTRICT, "batch", "pub"),
                      join("district", DISTRICT, "entity", "bld-0001")):
            peer.publish(topic, sample().to_event())
        net.scheduler.run_for(30.0)   # past every redelivery round
        # acked: each is nacked as poison until it dead-letters
        assert [d["reason"] for d in broker.dead_letters] == ["poison"] * 2
        assert mdb.poison_rejected == broker.stats.poison_nacks
        assert mdb.poison_rejected >= 2 and mdb.ingested == 0
        assert mdb.wal.records() == []

    def test_old_wal_lone_record_replays_to_the_same_series(
            self, net, tmp_path):
        WriteAheadLog(str(tmp_path / "mdb.wal")).append(self.OLD_RECORD)
        _broker, mdb, peer = self.rig(net, tmp_path)
        assert mdb.recover() == 1
        replayed = mdb.query(RangeQuery("dev-0001", "temperature"))
        live = MeasurementDatabase(net.add_host("live"), "broker", DISTRICT)
        net.scheduler.run_for(1.0)
        peer.publish(topic_for(), sample().to_event())
        net.scheduler.run_for(1.0)
        assert replayed == [(1.0, 20.0)] == \
            live.query(RangeQuery("dev-0001", "temperature"))
        # the same sample arriving live now is a duplicate, not a second
        assert mdb.ingest_duplicates == 1
        assert mdb.query(RangeQuery("dev-0001", "temperature")) == replayed


class TestBackpressure:
    def test_bounded_ingest_queue_signals_busy_then_drains(self, net,
                                                           tmp_path):
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=0.5)
        mdb = make_mdb(net, tmp_path, queue_capacity=2,
                       ingest_delay=0.2)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        for i in range(1, 9):
            peer.publish(topic_for(), sample(t=float(i), seq=i).to_dict())
        net.scheduler.run_for(30.0)
        # every sample eventually lands exactly once, via redelivery
        assert mdb.ingested == 8
        assert stored_count(mdb) == 8
        assert mdb.backpressure_signals > 0
        assert broker.stats.consumer_busy > 0
        assert broker.stats.redeliveries > 0
        assert broker.stats.dead_lettered == 0  # busy is never poison

    def test_sustained_backpressure_never_dead_letters(self, net,
                                                       tmp_path):
        # each busy nack resets the attempt budget: backpressure that
        # outlasts max_delivery_attempts redelivery rounds still never
        # diverts acknowledged samples to the DLQ
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=0.3,
                        max_delivery_attempts=2)
        mdb = make_mdb(net, tmp_path, queue_capacity=1, ingest_delay=1.0)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        for i in range(1, 7):
            peer.publish(topic_for(), sample(t=float(i), seq=i).to_dict())
        net.scheduler.run_for(60.0)
        assert mdb.ingested == 6
        assert stored_count(mdb) == 6
        assert broker.stats.consumer_busy > 2  # far past the budget
        assert broker.stats.dead_lettered == 0

    def test_mdb_outage_never_silently_diverts_acked_samples(self, net,
                                                             tmp_path):
        # a consumer outage longer than the dead-letter horizon
        # time-out-dead-letters the pending deliveries, but the
        # end-to-end pub-ack is withheld: the publisher keeps the
        # samples and retransmits once the consumer answers again
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=0.5,
                        max_delivery_attempts=2)
        mdb = make_mdb(net, tmp_path)
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=16, ack_timeout=0.5,
                                   settle_timeout=2.0)
        net.scheduler.run_for(1.0)
        net.set_host_online("mdb", False)
        for i in range(1, 4):
            publisher.publish(topic_for(),
                              sample(t=float(i), seq=i).to_dict())
        net.scheduler.run_for(10.0)  # well past the 1 s horizon
        assert broker.stats.dead_lettered >= 1
        assert broker.stats.pub_acks_withheld >= 1
        assert mdb.ingested == 0
        net.set_host_online("mdb", True)
        net.scheduler.run_for(30.0)
        assert mdb.ingested == 3
        assert stored_count(mdb) == 3
        assert publisher.publications_dropped == 0

    def test_deferred_ack_settling_does_not_mark_broker_suspect(
            self, net, tmp_path):
        # consumer settling (bounded ingest queue, busy-nack
        # redelivery) legitimately outlasts the publisher's
        # ack_timeout; the broker's immediate pub-receipt extends the
        # publisher's patience to settle_timeout, so a healthy broker
        # is not marked suspect and nothing is re-published
        broker = Broker(net.add_host("broker"), delivery_ack_timeout=1.0)
        mdb = make_mdb(net, tmp_path, queue_capacity=1, ingest_delay=0.4)
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=16, ack_timeout=0.5)
        net.scheduler.run_for(1.0)
        for i in range(1, 5):
            publisher.publish(topic_for(),
                              sample(t=float(i), seq=i).to_dict())
        net.scheduler.run_for(30.0)
        assert publisher.publication_receipts > 0
        assert publisher.publications_acked == 4
        assert publisher.publications_buffered == 0
        assert not publisher.broker_suspect
        assert broker.stats.consumer_busy > 0
        assert mdb.ingested == 4

    def test_broker_watermark_rejects_with_retry_after(self, net):
        broker = Broker(
            net.add_host("broker"), delivery_ack_timeout=60.0,
            overload=BrokerOverloadConfig(high_watermark=4,
                                          low_watermark=1,
                                          publisher_quota=100,
                                          retry_after=2.0),
        )
        consumed = []
        sub_peer = MiddlewarePeer(net.add_host("sub"), "broker")
        # swallow deliveries without ever acking, so they stay pending
        # at the broker and the backlog climbs past the watermark
        sub_peer._dispatch = \
            lambda sub, event, payload, origin: consumed.append(event)
        sub_peer.subscribe("district/#", consumed.append, ack=True)
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=64)
        net.scheduler.run_for(1.0)
        for i in range(1, 11):
            publisher.publish(topic_for(), sample(t=float(i),
                                                  seq=i).to_dict())
        net.scheduler.run_for(0.5)
        assert broker.stats.publications_shed > 0
        assert publisher.publications_rejected > 0
        assert publisher.paused
        assert publisher.buffered > 0
        assert broker.metrics()["data_plane_saturation"] >= 1.0
        assert broker.shed_by_topic  # per-topic shed counter populated

    def test_publisher_quota_protects_well_behaved_peer(self, net,
                                                        tmp_path):
        broker = Broker(
            net.add_host("broker"), delivery_ack_timeout=0.5,
            overload=BrokerOverloadConfig(high_watermark=1000,
                                          low_watermark=500,
                                          publisher_quota=3,
                                          retry_after=1.0),
        )
        make_mdb(net, tmp_path, queue_capacity=None, ingest_delay=0.05)
        flooder = MiddlewarePeer(net.add_host("flooder"), "broker",
                                 publish_buffer=512)
        modest = MiddlewarePeer(net.add_host("modest"), "broker",
                                publish_buffer=512)
        net.scheduler.run_for(1.0)
        for i in range(1, 101):
            flooder.publish(topic_for(device="dev-0001"),
                            sample(t=float(i), seq=i,
                                   device="dev-0001").to_dict())
        modest.publish(topic_for(device="dev-0002"),
                       sample(t=1.0, seq=1, device="dev-0002").to_dict())
        net.scheduler.run_for(0.5)
        assert broker.stats.publisher_rejections > 0
        assert flooder.publications_rejected > 0
        # the modest publisher was never turned away
        assert modest.publications_rejected == 0

    def test_http_client_retries_429_after_retry_after(self, net):
        service_host = net.add_host("server")
        service = WebService(service_host)
        answers = []

        def route(request):
            if not answers:
                answers.append("rejected")
                return Response(429, {"retry_after": 3.0},
                                "backpressure")
            answers.append("served")
            return ok({"done": True})

        service.add_route(GET, "/load", route)
        client = HttpClient(
            net.add_host("client"),
            policy=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=0.1,
                                  jitter=0.0),
            ),
        )
        start = net.scheduler.now
        result = client.call(service.base_uri + "load")
        elapsed = net.scheduler.now - start
        assert result.body == {"done": True}
        assert answers == ["rejected", "served"]
        assert elapsed >= 3.0  # honoured the server's Retry-After


class TestStalenessAfterRestart:
    def test_freshness_lag_stays_zero_until_first_sample(self, net,
                                                         tmp_path):
        Broker(net.add_host("broker"))
        mdb = make_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker")
        net.scheduler.run_for(1.0)
        peer.publish(topic_for(), sample(t=1.0, seq=1).to_dict())
        net.scheduler.run_for(1.0)
        assert mdb.freshness_lag_max() > 0.0
        mdb.reset()
        mdb.recover()
        # a long outage has passed; recovered freshness must not spike
        # the staleness metric
        net.scheduler.run_for(500.0)
        assert mdb.freshness_lag_max() == 0.0
        assert mdb.delivery_latency_p90() == 0.0
        # the freshness *query* still serves the recovered timestamp
        assert mdb.freshness("dev-0001") == 1.0
        peer.publish(topic_for(), sample(t=2.0, seq=2).to_dict())
        net.scheduler.run_for(1.0)
        assert mdb.freshness_lag_max() > 0.0  # live again


class TestDuplicatePathsInDeployment:
    """The duplicate-delivery paths that predate this PR, now exact."""

    def deploy_durable(self, tmp_path, **overrides):
        config = ScenarioConfig(
            n_buildings=1, devices_per_building=2,
            publish_buffer=64, peer_keepalive=2.0,
            mdb_durability=DurabilityConfig(
                wal_path=str(tmp_path / "mdb.wal"),
                snapshot_path=str(tmp_path / "mdb.snap"),
            ),
            **overrides,
        )
        return deploy(config)

    def unique_published(self, deployment):
        return sum(proxy.measurements_published
                   for proxy in deployment.device_proxies.values())

    def test_offline_buffer_flush_racing_live_publish(self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        faults = FaultInjector(deployment)
        deployment.run(150.0)
        faults.kill_broker()
        deployment.run(120.0)  # publications buffer while suspect
        proxies = list(deployment.device_proxies.values())
        assert any(p.peer.buffered > 0 for p in proxies)
        faults.restore_broker()
        # the flush races ongoing live publishes; dedup keeps counts
        # exact either way
        deployment.run(150.0)
        deployment.stop_devices()
        deployment.run(30.0)
        mdb = deployment.measurement_db
        assert all(p.peer.publications_dropped == 0 for p in proxies)
        assert stored_count(mdb) == self.unique_published(deployment)

    def test_broker_restart_keeps_counts_exact(self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        faults = FaultInjector(deployment)
        deployment.run(150.0)
        mdb = deployment.measurement_db
        assert stored_count(mdb) > 0
        faults.restart_broker()
        # peers re-subscribe on the next keepalive tick; publications
        # whose acks died with the broker are re-flushed and absorbed
        # by the dedup window
        deployment.run(150.0)
        deployment.stop_devices()
        deployment.run(30.0)
        assert stored_count(mdb) == self.unique_published(deployment)

    def test_retained_replay_not_double_counted(self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        deployment.run(150.0)
        deployment.stop_devices()
        deployment.run(30.0)
        mdb = deployment.measurement_db
        before = stored_count(mdb)
        assert before > 0
        # a crash-restarted mdb process comes back with fresh
        # subscription tokens: the broker sees a brand-new subscriber
        # and replays every retained measurement — all of which this
        # store already ingested
        mdb.peer.subscribe(district_filter(deployment.district_id),
                           mdb._on_event, ack=True)
        dups_before = mdb.ingest_duplicates
        deployment.run(30.0)
        assert stored_count(mdb) == before
        assert mdb.ingest_duplicates > dups_before


class TestMeasurementDbFaultVerbs:
    def deploy_durable(self, tmp_path):
        config = ScenarioConfig(
            n_buildings=1, devices_per_building=2,
            publish_buffer=64, peer_keepalive=2.0, heartbeat_period=30.0,
            mdb_durability=DurabilityConfig(
                wal_path=str(tmp_path / "mdb.wal"),
                snapshot_path=str(tmp_path / "mdb.snap"),
            ),
        )
        return deploy(config)

    def test_kill_and_restart_with_recovery(self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        faults = FaultInjector(deployment)
        deployment.run(300.0)
        mdb = deployment.measurement_db
        before = stored_count(mdb)
        assert before > 0
        host = faults.kill_measurement_db()
        assert host == mdb.host.name
        deployment.run(8.0)  # short outage, under the redelivery horizon
        restored = faults.restart_measurement_db(recover=True)
        assert restored >= before
        assert stored_count(mdb) >= before
        deployment.run(300.0)
        deployment.stop_devices()
        deployment.run(30.0)
        # re-subscribed and re-registered: still ingesting, still leased
        assert stored_count(mdb) > before
        assert mdb.metrics()["recoveries"] == 1
        assert mdb.heartbeats_sent > 0

    def test_restart_without_recovery_starts_empty(self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        faults = FaultInjector(deployment)
        deployment.run(300.0)
        assert stored_count(deployment.measurement_db) > 0
        restored = faults.restart_measurement_db(recover=False)
        assert restored is None
        # no staleness spike covering the pre-restart window; a live
        # sample delivered during re-registration's round trip may
        # already have re-armed the lag, so only a fresh one is allowed
        assert deployment.measurement_db.freshness_lag_max() < 1.0

    def test_reregister_all_restarts_mdb_heartbeat(self, tmp_path):
        deployment = self.deploy_durable(tmp_path)
        faults = FaultInjector(deployment)
        deployment.run(50.0)
        mdb = deployment.measurement_db
        mdb.stop_heartbeat()
        assert mdb._heartbeat_task is None
        faults.reregister_all()
        assert mdb._heartbeat_task is not None
        sent = mdb.heartbeats_sent
        deployment.run(100.0)
        assert mdb.heartbeats_sent > sent
