"""Tests for the high-throughput measurement pipeline.

Covers the line-protocol batch frame codec, device-proxy batch flush
boundaries (size and age), frame-idempotent ingest under broker
redelivery, the columnar block store (sealing, rollup-vs-raw
agreement, compaction correctness, the fixed rollup set), rollup-backed
``query_range`` at the measurement DB (device and entity targets, the
HTTP route), and crash-restart recovery of sealed blocks + rollup
state through the v2 snapshot format and batch WAL records.
"""

import math
import random

import pytest

from repro.common.cdf import Measurement
from repro.common.lineproto import (
    decode_frame,
    decode_line,
    encode_frame,
    encode_line,
    is_batch,
)
from repro.errors import (
    ConfigurationError,
    QueryError,
    SerializationError,
    SeriesNotFoundError,
)
from repro.middleware.broker import Broker
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import join
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.proxies.device_proxy import BatchConfig
from repro.simulation.faults import FaultInjector
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.blocks import BlockStore, TsdbConfig
from repro.storage.durability import DurabilityConfig, load_state, save_state
from repro.storage.measurementdb import MeasurementDatabase
from repro.storage.query import RollupQuery, choose_resolution
from repro.storage.timeseries import AGGREGATIONS, TimeSeries

from tests.test_timeseries import assert_identical, reference_resample

DISTRICT = "dst-0001"


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


def sample(t=1.0, seq=1, device="dev-0001", value=20.0,
           quantity="temperature"):
    return Measurement(
        device_id=device, entity_id="bld-0001", quantity=quantity,
        value=value, timestamp=t, source="test",
        metadata={"seq": seq},
    )


def tagged(t=0.0, seq=1, entity="bld-0001", source="proxy-a"):
    """A sample carrying every tag a frame header may hoist."""
    return Measurement(
        device_id="dev-0001", entity_id=entity, quantity="temperature",
        value=20.0, timestamp=t, source=source,
        metadata={"seq": seq, "protocol": "zigbee"},
    )


def fill(store, n=100, device="dev-0001", dt=1.7, value_of=None):
    for i in range(n):
        value = value_of(i) if value_of else 20.0 + (i % 13) * 0.5
        store.insert(sample(t=i * dt, seq=i + 1, device=device,
                            value=value))


def batch_mdb(net, tmp_path, **tsdb_overrides):
    tsdb = TsdbConfig(block_size=16, compaction_target=64,
                      **tsdb_overrides)
    return MeasurementDatabase(
        net.add_host("mdb"), "broker", DISTRICT,
        durability=DurabilityConfig(
            wal_path=str(tmp_path / "mdb.wal"),
            snapshot_path=str(tmp_path / "mdb.snap"),
        ),
        tsdb=tsdb,
    )


class TestLineProtocol:
    def test_line_round_trip(self):
        m = sample(t=12.5, seq=7, value=21.25)
        back = decode_line(encode_line(m))
        assert back.device_id == m.device_id
        assert back.entity_id == m.entity_id
        assert back.quantity == m.quantity
        assert back.value == m.value
        assert back.timestamp == m.timestamp
        assert back.source == m.source
        assert back.metadata["seq"] == 7

    def test_escaped_delimiters_round_trip(self):
        m = Measurement(
            device_id="dev a,b=c\\d", entity_id="bld 1",
            quantity="temperature", value=1.0, timestamp=2.0,
            source="s p", metadata={"seq": 3, "protocol": "modbus"},
        )
        back = decode_line(encode_line(m))
        assert back.device_id == m.device_id
        assert back.entity_id == m.entity_id
        assert back.source == m.source
        assert back.metadata == {"seq": 3, "protocol": "modbus"}

    def test_frame_round_trip_preserves_order(self):
        samples = [sample(t=float(i), seq=i + 1) for i in range(5)]
        frame = encode_frame(samples)
        assert is_batch(frame)
        assert frame["count"] == 5
        back = decode_frame(frame)
        assert [m.timestamp for m in back] == [m.timestamp
                                               for m in samples]

    def test_frame_header_carries_the_shared_tags_once(self):
        samples = [tagged(t=float(i), seq=i + 1) for i in range(3)]
        frame = encode_frame(samples)
        assert frame["tags"] == {"entity": "bld-0001", "source": "proxy-a",
                                 "protocol": "zigbee"}
        assert frame["lines"][0] == \
            "temperature,device=dev-0001 value=20.0,seq=1 0.0"
        assert decode_frame(frame) == samples

    def test_frame_of_one_line_round_trips(self):
        frame = encode_frame([tagged()])
        assert frame["count"] == 1
        assert "entity=" not in frame["lines"][0]
        assert decode_frame(frame) == [tagged()]

    def test_a_tag_that_differs_stays_on_each_line(self):
        samples = [tagged(source="proxy-a"), tagged(t=1.0, seq=2),
                   tagged(t=2.0, seq=3, source="proxy-b")]
        frame = encode_frame(samples)
        assert frame["tags"] == {"entity": "bld-0001", "protocol": "zigbee"}
        assert [line.split(" ")[0].split(",")[2:]
                for line in frame["lines"]] == \
            [["source=proxy-a"], ["source=proxy-a"], ["source=proxy-b"]]
        assert decode_frame(frame) == samples

    def test_a_header_value_that_needs_escapes_round_trips(self):
        # header values are JSON strings: they travel unescaped, while
        # the same value on a line is escaped
        awkward = "bld 1,a=b\\c"
        samples = [tagged(entity=awkward), tagged(t=1.0, seq=2,
                                                  entity=awkward)]
        frame = encode_frame(samples)
        assert frame["tags"]["entity"] == awkward
        assert decode_frame(frame) == samples
        line = encode_line(samples[0])
        assert "entity=bld\\ 1\\,a\\=b\\\\c" in line
        assert decode_line(line) == samples[0]

    def test_a_line_overrides_a_header_tag(self):
        frame = {"record": "measurement_batch", "count": 2,
                 "tags": {"entity": "bld-0001", "source": "proxy-a"},
                 "lines": ["power,device=d1 value=1.0,seq=1 5.0",
                           "power,device=d2,entity=bld-0002 value=2.0 6.0"]}
        first, second = decode_frame(frame)
        assert (first.entity_id, first.source) == ("bld-0001", "proxy-a")
        assert (second.entity_id, second.source) == ("bld-0002", "proxy-a")

    @pytest.mark.parametrize("tags, line", [
        ({"entity": "bld-0001"}, "power,entity=bld-0002 value=1.0 5.0"),
        ({"source": "proxy-a"}, "power,device=d1 value=1.0 5.0"),
        ({}, "power,device=d1 value=1.0 5.0"),
        ({"entity": 7}, "power,device=d1 value=1.0 5.0"),
    ])
    def test_frame_without_device_or_entity_is_rejected(self, tags, line):
        # a tag missing from both the line and the header, or a header
        # value that is not a string, makes the frame poison
        with pytest.raises(SerializationError):
            decode_frame({"record": "measurement_batch", "count": 1,
                          "tags": tags, "lines": [line]})

    @pytest.mark.parametrize("line", [
        "", "no-sections", "q,device=d value=1.0",      # wrong arity
        "q,entity=e value=1.0 1.0",                     # missing device
        "q,device=d,entity=e novalue=1.0 1.0",          # missing value
        "q,device=d,entity=e value=abc 1.0",            # bad numeric
        "q,device=d,entity=e value=1.0 nan-ts\\",       # dangling escape
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(SerializationError):
            decode_line(line)

    def test_malformed_frames_raise(self):
        with pytest.raises(SerializationError):
            decode_frame({"record": "other"})
        with pytest.raises(SerializationError):
            decode_frame({"record": "measurement_batch", "lines": "x"})
        with pytest.raises(SerializationError):
            decode_frame({"record": "measurement_batch", "count": 3,
                          "lines": []})


class TestBatchFlushBoundaries:
    def _proxy_deployment(self, max_samples=5, max_age=10.0):
        config = ScenarioConfig(
            n_buildings=1, devices_per_building=2, net_jitter=0.0,
            proxy_batching=BatchConfig(max_samples=max_samples,
                                       max_age=max_age),
        )
        return deploy(config)

    def test_size_bound_flushes_full_frames(self):
        deployment = self._proxy_deployment(max_samples=3, max_age=1e6)
        deployment.run(600.0)
        proxies = list(deployment.device_proxies.values())
        assert sum(p.batch_flushes_size for p in proxies) > 0
        for proxy in proxies:
            assert proxy.batch_frames_published == \
                proxy.batch_flushes_size
            # every sample that flushed went out inside a frame
            assert proxy.batch_samples_published == \
                proxy.measurements_published
            assert proxy.metrics()["batch_open_samples"] < 3

    def test_size_flush_cancels_the_frames_age_timer(self):
        deployment = self._proxy_deployment(max_samples=3, max_age=1e6)
        flushed = []
        for _ in range(600):       # until a size flush left no open frame
            deployment.run(1.0)
            flushed = [p for p in deployment.device_proxies.values()
                       if p.batch_flushes_size and not p._batch]
            if flushed:
                break
        assert flushed
        for proxy in flushed:
            # nothing left armed for a frame that is already out
            assert proxy._batch_timer.cancelled
            assert proxy.batch_flushes_age == 0

    def test_age_bound_flushes_partial_frames(self):
        # a 10 s age bound with a huge size bound: every flush is an
        # age flush
        deployment = self._proxy_deployment(max_samples=10_000,
                                            max_age=10.0)
        deployment.run(300.0)
        proxies = list(deployment.device_proxies.values())
        assert sum(p.batch_flushes_age for p in proxies) > 0
        assert sum(p.batch_flushes_size for p in proxies) == 0
        assert sum(p.batch_samples_published for p in proxies) > 0

    def test_batched_samples_reach_measurement_db(self):
        deployment = self._proxy_deployment(max_samples=4, max_age=5.0)
        deployment.run(120.0)
        mdb = deployment.measurement_db
        assert mdb.batches_ingested > 0
        assert mdb.ingested == mdb.batch_samples > 0
        assert mdb.store.devices()

    def test_offline_proxy_drops_open_frame(self):
        deployment = self._proxy_deployment(max_samples=10_000,
                                            max_age=30.0)
        proxy = None
        for _ in range(60):        # run until a frame is open
            deployment.run(5.0)
            proxy = next((p for p in
                          deployment.device_proxies.values()
                          if p._batch), None)
            if proxy is not None:
                break
        assert proxy is not None, "no proxy ever opened a frame"
        proxy.online = False
        deployment.run(60.0)       # the age timer fires while offline
        assert proxy.batch_samples_dropped_offline > 0

    def test_batch_config_validation(self):
        with pytest.raises(ConfigurationError):
            BatchConfig(max_samples=0)
        with pytest.raises(ConfigurationError):
            BatchConfig(max_age=0.0)


class TestFrameIdempotency:
    def test_redelivered_frame_not_double_counted(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = batch_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker",
                              publish_buffer=64)
        topic = join("district", DISTRICT, "batch", "pub")
        frame = encode_frame([sample(t=float(i), seq=i + 1)
                              for i in range(10)])
        peer.publish(topic, frame)
        net.scheduler.run_for(1.0)
        assert mdb.store.sample_count() == 10
        peer.publish(topic, frame)     # verbatim retransmission
        net.scheduler.run_for(1.0)
        assert mdb.store.sample_count() == 10
        assert mdb.ingest_duplicates == 10
        assert mdb.batches_ingested == 1  # the replay stored nothing

    def test_partially_duplicate_frame_ingests_fresh_tail(
            self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = batch_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker",
                              publish_buffer=64)
        topic = join("district", DISTRICT, "batch", "pub")
        samples = [sample(t=float(i), seq=i + 1) for i in range(8)]
        peer.publish(topic, encode_frame(samples[:5]))
        net.scheduler.run_for(1.0)
        # a frame overlapping the already-ingested prefix
        peer.publish(topic, encode_frame(samples[2:]))
        net.scheduler.run_for(1.0)
        assert mdb.store.sample_count() == 8
        assert mdb.ingest_duplicates == 3
        # only the fresh lines hit the WAL: replay cannot double-count
        batch_records = [r for r in mdb.wal.records()
                         if is_batch(r)]
        assert [len(r["lines"]) for r in batch_records] == [5, 3]

    def test_header_tags_survive_wal_replay(self, net, tmp_path):
        # the WAL record keeps the frame's header tags beside its fresh
        # lines, so a replay decodes the very samples that were acked
        Broker(net.add_host("broker"))
        mdb = MeasurementDatabase(
            net.add_host("mdb"), "broker", DISTRICT,
            durability=DurabilityConfig(wal_path=str(tmp_path / "mdb.wal")))
        peer = MiddlewarePeer(net.add_host("pub"), "broker",
                              publish_buffer=64)
        topic = join("district", DISTRICT, "batch", "pub")
        samples = [tagged(t=float(i), seq=i + 1, entity="bld 1")
                   for i in range(4)]
        frame = encode_frame(samples)
        peer.publish(topic, frame)
        net.scheduler.run_for(1.0)
        [record] = [r for r in mdb.wal.records() if is_batch(r)]
        assert record["tags"] == frame["tags"]
        assert decode_frame(record) == samples
        stored = mdb.store.series("dev-0001", "temperature").to_pairs()
        owners = dict(mdb._entity_for_device)
        mdb.reset()
        assert mdb.store.sample_count() == 0
        assert mdb.recover() == 4
        assert mdb.store.series("dev-0001", "temperature").to_pairs() \
            == stored
        assert mdb._entity_for_device == owners == {"dev-0001": "bld 1"}

    def test_poison_frame_rejected_not_wedged(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = batch_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker",
                              publish_buffer=64)
        topic = join("district", DISTRICT, "batch", "pub")
        peer.publish(topic, {"record": "measurement_batch",
                             "lines": ["not a valid line"]})
        net.scheduler.run_for(30.0)   # poison nacks, then dead-letters
        assert mdb.poison_rejected >= 1
        assert mdb.store.sample_count() == 0
        # the pipeline still works afterwards
        peer.publish(topic, encode_frame([sample()]))
        net.scheduler.run_for(1.0)
        assert mdb.store.sample_count() == 1


class TestBlockStore:
    def test_sealing_and_counts(self):
        store = BlockStore(TsdbConfig(block_size=16,
                                      compaction_target=64))
        fill(store, n=100)
        stats = store.stats()
        assert stats["sealed_blocks"] == 6
        assert stats["active_samples"] == 4
        assert store.sample_count() == 100
        assert store.devices() == ["dev-0001"]
        assert store.quantities("dev-0001") == ["temperature"]
        assert store.has_series("dev-0001", "temperature")

    def test_series_and_latest_match_timeseries_semantics(self):
        store = BlockStore(TsdbConfig(block_size=8, compaction_target=32))
        reference = TimeSeries()
        fill(store, n=50)
        for i in range(50):
            reference.append(i * 1.7, 20.0 + (i % 13) * 0.5)
        assert store.series("dev-0001", "temperature").to_pairs() == \
            reference.to_pairs()
        assert store.latest("dev-0001", "temperature") == \
            reference.to_pairs()[-1]

    def test_missing_series_raises(self):
        store = BlockStore()
        with pytest.raises(SeriesNotFoundError):
            store.series("nope", "temperature")
        with pytest.raises(SeriesNotFoundError):
            store.query_range("nope", "temperature", 0, 10, 5.0)

    def test_out_of_order_inserts_are_query_transparent(self):
        store = BlockStore(TsdbConfig(block_size=8, compaction_target=32))
        times = [float(t) for t in
                 [5, 3, 8, 1, 13, 2, 21, 34, 55, 44, 89, 70]]
        for i, t in enumerate(times):
            store.insert(sample(t=t, seq=i + 1, value=t))
        expected = sorted(times)
        scanned = store.series("dev-0001", "temperature").to_pairs()
        assert [t for t, _v in scanned] == expected

    def test_raw_scan_answers_what_the_parent_loop_answers(self):
        # sealed + active blocks, inserts out of order within and across
        # blocks, duplicate timestamps; the raw arm aggregates the
        # scanned arrays directly and must match the pre-PR-22 loop
        rng = random.Random(22)
        store = BlockStore(TsdbConfig(block_size=16, compaction_target=64))
        pairs = [(float(rng.randrange(-600, 3000)), rng.uniform(-1e5, 1e5))
                 for _ in range(203)]
        for seq, (t, value) in enumerate(pairs, 1):
            store.insert(sample(t=t, seq=seq, value=value))
        stats = store.stats()
        assert stats["sealed_blocks"] >= 2 and stats["active_samples"] > 0
        for compacted in (False, True):
            for start, end in ((-1e9, 1e9), (0.0, 900.0), (-600.0, -599.0),
                               (5000.0, 6000.0), (-math.inf, math.inf)):
                ordered = sorted((p for p in pairs if start <= p[0] < end),
                                 key=lambda p: p[0])
                for step in (7.0, 60.0, 900.0, 1e6):
                    for agg in AGGREGATIONS:
                        answer = store.query_range(
                            "dev-0001", "temperature", start, end, step,
                            agg, prefer="raw")
                        assert store.last_query_source == "raw"
                        assert_identical(answer, reference_resample(
                            [t for t, _v in ordered],
                            [v for _t, v in ordered], step, agg))
            store.compact()

    def test_rollup_vs_raw_agreement_all_aggs(self):
        store = BlockStore(TsdbConfig(block_size=16,
                                      compaction_target=64))
        fill(store, n=5000, value_of=lambda i: ((i * 37) % 101) / 7.0)
        for agg in AGGREGATIONS:
            rollup = store.query_range("dev-0001", "temperature",
                                       0.0, 9000.0, 900.0, agg)
            assert store.last_query_source == "rollup:900"
            raw = store.query_range("dev-0001", "temperature",
                                    0.0, 9000.0, 900.0, agg, prefer="raw")
            assert store.last_query_source == "raw"
            assert len(rollup) == len(raw)
            for (t_r, v_r), (t_s, v_s) in zip(rollup, raw):
                assert t_r == t_s
                assert v_r == pytest.approx(v_s)

    def test_coarse_step_served_from_coarsest_rollup(self):
        store = BlockStore()
        fill(store, n=300, dt=60.0)
        store.query_range("dev-0001", "temperature", 0.0, 20_000.0,
                          7200.0)
        assert store.last_query_source == "rollup:3600"
        store.query_range("dev-0001", "temperature", 0.0, 20_000.0,
                          900.0)
        assert store.last_query_source == "rollup:900"

    def test_non_dividing_step_falls_back_to_raw(self):
        store = BlockStore()
        fill(store, n=50)
        store.query_range("dev-0001", "temperature", 0.0, 100.0, 7.0)
        assert store.last_query_source == "raw"
        with pytest.raises(QueryError):
            store.query_range("dev-0001", "temperature", 0.0, 100.0,
                              7.0, prefer="rollup")

    def test_choose_resolution(self):
        resolutions = (60.0, 900.0, 3600.0)
        assert choose_resolution(3600.0, resolutions) == 3600.0
        assert choose_resolution(1800.0, resolutions) == 900.0
        assert choose_resolution(120.0, resolutions) == 60.0
        assert choose_resolution(7.0, resolutions) is None
        assert choose_resolution(30.0, resolutions) is None

    def test_compaction_preserves_query_answers(self):
        store = BlockStore(TsdbConfig(block_size=8, compaction_target=64))
        times = [float(((i * 17) % 997)) for i in range(400)]
        for i, t in enumerate(times):
            store.insert(sample(t=t, seq=i + 1, value=t / 3.0))
        before_raw = store.query_range("dev-0001", "temperature",
                                       0.0, 1000.0, 7.0)
        before_rollup = store.query_range("dev-0001", "temperature",
                                          0.0, 1000.0, 60.0)
        sealed_before = store.stats()["sealed_blocks"]
        result = store.compact()
        assert store.stats()["sealed_blocks"] < sealed_before
        assert result["blocks_merged"] > 0
        assert store.query_range("dev-0001", "temperature",
                                 0.0, 1000.0, 7.0) == before_raw
        assert store.query_range("dev-0001", "temperature",
                                 0.0, 1000.0, 60.0) == before_rollup
        assert store.sample_count() == 400

    def test_a_60s_series_holds_two_rollups_only(self):
        # 6 h at the densest catalog cadence: 24 quarter-hour buckets
        # plus 6 hourly ones, no bucket per sample
        store = BlockStore()
        fill(store, n=6 * 60, dt=60.0)
        assert store.sample_count() == 360
        assert store.stats()["rollup_buckets"] == 6 * 4 + 6

    def test_restore_from_a_snapshot_with_a_60s_rollup(self):
        # the earlier format: the resolution and retention knobs in the
        # config, and a 60-s rollup next to the 15-min and 1-h ones
        source = BlockStore(TsdbConfig(block_size=8, compaction_target=32))
        fill(source, n=2 * 60, dt=60.0,
             value_of=lambda i: ((i * 37) % 101) / 7.0)
        data = source.to_dict()
        data["config"].update(retention=None,
                              rollup_resolutions=[60.0, 900.0, 3600.0])
        record = data["series"][0]
        times = [float(t) for block in record["blocks"]
                 for t in block["times"]] + record["active"]["times"]
        values = [float(v) for block in record["blocks"]
                  for v in block["values"]] + record["active"]["values"]
        record["rollups"]["60.0"] = {
            repr(t): [1, v, v, v, t, v, t, v]
            for t, v in zip(times, values)}
        restored = BlockStore.from_dict(data)
        assert restored.config == source.config
        assert restored.stats()["rollup_buckets"] == 2 * 4 + 2
        for step in (900.0, 3600.0):
            for agg in AGGREGATIONS:
                answer = restored.query_range("dev-0001", "temperature",
                                              0.0, 7200.0, step, agg)
                assert restored.last_query_source == f"rollup:{step:g}"
                assert answer == source.query_range(
                    "dev-0001", "temperature", 0.0, 7200.0, step, agg)

    def test_snapshot_round_trip(self):
        store = BlockStore(TsdbConfig(block_size=8, compaction_target=32))
        fill(store, n=100)
        clone = BlockStore.from_dict(store.to_dict())
        assert clone.sample_count() == 100
        assert clone.config.block_size == 8
        assert clone.query_range("dev-0001", "temperature",
                                 0.0, 200.0, 60.0) == \
            store.query_range("dev-0001", "temperature",
                              0.0, 200.0, 60.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TsdbConfig(block_size=1)
        with pytest.raises(ConfigurationError):
            TsdbConfig(block_size=64, compaction_target=32)


class TestMeasurementDbQueryRange:
    def _fed_mdb(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = batch_mdb(net, tmp_path)
        peer = MiddlewarePeer(net.add_host("pub"), "broker",
                              publish_buffer=256)
        topic = join("district", DISTRICT, "batch", "pub")
        frames = []
        for device in ("dev-0001", "dev-0002"):
            frames.append(encode_frame([
                sample(t=float(i * 10), seq=i + 1, device=device,
                       value=10.0 if device == "dev-0001" else 1.0)
                for i in range(30)
            ]))
        for frame in frames:
            peer.publish(topic, frame)
        net.scheduler.run_for(2.0)
        return mdb

    def test_device_target(self, net, tmp_path):
        mdb = self._fed_mdb(net, tmp_path)
        answer = mdb.query_range(RollupQuery(
            target="dev-0001", quantity="temperature",
            start=0.0, end=300.0, step=60.0, agg="sum",
        ))
        assert answer == [(t, 60.0) for t in
                          [0.0, 60.0, 120.0, 180.0, 240.0]]

    def test_entity_target_combines_devices(self, net, tmp_path):
        mdb = self._fed_mdb(net, tmp_path)
        answer = mdb.query_range(RollupQuery(
            target="bld-0001", quantity="temperature",
            start=0.0, end=300.0, step=60.0, agg="sum",
        ))
        # 6 samples/bucket/device: 6*10 + 6*1 = 66 per bucket
        assert answer == [(t, 66.0) for t in
                          [0.0, 60.0, 120.0, 180.0, 240.0]]
        with pytest.raises(QueryError):
            mdb.query_range(RollupQuery(
                target="bld-0001", quantity="temperature",
                start=0.0, end=300.0, step=60.0, agg="last",
            ))

    def test_unknown_target_raises(self, net, tmp_path):
        mdb = self._fed_mdb(net, tmp_path)
        with pytest.raises(SeriesNotFoundError):
            mdb.query_range(RollupQuery(
                target="nope", quantity="temperature",
                start=0.0, end=300.0, step=60.0,
            ))

    def test_http_route(self, net, tmp_path):
        mdb = self._fed_mdb(net, tmp_path)
        client = HttpClient(net.add_host("user"))
        query = RollupQuery(target="dev-0001", quantity="temperature",
                            start=0.0, end=300.0, step=900.0)
        response = client.get(mdb.uri + "query_range",
                              params=query.to_params())
        assert response.status == 200
        assert response.body["samples"] == [[0.0, 10.0]]
        assert response.body["source"] == "rollup:900"
        bad = client.get(mdb.uri + "query_range",
                         params={"target": "dev-0001"}, check=False)
        assert bad.status == 400
        missing = client.get(
            mdb.uri + "query_range",
            params=RollupQuery(target="nope", quantity="temperature",
                               start=0.0, end=1.0,
                               step=1.0).to_params(),
            check=False,
        )
        assert missing.status == 404

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("step", ["nan", "inf", "-inf", "1e-320"])
    @pytest.mark.parametrize("prefer", [None, "raw"])
    def test_http_route_non_finite_step_is_a_400(self, net, tmp_path,
                                                 step, prefer):
        # nan / inf used to escape ``choose_resolution``'s ``round()``
        # as ValueError / OverflowError into the catch-all: a 500
        mdb = self._fed_mdb(net, tmp_path)
        client = HttpClient(net.add_host("user"))
        params = {"target": "dev-0001", "quantity": "temperature",
                  "start": "0.0", "end": "300.0", "step": step}
        if prefer:
            params["prefer"] = prefer
        reply = client.get(mdb.uri + "query_range", params=params,
                           check=False)
        assert reply.status == 400
        assert "step" in reply.reason or "bucket" in reply.reason
        nan_bound = client.get(mdb.uri + "query_range",
                               params={**params, "step": "60.0",
                                       "end": "nan"}, check=False)
        assert nan_bound.status == 400

    def test_default_deployment_is_rollup_served(self):
        # no mdb_tsdb, no mdb_durability: the one engine still answers
        # dashboard steps from its rollups
        deployment = deploy(ScenarioConfig(n_buildings=1,
                                           devices_per_building=2))
        deployment.run(300.0)
        mdb = deployment.measurement_db
        device = mdb.store.devices()[0]
        query = RollupQuery(target=device,
                            quantity=mdb.store.quantities(device)[0],
                            start=0.0, end=300.0, step=900.0)
        response = deployment.client("user", with_broker=False).http.get(
            mdb.uri + "query_range", params=query.to_params())
        assert response.body["samples"]
        assert response.body["source"] == "rollup:900"

    def test_query_validation(self):
        with pytest.raises(QueryError):
            RollupQuery(target="d", quantity="q", start=10.0, end=0.0,
                        step=1.0)
        with pytest.raises(QueryError):
            RollupQuery(target="d", quantity="q", start=0.0, end=1.0,
                        step=0.0)
        with pytest.raises(QueryError):
            RollupQuery(target="d", quantity="q", start=0.0, end=1.0,
                        step=1.0, agg="median")
        with pytest.raises(QueryError):
            RollupQuery(target="d", quantity="q", start=0.0, end=1.0,
                        step=1.0, prefer="disk")
        params = RollupQuery(target="d", quantity="q", start=0.0,
                             end=1.0, step=1.0,
                             prefer="raw").to_params()
        assert RollupQuery.from_params(params).prefer == "raw"


class TestCrashRecovery:
    def _deployment(self, tmp_path, snapshot_period=60.0):
        return deploy(ScenarioConfig(
            n_buildings=2, devices_per_building=2, net_jitter=0.0,
            publish_buffer=64, peer_keepalive=30.0,
            mdb_durability=DurabilityConfig(
                wal_path=str(tmp_path / "mdb.wal"),
                snapshot_path=str(tmp_path / "mdb.snap"),
                snapshot_period=snapshot_period, ack_deliveries=True,
            ),
            mdb_tsdb=TsdbConfig(block_size=4, compaction_period=60.0,
                                compaction_target=64),
            proxy_batching=BatchConfig(max_samples=8, max_age=5.0),
        ))

    def test_sealed_blocks_survive_crash_restart(self, tmp_path):
        deployment = self._deployment(tmp_path)
        deployment.run(900.0)      # past snapshots; blocks have sealed
        mdb = deployment.measurement_db
        count = mdb.store.sample_count()
        assert count > 0
        assert mdb.store.stats()["sealed_blocks"] > 0
        device = mdb.store.devices()[0]
        quantity = mdb.store.quantities(device)[0]
        query = RollupQuery(target=device, quantity=quantity,
                            start=0.0, end=1000.0, step=60.0)
        answer = mdb.query_range(query)
        assert answer
        faults = FaultInjector(deployment)
        restored = faults.restart_measurement_db(recover=True)
        assert restored == count
        assert mdb.store.sample_count() == count
        assert mdb.store.stats()["sealed_blocks"] > 0
        assert mdb.query_range(query) == answer
        deployment.run(300.0)      # the pipeline keeps flowing
        assert mdb.store.sample_count() > count
        assert mdb.ingest_duplicates == 0, "recovery double-counted"

    def test_batch_wal_records_replayed(self, tmp_path):
        # a snapshot period beyond the run: recovery is WAL-tail only
        deployment = self._deployment(tmp_path, snapshot_period=10_000.0)
        deployment.run(200.0)
        mdb = deployment.measurement_db
        count = mdb.store.sample_count()
        assert count > 0
        assert any(is_batch(r) for r in mdb.wal.records())
        faults = FaultInjector(deployment)
        restored = faults.restart_measurement_db(recover=True)
        assert restored == count
        assert mdb.wal_records_replayed > 0

    def test_v2_snapshot_round_trip(self, net, tmp_path):
        Broker(net.add_host("broker"))
        mdb = MeasurementDatabase(
            net.add_host("mdb"), "broker", DISTRICT,
            tsdb=TsdbConfig(block_size=8, compaction_target=32))
        store = mdb.store
        fill(store, n=60)
        mdb._freshness["dev-0001"] = 99.0
        mdb._entity_for_device["dev-0001"] = "bld-0001"
        mdb._remember(("dev-0001", 99.0, "temperature", 60))
        path = str(tmp_path / "blocks.snap")
        save_state(path, "repro-mdb-state", 3, mdb.snapshot())
        mdb.reset()
        mdb.restore(load_state(path, "repro-mdb-state", 3))
        assert isinstance(mdb.store, BlockStore)
        assert mdb.store is not store
        assert mdb.store.sample_count() == 60
        assert mdb._freshness == {"dev-0001": 99.0}
        assert list(mdb._dedup_order) == [("dev-0001", 99.0,
                                           "temperature", 60)]
        assert mdb.store.query_range(
            "dev-0001", "temperature", 0.0, 200.0, 60.0
        ) == store.query_range("dev-0001", "temperature",
                               0.0, 200.0, 60.0)
