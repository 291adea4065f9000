"""The measurement DB's one ingest path, over every way it is fed.

Payload shape {lone sample envelope, line-protocol frame} × durability
{volatile default, WAL + snapshot with acked deliveries} must agree on
what ends up stored and how it is counted; only the frame counters
(``batches_ingested`` / ``batch_samples``), the WAL and what a crash
loses may differ between the arms.
"""

import pytest

from repro.common.cdf import Measurement
from repro.common.lineproto import encode_frame
from repro.middleware.broker import Broker
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import join, measurement_topic
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.storage.durability import DurabilityConfig
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


class Rig:
    """Broker + measurement DB + one publisher on a jitter-free net."""

    def __init__(self, shape, durable, tmp_path):
        self.shape = shape
        self.durable = durable
        self.net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        self.broker = Broker(self.net.add_host("broker"),
                             delivery_ack_timeout=0.5,
                             max_delivery_attempts=3)
        durability = DurabilityConfig(
            wal_path=str(tmp_path / "mdb.wal"),
            snapshot_path=str(tmp_path / "mdb.snap"),
        ) if durable else None
        self.mdb = MeasurementDatabase(self.net.add_host("mdb"), "broker",
                                       DISTRICT, durability=durability)
        self.peer = MiddlewarePeer(self.net.add_host("pub"), "broker")
        self.net.scheduler.run_for(1.0)

    def publish(self, measurements):
        """Send *measurements* in this rig's payload shape; returns the
        number of deliveries that makes."""
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
        self.net.scheduler.run_for(2.0)
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
            # one fsync and one consumer ack per delivery
            assert mdb.wal.fsyncs == deliveries
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
