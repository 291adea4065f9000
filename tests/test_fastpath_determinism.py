"""Determinism twin: the fast scheduler path must be behaviour-identical.

PR 10 rebuilt the DES hot loops (fused dispatch, tombstone compaction,
structural size estimation, route tables, match caches).  None of that
may change *what* a run computes — only how fast.  These tests run the
same short soak workload on the reference (seed-shape) scheduler loop
of ``tests/reference_loop.py`` and on the fast loop, and assert the
observable outcomes are identical: event counts, message counts,
ingest totals, and the /metrics the master and broker report.  A second twin asserts the hot-loop profiler
observes a run without perturbing it.
"""

from hashlib import blake2s

import pytest

from repro.ontology import AreaQuery
from repro.proxies.device_proxy import BatchConfig
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.simulation.soak import SoakConfig, run_soak
from repro.storage.durability import DurabilityConfig
from repro.storage.query import RollupQuery
from tests.reference_loop import ReferenceScheduler, reference_loop

#: short but non-trivial: covers registrations + heartbeats, batched
#: ingest, resolves, pub/sub churn and at least one compaction-worthy
#: stretch of timer re-arms
_TWIN = dict(
    seed=23,
    n_buildings=3,
    devices_per_building=3,
    sim_duration=300.0,
    warmup=60.0,
    resolve_period=60.0,
    churn_period=90.0,
)

#: what the two deployments below computed on the commit before PR 20,
#: recorded once and committed: "nothing moved" stays a tier-1 fact
#: whatever later happens to the scheduler loops they are also compared
#: across.  A change that is *meant* to move one of these says so and
#: re-records it; nothing else may.  ``bytes_sent`` was re-recorded
#: (102 718 -> 102 638) when the resolve 304 lost its ``{"epoch": ...}``
#: body: four revalidated resolves, 20 bytes each; and again (-> 102 008)
#: when resolve answers named each Device-proxy once per run of devices
#: and 304 / error replies lost their ``"body": null`` and 304 reason;
#: and again (-> 94 865) when batch frames carried their shared tags
#: once, in a header, and fan-out deliveries stopped naming the publisher;
#: and again (-> 88 443) when web-service requests and replies stopped
#: sending defaults (``"method": "GET"``, ``"params": {}``, ``"body":
#: null``, ``"reason": ""``) and a per-client ``"reply_port"``; and
#: again (-> 87 770) when pub/sub frames stopped sending ``"ack": false``
#: and ``"retain": false`` and actuation results their ``completed_at``.
#: ``events_processed`` was re-recorded (673 -> 592, 224 -> 209) when a
#: web request's processing delay moved onto its delivery: one event
#: fewer per served request, every other value unchanged
_TWIN_GOLDEN = {
    "events_processed": 592,
    "messages_total": 344,
    "bytes_sent": 87770,
    "samples_ingested": 57,
    "resolves": 5,
    "churn_events_received": 69,
}
#: ``bytes_sent`` was re-recorded (30 364 -> 29 204) with the batch frame
#: header and the publisher-free fan-out envelope, and again (-> 28 320)
#: with the default-free web-service envelope, and again (-> 27 912) with
#: the default-free pub/sub frames
_DURABLE_GOLDEN = {
    "events_processed": 209,
    "messages_delivered": 84,
    "bytes_sent": 27912,
    "ingested": 36,
    "stored": 36,
    "wal_appends": 24,
    "wal_fsyncs": 4,
    "snapshots": 2,
    "acked": 24,
    "redeliveries": 0,
}
#: what a client *reads* from the seed-23 district, recorded on the
#: commit before PR 22 (the parent's per-bucket ``np.split`` / ``np.mean``
#: loop) before any other edit: every ``(t, v)`` the Device-proxies'
#: bucketed ``/data`` and the measurement DB's raw and rollup
#: ``/query_range`` answered, and the bytes the whole run put on the wire.
#: ``bytes_sent`` was re-recorded (192 327 -> 192 385) when model answers
#: gained their ``"token"`` field: four cold model bodies, 58 bytes; and
#: again (-> 192 460) when ``/data`` answers did: five cold bodies, 75 bytes;
#: and again (-> 192 249) with the run-grouped resolve answer and the
#: bodyless 304; and again (-> 177 848) with the batch frame header and
#: the publisher-free fan-out envelope; and again (-> 175 915) with the
#: default-free web-service envelope and model requests that no longer
#: send ``format=json``.  ``answers`` was re-recorded with it: deploy()
#: registers the hub and database proxies with synchronous round trips
#: before it starts the device firmwares, and those round trips got
#: shorter, so dev-0102 powers on at 0.027269024 s, not 0.027546203 s,
#: and samples 277 us earlier all run (first sample 60.027269 s).  Its
#: bucketed ``power`` answer keeps every bucket time and count; the
#: means differ by at most 8.1e-14 relative.  Every other series is
#: equal.  ``bytes_sent`` was re-recorded again (-> 172 688) with the
#: default-free pub/sub frames (no ``"ack": false``, no ``"retain":
#: false``); ``answers`` did not move.
_READ_GOLDEN = {
    "answers": "9b9f833d872ad1ee8ff0c16fcb978977"
               "a3a350ad72e579970e0f41ca1d9825e4",
    "sources": ["raw", "rollup:900"],
    "bytes_sent": 172688,
}


def _scrape_metrics(deployment):
    """Fetch /metrics from the master and the broker, as a client would."""
    client = deployment.client("metrics-probe", with_broker=False)
    master = client.http.get(deployment.master.uri + "metrics").body
    broker = client.http.get(deployment.broker.uri + "metrics").body
    return master, broker


def _fingerprint(result):
    return {
        "sim_seconds": result.sim_seconds,
        "messages_total": result.messages_total,
        "events_processed": result.events_processed,
        "resolves": result.resolves,
        "churn_cycles": result.churn_cycles,
        "samples_ingested": result.samples_ingested,
        "churn_events_received": result.churn_events_received,
    }


def _golden(result):
    return {
        "events_processed": result.events_processed,
        "messages_total": result.messages_total,
        "bytes_sent": result.deployment.network.stats.bytes_sent,
        "samples_ingested": result.samples_ingested,
        "resolves": result.resolves,
        "churn_events_received": result.churn_events_received,
    }


class TestSchedulerTwin:
    def test_fast_path_matches_reference_scheduler(self):
        fast = run_soak(SoakConfig(**_TWIN))
        with reference_loop():
            reference = run_soak(SoakConfig(**_TWIN))
        assert type(reference.deployment.scheduler) is ReferenceScheduler
        assert _fingerprint(fast) == _fingerprint(reference)
        assert _golden(fast) == _golden(reference) == _TWIN_GOLDEN
        assert fast.deployment.scheduler.compactions >= 0
        assert reference.deployment.scheduler.compactions == 0
        fast_master, fast_broker = _scrape_metrics(fast.deployment)
        ref_master, ref_broker = _scrape_metrics(reference.deployment)
        assert fast_master == ref_master
        assert fast_broker == ref_broker

    def test_profiled_run_matches_unprofiled(self):
        plain = run_soak(SoakConfig(**_TWIN))
        profiled = run_soak(SoakConfig(**_TWIN, profile=True))
        assert _fingerprint(plain) == _fingerprint(profiled)

    def test_repeat_run_is_deterministic(self):
        first = run_soak(SoakConfig(**_TWIN))
        second = run_soak(SoakConfig(**_TWIN))
        assert _fingerprint(first) == _fingerprint(second)

    def test_repeat_after_a_differently_sized_run_is_identical(self):
        # a middleware peer's port name (``pubsub-peer-<n>``) travels in
        # its frames; numbered per process, a later deployment got
        # longer names, so other wire sizes and eventually another event
        # order (every web-service client replies on one ``http-reply``)
        def wire(result):
            stats = result.deployment.network.stats
            return (stats.bytes_sent, stats.messages_delivered,
                    result.events_processed)

        first = run_soak(SoakConfig(**_TWIN))
        run_soak(SoakConfig(**{**_TWIN, "n_buildings": 12,
                               "devices_per_building": 6}))
        again = run_soak(SoakConfig(**_TWIN))
        assert wire(first) == wire(again)


class TestDurableIngestTwin:
    """Group commit arms a timer per commit window: the same seed must
    still give the same events, messages, ingest and fsyncs — on either
    scheduler loop, and run after run."""

    @staticmethod
    def fingerprint(tmp_path, tag, **overrides):
        deployment = deploy(ScenarioConfig(
            seed=23, n_buildings=3, devices_per_building=3,
            proxy_batching=BatchConfig(25, 10.0),
            mdb_durability=DurabilityConfig(
                wal_path=str(tmp_path / f"{tag}.wal"),
                snapshot_path=str(tmp_path / f"{tag}.snap"),
                snapshot_period=120.0),
            **overrides))
        deployment.run(300.0)
        mdb, stats = deployment.measurement_db, deployment.network.stats
        mdb.close()
        return {
            "events_processed": deployment.scheduler.events_processed,
            "messages_delivered": stats.messages_delivered,
            "bytes_sent": stats.bytes_sent,
            "ingested": mdb.ingested,
            "stored": mdb.store.sample_count(),
            "wal_appends": mdb.wal.appends,
            "wal_fsyncs": mdb.wal.fsyncs,
            "snapshots": mdb.snapshots_written,
            "acked": deployment.broker.stats.deliveries_acked,
            "redeliveries": deployment.broker.stats.redeliveries,
        }

    def test_same_seed_same_fingerprint_on_both_loops(self, tmp_path):
        fast = self.fingerprint(tmp_path, "fast")
        assert fast == _DURABLE_GOLDEN
        assert fast["ingested"] == fast["stored"] > 0
        assert fast["wal_fsyncs"] < fast["wal_appends"] == fast["acked"]
        assert fast["snapshots"] >= 2 and fast["redeliveries"] == 0
        assert self.fingerprint(tmp_path, "again") == fast
        with reference_loop():
            assert self.fingerprint(tmp_path, "reference") == fast


class TestReadPathGolden:
    """The twins above fingerprint scheduler, transport and ingest; this
    one fingerprints the answers of the read path, float for float."""

    @staticmethod
    def read(district, client):
        model = client.build_area_model(
            AreaQuery(district.district_id,
                      entity_ids=("bld-0001", "bld-0002")),
            with_data=True, data_bucket=300.0)
        answers = [sorted(entity.measurements.items())
                   for _id, entity in sorted(model.entities.items())]
        return model, answers

    @staticmethod
    def district():
        district = deploy(ScenarioConfig(
            seed=23, n_buildings=3, devices_per_building=3,
            proxy_batching=BatchConfig(25, 10.0)))
        district.run(1800.0)
        return district

    def test_bucketed_reads_answer_what_the_parent_answered(self):
        district = self.district()
        client = district.client("reader", with_broker=False)
        _model, answers = self.read(district, client)
        assert [len(series) for series in answers] == [6, 6]
        sources = []
        for prefer in ("raw", None):
            query = RollupQuery("dev-0100", "power", 0.0, 1800.0, 900.0,
                                prefer=prefer)
            body = client.http.get(
                district.measurement_db.uri.rstrip("/") + "/query_range",
                params=query.to_params()).body
            answers.append([tuple(sample) for sample in body["samples"]])
            sources.append(body["source"])
        assert {
            "answers": blake2s(repr(answers).encode()).hexdigest(),
            "sources": sources,
            "bytes_sent": district.network.stats.bytes_sent,
        } == _READ_GOLDEN

    def test_a_repeat_read_revalidates_every_model(self):
        district = self.district()
        proxies = [district.gis_proxy, *district.bim_proxies.values()]
        client = district.client("reader", with_broker=False)
        first, answers = self.read(district, client)
        translations = sum(proxy.translations for proxy in proxies)
        again, repeated = self.read(district, client)
        assert client.models_fetched == 8
        # four models, the resolve and five Device-proxies' /data: no
        # sample was stored between the two reads
        assert client.not_modified == 4 + 1 + 5
        assert sum(proxy.translations for proxy in proxies) == translations
        assert repeated == answers
        assert [entity.sources for entity in again.entities.values()] == \
            [entity.sources for entity in first.entities.values()]
