"""Experiment C10 — high-throughput ingest + rollup-backed queries.

Measures the measurement pipeline at 10–100x the sample volume the
other experiments drive, comparing the two payload shapes through the
measurement DB's one ingest path, at EQUAL durability settings (same
WAL and group commit, same acked deliveries, same snapshot cadence) and
into the same columnar :class:`~repro.storage.blocks.BlockStore` with
1m/15m/1h rollups:

* **per-publish arm** — one pub/sub envelope per sample, each a frame
  of one: one publication, one delivery, one decode and one WAL record
  per sample;
* **batched arm** — line-protocol frames: one of each per frame of 100
  samples.

What batching no longer has to buy is fsyncs: the measurement DB commits
in groups (one fsync and one ack frame per ``COMMIT_WINDOW``), so the
per-publish arm's 100 same-instant samples share one fsync exactly as a
frame's do.  What it still buys — envelopes, deliveries, acks, decodes
and WAL records, each x100 fewer — is asserted on exact integers, and
the wall-clock ratio those add up to is reported against a measured
floor.  Asserted, not just reported:

* **work per sample, in integers** — per arm: fsyncs ≤ N / ``BATCH`` + 1
  (neither arm pays one per sample), one publication, delivery and ack
  per sample on the per-publish arm against one per frame on the batched
  arm, no redelivery on either;
* **batched ingest sustains ≥ 2x the samples/sec** (wall-clock; x3.1–3.6
  measured in quick mode, x3.1–3.7 at full volume — it was x13–47 while
  the per-publish arm also paid an fsync per sample);
* **rollup-served ``query_range`` beats raw-block scans on p99
  latency** at the full (100x) volume;
* **zero acknowledged-sample loss and zero double-counts** — every
  sample fed in is stored exactly once, and verbatim frame
  retransmissions are absorbed by the per-sample dedup window
  (the R3 invariants survive batching).
"""

import os
import time

import numpy as np
import pytest

from repro.common.cdf import Measurement
from repro.common.lineproto import encode_frame
from repro.middleware.peer import MiddlewarePeer
from repro.middleware.topics import join, measurement_topic
from repro.simulation.scenario import ScenarioConfig, deploy
from repro.storage.durability import DurabilityConfig
from repro.storage.query import RollupQuery

EXPERIMENT = "C10"
SEED = 41
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

N_DEVICES = 10
N_SAMPLES = 2_000 if QUICK else 20_000   # ~20-200x R3's churn volume
BATCH = 100                              # samples per frame
SAMPLE_DT = 30.0                         # synthetic sample spacing (s)
N_QUERIES = 50 if QUICK else 200
QUERY_STEP = 3600.0                      # served by the 1 h rollup
REPLAY_FRAMES = 5                        # verbatim retransmissions
ENTITY = "bld-0001"
QUANTITY = "temperature"


def _make_samples():
    """The shared workload: N_SAMPLES across N_DEVICES, fixed spacing."""
    samples = []
    seqs = {}
    for i in range(N_SAMPLES):
        device = f"bench-dev-{i % N_DEVICES:02d}"
        seq = seqs.get(device, 0) + 1
        seqs[device] = seq
        samples.append(Measurement(
            device_id=device, entity_id=ENTITY, quantity=QUANTITY,
            value=20.0 + (i % 97) * 0.1, timestamp=i * SAMPLE_DT,
            source="bench", metadata={"seq": seq},
        ))
    return samples


def _deploy(tmp_path, tag):
    """One deployment per arm, identical but for its state files."""
    config = ScenarioConfig(
        seed=SEED, n_buildings=1, devices_per_building=1,
        net_jitter=0.0,
        publish_buffer=4096, peer_keepalive=30.0,
        mdb_durability=DurabilityConfig(
            wal_path=str(tmp_path / f"{tag}.wal"),
            snapshot_path=str(tmp_path / f"{tag}.snap"),
            snapshot_period=10_000.0,  # no mid-drive truncation noise
            ack_deliveries=True,
            dedup_window=4 * BATCH * N_DEVICES,
        ),
    )
    deployment = deploy(config)
    deployment.stop_devices()         # exact accounting: bench feed only
    return deployment


def _feeder(deployment):
    host = deployment.network.add_host("bench-feeder")
    return MiddlewarePeer(host, deployment.broker.name,
                          publish_buffer=8192, keepalive=30.0)


def _drive_per_publish(deployment, peer, samples):
    """Per-publish arm: one envelope per sample, paced over sim time."""
    district = deployment.district_id
    for start in range(0, len(samples), BATCH):
        for sample in samples[start:start + BATCH]:
            topic = measurement_topic(district, ENTITY,
                                      sample.device_id, sample.quantity)
            peer.publish(topic, sample.to_dict())
        deployment.run(1.0)
    deployment.run(60.0)  # settle: acks, redeliveries, queue drain


def _drive_batched(deployment, peer, samples):
    """Batched arm: the same samples as line-protocol frames."""
    topic = join("district", deployment.district_id, "batch",
                 "bench-feeder")
    frames = []
    for start in range(0, len(samples), BATCH):
        frames.append(encode_frame(samples[start:start + BATCH]))
    for frame in frames:
        peer.publish(topic, frame)
        deployment.run(1.0)
    deployment.run(60.0)
    return frames


def _arm(deployment, wall_s):
    """What one arm cost: the rate, and the exact work counters."""
    mdb = deployment.measurement_db
    broker = deployment.broker.stats
    return {
        "wall_s": wall_s,
        "ingested": mdb.ingested,
        "rate": mdb.ingested / wall_s,
        "wal_fsyncs": mdb.wal.fsyncs,
        "wal_records": mdb.wal.appends,
        "frames": mdb.batches_ingested,
        "duplicates": mdb.ingest_duplicates,
        "published": broker.published,
        "deliveries": broker.fanout_deliveries,
        "acked": broker.deliveries_acked,
        "redeliveries": broker.redeliveries,
    }


def _ingest_phase(tmp_path, samples):
    """Run both arms; return sustained samples/sec + invariants."""
    result = {}

    baseline = _deploy(tmp_path, "baseline")
    peer = _feeder(baseline)
    wall0 = time.perf_counter()
    _drive_per_publish(baseline, peer, samples)
    result["baseline"] = _arm(baseline, time.perf_counter() - wall0)

    batched = _deploy(tmp_path, "batched")
    peer = _feeder(batched)
    wall0 = time.perf_counter()
    frames = _drive_batched(batched, peer, samples)
    result["batched"] = _arm(batched, time.perf_counter() - wall0)
    mdb = batched.measurement_db
    result["speedup"] = result["batched"]["rate"] / \
        result["baseline"]["rate"]

    # verbatim frame retransmission: a publisher that lost its acks
    stored_before = mdb.store.sample_count()
    topic = join("district", batched.district_id, "batch", "bench-feeder")
    for frame in frames[-REPLAY_FRAMES:]:
        peer.publish(topic, frame)
    batched.run(30.0)
    result["replay"] = {
        "frames_replayed": REPLAY_FRAMES,
        "stored_delta": mdb.store.sample_count() - stored_before,
        "duplicates_absorbed": mdb.ingest_duplicates,
    }
    result["messages"] = (
        baseline.network.stats.messages_delivered
        + batched.network.stats.messages_delivered
    )
    result["sim_seconds"] = (baseline.scheduler.now
                             + batched.scheduler.now)
    return result, batched


def _query_phase(batched):
    """p99 wall-clock of rollup-served vs raw-scan range queries."""
    mdb = batched.measurement_db
    span = N_SAMPLES * SAMPLE_DT
    rollup_lat, raw_lat = [], []
    for i in range(N_QUERIES):
        device = f"bench-dev-{i % N_DEVICES:02d}"
        query = RollupQuery(target=device, quantity=QUANTITY,
                            start=0.0, end=span, step=QUERY_STEP)
        wall0 = time.perf_counter()
        rollup_answer = mdb.query_range(query)
        rollup_lat.append(time.perf_counter() - wall0)
        assert mdb.store.last_query_source.startswith("rollup")
        raw_query = RollupQuery(target=device, quantity=QUANTITY,
                                start=0.0, end=span, step=QUERY_STEP,
                                prefer="raw")
        wall0 = time.perf_counter()
        raw_answer = mdb.query_range(raw_query)
        raw_lat.append(time.perf_counter() - wall0)
        assert mdb.store.last_query_source == "raw"
        assert len(rollup_answer) == len(raw_answer)
        for (t_r, v_r), (t_s, v_s) in zip(rollup_answer, raw_answer):
            assert t_r == t_s and abs(v_r - v_s) < 1e-9
    return {
        "queries": N_QUERIES,
        "buckets": len(rollup_answer),
        "rollup_p99_ms": float(np.percentile(rollup_lat, 99)) * 1e3,
        "raw_p99_ms": float(np.percentile(raw_lat, 99)) * 1e3,
        "rollup_mean_ms": float(np.mean(rollup_lat)) * 1e3,
        "raw_mean_ms": float(np.mean(raw_lat)) * 1e3,
    }


def _pipeline(tmp_path):
    samples = _make_samples()
    ingest, batched = _ingest_phase(tmp_path, samples)
    queries = _query_phase(batched)
    return {"ingest": ingest, "queries": queries}


@pytest.mark.slow
def test_ingest_tsdb(tmp_path, benchmark, report):
    result = benchmark.pedantic(_pipeline, args=(tmp_path,),
                                rounds=1, iterations=1)
    ingest, queries = result["ingest"], result["queries"]
    base, batched = ingest["baseline"], ingest["batched"]
    replay = ingest["replay"]
    report.header(EXPERIMENT,
                  "batch-frame vs per-publish ingest into the columnar TSDB")
    report.record(EXPERIMENT,
                  wall_seconds=base["wall_s"] + batched["wall_s"],
                  sim_seconds=ingest["sim_seconds"],
                  messages_total=ingest["messages"],
                  ingest_speedup=ingest["speedup"],
                  rollup_p99_ms=queries["rollup_p99_ms"])
    report.add(
        EXPERIMENT,
        f"{'ingest':<8s} n={N_SAMPLES} "
        f"baseline={base['rate']:8.0f}/s ({base['wal_fsyncs']} fsyncs) "
        f"batched={batched['rate']:8.0f}/s "
        f"({batched['wal_fsyncs']} fsyncs, {batched['frames']} frames) "
        f"speedup=x{ingest['speedup']:.1f}"
    )
    for name, arm in (("baseline", base), ("batched", batched)):
        report.add(
            EXPERIMENT,
            f"{'work':<8s} {name:<8s} published={arm['published']} "
            f"deliveries={arm['deliveries']} acked={arm['acked']} "
            f"wal_records={arm['wal_records']} "
            f"fsyncs={arm['wal_fsyncs']} "
            f"redeliveries={arm['redeliveries']}"
        )
    report.add(
        EXPERIMENT,
        f"{'queries':<8s} n={queries['queries']} "
        f"step={QUERY_STEP:.0f}s buckets={queries['buckets']} "
        f"rollup p99={queries['rollup_p99_ms']:.3f}ms "
        f"raw p99={queries['raw_p99_ms']:.3f}ms "
        f"(mean {queries['rollup_mean_ms']:.3f} vs "
        f"{queries['raw_mean_ms']:.3f}ms)"
    )
    report.add(
        EXPERIMENT,
        f"{'replay':<8s} frames={replay['frames_replayed']} "
        f"stored_delta={replay['stored_delta']} "
        f"dups_absorbed={replay['duplicates_absorbed']}"
    )
    # exactly-once accounting at both arms, then under retransmission
    assert base["ingested"] == N_SAMPLES and base["duplicates"] == 0
    assert batched["ingested"] == N_SAMPLES
    assert replay["stored_delta"] == 0, \
        "retransmitted frames were double-counted"
    assert replay["duplicates_absorbed"] >= REPLAY_FRAMES * BATCH
    # work per sample, in exact integers: neither arm fsyncs per
    # sample any more; batching still divides everything else by BATCH
    n_frames = N_SAMPLES // BATCH
    for arm in (base, batched):
        assert arm["wal_fsyncs"] <= n_frames + 1, \
            f"{arm['wal_fsyncs']} fsyncs: group commit is not grouping"
        assert arm["redeliveries"] == 0
    for counter in ("published", "deliveries", "acked", "wal_records"):
        assert base[counter] == N_SAMPLES, counter
        assert batched[counter] == n_frames, counter
    assert base["frames"] == 0 and batched["frames"] == n_frames
    # the headline claims; the floor sits under what was measured on
    # the reference box: x3.1-3.6 (quick), x3.1-3.7 (full)
    assert ingest["speedup"] >= 2.0, \
        f"batched ingest only x{ingest['speedup']:.1f} faster"
    assert queries["rollup_p99_ms"] < queries["raw_p99_ms"], \
        "rollups did not beat raw scans on p99"
