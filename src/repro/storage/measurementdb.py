"""Global measurements database.

The paper's Figure 1(a) shows "one or more measurements databases
(which store data collected by sensors placed in the district)".  This
service subscribes to the whole district's measurement topics on the
middleware and ingests every published sample; a Web Service interface
serves range queries and per-device freshness so clients (and the
benchmarks) can ask one place for historical data.

There is one data plane: the engine is always a columnar
:class:`~repro.storage.blocks.BlockStore`, and every delivery — a lone
sample envelope is a frame of one — takes the same decode → dedup →
capacity check → stage → commit (fsync) → store → ack path:

* **idempotent ingest** — samples are deduplicated on
  ``(device_id, timestamp, quantity, seq)`` over a bounded window, so
  broker redeliveries and offline-buffer re-flushes never double-count;
* **crash safety, by group commit** — with a ``wal_path`` the *commit*,
  not the delivery, is the unit of durability: an accepted delivery's
  WAL record is staged in memory and joins the open commit group; one
  fsync per :data:`~repro.storage.durability.COMMIT_WINDOW` makes the
  group durable, and only then are its samples stored (visible ⇒
  durable) and its deliveries acknowledged, in one frame.  A crash
  drops the open group — it was never acknowledged, so the broker
  redelivers it.  With a ``snapshot_path`` the store's
  :class:`~repro.storage.durability.Journal` snapshots periodically,
  bounding replay time and truncating the WAL.  :meth:`recover`
  restores snapshot + WAL tail after a crash-restart (see
  :meth:`repro.simulation.faults.FaultInjector.restart_measurement_db`);
* **bounded ingest queue** — beyond ``queue_capacity`` the consumer
  raises :class:`~repro.errors.BackpressureError`, which the middleware
  peer turns into a *busy* nack (the broker redelivers later); on an
  acked subscription a malformed payload raises
  :class:`~repro.errors.PoisonPayloadError` so repeated failures land in
  the broker's dead-letter queue instead of wedging ingestion.

Without a :class:`~repro.storage.durability.DurabilityConfig` the store
is volatile: no WAL, no snapshot, no delivery acks — and with no WAL
there is nothing to wait for, so a delivery is stored as it arrives.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.common.cdf import Measurement
from repro.common.lineproto import BATCH_RECORD, decode_frame, is_batch
from repro.errors import (
    BackpressureError,
    PoisonPayloadError,
    QueryError,
    ReproError,
    SeriesNotFoundError,
)
from repro.middleware.broker import Event
from repro.middleware.peer import Delivery, MiddlewarePeer
from repro.middleware.topics import decode_event, district_filter
from repro.network.transport import Host
from repro.network.webservice import (
    GET,
    Request,
    Response,
    WebService,
    error,
    ok,
)
from repro.proxies.base import Registrant
from repro.storage.blocks import BlockStore, TsdbConfig
from repro.storage.durability import DurabilityConfig, Journal, StateMachine
from repro.storage.query import RangeQuery, RollupQuery

#: dedup key of one sample: (device_id, timestamp, quantity, seq)
DedupKey = Tuple[str, float, str, Optional[int]]
#: the fresh samples of one delivery, by key: (WAL part, sample)
FreshSamples = Dict[DedupKey, Tuple[object, Measurement]]


class MeasurementDatabase(StateMachine, Registrant):
    """District-wide measurement store fed by the pub/sub middleware."""

    kind = "measurement"

    def __init__(self, host: Host,
                 broker_host: Union[str, Sequence[str]],
                 district_id: str,
                 peer_keepalive: Optional[float] = None,
                 durability: Optional[DurabilityConfig] = None,
                 tsdb: Optional[TsdbConfig] = None):
        self.host = host
        self.district_id = district_id
        # no config = volatile: no WAL, no snapshot, no delivery acks
        durability = durability or DurabilityConfig(ack_deliveries=False)
        self.durability = durability
        self.store = BlockStore(tsdb)
        self.ingested = 0
        self.rejected = 0
        self.batches_ingested = 0
        self.batch_samples = 0
        self.ingest_duplicates = 0
        self.backpressure_signals = 0
        self.poison_rejected = 0
        self.recoveries = 0
        self.recovered_samples = 0
        self.wal_records_replayed = 0
        self._freshness: Dict[str, float] = {}  # device -> last sample time
        # a restarted store must not report the downtime as device
        # staleness: freshness_lag_max() stays 0 until the first live
        # sample confirms the pipeline is flowing again
        self._stale_until_sample = False
        self._entity_for_device: Dict[str, str] = {}
        self._dedup_keys: Set[DedupKey] = set()
        self._dedup_order: Deque[DedupKey] = deque()
        self._queue: Deque[Measurement] = deque()
        self._drain_scheduled = False
        # the open commit group: deliveries whose WAL record is staged,
        # the keys of their samples, and every delivery (theirs, and
        # duplicates of theirs) owed an ack once the group is on disk
        self._group: List[Tuple[Event, FreshSamples]] = []
        self._staged_keys: Set[DedupKey] = set()
        self._deferred: List[Delivery] = []
        self.journal = Journal(self, "repro-mdb-state", 3, durability)
        #: the journal's WAL (None when not durable), aliased so the
        #: per-delivery ingest path pays one attribute read
        self.wal = self.journal.wal
        self._compaction_task = host.network.scheduler.every(
            self.store.config.compaction_period, self._compact
        )
        # rolling window of recent publish->delivery latencies; a rolling
        # percentile (unlike a cumulative histogram) recovers once an
        # outage's flushed backlog ages out of the window
        self._delivery_latencies: Deque[float] = deque(maxlen=256)
        Registrant.__init__(self, host)
        self.peer = MiddlewarePeer(host, broker_host,
                                   keepalive=peer_keepalive)
        self.peer.subscribe(district_filter(district_id), self._on_event,
                            ack=durability.ack_deliveries)
        self.service = WebService(host)
        self.service.add_route(GET, "/query_range", self._query_range_route)
        self.service.add_route(GET, "/metrics", self._metrics_route)

    @property
    def uri(self) -> str:
        """Base URI of this store's web-service interface."""
        return self.service.base_uri

    def _registration_payload(self) -> Dict:
        return {
            "proxy_kind": "measurement",
            "district_id": self.district_id,
            "uri": self.uri,
        }

    # -- middleware ingestion ---------------------------------------------

    @staticmethod
    def _dedup_key(measurement: Measurement) -> DedupKey:
        seq = None
        if isinstance(measurement.metadata, dict):
            seq = measurement.metadata.get("seq")
        return (measurement.device_id, float(measurement.timestamp),
                measurement.quantity, seq)

    def _remember(self, key: DedupKey) -> None:
        """Add *key* to the bounded idempotent-ingest window."""
        window = self.durability.dedup_window
        self._dedup_keys.add(key)
        self._dedup_order.append(key)
        while len(self._dedup_order) > window:
            evicted = self._dedup_order.popleft()
            self._dedup_keys.discard(evicted)

    def _decode(self, payload, topic: str = "", published_at: float = 0.0
                ) -> Optional[Tuple[List, List[Measurement]]]:
        """Parse a delivered payload or a replayed WAL record.

        Returns ``(parts, measurements)``, aligned: part *i* is what
        the WAL keeps of sample *i* — its line of a batch frame (the
        record keeps the frame's ``tags`` too), or the self-contained
        record of a lone sample (a frame of one), whether it arrived as
        one or as a topic-named event on a measurement *topic*,
        published at *published_at*.  A poison payload is counted and
        yields None.
        """
        try:
            if is_batch(payload):
                return payload["lines"], decode_frame(
                    payload, tracer=self.host.network.tracer,
                    host=self.host.name)
            if isinstance(payload, dict) and \
                    payload.get("record") == "measurement":
                return [payload], [Measurement.from_dict(payload)]
            measurement = decode_event(topic, payload, published_at)
            return [measurement.to_dict()], [measurement]
        except (KeyError, TypeError, ValueError, ReproError):
            self.rejected += 1
            self.poison_rejected += 1
            return None

    def _on_event(self, event: Event) -> None:
        decoded = self._decode(event.payload, event.topic,
                               event.published_at)
        if decoded is None:
            if self.durability.ack_deliveries:
                # the peer turns this into a poison nack; repeated
                # failures dead-letter instead of wedging ingestion
                raise PoisonPayloadError(
                    "payload is neither a measurement record nor a "
                    "decodable batch frame"
                )
            return  # nobody to nack: raising would unwind the scheduler
        parts, measurements = decoded
        tracer = self.host.network.tracer
        if tracer is not None:
            with tracer.span("mdb.ingest_frame", kind="consumer",
                             host=self.host.name,
                             attributes={"samples": len(measurements)}):
                self._ingest_frame(parts, measurements, event)
        else:
            self._ingest_frame(parts, measurements, event)

    def _ingest_frame(self, parts: List,
                      measurements: List[Measurement],
                      event: Event) -> None:
        """Dedup one decoded delivery, then stage it for the next commit.

        The delivery is the unit of redelivery; dedup stays per-sample,
        so a redelivered frame whose samples were already ingested acks
        without double-counting, and a frame that partially overlaps
        the dedup window ingests only the fresh samples.  The WAL
        record holds only the fresh parts — replay cannot resurrect a
        duplicate.  Nothing of the delivery is stored, remembered or
        acknowledged here: that is :meth:`committed`, after the fsync
        that covers its record.  Without a WAL there is no fsync to
        wait for and the delivery is accepted at once.
        """
        staged = self._staged_keys
        fresh: FreshSamples = {}
        waits = False
        for part, measurement in zip(parts, measurements):
            key = self._dedup_key(measurement)
            if key in self._dedup_keys or key in fresh or key in staged:
                # redelivery / duplicate offline-buffer flush: already
                # ingested, so acknowledge without double-counting
                self.ingest_duplicates += 1
                # ... but not before the original is durable
                waits = waits or key in staged
                continue
            fresh[key] = (part, measurement)
        if not fresh:
            if waits:
                self._defer()
            return  # fully redelivered: ack, nothing to store
        capacity = self.durability.queue_capacity
        if capacity is not None and self._backlog() >= capacity:
            # whole-delivery backpressure BEFORE any durable effect: the
            # broker redelivers it complete later and dedup absorbs any
            # samples a competing path landed meanwhile
            self.backpressure_signals += 1
            raise BackpressureError("measurement-DB ingest queue is full")
        if self.wal is None:
            self._accept(event, fresh)
            return
        fresh_parts = [part for part, _measurement in fresh.values()]
        self.journal.stage({"record": BATCH_RECORD,
                            "count": len(fresh_parts),
                            "tags": event.payload.get("tags", {}),
                            "lines": fresh_parts}
                           if is_batch(event.payload) else fresh_parts[0])
        staged.update(fresh)
        self._group.append((event, fresh))
        self._defer()

    def _defer(self) -> None:
        """Hold this delivery's ack until the open group commits."""
        delivery = self.peer.defer()
        if delivery is not None:
            self._deferred.append(delivery)

    def committed(self) -> None:
        """The open commit group is on disk: remember it, store it,
        acknowledge it — in that order, and only now (ack-after-fsync,
        visible ⇒ durable)."""
        group, self._group = self._group, []
        self._staged_keys.clear()
        for event, fresh in group:
            self._accept(event, fresh)
        deferred, self._deferred = self._deferred, []
        self.peer.settle(deferred)

    def _accept(self, event: Event, fresh: FreshSamples) -> None:
        """Remember, count and store (or queue) one delivery's fresh
        samples.  The point of no return: a durable store gets here
        only once the WAL holds them."""
        for key in fresh:
            self._remember(key)
        self._record_latency(event)
        if is_batch(event.payload):
            self.batches_ingested += 1
            self.batch_samples += len(fresh)
        if self.durability.ingest_delay > 0:
            self._queue.extend(m for _part, m in fresh.values())
            self._schedule_drain()
            return
        for _part, measurement in fresh.values():
            self._ingest_sample(measurement)

    def _backlog(self) -> int:
        """Samples accepted but not yet stored: staged for the next
        commit, or queued behind ``ingest_delay``."""
        return len(self._staged_keys) + len(self._queue)

    def _record_latency(self, event: Event) -> None:
        latency = event.delivered_at - event.published_at
        if latency >= 0:
            self._delivery_latencies.append(latency)

    def _schedule_drain(self) -> None:
        if self._drain_scheduled or not self._queue:
            return
        self._drain_scheduled = True
        self.host.network.scheduler.schedule(
            self.durability.ingest_delay, self._drain_one
        )

    def _drain_one(self) -> None:
        self._drain_scheduled = False
        if not self._queue:
            return
        measurement = self._queue.popleft()
        self._ingest_sample(measurement)
        self._schedule_drain()

    def _store(self, measurement: Measurement) -> None:
        """Insert one sample and update the entity map and freshness."""
        self.store.insert(measurement)
        self._entity_for_device[measurement.device_id] = \
            measurement.entity_id
        previous = self._freshness.get(measurement.device_id, float("-inf"))
        if measurement.timestamp > previous:
            self._freshness[measurement.device_id] = measurement.timestamp

    def _ingest_sample(self, measurement: Measurement) -> None:
        self._store(measurement)
        self.ingested += 1
        self._stale_until_sample = False

    # -- crash, recovery and snapshots -------------------------------------

    def reset(self) -> None:
        """Simulate a crash-restart: all in-memory state is lost.

        The WAL and snapshot files survive on disk; :meth:`recover`
        restores from them.  Until the first live sample arrives the
        staleness indicators report "no data yet" rather than a spike
        covering the downtime (which would false-fire the staleness
        SLO for an outage the devices are not guilty of).
        """
        self.store = BlockStore(self.store.config)
        self.ingested = 0
        self.rejected = 0
        self.batches_ingested = 0
        self.batch_samples = 0
        self.ingest_duplicates = 0
        self.backpressure_signals = 0
        self.poison_rejected = 0
        self._freshness.clear()
        self._entity_for_device.clear()
        self._dedup_keys.clear()
        self._dedup_order.clear()
        self._queue.clear()
        self._drain_scheduled = False
        # the open commit group dies unacknowledged (journal.crash()
        # drops its staged records and timer): the broker redelivers it
        self._group.clear()
        self._staged_keys.clear()
        self._deferred.clear()
        self._delivery_latencies.clear()
        self._stale_until_sample = True
        self.journal.crash()

    def recover(self) -> Optional[int]:
        """Restore state from the snapshot and the WAL tail.

        Returns the number of samples restored, or None without a WAL
        or snapshot to recover from.  Recovery is idempotent: WAL
        records already contained in the snapshot (a crash between
        "snapshot written" and "WAL truncated") are absorbed by the
        restored dedup window.
        """
        before = self.recovered_samples
        if not self.journal.recover():
            return None
        restored = self.recovered_samples - before
        self.recoveries += 1
        # recovered freshness describes the world before the crash;
        # stay "stale until first sample" so the lag metric reports the
        # pipeline's health, not the outage's length
        return restored

    # -- the durable state (StateMachine contract) --------------------------

    def snapshot(self) -> Dict:
        """The full store plus its ingest bookkeeping, as a JSON-able dict.

        Beside the store it carries the freshness table, the device ->
        entity ownership that entity targets of ``query_range`` fan out
        over, and the dedup window — so a restarted store resumes with
        exact idempotent-ingest state instead of re-counting
        redelivered samples.  Sealed blocks and rollup state are
        carried verbatim (recovery must not recompute rollups from raw
        data it may no longer retain).
        """
        return {
            "tsdb": self.store.to_dict(),
            "freshness": {device: float(t)
                          for device, t in self._freshness.items()},
            "dedup_keys": [list(key) for key in self._dedup_order],
            "entity_for_device": dict(self._entity_for_device),
        }

    def restore(self, state: Dict) -> None:
        """Replace store and bookkeeping with a :meth:`snapshot` payload."""
        self.store = BlockStore.from_dict(state["tsdb"])
        self._freshness = {device: float(t) for device, t
                           in state.get("freshness", {}).items()}
        self._entity_for_device = dict(state.get("entity_for_device", {}))
        self._dedup_keys.clear()
        self._dedup_order.clear()
        for key in state.get("dedup_keys", []):
            self._remember(tuple(key))
        self.recovered_samples += self.store.sample_count()

    def apply(self, record: Dict) -> None:
        """Replay one WAL record; samples the dedup window already
        holds (they are in the loaded snapshot) are dropped."""
        decoded = self._decode(record)
        if decoded is None:
            return  # a poison record can never have been acked
        self.wal_records_replayed += 1
        for measurement in decoded[1]:
            key = self._dedup_key(measurement)
            if key not in self._dedup_keys:
                self._remember(key)
                self._store(measurement)
                self.recovered_samples += 1

    def before_snapshot(self) -> None:
        """Fold the ingest queue into the store.

        Acknowledged samples may still sit there (``ingest_delay`` >
        0); their WAL records are about to be truncated and their dedup
        keys persisted, so a crash after the snapshot would otherwise
        lose them while suppressing any redelivered copy.
        """
        while self._queue:
            self._ingest_sample(self._queue.popleft())

    def close(self) -> None:
        """Commit the open group, stop periodic tasks and release the
        WAL handle (teardown)."""
        self.stop_heartbeat()
        self.journal.close()
        if self._compaction_task is not None:
            self._compaction_task.stop()
            self._compaction_task = None
        self.peer.close()

    # -- background compaction ---------------------------------------------

    def _compact(self) -> None:
        """One block-store compaction pass on the simulated clock."""
        self.store.compact()

    # -- direct (in-process) query API ------------------------------------

    def query(self, query: RangeQuery) -> List:
        """Run a range query against the global store."""
        return self.store.query(query)

    def query_range(self, query: RollupQuery) -> List[Tuple[float, float]]:
        """Bucketed aggregates for a device or an entity target.

        A device target queries its series directly (rollup-served when
        a rollup resolution divides the step).  An entity target fans out
        to every device observed under that entity and combines the
        per-device buckets with district roll-up semantics: ``sum`` /
        ``mean`` / ``count`` add across devices (entity power is the
        sum of device powers), ``min``/``max`` take the envelope;
        ``first``/``last`` are per-device notions and are rejected.
        """
        if self.store.has_series(query.target, query.quantity):
            return self._device_range(query.target, query)
        devices = sorted(
            device
            for device, entity in self._entity_for_device.items()
            if entity == query.target
            and self.store.has_series(device, query.quantity)
        )
        if not devices:
            raise SeriesNotFoundError(
                f"no samples for {query.target}/{query.quantity}"
            )
        if query.agg in ("first", "last"):
            raise QueryError(
                f"{query.agg!r} is a per-device aggregation; "
                f"query a device id, not entity {query.target!r}"
            )
        combined: Dict[float, float] = {}
        for device in devices:
            for bucket, value in self._device_range(device, query):
                if bucket not in combined:
                    combined[bucket] = value
                elif query.agg == "min":
                    combined[bucket] = min(combined[bucket], value)
                elif query.agg == "max":
                    combined[bucket] = max(combined[bucket], value)
                else:
                    combined[bucket] += value
        return sorted(combined.items())

    def _device_range(self, device_id: str, query: RollupQuery
                      ) -> List[Tuple[float, float]]:
        return self.store.query_range(
            device_id, query.quantity, query.start, query.end,
            query.step, query.agg, prefer=query.prefer,
        )

    def freshness(self, device_id: str) -> Optional[float]:
        """Timestamp of the newest ingested sample for *device_id*."""
        return self._freshness.get(device_id)

    def delivery_latency_p90(self) -> float:
        """p90 of the rolling publish→delivery latency window (seconds)."""
        if not self._delivery_latencies:
            return 0.0
        return float(np.percentile(
            np.asarray(self._delivery_latencies, dtype=float), 90
        ))

    def freshness_lag_max(self) -> float:
        """Worst per-device age of the newest ingested sample (seconds).

        The district-level staleness indicator: a silent device (or a
        lost middleware path) shows up here as an ever-growing lag.
        Right after a restart the store reports 0 until the first live
        sample arrives — recovered timestamps describe the pre-crash
        world and would otherwise spike the staleness SLO for the
        duration of the outage.
        """
        if self._stale_until_sample or not self._freshness:
            return 0.0
        now = self.host.network.scheduler.now
        return max(now - last for last in self._freshness.values())

    # -- web-service routes -------------------------------------------------

    def _query_range_route(self, request: Request) -> Response:
        try:
            query = RollupQuery.from_params(request.params)
            samples = self.query_range(query)
        except QueryError as exc:
            return error(400, str(exc))
        except SeriesNotFoundError as exc:
            return error(404, str(exc))
        return ok({
            "samples": [[t, v] for t, v in samples],
            "source": self.store.last_query_source,
        })

    def metrics(self) -> Dict:
        """Numeric counters for the ``/metrics`` endpoint."""
        queue_capacity = self.durability.queue_capacity
        payload = {
            "ingested": self.ingested,
            "rejected": self.rejected,
            "batches_ingested": self.batches_ingested,
            "batch_samples": self.batch_samples,
            "devices": len(self._freshness),
            "delivery_latency_p90": self.delivery_latency_p90(),
            "freshness_lag_max": self.freshness_lag_max(),
            "requests_served": self.service.requests_served,
            "requests_failed": self.service.requests_failed,
            "handler_errors": self.service.handler_errors,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_failed": self.heartbeats_failed,
            "ingest_duplicates": self.ingest_duplicates,
            "dedup_window_size": len(self._dedup_order),
            "ingest_queue_depth": self._backlog(),
            "ingest_staged": len(self._staged_keys),
            "backpressure_signals": self.backpressure_signals,
            "poison_rejected": self.poison_rejected,
            "snapshots_written": self.snapshots_written,
            "recoveries": self.recoveries,
            "recovered_samples": self.recovered_samples,
            "wal_records_replayed": self.wal_records_replayed,
            "stale_until_sample": int(self._stale_until_sample),
            "data_plane_saturation":
                self._backlog() / float(queue_capacity)
                if queue_capacity else 0.0,
            "tsdb": self.store.stats(),
        }
        if self.wal is not None:
            payload.update({
                "wal_appends": self.wal.appends,
                "wal_fsyncs": self.wal.fsyncs,
                "wal_fsynced_bytes": self.wal.fsynced_bytes,
                "wal_records_per_fsync":
                    self.wal.appends / self.wal.fsyncs
                    if self.wal.fsyncs else 0.0,
                "commit_group_max": self.wal.group_max,
                "wal_size_bytes": self.wal.size_bytes(),
                "wal_torn_records_skipped":
                    self.wal.torn_records_skipped,
            })
        return payload

    def _metrics_route(self, request: Request) -> Response:
        return ok({"component": self.metrics()})
