"""Topic broker of the event-driven middleware.

The paper's infrastructure publishes device data "into the middleware
network by exploiting a publish/subscribe approach, which is a main
feature of the SEEMPubS middleware".  :class:`Broker` is that feature
rebuilt: a service on the simulated network that accepts subscriptions
(with wildcards) and fans published events out to matching subscribers.

The broker speaks raw transport messages (not the REST layer) because
pub/sub is push-based; the control verbs are ``subscribe``,
``unsubscribe``, ``publish``, ``ping`` and the durable-data-plane pair
``delivery_ack`` / ``delivery_nack``.

Three opt-in mechanisms make the measurement path durable end-to-end:

* **Acked subscriptions** (``subscribe`` with ``ack: true``) — every
  delivery to such a subscriber carries a ``delivery_id`` and is held
  as *pending* until acknowledged; an unacknowledged delivery is resent
  after ``delivery_ack_timeout``.  Combined with the publishers'
  publish acks this yields at-least-once delivery from device proxy to
  measurement DB (consumers deduplicate, see
  :class:`~repro.storage.measurementdb.MeasurementDatabase`).
* **End-to-end publish acks** — when a reliable publication matches
  acked subscribers, the broker immediately answers ``pub-receipt``
  ("I have custody, consumers are settling") and defers the final
  ``pub-ack`` until every acked subscriber has acknowledged (or the
  event was poison-dead-lettered), so "acked" means "durably
  handled", not "received".  The receipt lets publishers distinguish
  slow consumer settling from a dead broker (see
  :class:`~repro.middleware.peer.MiddlewarePeer`'s settle timeout).
* **Dead-letter queue** — a delivery negatively acknowledged as
  *poison* (payload fails translation/validation) more than
  ``max_delivery_attempts`` times moves to a bounded dead-letter store
  (inspect via ``GET /deadletter``, drain via ``POST
  /deadletter/drain``) instead of wedging the consumer.  *Busy* nacks
  (consumer backpressure) reset the attempt budget: backpressure only
  delays redelivery and never dead-letters.  A consumer that stops
  responding entirely exhausts the budget and is dead-lettered with
  reason ``timeout`` — but, unlike poison, a timeout dead-letter
  withholds the end-to-end pub-ack so the publisher retransmits and
  the sample is delayed, not silently diverted.

:class:`BrokerOverloadConfig` adds backpressure: when the pending
delivery backlog crosses the high watermark (hysteresis down to the low
watermark), or one publisher exceeds its fairness quota of pending
deliveries, reliable publications are answered with a ``pub-reject``
(the pub/sub analogue of HTTP 429) carrying ``retry_after``; peers
honour it by pausing and buffering (see
:class:`~repro.middleware.peer.MiddlewarePeer`).  Unreliable
publications are shed outright while saturated.

Broker high availability (opt-in, composable):

* **Durable broker state** — pass a :class:`~repro.storage.durability.
  BrokerDurabilityConfig` and every state mutation (retained event,
  subscription, pending delivery, settle, dead-letter) is appended and
  fsync'd to a write-ahead log *before* the ack or fanout it enables;
  the broker's :class:`~repro.storage.durability.Journal` snapshots
  periodically to bound replay.  After a crash (:meth:`Broker.reset`),
  :meth:`Broker.recover` restores retained topics, the subscription
  registry, pending acked deliveries (redelivery timers re-armed) and
  the dead-letter queue exactly.
* **Replicated failover** — :func:`repro.core.replication.replicate`
  streams the same durable-state log to 1–2 standby brokers with the
  epoch-fenced seniority election of :mod:`repro.core.replication`.  A standby (or fenced deposed
  primary) answers every data-plane frame with ``not-primary`` so
  peers rotate to the promoted broker; the promoted standby re-arms
  the replicated pending deliveries, so at-least-once delivery holds
  across a broker kill.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, NotPrimaryError
from repro.middleware.topics import topic_matches, validate_filter, validate_topic
from repro.network.transport import Host, Message, estimate_size
from repro.network.webservice import (
    GET,
    POST,
    Request,
    Response,
    WebService,
    ok,
)
from repro.observability.tracing import TraceContext, emit
from repro.storage.durability import (
    BrokerDurabilityConfig,
    Journal,
    StateMachine,
)

BROKER_PORT = "pubsub"

#: topic level prefixed to a dead-lettered event's original topic
DEAD_LETTER_PREFIX = "deadletter"

#: distinct concrete topics whose match sets the broker caches
_MATCH_CACHE_CAP = 1024


@dataclass(slots=True)
class Event:
    """A pub/sub event as seen by a subscriber.

    Treated as immutable by convention; one is built per fan-out
    delivery, so construction stays on the plain dataclass path
    (``frozen=True`` pays ``object.__setattr__`` per field).
    """

    topic: str
    payload: Any
    published_at: float
    delivered_at: float
    publisher: str
    #: True when this is a stored last-value replayed at subscribe time
    retained: bool = False


@dataclass
class BrokerStats:
    """Counters exposed for the pub/sub benchmarks."""

    published: int = 0
    fanout_deliveries: int = 0
    subscriptions: int = 0
    dead_subscriptions_dropped: int = 0
    duplicate_subscriptions_ignored: int = 0
    publish_acks_sent: int = 0
    pings_answered: int = 0
    # -- durable data plane ------------------------------------------------
    deliveries_acked: int = 0
    redeliveries: int = 0
    consumer_busy: int = 0
    poison_nacks: int = 0
    dead_lettered: int = 0
    dead_letters_drained: int = 0
    dead_letters_evicted: int = 0
    pub_acks_withheld: int = 0
    publications_shed: int = 0
    publisher_rejections: int = 0
    # -- broker HA ---------------------------------------------------------
    recoveries: int = 0
    recovered_items: int = 0
    unrecovered_restarts: int = 0
    not_primary_refusals: int = 0


@dataclass
class BrokerOverloadConfig:
    """Backpressure knobs for the broker's pending-delivery backlog."""

    #: pending deliveries at which global shedding starts
    high_watermark: int = 256
    #: pending deliveries at which global shedding stops (hysteresis)
    low_watermark: int = 128
    #: max pending deliveries any single publisher may hold (fairness)
    publisher_quota: int = 64
    #: back-off advised to rejected publishers, simulated seconds
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.high_watermark < 1 or self.low_watermark < 0:
            raise ConfigurationError("watermarks must be positive")
        if self.low_watermark > self.high_watermark:
            raise ConfigurationError(
                "low watermark must not exceed high watermark"
            )
        if self.publisher_quota < 1:
            raise ConfigurationError("publisher quota must be >= 1")
        if self.retry_after <= 0:
            raise ConfigurationError("retry_after must be positive")


@dataclass
class _Sub:
    """One live subscription in the broker's table."""

    pattern: str
    subscriber: str
    port: str
    token: Optional[int] = None
    #: deliveries to this subscription must be acknowledged
    ack: bool = False


@dataclass
class _PendingDelivery:
    """One unacknowledged delivery to an acked subscription."""

    delivery_id: int
    sub_id: int
    subscriber: str
    port: str
    event: dict
    publisher: str
    topic: str
    attempts: int = 1
    #: poison nacks received (busy nacks do not count)
    poison_count: int = 0
    #: key of the publisher's pending pub-ack, None for unreliable
    pub_key: Optional[Tuple[str, str, int]] = None
    #: bumped on every redelivery; a pending ``_check_delivery`` timer
    #: from an earlier send is stale and must not redeliver again
    generation: int = 0


@dataclass
class _PendingPublish:
    """A reliable publication awaiting its acked subscribers."""

    publisher: str
    ack_port: str
    pub_id: int
    remaining: Set[int] = field(default_factory=set)
    #: a delivery timed out undeliverable: withhold the pub-ack so the
    #: publisher retransmits instead of believing the sample durable
    failed: bool = False


class Broker(StateMachine):
    """Central topic broker bound to a simulated host."""

    kind = "broker"
    metric_prefix = "broker_replication."

    def __init__(self, host: Host,
                 overload: Optional[BrokerOverloadConfig] = None,
                 delivery_ack_timeout: float = 2.0,
                 max_delivery_attempts: int = 8,
                 dead_letter_capacity: int = 1024,
                 durability: Optional[BrokerDurabilityConfig] = None):
        if delivery_ack_timeout <= 0:
            raise ConfigurationError("delivery ack timeout must be positive")
        if max_delivery_attempts < 1:
            raise ConfigurationError("delivery attempts must be >= 1")
        self.host = host
        self.stats = BrokerStats()
        self.overload = overload
        self.delivery_ack_timeout = delivery_ack_timeout
        self.max_delivery_attempts = max_delivery_attempts
        self.dead_letter_capacity = dead_letter_capacity
        self._subs: Dict[int, _Sub] = {}
        #: concrete topic -> sub_ids whose pattern matches, in
        #: subscription order — publish fan-out stops re-matching
        #: wildcards per event.  Cleared on ANY ``_subs`` mutation
        #: (subscribe, unsubscribe, replay, restore, dead-sub reaping);
        #: bounded so a topic-cardinality explosion cannot leak memory.
        self._match_cache: Dict[str, List[Tuple[int, int]]] = {}
        # topic -> last retained event payload (publish with retain=True)
        self._retained: Dict[str, dict] = {}
        self._next_sub_id = 1
        self._next_delivery_id = 1
        #: delivery_id -> unacknowledged delivery
        self._deliveries: Dict[int, _PendingDelivery] = {}
        #: (publisher, ack_port, pub_id) -> deferred end-to-end pub-ack
        self._pending_pubs: Dict[Tuple[str, str, int], _PendingPublish] = {}
        #: publisher host -> pending delivery count (fairness accounting)
        self._pending_by_publisher: Dict[str, int] = {}
        self._shedding = False
        self.dead_letters: Deque[dict] = deque(maxlen=dead_letter_capacity)
        self.shed_by_topic: Dict[str, int] = {}
        # -- durable broker state (broker HA layer 1) ----------------------
        #: monotone id of the last logged state mutation; persisted in
        #: snapshots so a WAL tail overlapping the snapshot replays
        #: idempotently (records at or below the mark are skipped)
        self._op_seq = 0
        self.journal = Journal(self, "repro-broker-state", 1, durability)
        #: the journal's WAL (None when not durable), aliased so the
        #: per-delivery :meth:`_log` pays one attribute read
        self.wal = self.journal.wal
        host.bind(BROKER_PORT, self._on_message)
        # the broker's data plane stays raw pub/sub frames, but it serves
        # the same /health + /metrics endpoints as every other node so
        # the fleet collector can scrape it
        self.service = WebService(host)
        self.service.add_route(GET, "/health", self._health_route)
        self.service.add_route(GET, "/metrics", self._metrics_route)
        self.service.add_route(GET, "/deadletter", self._dead_letter_route)
        self.service.add_route(POST, "/deadletter/drain",
                               self._dead_letter_drain_route)

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def uri(self) -> str:
        """The broker's Web-Service base URI (health/metrics only)."""
        return self.service.base_uri

    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._subs)

    def pending_delivery_count(self) -> int:
        """Deliveries sent to acked subscribers but not yet acknowledged."""
        return len(self._deliveries)

    def data_plane_saturation(self) -> float:
        """Pending-delivery backlog as a fraction of the high watermark.

        0.0 when no overload config is installed; values >= 1.0 mean the
        broker is actively shedding load.
        """
        if self.overload is None:
            return 0.0
        return len(self._deliveries) / float(self.overload.high_watermark)

    # -- health + metrics endpoints ---------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness payload of the ``/health`` route."""
        payload = {
            "status": "ok",
            "kind": "broker",
            "subscriptions": len(self._subs),
            "retained_topics": len(self._retained),
            "pending_deliveries": len(self._deliveries),
            "shedding": self._shedding,
            "dead_letters": len(self.dead_letters),
        }
        payload.update(self.replication_status())
        return payload

    def metrics(self) -> Dict[str, Any]:
        """Numeric counters for the ``/metrics`` endpoint."""
        counters = {
            "published": self.stats.published,
            "fanout_deliveries": self.stats.fanout_deliveries,
            "subscriptions": self.stats.subscriptions,
            "live_subscriptions": len(self._subs),
            "retained_topics": len(self._retained),
            "dead_subscriptions_dropped":
                self.stats.dead_subscriptions_dropped,
            "duplicate_subscriptions_ignored":
                self.stats.duplicate_subscriptions_ignored,
            "publish_acks_sent": self.stats.publish_acks_sent,
            "pings_answered": self.stats.pings_answered,
            "pending_deliveries": len(self._deliveries),
            "deliveries_acked": self.stats.deliveries_acked,
            "redeliveries": self.stats.redeliveries,
            "consumer_busy": self.stats.consumer_busy,
            "poison_nacks": self.stats.poison_nacks,
            "dead_lettered": self.stats.dead_lettered,
            "dead_letters_queued": len(self.dead_letters),
            "dead_letters_evicted": self.stats.dead_letters_evicted,
            "pub_acks_withheld": self.stats.pub_acks_withheld,
            "publications_shed": self.stats.publications_shed,
            "publisher_rejections": self.stats.publisher_rejections,
            "data_plane_saturation": self.data_plane_saturation(),
            "shed_by_topic": dict(self.shed_by_topic),
            "recoveries": self.stats.recoveries,
            "recovered_items": self.stats.recovered_items,
            "unrecovered_restarts": self.stats.unrecovered_restarts,
            "not_primary_refusals": self.stats.not_primary_refusals,
            "snapshots_written": self.snapshots_written,
            "wal_appends": self.wal.appends if self.wal is not None else 0,
        }
        counters.update(self.replication_status())
        return counters

    def _health_route(self, request: Request) -> Response:
        return ok(self.health())

    def _metrics_route(self, request: Request) -> Response:
        registry = self.host.network.metrics
        return ok({
            "component": self.metrics(),
            "registry": registry.snapshot() if registry is not None else {},
        })

    def _dead_letter_route(self, request: Request) -> Response:
        return ok({
            "count": len(self.dead_letters),
            "events": list(self.dead_letters),
        })

    def _dead_letter_drain_route(self, request: Request) -> Response:
        drained = list(self.dead_letters)
        if drained:
            self._log({"op": "dlq_drain"})
        self.dead_letters.clear()
        self.stats.dead_letters_drained += len(drained)
        return ok({"drained": len(drained), "events": drained})

    def reset(self) -> None:
        """Simulate a broker crash-restart: all in-memory state is lost.

        Without durability, subscribers recover via their keepalive
        re-subscription (see :meth:`repro.middleware.peer.
        MiddlewarePeer.resubscribe_all`); publishers re-send
        publications that never earned a pub-ack from their offline
        buffers, and consumer-side dedup absorbs the resulting
        redeliveries.  With a :class:`~repro.storage.durability.
        BrokerDurabilityConfig`, call :meth:`recover` afterwards to
        restore the durable state from disk instead.
        """
        self._subs.clear()
        self._match_cache.clear()
        self._retained.clear()
        self._deliveries.clear()
        self._pending_pubs.clear()
        self._pending_by_publisher.clear()
        self._shedding = False
        self.dead_letters.clear()
        self._next_sub_id = 1
        self._next_delivery_id = 1
        self._op_seq = 0
        self.journal.crash()

    # -- durable broker state (WAL + snapshot + recover) -------------------

    def _log(self, record: Dict) -> None:
        """Durably record one state mutation, before it takes effect.

        The record lands in the WAL (fsync'd — ack-after-fsync for
        every retained/DLQ/delivery mutation) and, when this broker is
        the primary of a replication group, streams to the standbys:
        the durable-state log *is* the replication log.
        """
        self._op_seq += 1
        record["seq"] = self._op_seq
        if self.wal is not None:
            self.wal.append(record)
        if self.replication is not None:
            self.replication.record_write(record)

    def apply(self, record: Dict) -> None:
        """Apply one logged state mutation (WAL replay / standby apply).

        Arms no redelivery timer: only the live primary redelivers, so
        a restored pending delivery waits for :meth:`activate`.  Records
        already covered by the loaded snapshot (``seq`` at or below the
        snapshot's high-water mark) are skipped, so a crash between
        "snapshot written" and "WAL truncated" replays idempotently.
        """
        seq = int(record.get("seq", 0))
        if seq and seq <= self._op_seq:
            return
        self._op_seq = max(self._op_seq, seq)
        op = record.get("op")
        if op == "retain":
            self._retained[record["topic"]] = dict(record["event"])
        elif op == "sub":
            sub_id = int(record["sub_id"])
            self._subs[sub_id] = _Sub(
                record["pattern"], record["subscriber"], record["port"],
                record.get("token"), bool(record.get("ack", False)),
            )
            self._match_cache.clear()
            self._next_sub_id = max(self._next_sub_id, sub_id + 1)
        elif op == "unsub":
            self._subs.pop(int(record["sub_id"]), None)
            self._match_cache.clear()
        elif op == "delivery":
            delivery_id = int(record["delivery_id"])
            if delivery_id not in self._deliveries:
                self._hold(record)
                self._next_delivery_id = max(self._next_delivery_id,
                                             delivery_id + 1)
        elif op == "settle":
            delivery = self._deliveries.get(int(record["delivery_id"]))
            if delivery is not None:
                # replayed settles never re-send pub-acks: the ack (if
                # due) was sent right after this record was logged
                self._settle_delivery(delivery,
                                      handled=bool(record.get("handled",
                                                              True)),
                                      notify=False)
        elif op == "dlq":
            self.dead_letters.append(dict(record["entry"]))
        elif op == "dlq_drain":
            self.dead_letters.clear()
        # unknown ops are ignored: a newer writer's records must not
        # wedge recovery on an older reader

    def _hold(self, record: Dict, failed_pubs=frozenset()) -> None:
        """Rebuild one pending delivery (and its deferred pub-ack) from
        its ``delivery`` log record or snapshot entry.

        *failed_pubs* are the snapshot's publications whose pub-ack is
        already being withheld."""
        pub_key = tuple(record["pub_key"]) \
            if record.get("pub_key") else None
        delivery = _PendingDelivery(
            delivery_id=int(record["delivery_id"]),
            sub_id=int(record["sub_id"]),
            subscriber=record["subscriber"], port=record["port"],
            event=dict(record["event"]),
            publisher=record["publisher"], topic=record["topic"],
            attempts=int(record.get("attempts", 1)),
            poison_count=int(record.get("poison_count", 0)),
            pub_key=pub_key,
        )
        self._deliveries[delivery.delivery_id] = delivery
        self._pending_by_publisher[delivery.publisher] = \
            self._pending_by_publisher.get(delivery.publisher, 0) + 1
        if pub_key is not None:
            pending_pub = self._pending_pubs.get(pub_key)
            if pending_pub is None:
                pending_pub = _PendingPublish(
                    publisher=pub_key[0], ack_port=pub_key[1],
                    pub_id=pub_key[2], failed=pub_key in failed_pubs,
                )
                self._pending_pubs[pub_key] = pending_pub
            pending_pub.remaining.add(delivery.delivery_id)

    def snapshot(self) -> Dict[str, Any]:
        """The broker's full durable state as a JSON-able dict.

        Doubles as the replication snapshot payload and the persisted
        snapshot body.
        """
        return {
            "op_seq": self._op_seq,
            "next_sub_id": self._next_sub_id,
            "next_delivery_id": self._next_delivery_id,
            "retained": {topic: dict(event)
                         for topic, event in self._retained.items()},
            "subs": [{
                "sub_id": sub_id, "pattern": sub.pattern,
                "subscriber": sub.subscriber, "port": sub.port,
                "token": sub.token, "ack": sub.ack,
            } for sub_id, sub in self._subs.items()],
            "deliveries": [{
                "delivery_id": d.delivery_id, "sub_id": d.sub_id,
                "subscriber": d.subscriber, "port": d.port,
                "event": dict(d.event), "publisher": d.publisher,
                "topic": d.topic, "attempts": d.attempts,
                "poison_count": d.poison_count,
                "pub_key": list(d.pub_key) if d.pub_key else None,
            } for d in self._deliveries.values()],
            "failed_pubs": [list(key)
                            for key, pub in self._pending_pubs.items()
                            if pub.failed],
            "dead_letters": [dict(entry) for entry in self.dead_letters],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace all broker state with *state* (a :meth:`snapshot`).

        Like :meth:`apply`, arms nothing: a restoring member is (or is
        becoming) a standby, and crash recovery calls :meth:`activate`
        once the WAL tail is replayed too.
        """
        self._subs.clear()
        self._match_cache.clear()
        self._retained.clear()
        self._deliveries.clear()
        self._pending_pubs.clear()
        self._pending_by_publisher.clear()
        self.dead_letters.clear()
        self._op_seq = int(state.get("op_seq", 0))
        self._next_sub_id = int(state.get("next_sub_id", 1))
        self._next_delivery_id = int(state.get("next_delivery_id", 1))
        for topic, event in state.get("retained", {}).items():
            self._retained[topic] = dict(event)
        for sub in state.get("subs", []):
            self._subs[int(sub["sub_id"])] = _Sub(
                sub["pattern"], sub["subscriber"], sub["port"],
                sub.get("token"), bool(sub.get("ack", False)),
            )
        failed = {tuple(key) for key in state.get("failed_pubs", [])}
        for record in state.get("deliveries", []):
            self._hold(record, failed)
        for entry in state.get("dead_letters", []):
            self.dead_letters.append(dict(entry))

    def activate(self) -> None:
        """Arm a redelivery timer for every pending delivery.

        Called after crash-restart recovery and at standby promotion:
        the deliveries were sent by the previous incarnation, so a
        consumer that already handled one simply acks it before the
        timer fires; one that never saw it gets a timed redelivery.
        Timers mutate nothing until they fire, which keeps the restored
        state byte-identical to the pre-crash snapshot.
        """
        scheduler = self.host.network.scheduler
        for delivery in self._deliveries.values():
            scheduler.schedule(
                self.delivery_ack_timeout, self._check_delivery,
                delivery.delivery_id, delivery.generation,
            )

    def standby(self, host: Host) -> "Broker":
        return Broker(
            host, overload=self.overload,
            delivery_ack_timeout=self.delivery_ack_timeout,
            max_delivery_attempts=self.max_delivery_attempts,
            dead_letter_capacity=self.dead_letter_capacity,
        )

    def recover(self) -> Optional[int]:
        """Crash-restart recovery: load the snapshot, replay the WAL tail.

        Returns the number of durable items restored (retained topics +
        subscriptions + pending deliveries + dead letters), or None when
        the broker has no durability configured (nothing to recover
        from).  Restored pending deliveries get their redelivery timers
        re-armed, so unacknowledged pre-crash deliveries are redelivered
        rather than dropped; consumer-side dedup absorbs duplicates.
        """
        if not self.journal.recover():
            return None
        restored = len(self._retained) + len(self._subs) \
            + len(self._deliveries) + len(self.dead_letters)
        self.stats.recoveries += 1
        self.stats.recovered_items += restored
        self.activate()
        emit(self.host.network, "broker_recovered", host=self.host.name,
             broker=self.host.name, restored=restored)
        return restored

    # -- control-plane handling ------------------------------------------

    def _writable(self) -> bool:
        """True when this broker may accept data-plane frames.

        A standby (or a fenced deposed primary) must not accept
        publications, subscriptions or acks: doing so would fork the
        replicated state.  Mirrors the master's
        :meth:`~repro.core.replication.ReplicatedNode.check_writable`.
        """
        return self.replication is None or self.replication.writable

    def _refuse(self, message: Message) -> None:
        """Answer a data-plane frame with ``not-primary``.

        The reply carries the replication view's primary hint so the
        peer rotates straight to the promoted broker.  Frames with no
        reply channel (acks/nacks) are dropped; the primary's
        redelivery timers absorb the loss.
        """
        self.stats.not_primary_refusals += 1
        payload = message.payload
        if payload.get("verb") in ("publish", "subscribe"):
            # route writes through the replication gate so the
            # writes_rejected_* counters mean the same thing they do
            # for masters
            try:
                self.replication.check_writable()
            except NotPrimaryError:
                pass
        port = payload.get("ack_port") or payload.get("port")
        if not port:
            return
        reply = {
            "kind": "not-primary",
            "primary": self.replication.primary_name,
            "epoch": self.replication.epoch,
        }
        if payload.get("pub_id") is not None:
            reply["pub_id"] = payload["pub_id"]
        if payload.get("token") is not None:
            reply["token"] = payload["token"]
        self.host.send(message.sender, port, reply)

    def _on_message(self, message: Message) -> None:
        verb = message.payload.get("verb")
        profiler = self.host.network.profiler
        if profiler is None:
            self._handle_frame(message, verb)
            return
        frame = profiler.enter(self.host.name, "pubsub", verb or "?")
        try:
            self._handle_frame(message, verb)
        finally:
            profiler.exit(frame)

    def _handle_frame(self, message: Message, verb) -> None:
        """Dispatch one broker frame by verb (profiled by the caller)."""
        if not self._writable():
            self._refuse(message)
            return
        if verb == "subscribe":
            self._subscribe(message)
        elif verb == "unsubscribe":
            self._unsubscribe(message)
        elif verb == "publish":
            self._publish(message)
        elif verb == "ping":
            self._ping(message)
        elif verb == "delivery_ack":
            self._delivery_ack(message)
        elif verb == "delivery_nack":
            self._delivery_nack(message)
        # unknown verbs are dropped, like a real broker ignoring bad frames

    def _ping(self, message: Message) -> None:
        """Liveness probe (the MQTT PINGREQ/PINGRESP handshake)."""
        self.stats.pings_answered += 1
        self.host.send(message.sender, message.payload["port"],
                       {"kind": "pong",
                        "nonce": message.payload.get("nonce")})

    def _subscribe(self, message: Message) -> None:
        payload = message.payload
        pattern = payload["pattern"]
        validate_filter(pattern)
        token = payload.get("token")
        ack = bool(payload.get("ack", False))
        sub_id = None
        if token is not None:
            # keepalive re-subscription: same peer, port and token means
            # the same logical subscription — re-ack it, don't duplicate
            for existing_id, sub in self._subs.items():
                if sub.subscriber == message.sender and \
                        sub.port == payload["port"] and sub.token == token:
                    sub_id = existing_id
                    sub.ack = ack
                    self.stats.duplicate_subscriptions_ignored += 1
                    break
        replay_retained = sub_id is None
        if sub_id is None:
            sub_id = self._next_sub_id
            self._next_sub_id += 1
            self._log({"op": "sub", "sub_id": sub_id, "pattern": pattern,
                       "subscriber": message.sender,
                       "port": payload["port"], "token": token,
                       "ack": ack})
            self._subs[sub_id] = _Sub(sys.intern(pattern), message.sender,
                                      payload["port"], token, ack)
            self._match_cache.clear()
            self.stats.subscriptions += 1
        self.host.send(message.sender, payload["port"],
                       {"kind": "sub-ack", "sub_id": sub_id,
                        "token": token})
        # late-join state transfer: deliver matching retained events so a
        # new subscriber immediately knows each topic's last value (not
        # re-replayed on deduplicated keepalive re-subscriptions).
        # Replays are fire-and-forget even on acked subscriptions: the
        # consumer's dedup window absorbs them, and a lost replay only
        # delays the last-value until the next live publication.
        if replay_retained:
            for topic, retained in self._retained.items():
                if topic_matches(pattern, topic):
                    self.stats.fanout_deliveries += 1
                    event = dict(retained)
                    event["sub_id"] = sub_id
                    event["retained"] = True
                    self.host.send(message.sender, payload["port"], event)

    def _unsubscribe(self, message: Message) -> None:
        sub_id = message.payload.get("sub_id")
        if self._subs.pop(sub_id, None) is not None:
            self._match_cache.clear()
            self._log({"op": "unsub", "sub_id": sub_id})

    # -- backpressure ------------------------------------------------------

    def _count_shed(self, topic: str) -> None:
        self.stats.publications_shed += 1
        self.shed_by_topic[topic] = self.shed_by_topic.get(topic, 0) + 1
        registry = self.host.network.metrics
        if registry is not None:
            registry.counter("pubsub.publications_shed").inc()

    def _over_quota(self, publisher: str) -> bool:
        """Per-publisher fairness: one flooder cannot starve the rest."""
        if self.overload is None:
            return False
        pending = self._pending_by_publisher.get(publisher, 0)
        return pending >= self.overload.publisher_quota

    def _saturated(self) -> bool:
        """Global watermark check with hysteresis (the shedding latch)."""
        if self.overload is None:
            return False
        depth = len(self._deliveries)
        if self._shedding and depth <= self.overload.low_watermark:
            self._shedding = False
            emit(self.host.network, "broker_shedding_stopped",
                 host=self.host.name, broker=self.host.name, depth=depth)
        elif not self._shedding and depth >= self.overload.high_watermark:
            self._shedding = True
            emit(self.host.network, "broker_shedding_started",
                 host=self.host.name, broker=self.host.name, depth=depth)
        return self._shedding

    def _reject_publish(self, message: Message, fairness: bool) -> None:
        payload = message.payload
        topic = payload["topic"]
        self._count_shed(topic)
        if fairness:
            self.stats.publisher_rejections += 1
        emit(self.host.network, "publication_shed", host=self.host.name,
             broker=self.host.name, publisher=message.sender, topic=topic,
             cause="quota" if fairness else "watermark")
        if payload.get("pub_id") is not None and payload.get("ack_port"):
            # the pub/sub analogue of HTTP 429 + Retry-After: tell the
            # publisher to back off instead of silently dropping
            self.host.send(message.sender, payload["ack_port"], {
                "kind": "pub-reject",
                "pub_id": payload["pub_id"],
                "status": 429,
                "retry_after": self.overload.retry_after,
            })
        # unreliable publications are shed outright (no channel to say no)

    # -- publication -------------------------------------------------------

    def _publish(self, message: Message) -> None:
        payload = message.payload
        topic = payload["topic"]
        validate_topic(topic)
        over_quota = self._over_quota(message.sender)
        if self._saturated() or over_quota:
            self._reject_publish(message, fairness=over_quota)
            return
        self.stats.published += 1
        reliable = payload.get("pub_id") is not None and \
            payload.get("ack_port")
        span = None
        tracer = self.host.network.tracer
        if tracer is not None and tracer.enabled:
            context = TraceContext.from_dict(payload.get("trace"))
            if context is not None:
                # the broker hop: child of the publisher's span, parent
                # of every subscriber's delivery span
                span = tracer.start_span(f"fanout {topic}",
                                         kind="broker",
                                         host=self.host.name,
                                         parent=context)
        event = {
            "kind": "event",
            "topic": topic,
            "payload": payload.get("payload"),
            "published_at": payload.get("published_at", 0.0),
            "publisher": message.sender,
        }
        if span is not None:
            event["trace"] = span.header()
        if payload.get("retain"):
            # the span header is request-scoped: replaying it with the
            # retained copy at subscribe time — possibly much later —
            # would parent the delivery span under a long-finished
            # trace, so the stored copy drops it (replay deliveries are
            # root-less, like any untraced event)
            retained = dict(event)
            retained.pop("trace", None)
            # ack-after-fsync: the retained mutation is on disk (and
            # streamed to standbys) before any ack below can be sent
            self._log({"op": "retain", "topic": topic, "event": retained})
            self._retained[topic] = retained
        network = self.host.network
        pub_key: Optional[Tuple[str, str, int]] = None
        if reliable:
            pub_key = (message.sender, payload["ack_port"],
                       payload["pub_id"])
        dead: List[int] = []
        deliveries = 0
        acked_delivery_ids: List[int] = []
        subs = self._subs
        matched = self._match_cache.get(topic)
        if matched is None:
            # each entry carries the precomputed wire-size delta its
            # ``sub_id`` key adds to a fan-out envelope (', "sub_id": N')
            matched = [(sub_id, len(str(sub_id)) + 12)
                       for sub_id, sub in subs.items()
                       if topic_matches(sub.pattern, topic)]
            if len(self._match_cache) >= _MATCH_CACHE_CAP:
                self._match_cache.clear()
            self._match_cache[topic] = matched
        # the fan-out envelopes differ from `event` only by the small
        # ASCII keys added below, so their wire size is the base size
        # plus an exact per-key delta — estimated once per publish, not
        # once per subscriber
        base_size = estimate_size(event)
        send = self.host.send
        for sub_id, sub_id_delta in matched:
            sub = subs.get(sub_id)
            if sub is None:
                continue
            if not network.has_host(sub.subscriber):
                dead.append(sub_id)
                continue
            deliveries += 1
            fanout = dict(event)
            fanout["sub_id"] = sub_id
            size = base_size + sub_id_delta
            if sub.ack:
                delivery_id = self._next_delivery_id
                self._next_delivery_id += 1
                fanout["delivery_id"] = delivery_id
                size += len(str(delivery_id)) + 17  # + ', "delivery_id": N'
                self._log({
                    "op": "delivery", "delivery_id": delivery_id,
                    "sub_id": sub_id, "subscriber": sub.subscriber,
                    "port": sub.port, "event": dict(fanout),
                    "publisher": message.sender, "topic": topic,
                    "pub_key": list(pub_key) if pub_key else None,
                })
                self._deliveries[delivery_id] = _PendingDelivery(
                    delivery_id=delivery_id, sub_id=sub_id,
                    subscriber=sub.subscriber, port=sub.port,
                    event=dict(fanout), publisher=message.sender,
                    topic=topic, pub_key=pub_key,
                )
                self._pending_by_publisher[message.sender] = \
                    self._pending_by_publisher.get(message.sender, 0) + 1
                acked_delivery_ids.append(delivery_id)
                network.scheduler.schedule(
                    self.delivery_ack_timeout, self._check_delivery,
                    delivery_id, 0,
                )
            send(sub.subscriber, sub.port, fanout, size=size)
        self.stats.fanout_deliveries += deliveries
        for sub_id in dead:
            if subs.pop(sub_id, None) is not None:
                self._match_cache.clear()
            self.stats.dead_subscriptions_dropped += 1
        if reliable:
            if acked_delivery_ids:
                # end-to-end ack: defer the pub-ack until every acked
                # subscriber has durably handled (or dead-lettered) it
                self._pending_pubs[pub_key] = _PendingPublish(
                    publisher=message.sender,
                    ack_port=payload["ack_port"],
                    pub_id=payload["pub_id"],
                    remaining=set(acked_delivery_ids),
                )
                # immediate receipt: the broker has custody, consumers
                # are settling — stops the publisher's ack timeout from
                # reading slow consumer settling as a dead broker
                self.host.send(message.sender, payload["ack_port"],
                               {"kind": "pub-receipt",
                                "pub_id": payload["pub_id"]})
            else:
                self.stats.publish_acks_sent += 1
                self.host.send(message.sender, payload["ack_port"],
                               {"kind": "pub-ack",
                                "pub_id": payload["pub_id"]})
        if span is not None:
            span.attributes["deliveries"] = deliveries
            tracer.finish(span)

    # -- consumer acks, redelivery and dead-lettering ----------------------

    def _release_delivery(self, delivery: _PendingDelivery,
                          handled: bool = True) -> None:
        """Drop a pending delivery and settle its bookkeeping.

        *handled* is False when the delivery was abandoned without the
        consumer durably taking it (a timeout dead-letter): the
        publisher's end-to-end pub-ack is then withheld, so its own
        retry re-publishes the sample instead of trusting a false ack.
        """
        self._log({"op": "settle", "delivery_id": delivery.delivery_id,
                   "handled": handled})
        self._settle_delivery(delivery, handled, notify=True)

    def _settle_delivery(self, delivery: _PendingDelivery, handled: bool,
                         notify: bool) -> None:
        """Settle bookkeeping; *notify* gates pub-ack sends (False on
        WAL replay / standby apply — the ack was already sent, or is the
        live primary's to send)."""
        self._deliveries.pop(delivery.delivery_id, None)
        count = self._pending_by_publisher.get(delivery.publisher, 0) - 1
        if count > 0:
            self._pending_by_publisher[delivery.publisher] = count
        else:
            self._pending_by_publisher.pop(delivery.publisher, None)
        if delivery.pub_key is None:
            return
        pending_pub = self._pending_pubs.get(delivery.pub_key)
        if pending_pub is None:
            return
        if not handled:
            pending_pub.failed = True
        pending_pub.remaining.discard(delivery.delivery_id)
        if not pending_pub.remaining:
            self._pending_pubs.pop(delivery.pub_key, None)
            if pending_pub.failed:
                if notify:
                    self.stats.pub_acks_withheld += 1
                    emit(self.host.network, "pub_ack_withheld",
                         host=self.host.name, broker=self.host.name,
                         publisher=pending_pub.publisher,
                         pub_id=pending_pub.pub_id)
                return
            if not notify:
                return
            self.stats.publish_acks_sent += 1
            self.host.send(pending_pub.publisher, pending_pub.ack_port,
                           {"kind": "pub-ack",
                            "pub_id": pending_pub.pub_id})

    def _delivery_ack(self, message: Message) -> None:
        delivery = self._deliveries.get(
            message.payload.get("delivery_id")
        )
        if delivery is None:
            return  # late ack for a redelivered/reset delivery
        self.stats.deliveries_acked += 1
        self._release_delivery(delivery)

    def _delivery_nack(self, message: Message) -> None:
        payload = message.payload
        delivery = self._deliveries.get(payload.get("delivery_id"))
        if delivery is None:
            return
        if payload.get("poison"):
            self.stats.poison_nacks += 1
            delivery.poison_count += 1
            if delivery.poison_count >= self.max_delivery_attempts:
                self._dead_letter(delivery, reason="poison")
                return
            self._redeliver(delivery)
        else:
            # busy nack: consumer backpressure, not a poison payload —
            # redeliver after the ack timeout, never dead-letter.  The
            # consumer is demonstrably alive, so the attempt budget
            # resets: only consecutive *unanswered* deliveries may
            # exhaust it (sustained backpressure must never divert
            # acknowledged samples to the DLQ)
            self.stats.consumer_busy += 1
            delivery.attempts = 0

    def _check_delivery(self, delivery_id: int, generation: int) -> None:
        delivery = self._deliveries.get(delivery_id)
        if delivery is None:
            return  # acknowledged in time (or broker restarted)
        if delivery.generation != generation:
            return  # stale timer: the delivery was re-sent since
        if delivery.attempts >= self.max_delivery_attempts:
            self._dead_letter(delivery, reason="timeout")
            return
        self._redeliver(delivery)

    def _redeliver(self, delivery: _PendingDelivery) -> None:
        network = self.host.network
        if not network.has_host(delivery.subscriber):
            # the subscriber host is gone for good: nothing to deliver to
            if self._subs.pop(delivery.sub_id, None) is not None:
                self._match_cache.clear()
            self.stats.dead_subscriptions_dropped += 1
            self._release_delivery(delivery)
            return
        delivery.attempts += 1
        delivery.generation += 1  # invalidates any outstanding timer
        self.stats.redeliveries += 1
        emit(network, "delivery_redelivered", host=self.host.name,
             broker=self.host.name, topic=delivery.topic,
             subscriber=delivery.subscriber, attempt=delivery.attempts)
        self.host.send(delivery.subscriber, delivery.port,
                       dict(delivery.event))
        network.scheduler.schedule(
            self.delivery_ack_timeout, self._check_delivery,
            delivery.delivery_id, delivery.generation,
        )

    def _dead_letter(self, delivery: _PendingDelivery, reason: str) -> None:
        """Move a poison/undeliverable event to the dead-letter queue.

        The event is recorded in the bounded dead-letter store and also
        fanned out (fire-and-forget) on ``deadletter/<original topic>``
        so operators can subscribe a drain.  A *poison* dead-letter
        counts as handled for the publisher's end-to-end pub-ack (the
        sample was durably diverted, and retransmitting poison forever
        would wedge the pipeline the DLQ exists to protect); a
        *timeout* dead-letter — the consumer simply never answered —
        withholds the pub-ack so the publisher retransmits once the
        consumer is back.
        """
        self.stats.dead_lettered += 1
        entry = {
            "topic": delivery.topic,
            "payload": delivery.event.get("payload"),
            "publisher": delivery.publisher,
            "published_at": delivery.event.get("published_at", 0.0),
            "attempts": delivery.attempts,
            "reason": reason,
            "dead_lettered_at": self.host.network.scheduler.now,
        }
        registry = self.host.network.metrics
        if self.dead_letters.maxlen is not None and \
                len(self.dead_letters) >= self.dead_letters.maxlen:
            # the bounded store is full: the append below evicts the
            # oldest entry, which is real (dead-lettered, hence
            # publisher-acked for poison) data leaving the system —
            # never silently
            self.stats.dead_letters_evicted += 1
            if registry is not None:
                registry.counter("pubsub.dead_letters_evicted").inc()
            emit(self.host.network, "dead_letter_evicted",
                 host=self.host.name, broker=self.host.name,
                 topic=self.dead_letters[0].get("topic"))
        self._log({"op": "dlq", "entry": dict(entry)})
        self.dead_letters.append(entry)
        if registry is not None:
            registry.counter("pubsub.dead_lettered").inc()
        emit(self.host.network, "dead_letter", host=self.host.name,
             broker=self.host.name, topic=delivery.topic, reason=reason,
             attempts=delivery.attempts)
        self._release_delivery(delivery, handled=reason != "timeout")
        dlq_topic = f"{DEAD_LETTER_PREFIX}/{delivery.topic}"
        dlq_event = {
            "kind": "event",
            "topic": dlq_topic,
            "payload": entry,
            "published_at": self.host.network.scheduler.now,
            "publisher": self.host.name,
        }
        for sub_id, sub in self._subs.items():
            if not topic_matches(sub.pattern, dlq_topic):
                continue
            if not self.host.network.has_host(sub.subscriber):
                continue
            self.stats.fanout_deliveries += 1
            fanout = dict(dlq_event)
            fanout["sub_id"] = sub_id
            self.host.send(sub.subscriber, sub.port, fanout)


def broker_uri(broker: Broker) -> str:
    """Address string used by peers to reach the broker (host name)."""
    return broker.host.name


class BrokerClientError(ConfigurationError):
    """A peer was used before its broker address was configured."""
