"""Topic broker of the event-driven middleware.

The paper's infrastructure publishes device data "into the middleware
network by exploiting a publish/subscribe approach, which is a main
feature of the SEEMPubS middleware".  :class:`Broker` is that feature
rebuilt: a service on the simulated network that accepts subscriptions
(with wildcards) and fans published events out to matching subscribers.
It speaks raw transport frames, not REST, because pub/sub is push-based:
``subscribe``, ``unsubscribe``, ``publish``, ``ping`` and the pair
``delivery_ack`` / ``delivery_nack``.  Every frame is validated once,
at the frame boundary; one that fails is counted, traced and dropped.

**State and protocol are two halves.**  What must survive a crash is a
:class:`~repro.middleware.broker_state.BrokerState`, which changes only
by applying a log record.  This module is the half that needs a
network: it turns frames into records and commits each through
:meth:`Broker._commit` — assign ``seq``, append to the WAL (fsync),
``state.apply(record)``, stream to the standbys — *before* the ack or
fan-out the record enables.  WAL replay and a standby's apply are the
same ``apply``, so live, recovered and replicated state agree by
construction.  Two things are deliberately outside the log: a replayed
``settle`` sends no pub-ack (it was the live primary's to send), and a
pending delivery's redelivery budget (attempts, poison count) is soft —
a recovered or promoted broker grants a fresh one.

On top of plain fan-out the protocol offers, each opt-in: acked
subscriptions with timed redelivery and a dead-letter queue
(:class:`DeliverySettlement`), end-to-end publish acks (``pub-receipt``
at custody, ``pub-ack`` once every acked subscriber settled),
backpressure (:class:`BrokerOverloadConfig`), a durable log
(:class:`~repro.storage.durability.HubConfig`,
:meth:`Broker.recover`) and standbys
(:func:`repro.core.replication.replicate`).  ``docs/architecture.md``
describes each under "Durable data plane" and "Broker high
availability".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, NotPrimaryError
from repro.middleware.broker_state import BrokerState, _PendingDelivery, _Sub
from repro.middleware.topics import (
    levels_match,
    validate_filter,
    validate_topic,
)
from repro.network.transport import (Host, Message, estimate_size,
                                     estimate_size_from, frame_size)
from repro.network.webservice import (
    GET,
    POST,
    Request,
    Response,
    WebService,
    ok,
)
from repro.observability.tracing import decode_header, emit
from repro.storage.durability import HubConfig, Journal, StateMachine

BROKER_PORT = "pubsub"

#: topic level prefixed to a dead-lettered event's original topic
DEAD_LETTER_PREFIX = "deadletter"


@dataclass
class Event:
    """A pub/sub event as seen by a subscriber.

    Treated as immutable by convention; one is built per fan-out
    delivery, so construction stays on the plain dataclass path
    (``frozen=True`` pays ``object.__setattr__`` per field).  The slots
    are spelled out because ``dataclass(slots=True)`` needs Python 3.10.

    There is no publisher: no subscriber reads one, so a delivery does
    not carry it (nor does an MQTT PUBLISH to a subscriber); a payload
    that must name its origin does so itself, as a measurement's
    ``source`` does.
    """

    __slots__ = ("topic", "payload", "published_at", "delivered_at",
                 "retained")

    topic: str
    payload: Any
    published_at: float
    delivered_at: float
    #: True when this is a stored last-value replayed at subscribe time
    retained: bool


@dataclass
class BrokerStats:
    """Counters exposed for the pub/sub benchmarks and ``/metrics``."""

    published: int = 0
    fanout_deliveries: int = 0
    subscriptions: int = 0
    dead_subscriptions_dropped: int = 0
    duplicate_subscriptions_ignored: int = 0
    publish_acks_sent: int = 0
    pings_answered: int = 0
    #: malformed or unknown frames dropped at the frame boundary
    frames_rejected: int = 0
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


def _trace(host: Host, name: str, **attributes: Any) -> None:
    """Emit one of the broker's structured trace events."""
    emit(host.network, name, host=host.name, broker=host.name, **attributes)


#: verb -> the frame fields the broker interprets, as (key, type,
#: required); whatever else a frame carries is opaque to it
_FRAME_FIELDS = {
    "subscribe": (("pattern", str, True), ("port", str, True),
                  ("token", int, False)),
    "unsubscribe": (("sub_id", int, False),),
    "publish": (("topic", str, True), ("ack_port", str, False),
                ("pub_id", int, False)),
    "ping": (("port", str, True),),
    "delivery_ack": (("delivery_id", int, False),
                     ("delivery_ids", list, False)),
    "delivery_nack": (("delivery_id", int, False),),
}


def _validate(verb, payload) -> None:
    """Check one frame at the boundary, before any handler sees it.

    Raises KeyError (unknown verb, missing field), TypeError (not a
    frame, mistyped field) or ConfigurationError (topic / filter
    grammar) — the input comes from outside the program.
    """
    for key, kind, required in _FRAME_FIELDS[verb]:
        value = payload[key] if required else payload.get(key)
        if not isinstance(value, kind) and (required or value is not None):
            raise TypeError(f"field {key!r} must be {kind.__name__}")
    if verb == "publish":
        validate_topic(payload["topic"])
    elif verb == "subscribe":
        validate_filter(payload["pattern"])
    elif verb == "delivery_ack":
        for delivery_id in payload.get("delivery_ids") or ():
            if not isinstance(delivery_id, int):
                raise TypeError("field 'delivery_ids' must hold ints")


def _fanout_span(tracer, host: Host, payload: dict, topic: str):
    """The broker hop of a traced publication: child of the publisher's
    span, parent of every subscriber's delivery span."""
    parent = decode_header(payload.get("trace"))
    if parent is None:
        return None
    return tracer.start_span(f"fanout {topic}", kind="broker",
                             host=host.name, parent=parent)


class DeliverySettlement:
    """What happens to a delivery after fan-out has sent it.

    Consumer acks and nacks, ack-timeout redelivery against an attempt
    budget, dead-lettering, and the publisher's deferred pub-ack.  Only
    the live primary runs it, and all it owns is volatile — timers and
    the budget die with the process, :meth:`arm_all` restarts them after
    a recovery or promotion; every durable effect is a record handed to
    *commit* (:meth:`Broker._commit`).
    """

    def __init__(self, host: Host, state: BrokerState, stats: BrokerStats,
                 commit: Callable[[Dict], Any], ack_timeout: float,
                 max_attempts: int):
        self.host = host
        self.state = state
        self.stats = stats
        self._commit = commit
        self.ack_timeout = ack_timeout
        self.max_attempts = max_attempts

    def arm(self, delivery_id: int, generation: int = 0) -> None:
        """Start the ack-timeout timer of one send of one delivery."""
        self.host.network.scheduler.schedule(
            self.ack_timeout, self.check, delivery_id, generation)

    def arm_all(self) -> None:
        """Arm a timer for every pending delivery (recovery, promotion).

        The previous incarnation sent them: a consumer that handled one
        acks it before the timer fires, one that never saw it gets a
        timed redelivery.  Timers mutate nothing until they fire, so a
        restored state stays byte-identical to the pre-crash snapshot.
        """
        for delivery in self.state.deliveries.values():
            self.arm(delivery.delivery_id, delivery.generation)

    def ack(self, message: Message) -> None:
        """Release the one delivery named by ``delivery_id``, or every
        one in ``delivery_ids`` (a consumer's group commit)."""
        payload = message.payload
        for delivery_id in payload.get("delivery_ids") \
                or (payload.get("delivery_id"),):
            delivery = self.state.deliveries.get(delivery_id)
            if delivery is None:
                continue  # late ack for a redelivered/reset delivery
            self.stats.deliveries_acked += 1
            self._release(delivery)

    def nack(self, message: Message) -> None:
        payload = message.payload
        delivery = self.state.deliveries.get(payload.get("delivery_id"))
        if delivery is None:
            return
        if payload.get("poison"):
            self.stats.poison_nacks += 1
            delivery.poison_count += 1
            if delivery.poison_count >= self.max_attempts:
                self._dead_letter(delivery, reason="poison")
            else:
                self._redeliver(delivery)
        else:
            # busy nack: the consumer is alive but backpressured, so
            # the attempt budget resets (only consecutive *unanswered*
            # deliveries may exhaust it) and the ack timeout redelivers
            self.stats.consumer_busy += 1
            delivery.attempts = 0

    def check(self, delivery_id: int, generation: int) -> None:
        """Ack-timeout timer of one send of one delivery."""
        delivery = self.state.deliveries.get(delivery_id)
        if delivery is None or delivery.generation != generation:
            return  # acknowledged in time, or re-sent since (stale timer)
        if delivery.attempts >= self.max_attempts:
            self._dead_letter(delivery, reason="timeout")
        else:
            self._redeliver(delivery)

    def _release(self, delivery: _PendingDelivery,
                 handled: bool = True) -> None:
        """Settle a pending delivery; answer its publisher if it was
        the publication's last.

        *handled* is False when the consumer never durably took it (a
        timeout dead-letter): the pub-ack is then withheld, so the
        publisher's retry re-publishes instead of trusting a false ack.
        """
        done = self._commit({"op": "settle",
                             "delivery_id": delivery.delivery_id,
                             "handled": handled})
        if done is None:
            return
        if done.failed:
            self.stats.pub_acks_withheld += 1
            _trace(self.host, "pub_ack_withheld", publisher=done.publisher,
                   pub_id=done.pub_id)
        else:
            self.stats.publish_acks_sent += 1
            ack = {"kind": "pub-ack", "pub_id": done.pub_id}
            self.host.send(done.publisher, done.ack_port, ack,
                           size=frame_size(ack))

    def _redeliver(self, delivery: _PendingDelivery) -> None:
        if not self.host.network.has_host(delivery.subscriber):
            # the subscriber host is gone for good: nothing to deliver to
            if delivery.sub_id in self.state.subs.by_id:
                self._commit({"op": "unsub", "sub_id": delivery.sub_id})
            self.stats.dead_subscriptions_dropped += 1
            self._release(delivery)
            return
        delivery.attempts += 1
        delivery.generation += 1  # invalidates any outstanding timer
        self.stats.redeliveries += 1
        _trace(self.host, "delivery_redelivered", topic=delivery.topic,
               subscriber=delivery.subscriber, attempt=delivery.attempts)
        delivery.size = delivery.size or estimate_size(delivery.event)
        self.host.send(delivery.subscriber, delivery.port,
                       dict(delivery.event), size=delivery.size)
        self.arm(delivery.delivery_id, delivery.generation)

    def _dead_letter(self, delivery: _PendingDelivery, reason: str) -> None:
        """Move a poison/undeliverable event to the dead-letter queue.

        It is recorded in the bounded store and fanned out
        (fire-and-forget) on ``deadletter/<original topic>`` so
        operators can subscribe a drain.  A *poison* dead-letter counts
        as handled for the publisher's pub-ack (retransmitting poison
        forever would wedge the pipeline the DLQ protects); a *timeout*
        one withholds it, so the publisher retransmits once the
        consumer is back.
        """
        host = self.host
        now = host.network.scheduler.now
        self.stats.dead_lettered += 1
        store = self.state.dead_letters
        if store.maxlen is not None and len(store) >= store.maxlen:
            # the store is full: the append evicts its oldest entry —
            # publisher-acked data leaving the system, never silently
            self.stats.dead_letters_evicted += 1
            _trace(host, "dead_letter_evicted", topic=store[0].get("topic"))
        entry = delivery.dead_letter_entry(reason, now)
        self._commit({"op": "dlq", "entry": entry})
        _trace(host, "dead_letter", topic=delivery.topic, reason=reason,
               attempts=delivery.attempts)
        self._release(delivery, handled=reason != "timeout")
        topic = f"{DEAD_LETTER_PREFIX}/{delivery.topic}"
        event = {"kind": "event", "topic": topic, "payload": dict(entry),
                 "published_at": now}
        size = estimate_size(event)
        for sub_id, sub_id_delta, sub in self.state.subs.match(topic):
            if host.network.has_host(sub.subscriber):
                self.stats.fanout_deliveries += 1
                host.send(sub.subscriber, sub.port, dict(event, sub_id=sub_id),
                          size=size + sub_id_delta)


class Broker(StateMachine):
    """Central topic broker bound to a simulated host (protocol half)."""

    kind = "broker"

    def __init__(self, host: Host,
                 overload: Optional[BrokerOverloadConfig] = None,
                 delivery_ack_timeout: float = 2.0,
                 max_delivery_attempts: int = 8,
                 dead_letter_capacity: int = 1024,
                 durability: Optional[HubConfig] = None):
        if delivery_ack_timeout <= 0:
            raise ConfigurationError("delivery ack timeout must be positive")
        if max_delivery_attempts < 1:
            raise ConfigurationError("delivery attempts must be >= 1")
        self.host = host
        self.stats = BrokerStats()
        #: everything durable; changed only through :meth:`_commit`
        self.state = BrokerState(dead_letter_capacity)
        self.overload = overload
        self._shedding = False
        self.shed_by_topic: Dict[str, int] = {}
        #: topic -> (retained event, the wire size its publish computed)
        self._retained_sizes: Dict[str, tuple] = {}
        self.settlement = DeliverySettlement(
            host, self.state, self.stats, self._commit,
            delivery_ack_timeout, max_delivery_attempts)
        self.journal = Journal(self, "repro-broker-state", 1, durability)
        #: the journal's WAL (None when not durable), aliased so
        #: :meth:`_commit` pays one attribute read
        self.wal = self.journal.wal
        self._handlers = {
            "subscribe": self._subscribe, "unsubscribe": self._unsubscribe,
            "publish": self._publish, "ping": self._ping,
            "delivery_ack": self.settlement.ack,
            "delivery_nack": self.settlement.nack,
        }
        host.bind(BROKER_PORT, self._on_message)
        # raw frames on the data plane, but the same /metrics as every
        # other node so the fleet collector can scrape it
        self.service = WebService(host)
        self.service.add_route(GET, "/metrics", self._metrics_route)
        self.service.add_route(GET, "/deadletter", self._dead_letter_route)
        self.service.add_route(POST, "/deadletter/drain",
                               self._dead_letter_drain_route)

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def uri(self) -> str:
        """The broker's Web-Service base URI (``/metrics`` and the
        dead-letter verbs)."""
        return self.service.base_uri

    @property
    def dead_letters(self):
        """The bounded dead-letter store (a view of the state)."""
        return self.state.dead_letters

    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self.state.subs.by_id)

    def data_plane_saturation(self) -> float:
        """Pending-delivery backlog as a fraction of the high watermark
        (0.0 without an overload config; >= 1.0 means shedding)."""
        if self.overload is None:
            return 0.0
        return len(self.state.deliveries) / self.overload.high_watermark

    # -- metrics + dead-letter endpoints ----------------------------------

    def metrics(self) -> Dict[str, Any]:
        """Numeric counters for the ``/metrics`` endpoint: every
        :class:`BrokerStats` field plus the gauges read off the state."""
        state = self.state
        counters = dict(vars(self.stats))
        counters.update(
            live_subscriptions=len(state.subs.by_id),
            retained_topics=len(state.retained),
            pending_deliveries=len(state.deliveries),
            dead_letters_queued=len(state.dead_letters),
            data_plane_saturation=self.data_plane_saturation(),
            shed_by_topic=dict(self.shed_by_topic),
            snapshots_written=self.snapshots_written,
            wal_appends=self.wal.appends if self.wal is not None else 0,
        )
        counters.update(self.replication_status())
        return counters

    def _metrics_route(self, request: Request) -> Response:
        return ok({"component": self.metrics()})

    def _dead_letter_route(self, request: Request) -> Response:
        events = list(self.state.dead_letters)
        return ok({"count": len(events), "events": events})

    def _dead_letter_drain_route(self, request: Request) -> Response:
        drained = list(self.state.dead_letters)
        if drained:
            self._commit({"op": "dlq_drain"})
        self.stats.dead_letters_drained += len(drained)
        return ok({"drained": len(drained), "events": drained})

    # -- the StateMachine face: one log, one apply --------------------------

    def _commit(self, record: Dict):
        """Make one state mutation durable, then make it happen.

        The only way the live broker changes its state: the record gets
        the next ``seq``, lands in the WAL (fsync'd — ack-after-fsync
        for whatever the caller sends next), is applied, and streams to
        the standbys.  Returns what :meth:`BrokerState.apply` returns.
        """
        state = self.state
        record["seq"] = state.op_seq + 1
        if self.wal is not None:
            self.wal.append(record)
        result = state.apply(record)
        if self.replication is not None:
            self.replication.record_write(record)
        return result

    def apply(self, record: Dict) -> None:
        """Apply one logged mutation (WAL replay, standby apply): sends
        nothing and arms no timer — see :meth:`activate`."""
        self.state.apply(record)

    def snapshot(self) -> Dict[str, Any]:
        """The broker's full durable state as a JSON-able dict."""
        return self.state.snapshot()

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace all broker state with *state* (a :meth:`snapshot`);
        like :meth:`apply`, arms nothing."""
        self.state.restore(state)

    def activate(self) -> None:
        """Become the live owner of the pending deliveries (after crash
        recovery, at promotion): re-arm their redelivery timers."""
        self.settlement.arm_all()

    def standby(self, name: str) -> "Broker":
        return Broker(
            self.host.network.add_host(name), overload=self.overload,
            delivery_ack_timeout=self.settlement.ack_timeout,
            max_delivery_attempts=self.settlement.max_attempts,
            dead_letter_capacity=self.state.dead_letters.maxlen,
        )

    def reset(self) -> None:
        """Simulate a broker crash-restart: all in-memory state is lost.

        :meth:`recover` restores it when the broker is durable;
        otherwise peers rebuild it (keepalive re-subscription, re-sent
        unacked publications, consumer-side dedup).
        """
        self.state.clear()
        self._retained_sizes.clear()
        self._shedding = False
        self.journal.crash()

    def recover(self) -> Optional[int]:
        """Crash-restart recovery: load the snapshot, replay the WAL tail.

        Returns the number of durable items restored, or None when
        nothing durable is configured.  Pending deliveries get their
        timers re-armed: what was unacknowledged at the crash is
        redelivered, not dropped (consumer-side dedup absorbs repeats).
        """
        if not self.journal.recover():
            return None
        restored = self.state.item_count()
        self.stats.recoveries += 1
        self.stats.recovered_items += restored
        self.activate()
        _trace(self.host, "broker_recovered", restored=restored)
        return restored

    # -- frame boundary ----------------------------------------------------

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        verb = payload.get("verb") if isinstance(payload, dict) else None
        profiler = self.host.network.profiler
        if profiler is None:
            self._handle_frame(message, verb)
            return
        frame = profiler.enter(self.host.name, "pubsub", str(verb or "?"))
        try:
            self._handle_frame(message, verb)
        finally:
            profiler.exit(frame)

    def _handle_frame(self, message: Message, verb) -> None:
        """Validate one frame, then refuse or handle it.

        Only the validation is guarded: a malformed frame is counted,
        traced and dropped, like a real broker ignoring bad frames; an
        error inside a handler is a bug and propagates.
        """
        try:
            _validate(verb, message.payload)
        except (KeyError, TypeError, ConfigurationError) as exc:
            self.stats.frames_rejected += 1
            _trace(self.host, "frame_rejected", sender=message.sender,
                   verb=str(verb), error=repr(exc))
            return
        if self.replication is not None and not self.replication.writable:
            self._refuse(message)
        else:
            self._handlers[verb](message)

    def _refuse(self, message: Message) -> None:
        """Answer a data-plane frame with ``not-primary``.

        A standby (or a fenced deposed primary) accepting it would fork
        the replicated state.  The reply carries the primary hint so the
        peer rotates straight to the promoted broker; frames with no
        reply channel (acks/nacks) are dropped and the primary's
        redelivery timers absorb the loss.
        """
        self.stats.not_primary_refusals += 1
        payload = message.payload
        if payload["verb"] in ("publish", "subscribe"):
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
        for key in ("pub_id", "token"):
            if payload.get(key) is not None:
                reply[key] = payload[key]
        self.host.send(message.sender, port, reply, size=frame_size(reply))

    # -- control plane -----------------------------------------------------

    def _ping(self, message: Message) -> None:
        """Liveness probe (the MQTT PINGREQ/PINGRESP handshake)."""
        self.stats.pings_answered += 1
        pong = {"kind": "pong", "nonce": message.payload.get("nonce")}
        self.host.send(message.sender, message.payload["port"], pong,
                       size=frame_size(pong))

    def _subscribe(self, message: Message) -> None:
        state = self.state
        sub = _Sub.from_record({**message.payload,
                                "subscriber": message.sender})
        sub_id = None
        if sub.token is not None:
            # keepalive re-subscription: same peer, port and token means
            # the same logical subscription — re-ack it, don't duplicate
            sub_id = state.subs.find(sub.subscriber, sub.port, sub.token)
        fresh = sub_id is None
        if fresh:
            sub_id = state.next_sub_id
            self.stats.subscriptions += 1
        else:
            self.stats.duplicate_subscriptions_ignored += 1
        if fresh or state.subs.by_id[sub_id] != sub:
            self._commit({"op": "sub", **sub.to_record(sub_id)})
        send = self.host.send
        ack = {"kind": "sub-ack", "sub_id": sub_id, "token": sub.token}
        send(sub.subscriber, sub.port, ack, size=frame_size(ack))
        if not fresh:
            return
        # late-join state transfer: a new subscriber learns each matching
        # topic's last value at once.  Fire-and-forget even on acked
        # subscriptions: a lost replay only delays the last value until
        # the next live publication
        sizes = self._retained_sizes
        delta = len(str(sub_id)) + 30  # ', "sub_id": N, "retained": true'
        for topic, retained in state.retained.items():
            if levels_match(sub.levels, topic.split("/")):
                held = sizes.get(topic)
                if held is None or held[0] is not retained:  # recovered
                    held = sizes[topic] = (retained, estimate_size(retained))
                self.stats.fanout_deliveries += 1
                send(sub.subscriber, sub.port,
                     dict(retained, sub_id=sub_id, retained=True),
                     size=held[1] + delta)

    def _unsubscribe(self, message: Message) -> None:
        self._drop_sub(message.payload.get("sub_id"))

    def _drop_sub(self, sub_id) -> None:
        if sub_id in self.state.subs.by_id:
            self._commit({"op": "unsub", "sub_id": sub_id})

    # -- publication -------------------------------------------------------

    def _sheds(self, message: Message) -> bool:
        """Backpressure: shed or reject one publication when overloaded.

        A global shedding latch with hysteresis between the two
        watermarks of the :class:`BrokerOverloadConfig`, plus a
        per-publisher quota so one flooder cannot starve the rest.
        """
        config = self.overload
        if config is None:
            return False
        host, payload, publisher = self.host, message.payload, message.sender
        over_quota = self.state.pending_by_publisher.get(publisher, 0) \
            >= config.publisher_quota
        depth = len(self.state.deliveries)
        if self._shedding and depth <= config.low_watermark:
            self._shedding = False
            _trace(host, "broker_shedding_stopped", depth=depth)
        elif not self._shedding and depth >= config.high_watermark:
            self._shedding = True
            _trace(host, "broker_shedding_started", depth=depth)
        if not (self._shedding or over_quota):
            return False
        topic = payload["topic"]
        self.stats.publications_shed += 1
        self.shed_by_topic[topic] = self.shed_by_topic.get(topic, 0) + 1
        if over_quota:
            self.stats.publisher_rejections += 1
        _trace(host, "publication_shed", publisher=publisher, topic=topic,
               cause="quota" if over_quota else "watermark")
        if payload.get("pub_id") is not None and payload.get("ack_port"):
            # the pub/sub analogue of HTTP 429 + Retry-After: tell the
            # publisher to back off; an unreliable publication has no
            # channel to say no on and is shed outright
            reject = {"kind": "pub-reject", "pub_id": payload["pub_id"],
                      "status": 429, "retry_after": config.retry_after}
            host.send(publisher, payload["ack_port"], reject,
                      size=frame_size(reject))
        return True

    def _publish(self, message: Message) -> None:
        if self._sheds(message):
            return
        self.stats.published += 1
        payload = message.payload
        publisher = message.sender
        network = self.host.network
        state = self.state
        topic = payload["topic"]
        event = {
            "kind": "event",
            "topic": topic,
            "payload": payload.get("payload"),
            "published_at": payload.get("published_at", 0.0),
        }
        # the fan-out envelopes differ from `event` only by the small
        # ASCII keys added below, so their wire size is the base size
        # plus an exact per-key delta; the base size is the publish
        # frame's, so the payload is not walked again here
        base_size = retained_size = estimate_size_from(
            message.size, payload, event)
        span = None
        tracer = network.tracer
        if tracer is not None:
            span = _fanout_span(tracer, self.host, payload, topic)
            if span is not None:
                event["trace"] = [span.trace_id, span.span_id]
                base_size += 11 + estimate_size(event["trace"])
        if payload.get("retain"):
            # the span header is request-scoped: replayed with the
            # retained copy at subscribe time it would parent a delivery
            # under a long-finished trace, so the stored copy drops it
            retained = dict(event)
            retained.pop("trace", None)
            # ack-after-fsync: the retained mutation is on disk (and
            # streamed to standbys) before any ack below can be sent
            self._commit({"op": "retain", "topic": topic,
                          "event": retained})
            self._retained_sizes[topic] = (retained, retained_size)
        pub_key = None
        if payload.get("pub_id") is not None and payload.get("ack_port"):
            pub_key = (publisher, payload["ack_port"], payload["pub_id"])
        dead: List[int] = []
        deliveries = 0
        send = self.host.send
        for sub_id, sub_id_delta, sub in state.subs.match(topic):
            if not network.has_host(sub.subscriber):
                dead.append(sub_id)
                continue
            deliveries += 1
            fanout = dict(event)
            fanout["sub_id"] = sub_id
            size = base_size + sub_id_delta
            if sub.ack:
                delivery_id = state.next_delivery_id
                fanout["delivery_id"] = delivery_id
                size += len(str(delivery_id)) + 17  # + ', "delivery_id": N'
                self._commit({
                    "op": "delivery", "delivery_id": delivery_id,
                    "sub_id": sub_id, "subscriber": sub.subscriber,
                    "port": sub.port, "event": dict(fanout),
                    "publisher": publisher, "topic": topic,
                    "pub_key": list(pub_key) if pub_key else None,
                })
                state.deliveries[delivery_id].size = size
                self.settlement.arm(delivery_id)
            send(sub.subscriber, sub.port, fanout, size=size)
        self.stats.fanout_deliveries += deliveries
        for sub_id in dead:
            # the subscriber's host left the network for good
            self._drop_sub(sub_id)
            self.stats.dead_subscriptions_dropped += 1
        if pub_key is not None:
            # end-to-end ack: while acked subscribers hold the event the
            # pub-ack waits for each to settle; the receipt says "the
            # broker has custody", so the publisher's ack timeout does
            # not read slow consumer settling as a dead broker
            kind = "pub-receipt"
            if pub_key not in state.pending_pubs:
                self.stats.publish_acks_sent += 1
                kind = "pub-ack"
            ack = {"kind": kind, "pub_id": pub_key[2]}
            send(publisher, pub_key[1], ack, size=frame_size(ack))
        if span is not None:
            span.attributes["deliveries"] = deliveries
            tracer.finish(span)
