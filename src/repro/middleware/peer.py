"""Peer-side API of the pub/sub middleware.

A :class:`MiddlewarePeer` lives on any simulated host (device-proxy,
measurement database, end-user application) and provides ``publish`` /
``subscribe`` against a :class:`~repro.middleware.broker.Broker`.
Subscriptions carry a local callback; events arrive asynchronously as
the scheduler runs.

Two opt-in hardening mechanisms make a peer survive broker outages:

* **Buffered publication** (``publish_buffer=N``): every publish is
  acknowledged by the broker.  A missing ack marks the broker *suspect*;
  from then on publications land in a bounded FIFO buffer (oldest
  dropped beyond *N*) while a periodic ping probes the broker.  The
  first pong flushes the buffer in order, so data produced during an
  outage reaches subscribers late instead of never.
* **Subscription keepalive** (``keepalive=T``): every *T* simulated
  seconds the peer re-issues all active subscriptions.  The broker
  deduplicates them by token, so a healthy broker sees a no-op while a
  crash-restarted broker (its subscription table lost) is repopulated
  within one keepalive period.  :meth:`resubscribe_all` does the same
  on demand.

Two more mechanisms complete the durable data plane (PR 6):

* **Acked subscriptions** (``subscribe(..., ack=True)``): deliveries
  carry a ``delivery_id`` and the peer acknowledges each one after the
  callback returns.  A callback raising
  :class:`~repro.errors.BackpressureError` sends a *busy* nack (the
  broker redelivers later); any other exception sends a *poison* nack
  (counted toward the broker's dead-letter threshold) and surfaces as a
  ``delivery_poison_nack`` trace event and the peer's
  ``delivery_poison_nacks`` counter.  A
  callback whose work is not durable when it returns takes custody of
  the delivery with :meth:`MiddlewarePeer.defer` and acknowledges it
  later, many at a time, with :meth:`MiddlewarePeer.settle` — the
  measurement DB's group commit.
* **Publish rejection** (``pub-reject``): a saturated broker answers a
  reliable publication with the pub/sub analogue of HTTP 429 +
  Retry-After.  The peer parks the publication in its offline buffer,
  pauses publishing for the advised interval, then flushes — load is
  delayed, not lost, and the broker is not hammered while shedding.
* **Publish receipts** (``pub-receipt``): when the broker defers the
  end-to-end pub-ack until its acked consumers settle, it answers an
  immediate receipt.  A publication with a receipt is given
  ``settle_timeout`` (default ``8 × ack_timeout``) instead of
  ``ack_timeout`` before being re-buffered, so legitimately slow
  consumer settling (ingest queues, busy-nack redelivery) does not
  falsely mark a healthy broker suspect and duplicate the
  publication.  A publication whose final ack never arrives within
  the settle budget is still re-published (at-least-once; consumer
  dedup absorbs it).

With replicated brokers (PR 8), *broker_host* may be a **list** of
broker hosts in seniority order — the pub/sub analogue of the REST
clients' :class:`~repro.network.resilience.FailoverSet`.  The peer
talks to one broker at a time (sticky cursor) and rotates when either
a broker answers ``not-primary`` (a standby or fenced deposed primary;
the reply's primary hint is followed when it names a member of the
set) or the suspect-probe pings go unanswered twice in a row (a dead
broker).  On rotation the peer re-issues every subscription against
the new broker (which replays retained events for genuinely new
subscriptions and dedupes known tokens) and flushes buffered
publications; consumer-side dedup absorbs the re-publications.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, \
    Sequence, Set, Tuple, Union

from repro.errors import BackpressureError, ConfigurationError
from repro.middleware.broker import BROKER_PORT, Event
from repro.middleware.topics import validate_filter, validate_topic
from repro.network.transport import Host, Message, frame_size
from repro.observability.tracing import (
    CONSUMER,
    PRODUCER,
    decode_header,
    emit,
)

EventCallback = Callable[[Event], None]
#: handle to one broker-tracked delivery: (origin broker, delivery id)
Delivery = Tuple[str, int]
#: most event frames a peer holds for outstanding sub-acks
_EARLY_LIMIT = 4096


class Subscription:
    """Handle to one active subscription; cancel with :meth:`unsubscribe`."""

    def __init__(self, peer: "MiddlewarePeer", token: int, pattern: str,
                 callback: EventCallback, ack: bool = False):
        self.peer = peer
        self.token = token
        self.pattern = pattern
        self.callback = callback
        self.ack = ack
        self.sub_id: Optional[int] = None  # assigned by broker ack
        self.events_received = 0
        self.active = True

    def unsubscribe(self) -> None:
        """Stop receiving events on this subscription."""
        if self.active:
            self.active = False
            self.peer._unsubscribe(self)


class MiddlewarePeer:
    """Publish/subscribe endpoint on a simulated host."""

    def __init__(self, host: Host,
                 broker_host: Union[str, Sequence[str]],
                 publish_buffer: Optional[int] = None,
                 ack_timeout: float = 2.0,
                 keepalive: Optional[float] = None,
                 settle_timeout: Optional[float] = None):
        if publish_buffer is not None and publish_buffer < 1:
            raise ConfigurationError("publish buffer must hold >= 1 event")
        if ack_timeout <= 0:
            raise ConfigurationError("ack timeout must be positive")
        if settle_timeout is None:
            # must exceed the consumers' worst-case settle time (ingest
            # queues draining, busy-nack redelivery rounds at the
            # broker's delivery_ack_timeout) or healthy deferred acks
            # are read as loss and re-published
            settle_timeout = 8.0 * ack_timeout
        if settle_timeout <= 0:
            raise ConfigurationError("settle timeout must be positive")
        self.host = host
        if isinstance(broker_host, str):
            self._brokers: List[str] = [broker_host]
        else:
            self._brokers = list(broker_host)
        if not self._brokers:
            raise ConfigurationError("peer needs >= 1 broker host")
        self._broker_index = 0
        self.broker_failovers = 0
        self._probes_unanswered = 0
        self.events_published = 0
        self.publish_buffer = publish_buffer
        self.ack_timeout = ack_timeout
        self.settle_timeout = settle_timeout
        self.publications_acked = 0
        self.publication_receipts = 0
        self.publications_buffered = 0
        self.publications_dropped = 0
        self.publications_flushed = 0
        self.publications_rejected = 0
        self.deliveries_acked = 0
        self.deliveries_nacked = 0
        self.delivery_poison_nacks = 0
        self.resubscribes_sent = 0
        self.dropped_by_topic: Dict[str, int] = {}
        self._paused_until = float("-inf")
        self._port = host.network.allocate_port("pubsub-peer")
        self._token_ids = itertools.count(1)
        self._by_token: Dict[int, Subscription] = {}
        self._by_sub_id: Dict[int, Subscription] = {}
        #: tokens whose first sub-ack has not arrived, and the event
        #: frames that overtook theirs
        self._unacked: Set[int] = set()
        self._early: List[Message] = []
        self._pub_ids = itertools.count(1)
        self._pending_pubs: Dict[int, dict] = {}
        #: pub_ids the broker sent a pub-receipt for (custody taken,
        #: consumers settling) whose settle budget has not been spent
        self._receipts: Set[int] = set()
        self._buffer: Deque[dict] = deque()
        self._broker_suspect = False
        self._probe_task = None
        self._ping_ids = itertools.count(1)
        self._keepalive_task = None
        #: the acked delivery whose callback is running (see :meth:`defer`)
        self._dispatching: Optional[Delivery] = None
        if keepalive is not None:
            self._keepalive_task = host.network.scheduler.every(
                keepalive, self._keepalive
            )
        host.bind(self._port, self._on_message)

    @property
    def broker_host(self) -> str:
        """The broker this peer currently talks to (rotation cursor)."""
        return self._brokers[self._broker_index]

    @property
    def broker_hosts(self) -> List[str]:
        """The full broker rotation, seniority order."""
        return list(self._brokers)

    def rotate_broker(self, target: Optional[str] = None) -> str:
        """Advance the broker rotation (or jump to *target* if known).

        Re-issues every active subscription against the new broker so
        acked-delivery dispatch and retained replay continue there.
        Returns the new current broker; a no-op for single-broker peers
        or when *target* is already current.
        """
        if len(self._brokers) <= 1:
            return self.broker_host
        previous = self.broker_host
        if target in self._brokers:
            index = self._brokers.index(target)
            if index == self._broker_index:
                return previous
            self._broker_index = index
        else:
            self._broker_index = \
                (self._broker_index + 1) % len(self._brokers)
        self.broker_failovers += 1
        self._probes_unanswered = 0
        emit(self.host.network, "broker_failover", host=self.host.name,
             peer=self.host.name, previous=previous,
             broker=self.broker_host)
        self.resubscribe_all()
        return self.broker_host

    def _on_not_primary(self, payload: dict) -> None:
        """A standby/fenced broker refused a frame: follow its hint.

        Any pending publication it refused is re-buffered, the rotation
        moves (to the hinted primary when it is in the set), and the
        buffer is flushed at the new broker — the refusal proves *some*
        broker is alive, and a flush landing on another non-primary
        just loops back here until the rotation settles on the
        promoted member.
        """
        pub_id = payload.get("pub_id")
        if pub_id is not None:
            envelope = self._pending_pubs.pop(pub_id, None)
            self._receipts.discard(pub_id)
            if envelope is not None:
                self._enqueue(envelope)
        before = self.broker_host
        self.rotate_broker(payload.get("primary"))
        if self.broker_host == before:
            # nowhere else to go (single-entry rotation): pace retries
            # at the probe period instead of hot-looping
            # flush -> refusal -> flush against the refusing broker
            self._mark_suspect()
            return
        self._broker_alive()

    @property
    def broker_suspect(self) -> bool:
        """True while publish acks are missing and the probe is running."""
        return self._broker_suspect

    @property
    def buffered(self) -> int:
        """Publications currently parked in the offline buffer."""
        return len(self._buffer)

    @property
    def paused(self) -> bool:
        """True while honouring a broker pub-reject's Retry-After."""
        return self.host.network.scheduler.now < self._paused_until

    def close(self) -> None:
        """Stop the periodic keepalive/probe tasks (teardown)."""
        if self._keepalive_task is not None:
            self._keepalive_task.stop()
            self._keepalive_task = None
        if self._probe_task is not None:
            self._probe_task.stop()
            self._probe_task = None

    def _send(self, broker: str, frame: dict) -> None:
        """Send *frame* to *broker*, its size counted, not walked."""
        self.host.send(broker, BROKER_PORT, frame, size=frame_size(frame))

    # -- publication ------------------------------------------------------

    def publish(self, topic: str, payload: Any, retain: bool = False
                ) -> None:
        """Publish *payload* on concrete *topic* via the broker.

        With *retain*, the broker stores the event as the topic's last
        value and replays it to future subscribers on subscribe.
        """
        validate_topic(topic)
        self.events_published += 1
        envelope = {
            "verb": "publish",
            "topic": topic,
            "payload": payload,
            "published_at": self.host.network.scheduler.now,
        }
        if retain:
            # the broker reads a missing "retain" as false
            envelope["retain"] = True
        tracer = self.host.network.tracer
        if tracer is not None:
            # producer span: the local hand-off to the broker.  Its
            # context rides in the envelope (and survives buffering),
            # so the broker fanout and every delivery nest under it.
            span = tracer.start_span(f"publish {topic}", kind=PRODUCER,
                                     host=self.host.name)
            envelope["trace"] = [span.trace_id, span.span_id]
            tracer.finish(span)
        if self.publish_buffer is None:
            self._send(self.broker_host, envelope)
            return
        if self._broker_suspect or self.paused:
            self._enqueue(envelope)
            return
        self._send_reliable(envelope)

    def _send_reliable(self, envelope: dict) -> None:
        pub_id = next(self._pub_ids)
        self._pending_pubs[pub_id] = envelope
        tracked = dict(envelope)
        tracked["pub_id"] = pub_id
        tracked["ack_port"] = self._port
        self._send(self.broker_host, tracked)
        self.host.network.scheduler.schedule(
            self.ack_timeout, self._pub_timeout, pub_id
        )

    def _pub_timeout(self, pub_id: int) -> None:
        envelope = self._pending_pubs.get(pub_id)
        if envelope is None:
            self._receipts.discard(pub_id)
            return  # acked in time
        if pub_id in self._receipts:
            # the broker holds the publication and its consumers are
            # settling (deferred end-to-end ack): allow the settle
            # budget before treating the publication as lost
            self._receipts.discard(pub_id)
            self.host.network.scheduler.schedule(
                self.settle_timeout, self._pub_timeout, pub_id
            )
            return
        self._pending_pubs.pop(pub_id, None)
        self._enqueue(envelope)
        self._mark_suspect()

    def _enqueue(self, envelope: dict) -> None:
        if len(self._buffer) >= self.publish_buffer:
            dropped = self._buffer.popleft()
            topic = str(dropped.get("topic"))
            self.publications_dropped += 1
            self.dropped_by_topic[topic] = \
                self.dropped_by_topic.get(topic, 0) + 1
            emit(self.host.network, "publication_dropped",
                 host=self.host.name, peer=self.host.name,
                 topic=dropped.get("topic"))
        self._buffer.append(envelope)
        self.publications_buffered += 1

    def _mark_suspect(self) -> None:
        if self._broker_suspect:
            return
        self._broker_suspect = True
        emit(self.host.network, "broker_suspect", host=self.host.name,
             peer=self.host.name, broker=self.broker_host)
        if self._probe_task is None:
            self._probe_task = self.host.network.scheduler.every(
                self.ack_timeout, self._probe
            )

    def _probe(self) -> None:
        if not self._broker_suspect:
            return
        # still suspect means the previous probe's pong never came:
        # after two silent probes try the next broker in the rotation
        # (a dead broker cannot even say not-primary)
        self._probes_unanswered += 1
        if self._probes_unanswered >= 3 and len(self._brokers) > 1:
            self.rotate_broker()
        self._send(self.broker_host, {
            "verb": "ping",
            "port": self._port,
            "nonce": next(self._ping_ids),
        })

    def _broker_alive(self) -> None:
        """An ack or pong arrived: flush everything parked."""
        self._probes_unanswered = 0
        recovered = self._broker_suspect
        if self._broker_suspect:
            self._broker_suspect = False
            if self._probe_task is not None:
                self._probe_task.stop()
                self._probe_task = None
        if self.paused:
            return  # honour the broker's Retry-After before flushing
        flushed = self._flush()
        if recovered:
            emit(self.host.network, "buffer_flush", host=self.host.name,
                 peer=self.host.name, broker=self.broker_host,
                 flushed=flushed)

    def _flush(self) -> int:
        """Re-send parked publications in order until the buffer is
        empty, the broker turns suspect or a Retry-After pauses us;
        returns how many were sent."""
        flushed = 0
        while self._buffer and not self._broker_suspect and not self.paused:
            self.publications_flushed += 1
            flushed += 1
            self._send_reliable(self._buffer.popleft())
        return flushed

    def _on_pub_reject(self, payload: dict) -> None:
        """Broker said 429: park the publication and back off."""
        envelope = self._pending_pubs.pop(payload.get("pub_id"), None)
        self._receipts.discard(payload.get("pub_id"))
        self.publications_rejected += 1
        if envelope is not None:
            self._enqueue(envelope)
        retry_after = float(payload.get("retry_after", self.ack_timeout))
        now = self.host.network.scheduler.now
        resume_at = now + retry_after
        if resume_at > self._paused_until:
            self._paused_until = resume_at
            self.host.network.scheduler.schedule(
                retry_after, self._resume_publishing
            )
        emit(self.host.network, "publication_rejected",
             host=self.host.name, peer=self.host.name,
             broker=self.broker_host, retry_after=retry_after)

    def _resume_publishing(self) -> None:
        if self.paused or self._broker_suspect:
            return  # a later reject extended the pause, or broker is down
        flushed = self._flush()
        if flushed:
            emit(self.host.network, "buffer_flush", host=self.host.name,
                 peer=self.host.name, broker=self.broker_host,
                 flushed=flushed)

    # -- subscription -----------------------------------------------------

    def subscribe(self, pattern: str, callback: EventCallback,
                  ack: bool = False) -> Subscription:
        """Subscribe *callback* to events matching *pattern*.

        The subscription becomes live once the broker has it (half a
        round-trip later); events published before that are not
        delivered, matching real broker semantics.  The broker's sub-ack
        names the subscription's id; a retained replay or live event
        that overtakes it is held until it lands.

        With *ack*, every delivery is acknowledged back to the broker
        after the callback returns (at-least-once) unless the callback
        took custody of it (:meth:`defer`); a callback raising
        :class:`~repro.errors.BackpressureError` nacks *busy*, any
        other exception nacks *poison* (see the broker's dead-letter
        queue).
        """
        validate_filter(pattern)
        token = next(self._token_ids)
        subscription = Subscription(self, token, pattern, callback, ack=ack)
        self._by_token[token] = subscription
        self._unacked.add(token)
        self._send_subscribe(subscription)
        if len(self._brokers) > 1:
            # a lost sub-ack is a subscriber-only peer's first (and
            # possibly only) sign the broker is down: arm the suspect
            # probe so the rotation can steer this subscription to a
            # live broker (pointless without a rotation — and skipping
            # it keeps single-broker schedulers free of timer noise)
            self.host.network.scheduler.schedule(
                self.ack_timeout, self._sub_ack_check, subscription.token
            )
        return subscription

    def _sub_ack_check(self, token: int) -> None:
        subscription = self._by_token.get(token)
        if subscription is None or not subscription.active \
                or subscription.sub_id is not None:
            return
        self._mark_suspect()

    def _send_subscribe(self, subscription: Subscription) -> None:
        frame = {
            "verb": "subscribe",
            "pattern": subscription.pattern,
            "port": self._port,
            "token": subscription.token,
        }
        if subscription.ack:
            # the broker reads a missing "ack" as false
            frame["ack"] = True
        self._send(self.broker_host, frame)

    def resubscribe_all(self) -> int:
        """Re-issue every active subscription (broker dedupes by token).

        Used after a broker crash-restart (manually or via the periodic
        keepalive) to repopulate the broker's lost subscription table;
        returns the number of subscriptions re-sent.
        """
        sent = 0
        for subscription in self._by_token.values():
            if subscription.active:
                self._send_subscribe(subscription)
                sent += 1
        self.resubscribes_sent += sent
        return sent

    def _keepalive(self) -> None:
        self.resubscribe_all()

    def _unsubscribe(self, subscription: Subscription) -> None:
        """Cancel at the broker and forget *subscription* — once its
        sub-ack has named its id; until then the sub-ack does both."""
        sub_id = subscription.sub_id
        if sub_id is not None:
            self._by_token.pop(subscription.token, None)
            if self._by_sub_id.get(sub_id) is subscription:
                del self._by_sub_id[sub_id]
            self._send(self.broker_host,
                       {"verb": "unsubscribe", "sub_id": sub_id})

    # -- inbound ----------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        kind = payload.get("kind")
        profiler = self.host.network.profiler
        if profiler is None:
            self._handle_frame(message, payload, kind)
            return
        frame = profiler.enter(self.host.name, "peer", kind or "?")
        try:
            self._handle_frame(message, payload, kind)
        finally:
            profiler.exit(frame)

    def _handle_frame(self, message: Message, payload, kind) -> None:
        """Dispatch one peer frame by kind (profiled by the caller).

        ``event`` — the fan-out delivery — is checked first: it
        outnumbers every control frame combined on a busy bus.
        """
        if kind == "event":
            sender = message.sender
            if sender != self._brokers[self._broker_index] \
                    and sender in self._brokers:
                # deliveries only ever come from the live primary: a
                # promoted standby redelivering the replicated pending
                # deliveries is this subscriber's cue to rotate (a
                # subscriber-only peer has no publish timeouts to
                # detect the failover otherwise)
                self.rotate_broker(sender)
            # the broker fans out one copy per matching subscription and
            # tags it with the subscription id, so dispatch is exact even
            # when several local filters overlap
            sub = self._by_sub_id.get(payload.get("sub_id"))
            if sub is None:
                # it overtook the sub-ack naming its sub_id (sent first):
                # held while a first sub-ack is outstanding, else it is
                # a cancelled subscription's and dropped
                if self._unacked and len(self._early) < _EARLY_LIMIT:
                    self._early.append(message)
                return
            if not sub.active:
                return
            sub.events_received += 1
            network = self.host.network
            now = network.scheduler.clock._now
            event = Event(
                payload["topic"],
                payload["payload"],
                payload["published_at"],
                now,
                True if payload.get("retained") else False,
            )
            span = None
            tracer = network.tracer
            if tracer is not None:
                parent = decode_header(payload.get("trace"))
                if parent is not None:
                    # consumer span: child of the broker fanout span, so
                    # a delivery nests publish -> fanout -> deliver and
                    # its duration is the subscriber callback time
                    span = tracer.start_span(
                        f"deliver {event.topic}", kind=CONSUMER,
                        host=self.host.name, parent=parent,
                        attributes={
                            "latency": now - event.published_at,
                            "retained": event.retained,
                        },
                    )
            if span is not None:
                previous = tracer.active
                tracer.active = span
                try:
                    self._dispatch(sub, event, payload, sender)
                finally:
                    tracer.active = previous
                    tracer.finish(span)
            elif payload.get("delivery_id") is None:
                # fire-and-forget delivery (no broker-tracked ack):
                # run the callback directly, exceptions propagate to
                # the scheduler exactly as _dispatch would
                sub.callback(event)
            else:
                self._dispatch(sub, event, payload, sender)
            return
        if kind == "sub-ack":
            sub = self._by_token.get(payload.get("token"))
            self._unacked.discard(payload.get("token"))
            early = self._early
            if early:
                self._early = [m for m in early if m.payload.get("sub_id")
                               != payload.get("sub_id")] \
                    if self._unacked else []
            if sub is not None and sub.active:
                if sub.sub_id is not None and sub.sub_id != payload["sub_id"]:
                    # broker restarted and assigned a fresh id
                    self._by_sub_id.pop(sub.sub_id, None)
                sub.sub_id = payload["sub_id"]
                self._by_sub_id[sub.sub_id] = sub
                for held in early:
                    if held.payload.get("sub_id") == sub.sub_id:
                        self._handle_frame(held, held.payload, "event")
            elif payload.get("sub_id") is not None:
                # cancelled before this ack landed, or cancelled and
                # forgotten while a resubscribe was in flight
                self._by_token.pop(payload.get("token"), None)
                self._send(self.broker_host, {
                    "verb": "unsubscribe", "sub_id": payload["sub_id"]})
            return
        if kind == "pub-ack":
            if self._pending_pubs.pop(payload.get("pub_id"), None) \
                    is not None:
                self.publications_acked += 1
            self._receipts.discard(payload.get("pub_id"))
            self._broker_alive()
            return
        if kind == "pub-receipt":
            # broker took custody but its consumers are still settling:
            # extend this publication's patience to the settle budget
            # (see _pub_timeout) — and the broker is evidently alive
            if payload.get("pub_id") in self._pending_pubs:
                self._receipts.add(payload["pub_id"])
                self.publication_receipts += 1
            self._broker_alive()
            return
        if kind == "pub-reject":
            self._on_pub_reject(payload)
            return
        if kind == "pong":
            self._broker_alive()
            return
        if kind == "not-primary":
            self._on_not_primary(payload)

    def _dispatch(self, sub: Subscription, event: Event,
                  payload: dict, origin: str) -> None:
        """Run the callback; settle the delivery if the broker tracks it.

        Retained replays arrive without a ``delivery_id`` even on acked
        subscriptions and stay fire-and-forget.  Deliveries on plain
        subscriptions keep the historical behaviour (exceptions
        propagate to the scheduler).  Acks answer *origin* — the broker
        that actually delivered — which under failover may not be the
        rotation cursor yet.  A callback that called :meth:`defer` is
        not acked here: it settles the delivery itself, later.
        """
        delivery_id = payload.get("delivery_id")
        if delivery_id is None:
            sub.callback(event)
            return
        self._dispatching = (origin, delivery_id)
        try:
            sub.callback(event)
        except BackpressureError:
            self._nack(origin, delivery_id, poison=False)
        except Exception as exc:
            # a consumer bug and a poison payload both end here and both
            # must nack rather than unwind the scheduler; the event and
            # the counter say which exception it was, so the two can be
            # told apart without a print statement
            self._nack(origin, delivery_id, poison=True)
            self.delivery_poison_nacks += 1
            emit(self.host.network, "delivery_poison_nack",
                 host=self.host.name, peer=self.host.name,
                 topic=event.topic, error=type(exc).__name__,
                 detail=str(exc))
        else:
            if self._dispatching is not None:
                self.deliveries_acked += 1
                self._send(origin, {
                    "verb": "delivery_ack", "delivery_id": delivery_id,
                })
        finally:
            self._dispatching = None

    def _nack(self, origin: str, delivery_id: int, poison: bool) -> None:
        self.deliveries_nacked += 1
        self._send(origin, {
            "verb": "delivery_nack", "delivery_id": delivery_id,
            "poison": poison,
        })

    def defer(self) -> Optional[Delivery]:
        """Take custody of the delivery being dispatched.

        For the callback of an acked subscription, as the last thing it
        does: the peer then sends no ack when the callback returns, and
        the caller passes the returned handle to :meth:`settle` once the
        delivery's effects are durable.  A handle that is never settled
        (the consumer crashed) is simply redelivered by the broker's ack
        timeout.  Returns None when there is nothing to settle — a
        retained replay, an unacked subscription.
        """
        delivery, self._dispatching = self._dispatching, None
        return delivery

    def settle(self, deliveries: Iterable[Delivery]) -> None:
        """Acknowledge *deliveries*: one ``delivery_ack`` frame per
        origin broker, carrying every delivery id it is owed."""
        by_origin: Dict[str, List[int]] = {}
        for origin, delivery_id in deliveries:
            by_origin.setdefault(origin, []).append(delivery_id)
        for origin, delivery_ids in by_origin.items():
            self.deliveries_acked += len(delivery_ids)
            self._send(origin, {
                "verb": "delivery_ack", "delivery_ids": delivery_ids,
            })


def connect(host: Host, broker_host: Union[str, Sequence[str]]
            ) -> MiddlewarePeer:
    """Create a middleware peer on *host* talking to *broker_host*.

    *broker_host* may be a single host name or a list of replicated
    broker hosts in seniority order (the peer's failover rotation).
    """
    hosts = [broker_host] if isinstance(broker_host, str) \
        else list(broker_host)
    for name in hosts:
        if not host.network.has_host(name):
            raise ConfigurationError(
                f"broker host {name!r} is not on the network"
            )
    return MiddlewarePeer(host, broker_host)
