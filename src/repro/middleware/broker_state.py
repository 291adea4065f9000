"""Durable state of the topic broker: no host, no scheduler, no sends.

:class:`BrokerState` is everything a broker must not lose — the
subscription table, retained events, pending acked deliveries with the
publishers' deferred pub-acks, the dead-letter queue — and it changes
in exactly one way: :meth:`BrokerState.apply` of a log record.  The
live :class:`~repro.middleware.broker.Broker` logs a record and then
applies it, crash recovery replays the WAL through the same method and
a standby applies the replicated log through it too, so the three
reach the same state by construction rather than by test.

The state half also owns the only (de)serialisation of a subscription
and of a pending delivery (``from_record`` / ``to_record``): the WAL
record, the snapshot entry and the live path all go through them.

Ownership rule: ``apply`` and ``restore`` keep references into the
record they are given (a committed record is never mutated afterwards);
``snapshot`` copies on the way out.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.middleware.topics import MULTI, SINGLE, levels_match

#: distinct concrete topics whose match sets the table caches
_MATCH_CACHE_CAP = 1024

PubKey = Tuple[str, str, int]


@dataclass
class _Sub:
    """One live subscription in the broker's table.

    Immutable by convention (match-cache entries hold it): a keepalive
    that changes a subscription logs a new ``sub`` record replacing it.
    """

    pattern: str
    subscriber: str
    port: str
    token: Optional[int] = None
    #: deliveries to this subscription must be acknowledged
    ack: bool = False

    @cached_property
    def levels(self) -> Tuple[str, ...]:
        """The filter's levels, split once: matching compares levels."""
        return tuple(self.pattern.split("/"))

    @classmethod
    def from_record(cls, record: Dict) -> "_Sub":
        return cls(sys.intern(record["pattern"]), record["subscriber"],
                   record["port"], record.get("token"),
                   bool(record.get("ack", False)))

    def to_record(self, sub_id: int) -> Dict:
        return {"sub_id": sub_id, "pattern": self.pattern,
                "subscriber": self.subscriber, "port": self.port,
                "token": self.token, "ack": self.ack}


@dataclass
class _PendingDelivery:
    """One unacknowledged delivery to an acked subscription.

    ``attempts``, ``poison_count`` and ``generation`` are the redelivery
    budget: soft state of the protocol half, which mutates them in
    place.  The first two ride along in snapshots, none is logged — a
    delivery rebuilt from its WAL record starts a fresh budget.
    """

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
    pub_key: Optional[PubKey] = None
    #: bumped on every redelivery; a pending redelivery timer from an
    #: earlier send is stale and must not redeliver again
    generation: int = 0
    #: the event's wire size as first sent; volatile, so a restored
    #: delivery is walked once, at its first redelivery
    size: Optional[int] = field(default=None, compare=False)

    @classmethod
    def from_record(cls, record: Dict) -> "_PendingDelivery":
        pub_key = record.get("pub_key")
        return cls(record["delivery_id"], record["sub_id"],
                   record["subscriber"], record["port"], record["event"],
                   record["publisher"], record["topic"],
                   record.get("attempts", 1), record.get("poison_count", 0),
                   tuple(pub_key) if pub_key else None)

    def dead_letter_entry(self, reason: str, now: float) -> Dict:
        """This delivery as an entry of the dead-letter queue."""
        return {"topic": self.topic, "payload": self.event.get("payload"),
                "publisher": self.publisher,
                "published_at": self.event.get("published_at", 0.0),
                "attempts": self.attempts, "reason": reason,
                "dead_lettered_at": now}

    def to_record(self) -> Dict:
        return {"delivery_id": self.delivery_id, "sub_id": self.sub_id,
                "subscriber": self.subscriber, "port": self.port,
                "event": dict(self.event), "publisher": self.publisher,
                "topic": self.topic, "attempts": self.attempts,
                "poison_count": self.poison_count,
                "pub_key": list(self.pub_key) if self.pub_key else None}


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


class SubscriptionTable:
    """``sub_id -> subscription`` plus the per-topic match cache.

    Publish fan-out must not re-match wildcards per event, so
    :meth:`match` caches, per concrete topic, the matching
    subscriptions in subscription order.  Every mutator keeps the cache
    current itself, replacing each set it changes (an iterating caller
    never sees one move), and the cache is bounded so a
    topic-cardinality explosion cannot leak memory.
    """

    def __init__(self) -> None:
        #: sub_id -> subscription, in subscription order; read it
        #: freely, change it only through the three mutators below
        self.by_id: Dict[int, _Sub] = {}
        #: sub_id -> its match-set entry (sub_id, wire bytes its
        #: ``sub_id`` key adds to a fan-out envelope, subscription), in
        #: subscription order; one per subscription, shared by the sets
        self._entries: Dict[int, Tuple[int, int, _Sub]] = {}
        #: topic -> the entries of the subscriptions that match it
        self.cache: Dict[str, List[Tuple[int, int, _Sub]]] = {}

    def find(self, subscriber: str, port: str, token) -> Optional[int]:
        """Id of the subscription a keepalive re-subscribe refers to."""
        for sub_id, sub in self.by_id.items():
            if sub.subscriber == subscriber and sub.port == port \
                    and sub.token == token:
                return sub_id
        return None

    def add(self, sub_id: int, sub: _Sub) -> None:
        """Insert, or replace in place, subscription *sub_id*."""
        if sub_id in self.by_id:
            self.cache.clear()  # the new filter may match other topics
        self.by_id[sub_id] = sub
        # ', "sub_id": N' — precomputed so fan-out sizes an envelope
        # once per publish, not once per subscriber
        entry = self._entries[sub_id] = (sub_id, len(str(sub_id)) + 12, sub)
        # a new id is last in subscription order, so last in each set
        for topic in self._cached_topics(sub):
            self.cache[topic] = self.cache[topic] + [entry]

    def remove(self, sub_id) -> None:
        sub = self.by_id.pop(sub_id, None)
        self._entries.pop(sub_id, None)
        for topic in self._cached_topics(sub) if sub is not None else ():
            self.cache[topic] = [entry for entry in self.cache[topic]
                                 if entry[0] != sub_id]

    def replace_all(self, subs: Iterable[Tuple[int, _Sub]]) -> None:
        self.by_id, self._entries = {}, {}
        self.cache.clear()
        for sub_id, sub in subs:
            self.add(sub_id, sub)

    def _cached_topics(self, sub: _Sub) -> List[str]:
        """The topics in the cache that *sub*'s filter matches."""
        levels = sub.levels
        if SINGLE in levels or MULTI in levels:
            return [topic for topic in self.cache
                    if levels_match(levels, topic.split("/"))]
        return [sub.pattern] if sub.pattern in self.cache else []

    def match(self, topic: str) -> List[Tuple[int, int, _Sub]]:
        """Subscriptions whose pattern matches concrete *topic*."""
        matched = self.cache.get(topic)
        if matched is None:
            levels = topic.split("/")
            matched = [entry for entry in self._entries.values()
                       if levels_match(entry[2].levels, levels)]
            if len(self.cache) >= _MATCH_CACHE_CAP:
                self.cache.clear()
            self.cache[topic] = matched
        return matched


class BrokerState:
    """The broker's replicable state and its one transition function."""

    def __init__(self, dead_letter_capacity: int) -> None:
        self.subs = SubscriptionTable()
        #: topic -> last retained event (publish with ``retain``)
        self.retained: Dict[str, dict] = {}
        #: delivery_id -> unacknowledged delivery
        self.deliveries: Dict[int, _PendingDelivery] = {}
        #: (publisher, ack_port, pub_id) -> deferred end-to-end pub-ack
        self.pending_pubs: Dict[PubKey, _PendingPublish] = {}
        #: publisher host -> pending delivery count (fairness accounting)
        self.pending_by_publisher: Dict[str, int] = {}
        self.dead_letters: Deque[dict] = deque(maxlen=dead_letter_capacity)
        self.clear()

    def clear(self) -> None:
        """Forget everything: a crash, or the first half of a restore."""
        self.subs.replace_all(())
        self.retained.clear()
        self.deliveries.clear()
        self.pending_pubs.clear()
        self.pending_by_publisher.clear()
        self.dead_letters.clear()
        #: ``seq`` of the last applied record; persisted in snapshots so
        #: a WAL tail overlapping the snapshot replays idempotently
        self.op_seq = 0
        self.next_sub_id = 1
        self.next_delivery_id = 1

    def item_count(self) -> int:
        """Durable items held (what a recovery reports as restored)."""
        return len(self.retained) + len(self.subs.by_id) \
            + len(self.deliveries) + len(self.dead_letters)

    # -- the transition function -------------------------------------------

    def apply(self, record: Dict) -> Optional[_PendingPublish]:
        """Apply one log record — the only way this state changes.

        A record at or below :attr:`op_seq` is already contained (a
        snapshot covered it) and is absorbed; an unknown ``op`` is
        ignored so a newer writer's log cannot wedge an older reader.
        Returns the publication a ``settle`` completed, if any: the
        live primary answers its publisher, replay and standbys discard
        it (that ack was, or is, the live primary's to send).
        """
        seq = record.get("seq", 0)
        if seq:
            if seq <= self.op_seq:
                return None
            self.op_seq = seq
        op = record.get("op")
        if op == "retain":
            self.retained[record["topic"]] = record["event"]
        elif op == "sub":
            sub_id = record["sub_id"]
            self.subs.add(sub_id, _Sub.from_record(record))
            self.next_sub_id = max(self.next_sub_id, sub_id + 1)
        elif op == "unsub":
            self.subs.remove(record["sub_id"])
        elif op == "delivery":
            self._hold(record)
        elif op == "settle":
            return self._settle(record)
        elif op == "dlq":
            self.dead_letters.append(record["entry"])
        elif op == "dlq_drain":
            self.dead_letters.clear()
        return None

    def _hold(self, record: Dict, failed_pubs=frozenset()) -> None:
        """Hold one pending delivery and its share of a deferred pub-ack.

        *failed_pubs* are a snapshot's publications whose pub-ack is
        already being withheld.
        """
        delivery_id = record["delivery_id"]
        if delivery_id in self.deliveries:
            return
        delivery = _PendingDelivery.from_record(record)
        self.deliveries[delivery_id] = delivery
        self.next_delivery_id = max(self.next_delivery_id, delivery_id + 1)
        self.pending_by_publisher[delivery.publisher] = \
            self.pending_by_publisher.get(delivery.publisher, 0) + 1
        pub_key = delivery.pub_key
        if pub_key is not None:
            pending_pub = self.pending_pubs.get(pub_key)
            if pending_pub is None:
                pending_pub = self.pending_pubs[pub_key] = _PendingPublish(
                    *pub_key, failed=pub_key in failed_pubs)
            pending_pub.remaining.add(delivery_id)

    def _settle(self, record: Dict) -> Optional[_PendingPublish]:
        delivery = self.deliveries.pop(record["delivery_id"], None)
        if delivery is None:
            return None
        count = self.pending_by_publisher.get(delivery.publisher, 0) - 1
        if count > 0:
            self.pending_by_publisher[delivery.publisher] = count
        else:
            self.pending_by_publisher.pop(delivery.publisher, None)
        pending_pub = self.pending_pubs.get(delivery.pub_key)
        if pending_pub is None:
            return None
        if not record.get("handled", True):
            pending_pub.failed = True
        pending_pub.remaining.discard(delivery.delivery_id)
        if pending_pub.remaining:
            return None
        return self.pending_pubs.pop(delivery.pub_key)

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The full state as a JSON-able dict (persisted snapshot body
        and replication snapshot payload alike)."""
        return {
            "op_seq": self.op_seq,
            "next_sub_id": self.next_sub_id,
            "next_delivery_id": self.next_delivery_id,
            "retained": {topic: dict(event)
                         for topic, event in self.retained.items()},
            "subs": [sub.to_record(sub_id)
                     for sub_id, sub in self.subs.by_id.items()],
            "deliveries": [delivery.to_record()
                           for delivery in self.deliveries.values()],
            "failed_pubs": [list(key)
                            for key, pub in self.pending_pubs.items()
                            if pub.failed],
            "dead_letters": [dict(entry) for entry in self.dead_letters],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Replace everything with *state* (a :meth:`snapshot`)."""
        self.clear()
        self.op_seq = state.get("op_seq", 0)
        self.next_sub_id = state.get("next_sub_id", 1)
        self.next_delivery_id = state.get("next_delivery_id", 1)
        self.retained.update(state.get("retained", {}))
        self.subs.replace_all((sub["sub_id"], _Sub.from_record(sub))
                              for sub in state.get("subs", []))
        failed = {tuple(key) for key in state.get("failed_pubs", [])}
        for record in state.get("deliveries", []):
            self._hold(record, failed)
        self.dead_letters.extend(state.get("dead_letters", []))
