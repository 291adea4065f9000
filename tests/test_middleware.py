"""Tests for the pub/sub broker and peer API."""

import pytest

from repro.errors import ConfigurationError
from repro.middleware.broker import Broker
from repro.middleware.peer import connect
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


@pytest.fixture
def broker(net):
    return Broker(net.add_host("broker"))


def make_peer(net, name):
    return connect(net.add_host(name), "broker")


class TestPublishSubscribe:
    def test_event_reaches_subscriber(self, net, broker):
        publisher = make_peer(net, "pub")
        subscriber = make_peer(net, "sub")
        events = []
        subscriber.subscribe("metrics/#", events.append)
        net.scheduler.run_until_idle()  # let the subscription register
        publisher.publish("metrics/power", {"w": 120})
        net.scheduler.run_until_idle()
        assert len(events) == 1
        assert events[0].topic == "metrics/power"
        assert events[0].payload == {"w": 120}
        # a delivery names no publisher (no subscriber reads one): what
        # the subscriber gets is the topic, the payload and the times
        assert not events[0].retained
        assert not hasattr(events[0], "publisher")
        assert events[0].delivered_at > events[0].published_at

    def test_non_matching_topic_not_delivered(self, net, broker):
        publisher = make_peer(net, "pub")
        subscriber = make_peer(net, "sub")
        events = []
        subscriber.subscribe("metrics/energy", events.append)
        net.scheduler.run_until_idle()
        publisher.publish("metrics/power", 1)
        net.scheduler.run_until_idle()
        assert events == []

    def test_multiple_subscribers_fanout(self, net, broker):
        publisher = make_peer(net, "pub")
        inboxes = []
        for i in range(5):
            inbox = []
            make_peer(net, f"sub{i}").subscribe("t/x", inbox.append)
            inboxes.append(inbox)
        net.scheduler.run_until_idle()
        publisher.publish("t/x", "hello")
        net.scheduler.run_until_idle()
        assert all(len(inbox) == 1 for inbox in inboxes)
        assert broker.stats.fanout_deliveries == 5

    def test_one_peer_multiple_subscriptions(self, net, broker):
        peer = make_peer(net, "p")
        seen_a, seen_b = [], []
        peer.subscribe("a/#", seen_a.append)
        peer.subscribe("a/b", seen_b.append)
        net.scheduler.run_until_idle()
        peer.publish("a/b", 1)
        net.scheduler.run_until_idle()
        assert len(seen_a) == 1 and len(seen_b) == 1

    def test_publish_before_subscription_ack_not_delivered(self, net, broker):
        publisher = make_peer(net, "pub")
        subscriber = make_peer(net, "sub")
        events = []
        subscriber.subscribe("t/x", events.append)
        # no run_until_idle: publish races ahead of the subscribe
        publisher.publish("t/x", 1)
        net.scheduler.run_until_idle()
        # the subscribe message was sent before the publish, so with FIFO
        # ordering on equal latency it lands first and the event arrives
        assert broker.stats.published == 1

    def test_unsubscribe_stops_delivery(self, net, broker):
        publisher = make_peer(net, "pub")
        subscriber = make_peer(net, "sub")
        events = []
        sub = subscriber.subscribe("t/#", events.append)
        net.scheduler.run_until_idle()
        publisher.publish("t/1", 1)
        net.scheduler.run_until_idle()
        sub.unsubscribe()
        net.scheduler.run_until_idle()
        publisher.publish("t/2", 2)
        net.scheduler.run_until_idle()
        assert [e.payload for e in events] == [1]
        assert broker.subscription_count() == 0

    def test_unsubscribe_forgets_the_subscription(self, net, broker):
        # one-shot subscriptions (an actuation's result) must not pile
        # up in the peer: each is dropped from both maps once cancelled
        publisher = make_peer(net, "pub")
        subscriber = make_peer(net, "sub")
        before = (len(subscriber._by_token), len(subscriber._by_sub_id))
        for i in range(5):
            sub = subscriber.subscribe(f"t/{i}", lambda event: None)
            net.scheduler.run_until_idle()
            publisher.publish(f"t/{i}", i)
            net.scheduler.run_until_idle()
            assert sub.events_received == 1
            sub.unsubscribe()
            net.scheduler.run_until_idle()
        assert (len(subscriber._by_token),
                len(subscriber._by_sub_id)) == before
        assert broker.subscription_count() == 0
        assert subscriber.resubscribe_all() == 0

    def test_unsubscribe_before_the_sub_ack_reaches_the_broker(
            self, net, broker):
        publisher = make_peer(net, "pub")
        subscriber = make_peer(net, "sub")
        events = []
        subscriber.subscribe("t/#", events.append).unsubscribe()
        assert subscriber._by_token  # kept until the sub-ack names its id
        net.scheduler.run_until_idle()
        assert broker.subscription_count() == 0
        assert not subscriber._by_token and not subscriber._by_sub_id
        publisher.publish("t/1", 1)
        net.scheduler.run_until_idle()
        assert events == []

    def test_unsubscribe_racing_a_resubscribe_leaves_no_zombie(
            self, net, broker):
        # a keepalive resubscribe reaches a restarted broker, which
        # subscribes afresh, while the cancel names the old id: the
        # late sub-ack of a forgotten subscription is cancelled too
        subscriber = make_peer(net, "sub")
        sub = subscriber.subscribe("t/#", lambda event: None)
        net.scheduler.run_until_idle()
        broker.reset()
        subscriber.resubscribe_all()
        sub.unsubscribe()
        net.scheduler.run_until_idle()
        assert broker.subscription_count() == 0

    def test_wildcard_and_literal_counters(self, net, broker):
        peer = make_peer(net, "p")
        sub = peer.subscribe("x/+", lambda e: None)
        net.scheduler.run_until_idle()
        peer.publish("x/1", None)
        peer.publish("x/2", None)
        net.scheduler.run_until_idle()
        assert sub.events_received == 2
        assert peer.events_published == 2
        assert broker.stats.published == 2


class TestRobustness:
    def test_bad_topic_publish_raises_locally(self, net, broker):
        peer = make_peer(net, "p")
        with pytest.raises(ConfigurationError):
            peer.publish("bad//topic", 1)

    def test_bad_filter_raises_locally(self, net, broker):
        peer = make_peer(net, "p")
        with pytest.raises(ConfigurationError):
            peer.subscribe("a/#/b", lambda e: None)

    def test_connect_requires_broker_on_network(self, net):
        host = net.add_host("lonely")
        with pytest.raises(ConfigurationError):
            connect(host, "missing-broker")

    def test_offline_subscriber_messages_dropped(self, net, broker):
        publisher = make_peer(net, "pub")
        subscriber = make_peer(net, "sub")
        events = []
        subscriber.subscribe("t/#", events.append)
        net.scheduler.run_until_idle()
        net.set_host_online("sub", False)
        publisher.publish("t/1", 1)
        net.scheduler.run_until_idle()
        assert events == []

    def test_unknown_verb_ignored(self, net, broker):
        peer_host = net.add_host("raw")
        peer_host.send("broker", "pubsub", {"verb": "dance"})
        net.scheduler.run_until_idle()  # must not raise
        assert broker.stats.published == 0

    @pytest.mark.parametrize("frame", [
        {"verb": "publish", "topic": "a/#"},           # wildcard topic
        {"verb": "subscribe", "pattern": "a/#/b", "port": "p"},
        {"verb": "publish"},                           # no topic
        {"verb": "subscribe", "pattern": "a/b"},       # no port
        {"verb": "ping"},                              # no port
        {"verb": "publish", "topic": 7},               # mistyped fields
        {"verb": "publish", "topic": "a/b", "pub_id": [1], "ack_port": "p"},
        {"verb": "subscribe", "pattern": "a/b", "port": ["p"]},
        {"verb": "delivery_ack", "delivery_id": [1]},
        {"verb": "unsubscribe", "sub_id": {}},
        {"verb": ["publish"]}, {"topic": "a/b"}, "publish", None, 7,
    ], ids=repr)
    def test_malformed_frame_is_dropped_and_counted(self, net, broker,
                                                    frame):
        events = []
        make_peer(net, "sub").subscribe("a/#", events.append)
        raw = net.add_host("raw")
        raw.send("broker", "pubsub", frame)
        net.scheduler.run_until_idle()  # must not unwind the scheduler
        assert broker.stats.frames_rejected == 1
        assert broker.metrics()["frames_rejected"] == 1
        assert broker.stats.published == 0
        assert broker.subscription_count() == 1
        # ... and the broker is still in business
        make_peer(net, "pub").publish("a/b", 1)
        net.scheduler.run_until_idle()
        assert [e.payload for e in events] == [1]

    def test_rejected_frame_is_traced(self, net, broker):
        from repro.observability.tracing import Tracer

        net.tracer = tracer = Tracer(net.scheduler)
        net.add_host("raw").send("broker", "pubsub", {"verb": "ping"})
        net.scheduler.run_until_idle()
        (rejected,) = tracer.events("frame_rejected")
        assert rejected.attributes["sender"] == "raw"
        assert rejected.attributes["verb"] == "ping"
        assert "port" in rejected.attributes["error"]

    def test_handler_errors_are_not_swallowed_as_bad_frames(self, net,
                                                            broker):
        # only the parse step is guarded: a bug past it must surface
        broker._handlers["ping"] = lambda message: 1 / 0
        net.add_host("raw").send("broker", "pubsub",
                                 {"verb": "ping", "port": "p"})
        with pytest.raises(ZeroDivisionError):
            net.scheduler.run_until_idle()
        assert broker.stats.frames_rejected == 0


class TestMetricsContract:
    #: every key ``Broker.metrics()`` served before it was built from
    #: the ``BrokerStats`` dataclass (PR 16's output, sorted): the fleet
    #: monitor's SLOs and docs/operations.md read them by name
    SERVED_BEFORE = {
        "consumer_busy", "data_plane_saturation", "dead_lettered",
        "dead_letters_evicted", "dead_letters_queued",
        "dead_subscriptions_dropped", "deliveries_acked",
        "duplicate_subscriptions_ignored", "epoch", "fanout_deliveries",
        "fenced", "last_snapshot_age", "live_subscriptions",
        "not_primary_refusals", "peers", "pending_deliveries",
        "pings_answered", "poison_nacks", "pub_acks_withheld",
        "publications_shed", "publish_acks_sent", "published",
        "publisher_rejections", "recovered_items", "recoveries",
        "redeliveries", "replication_lag", "retained_topics", "role",
        "shed_by_topic", "snapshots_written", "subscriptions",
        "unrecovered_restarts", "wal_appends",
    }

    def test_every_key_served_before_is_still_served(self, net, broker):
        served = set(broker.metrics())
        assert self.SERVED_BEFORE <= served
        assert served - self.SERVED_BEFORE \
            == {"frames_rejected", "dead_letters_drained"}

    def test_counters_track_the_stats_object(self, net, broker):
        peer = make_peer(net, "p")
        peer.subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        peer.publish("t/1", 1)
        net.scheduler.run_until_idle()
        metrics = broker.metrics()
        for name, value in vars(broker.stats).items():
            assert metrics[name] == value
        assert metrics["published"] == 1
        assert metrics["live_subscriptions"] == 1


class TestBrokerScaling:
    def test_many_subscribers_each_get_event(self, net, broker):
        publisher = make_peer(net, "pub")
        count = 50
        inboxes = []
        for i in range(count):
            inbox = []
            make_peer(net, f"s{i}").subscribe("big/#", inbox.append)
            inboxes.append(inbox)
        net.scheduler.run_until_idle()
        publisher.publish("big/event", {"n": 1})
        net.scheduler.run_until_idle()
        assert sum(len(i) for i in inboxes) == count


class TestMatchCache:
    """The per-topic match-set cache must never change which
    subscribers an event reaches."""

    def test_cache_populated_on_publish(self, net, broker):
        peer = make_peer(net, "p")
        peer.subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        peer.publish("t/1", 1)
        net.scheduler.run_until_idle()
        assert "t/1" in broker.state.subs.cache
        assert len(broker.state.subs.cache["t/1"]) == 1

    def test_new_subscriber_invalidates_cache(self, net, broker):
        publisher = make_peer(net, "pub")
        first, second = [], []
        make_peer(net, "s1").subscribe("t/#", first.append)
        net.scheduler.run_until_idle()
        publisher.publish("t/1", 1)       # cache {t/1: [s1]}
        net.scheduler.run_until_idle()
        make_peer(net, "s2").subscribe("t/+", second.append)
        net.scheduler.run_until_idle()
        publisher.publish("t/1", 2)       # must re-match, reach both
        net.scheduler.run_until_idle()
        assert [e.payload for e in first] == [1, 2]
        assert [e.payload for e in second] == [2]

    def test_unsubscribe_invalidates_cache(self, net, broker):
        publisher = make_peer(net, "pub")
        events = []
        sub = make_peer(net, "sub").subscribe("t/#", events.append)
        net.scheduler.run_until_idle()
        publisher.publish("t/1", 1)
        net.scheduler.run_until_idle()
        sub.unsubscribe()
        net.scheduler.run_until_idle()
        publisher.publish("t/1", 2)
        net.scheduler.run_until_idle()
        assert [e.payload for e in events] == [1]
        assert broker.stats.fanout_deliveries == 1

    def test_dead_subscriber_reaping_invalidates_cache(self, net, broker):
        # a subscriber whose host left the network is reaped during
        # fan-out; the cached match set must not keep resurrecting it
        publisher = make_peer(net, "pub")
        make_peer(net, "doomed").subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        publisher.publish("t/1", 1)
        net.scheduler.run_until_idle()
        del net._hosts["doomed"]
        publisher.publish("t/1", 2)
        net.scheduler.run_until_idle()
        assert broker.stats.dead_subscriptions_dropped == 1
        assert broker.subscription_count() == 0
        publisher.publish("t/1", 3)  # rebuilt match set is empty
        net.scheduler.run_until_idle()
        assert broker.stats.fanout_deliveries == 1

    def test_restart_clears_cache(self, net, broker):
        peer = make_peer(net, "p")
        peer.subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        peer.publish("t/1", 1)
        net.scheduler.run_until_idle()
        assert broker.state.subs.cache
        broker.reset()
        assert broker.state.subs.cache == {}

    def test_cache_bounded_against_topic_cardinality(self, net, broker):
        from repro.middleware.broker_state import _MATCH_CACHE_CAP

        peer = make_peer(net, "p")
        peer.subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        for i in range(_MATCH_CACHE_CAP + 10):
            peer.publish(f"t/{i}", None)
        net.scheduler.run_until_idle()
        assert len(broker.state.subs.cache) <= _MATCH_CACHE_CAP


class TestFanoutWireSize:
    """Fan-out envelopes are sized as base + per-subscriber delta; the
    charged bytes must equal a full estimate of each actual envelope."""

    def test_fanout_size_matches_full_estimate(self, net, broker):
        from repro.network.transport import estimate_size

        publisher = make_peer(net, "pub")
        inbox = []
        for i in range(7):
            make_peer(net, f"sz{i}").subscribe("t/#", inbox.append)
        net.scheduler.run_until_idle()
        deliveries = []
        original_deliver = net._deliver

        def spy(sender, recipient, port, payload, size, sent_at):
            if isinstance(payload, dict) and payload.get("kind") == "event":
                deliveries.append((payload, size))
            original_deliver(sender, recipient, port, payload, size, sent_at)

        net._deliver = spy
        publisher.publish("t/reading", {"value": 21.5, "unit": "C"})
        net.scheduler.run_until_idle()
        assert len(deliveries) == 7
        for payload, size in deliveries:
            assert size == estimate_size(payload)

    def test_acked_fanout_size_includes_delivery_id(self, net, broker):
        from repro.network.transport import estimate_size

        publisher = make_peer(net, "pub")
        consumer = make_peer(net, "cons")
        consumer.subscribe("t/#", lambda e: None, ack=True)
        net.scheduler.run_until_idle()
        deliveries = []
        original_deliver = net._deliver

        def spy(sender, recipient, port, payload, size, sent_at):
            if isinstance(payload, dict) and payload.get("kind") == "event":
                deliveries.append((payload, size))
            original_deliver(sender, recipient, port, payload, size, sent_at)

        net._deliver = spy
        publisher.publish("t/1", {"v": 1})
        net.scheduler.run_until_idle()
        assert deliveries
        payload, size = deliveries[0]
        assert "delivery_id" in payload
        assert size == estimate_size(payload)


    def test_fanout_envelope_keys_are_pinned(self, net, broker):
        # each fact a subscriber reads, once: no publisher rides along
        # (nothing reads it); an acked delivery adds only its id
        publisher = make_peer(net, "pub")
        make_peer(net, "plain").subscribe("t/#", lambda e: None)
        make_peer(net, "acked").subscribe("t/#", lambda e: None, ack=True)
        net.scheduler.run_until_idle()
        envelopes = {}
        original_deliver = net._deliver

        def spy(sender, recipient, port, payload, size, sent_at):
            if isinstance(payload, dict) and payload.get("kind") == "event":
                envelopes[recipient] = sorted(payload)
            original_deliver(sender, recipient, port, payload, size, sent_at)

        net._deliver = spy
        publisher.publish("t/1", {"v": 1})
        net.scheduler.run_until_idle()
        plain = ["kind", "payload", "published_at", "sub_id", "topic"]
        assert envelopes == {"plain": plain,
                             "acked": sorted(plain + ["delivery_id"])}


class TestBrokerSendSizes:
    """A size the broker hands to ``send`` skips the transport's own walk
    of the payload, so it must equal that walk exactly: size feeds
    latency, and latency feeds event order."""

    #: plain, non-ASCII and infinite (both need the real encoder), and
    #: non-dict payloads.  One json cannot encode is charged a flat size
    #: that no per-key delta can match, so it is not among them.
    PAYLOADS = [{"value": 21.5, "unit": "C"}, {"v": "café"},
                {"v": float("inf")}, None, [1, "two"], "some text"]

    @pytest.mark.parametrize("traced", [False, True])
    def test_every_sized_send_equals_a_full_estimate(self, net, broker,
                                                     traced):
        from repro.network.transport import estimate_size
        from repro.observability import install

        if traced:
            install(net)
        publisher = make_peer(net, "pub")
        make_peer(net, "plain").subscribe("t/#", lambda e: None)
        make_peer(net, "acked").subscribe("t/#", lambda e: None, ack=True)
        net.scheduler.run_until_idle()
        sized = []
        send = net.send

        def spy(sender, recipient, port, payload, size=None):
            if sender == "broker" and size is not None:
                sized.append((payload, size))
            send(sender, recipient, port, payload, size=size)

        net.send = spy
        for i, payload in enumerate(self.PAYLOADS):
            for topic in (f"t/{i}/reading", f"t/{i}/café"):
                publisher.publish(topic, payload, retain=True)
        net.scheduler.run_until_idle()
        make_peer(net, "late").subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        # a restored state holds copies: their sizes are walked afresh
        broker.restore(broker.snapshot())
        make_peer(net, "later").subscribe("t/#", lambda e: None)
        net.scheduler.run_until_idle()
        events = 2 * len(self.PAYLOADS)
        # the control frames (sub-acks) are sized too: TestFrameSizes
        delivered = [(payload, size) for payload, size in sized
                     if payload["kind"] == "event"]
        assert len(delivered) == 2 * events + 2 * events  # fan-out, replays
        assert sum("delivery_id" in payload for payload, _ in delivered) \
            == events
        assert sum(payload.get("retained", False)
                   for payload, _ in delivered) == 2 * events
        assert all("trace" in payload for payload, _ in delivered
                   if not payload.get("retained")) is traced
        for payload, size in sized:
            assert size == estimate_size(payload), payload


class TestFrameSizes:
    """Every control frame a peer or the broker builds carries ``size=``
    counted where it is built (``frame_size``), so the transport does
    not walk it; it must equal that walk exactly.  A frame whose topic
    or pattern needs the real encoder passes none: the walk sizes it."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_every_control_frame_is_sized_exactly(self, net, traced):
        from repro.middleware.broker import BrokerOverloadConfig
        from repro.middleware.peer import MiddlewarePeer
        from repro.network.transport import estimate_size
        from repro.observability import install

        if traced:
            install(net)
        # a publisher may hold one pending delivery: its second is
        # refused with a pub-reject, parked and flushed after retry_after
        Broker(net.add_host("broker"), overload=BrokerOverloadConfig(
            high_watermark=64, low_watermark=32, publisher_quota=1,
            retry_after=0.5))
        sent = []
        send = net.send

        def spy(sender, recipient, port, payload, size=None):
            sent.append((payload, size))
            send(sender, recipient, port, payload, size=size)

        net.send = spy
        publisher = MiddlewarePeer(net.add_host("pub"), "broker",
                                   publish_buffer=8)
        consumer = make_peer(net, "cons")
        held = []
        consumer.subscribe("t/held/#",
                           lambda event: held.append(consumer.defer()),
                           ack=True)

        def poison(event):
            raise ValueError("unreadable")

        consumer.subscribe("t/poison", poison, ack=True)
        plain = make_peer(net, "plain").subscribe("t/#", lambda e: None)
        make_peer(net, "intl").subscribe("t/café/#", lambda e: None)
        net.scheduler.run_for(0.1)
        publisher.publish("t/held/1", 1)            # custody: pub-receipt
        publisher.publish("t/held/2", {"v": 2}, retain=True)  # pub-reject
        make_peer(net, "pub2").publish("t/poison", 0)   # nacks, unreliable
        net.scheduler.run_for(0.1)
        consumer.settle(held)                       # one frame: pub-ack
        held.clear()
        net.scheduler.run_for(1.0)                  # the flush
        consumer.settle(held)
        plain.unsubscribe()
        publisher.publish("t/café/x", 3)
        net.scheduler.run_for(0.1)
        # an outage: the publish is lost, parked, probed, then flushed
        net.set_host_online("broker", False)
        publisher.publish("t/down", 4)
        net.scheduler.run_for(4.5)
        net.set_host_online("broker", True)
        net.scheduler.run_for(4.0)
        assert publisher.publications_flushed == 2
        assert publisher.publications_acked == 4
        frames = [(payload, size) for payload, size in sent
                  if payload.get("kind") != "event"]
        assert {payload.get("verb") or payload["kind"]
                for payload, _ in frames} == {
            "subscribe", "unsubscribe", "publish", "ping", "delivery_ack",
            "delivery_nack", "sub-ack", "pub-ack", "pub-receipt",
            "pub-reject", "pong"}
        verbs = [payload for payload, _ in frames if "verb" in payload]
        # a default is not spelled out: a missing ack / retain is false
        assert {payload.get("ack") for payload in verbs
                if payload["verb"] == "subscribe"} == {None, True}
        assert {payload.get("retain") for payload in verbs
                if payload["verb"] == "publish"} == {None, True}
        assert any("delivery_ids" in payload for payload in verbs)
        assert all(("trace" in payload) is traced for payload in verbs
                   if payload["verb"] == "publish")
        for payload, size in frames:
            if "café" in str(payload):
                assert size is None, payload
            else:
                assert size == estimate_size(payload), payload


class TestRedeliverySizes:
    """A redelivery re-sends the size its first fan-out computed (a
    restored delivery is sized once, at its first redelivery), and a
    dead-letter event is sized once for all its subscribers."""

    @staticmethod
    def spy(net):
        sent = []
        send = net.send

        def spy(sender, recipient, port, payload, size=None):
            if payload.get("kind") == "event":
                sent.append((payload, size))
            send(sender, recipient, port, payload, size=size)

        net.send = spy
        return sent

    def test_every_send_of_a_poisoned_delivery_is_sized_exactly(self, net,
                                                                 broker):
        from repro.network.transport import estimate_size

        sent = self.spy(net)
        consumer = make_peer(net, "cons")

        def poison(event):
            raise ValueError("unreadable")

        consumer.subscribe("t/poison", poison, ack=True)
        make_peer(net, "ops").subscribe("deadletter/#", lambda e: None)
        net.scheduler.run_for(0.1)
        make_peer(net, "pub").publish("t/poison", {"v": [1, 2.5, "x"]})
        net.scheduler.run_for(1.0)
        attempts = broker.settlement.max_attempts
        assert broker.stats.redeliveries == attempts - 1
        assert broker.stats.dead_lettered == 1
        # the first send, every redelivery, the one dead-letter event
        assert len(sent) == attempts + 1
        assert [size for _, size in sent] == \
            [estimate_size(payload) for payload, _ in sent]

    def test_a_restored_delivery_is_sized_at_its_redelivery(self, net,
                                                             tmp_path):
        from repro.network.transport import estimate_size
        from repro.storage.durability import HubConfig

        broker = Broker(net.add_host("broker"), delivery_ack_timeout=1.0,
                        durability=HubConfig(
                            wal_path=str(tmp_path / "broker.wal")))
        consumer = make_peer(net, "cons")
        consumer.subscribe("t/held", lambda event: consumer.defer(),
                           ack=True)
        net.scheduler.run_for(0.1)
        make_peer(net, "pub").publish("t/held", {"v": 1})
        net.scheduler.run_for(0.1)
        broker.reset()
        broker.recover()
        delivery, = broker.state.deliveries.values()
        assert delivery.size is None  # not in the WAL record
        sent = self.spy(net)
        net.scheduler.run_for(1.5)
        (payload, size), = sent
        assert size == delivery.size == estimate_size(payload)


class TestDefaultKeysStillRead:
    """A peer leaves ``"ack": false`` and ``"retain": false`` off the
    wire; a frame or a WAL record that still spells them is read
    exactly as before."""

    def test_a_frame_spelling_the_defaults_is_read_as_before(self, net,
                                                               broker):
        host = net.add_host("old")
        frames = []
        host.bind("old-port", lambda message: frames.append(message.payload))
        net.send("old", "broker", "pubsub", {
            "verb": "subscribe", "pattern": "t/#", "port": "old-port",
            "token": 1, "ack": False})
        net.scheduler.run_until_idle()
        net.send("old", "broker", "pubsub", {
            "verb": "publish", "topic": "t/1", "payload": 1,
            "published_at": 0.5, "retain": False})
        net.scheduler.run_until_idle()
        assert [sub.ack for sub in broker.state.subs.by_id.values()] == \
            [False]
        assert broker.state.retained == {}
        assert frames == [
            {"kind": "sub-ack", "sub_id": 1, "token": 1},
            {"kind": "event", "topic": "t/1", "payload": 1,
             "published_at": 0.5, "sub_id": 1}]

    def test_a_wal_sub_record_spelling_ack_false_is_read_as_before(self):
        from repro.middleware.broker_state import BrokerState, _Sub

        record = {"op": "sub", "seq": 1, "sub_id": 1, "pattern": "t/#",
                  "subscriber": "cons", "port": "p", "token": 3,
                  "ack": False}
        bare = {key: value for key, value in record.items()
                if key != "ack"}
        assert _Sub.from_record(record) == _Sub.from_record(bare)
        spelled, omitted = BrokerState(8), BrokerState(8)
        spelled.apply(record)
        omitted.apply(bare)
        assert spelled.snapshot() == omitted.snapshot()
        # the WAL shape is unchanged: a record still spells its ack
        assert _Sub.from_record(record).to_record(1)["ack"] is False


class TestAckedDeliveries:
    """What the peer does with a broker-tracked delivery once the
    callback returns — or raises, or takes custody of it."""

    def consumer(self, net, callback):
        peer = make_peer(net, "cons")
        peer.subscribe("t/#", callback, ack=True)
        net.scheduler.run_for(0.1)
        return peer

    def test_returning_acks_at_once(self, net, broker):
        peer = self.consumer(net, lambda event: None)
        make_peer(net, "pub").publish("t/1", 1)
        net.scheduler.run_for(0.1)
        assert peer.deliveries_acked == 1 == broker.stats.deliveries_acked
        assert len(broker.state.deliveries) == 0

    def test_deferred_deliveries_settle_in_one_frame(self, net, broker):
        held = []
        peer = self.consumer(net, lambda event: held.append(peer.defer()))
        publisher = make_peer(net, "pub")
        for n in range(3):
            publisher.publish(f"t/{n}", n)
        net.scheduler.run_for(0.1)
        # custody taken: the callbacks returned and nothing was acked
        assert len(held) == 3 and None not in held
        assert peer.deliveries_acked == 0
        assert len(broker.state.deliveries) == 3
        sent = net.stats.messages_sent
        peer.settle(held)
        assert net.stats.messages_sent == sent + 1
        net.scheduler.run_for(0.1)
        assert peer.deliveries_acked == 3 == broker.stats.deliveries_acked
        assert len(broker.state.deliveries) == 0
        assert broker.stats.redeliveries == 0

    def test_never_settled_is_redelivered_by_the_ack_timeout(self, net,
                                                             broker):
        held = []
        peer = self.consumer(net, lambda event: held.append(peer.defer()))
        make_peer(net, "pub").publish("t/1", 1)
        net.scheduler.run_for(0.1)
        held.clear()                   # the consumer crashed holding it
        net.scheduler.run_for(broker.settlement.ack_timeout)
        assert broker.stats.redeliveries == 1
        peer.settle(held)              # the second copy's handle
        net.scheduler.run_for(0.1)
        assert len(broker.state.deliveries) == 0

    def test_defer_outside_an_acked_delivery_is_none(self, net, broker):
        held = []
        peer = make_peer(net, "cons")
        peer.subscribe("t/#", lambda event: held.append(peer.defer()))
        net.scheduler.run_for(0.1)
        make_peer(net, "pub").publish("t/1", 1)
        net.scheduler.run_for(0.1)
        assert held == [None] and peer.defer() is None

    def test_late_and_unknown_ids_in_a_list_are_skipped(self, net, broker):
        held = []
        peer = self.consumer(net, lambda event: held.append(peer.defer()))
        make_peer(net, "pub").publish("t/1", 1)
        net.scheduler.run_for(0.1)
        peer.settle(held + [("broker", 999)] + held)
        net.scheduler.run_for(0.1)
        assert broker.stats.deliveries_acked == 1
        assert broker.stats.frames_rejected == 0

    def test_mistyped_id_list_is_rejected_at_the_boundary(self, net, broker):
        net.add_host("raw").send("broker", "pubsub", {
            "verb": "delivery_ack", "delivery_ids": [1, [2]]})
        net.scheduler.run_for(0.1)
        assert broker.stats.frames_rejected == 1

    def test_consumer_exception_nacks_poison_and_surfaces(self, net, broker):
        from repro.observability.tracing import Tracer

        net.tracer = tracer = Tracer(net.scheduler)

        def buggy(event):
            raise ZeroDivisionError("a handler bug, not a bad payload")

        peer = self.consumer(net, buggy)
        make_peer(net, "pub").publish("t/1", 1)
        net.scheduler.run_for(0.1)     # must not unwind the scheduler
        assert peer.deliveries_nacked >= 1 <= broker.stats.poison_nacks
        nack = tracer.events("delivery_poison_nack")[0]
        assert nack.attributes["topic"] == "t/1"
        assert nack.attributes["error"] == "ZeroDivisionError"
        assert peer.delivery_poison_nacks == peer.deliveries_nacked

    def test_backpressure_nacks_busy_without_the_poison_event(self, net,
                                                              broker):
        from repro.errors import BackpressureError
        from repro.observability.tracing import Tracer

        net.tracer = tracer = Tracer(net.scheduler)

        def busy(event):
            raise BackpressureError("queue full")

        self.consumer(net, busy)
        make_peer(net, "pub").publish("t/1", 1)
        net.scheduler.run_for(0.1)
        assert broker.stats.consumer_busy == 1
        assert broker.stats.poison_nacks == 0
        assert tracer.events("delivery_poison_nack") == []
