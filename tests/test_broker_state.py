"""The broker's two halves, each alone, and what the split guarantees.

* :class:`BrokerState` with no network: every record kind, the
  snapshot round trip, the ``op_seq`` absorption rule.
* :class:`SubscriptionTable`: ``match()`` against brute force under any
  interleaving of its mutators (the cache keeps itself current).
* **live ≡ replay**: whatever frames a durable broker was fed, a fresh
  broker recovering from its WAL (+ snapshot) reaches the same state —
  the property that holds by construction once every live mutation
  goes through ``_commit``.
* Compatibility: a WAL + snapshot written before the split recovers to
  the state the pre-split broker recovers from the same files.
* The two structural rules, checked on the AST so they cannot regress
  quietly: only ``SubscriptionTable`` touches the match cache, only
  ``_commit`` appends to the WAL or streams to standbys.
"""

import ast
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.middleware.broker_state as broker_state
from repro.middleware import broker as broker_module
from repro.middleware.broker import BROKER_PORT, Broker
from repro.middleware.broker_state import (
    BrokerState,
    SubscriptionTable,
    _Sub,
)
from repro.middleware.topics import topic_matches
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.storage.durability import HubConfig

FIXTURE = Path(__file__).parent / "fixtures" / "broker_pr16"


def event(topic, value=0):
    return {"kind": "event", "topic": topic, "payload": value,
            "published_at": 1.0, "publisher": "pub"}


def sub_record(sub_id, pattern="a/#", subscriber="c", ack=False, token=None):
    return {"op": "sub", "sub_id": sub_id, "pattern": pattern,
            "subscriber": subscriber, "port": "inbox", "token": token,
            "ack": ack}


def delivery_record(delivery_id, sub_id=1, pub_key=None, topic="a/b"):
    return {"op": "delivery", "delivery_id": delivery_id, "sub_id": sub_id,
            "subscriber": "c", "port": "inbox", "event": event(topic),
            "publisher": "pub", "topic": topic, "pub_key": pub_key}


def applied(*records, capacity=4):
    state = BrokerState(capacity)
    results = [state.apply(dict(record, seq=seq))
               for seq, record in enumerate(records, 1)]
    return state, results


class TestBrokerStateRecords:
    """Each record kind, applied to a state that has no network."""

    def test_retain_keeps_the_last_event_per_topic(self):
        state, _ = applied(
            {"op": "retain", "topic": "a/b", "event": event("a/b", 1)},
            {"op": "retain", "topic": "a/b", "event": event("a/b", 2)},
            {"op": "retain", "topic": "a/c", "event": event("a/c", 3)})
        assert {t: e["payload"] for t, e in state.retained.items()} \
            == {"a/b": 2, "a/c": 3}
        assert state.op_seq == 3

    def test_sub_and_unsub(self):
        state, _ = applied(sub_record(1), sub_record(4, "x/+", ack=True),
                           {"op": "unsub", "sub_id": 1},
                           {"op": "unsub", "sub_id": 99})
        assert list(state.subs.by_id) == [4]
        assert state.subs.by_id[4] == _Sub("x/+", "c", "inbox", None, True)
        assert state.next_sub_id == 5

    def test_sub_record_for_a_held_id_replaces_in_place(self):
        state, _ = applied(sub_record(1), sub_record(2),
                           sub_record(1, ack=True))
        assert list(state.subs.by_id) == [1, 2]  # order kept
        assert state.subs.by_id[1].ack is True

    def test_delivery_holds_and_counts_per_publisher(self):
        key = ["pub", "acks", 7]
        state, _ = applied(delivery_record(1, pub_key=key),
                           delivery_record(2, pub_key=key),
                           delivery_record(3))
        assert sorted(state.deliveries) == [1, 2, 3]
        assert state.next_delivery_id == 4
        assert state.pending_by_publisher == {"pub": 3}
        (pending,) = state.pending_pubs.values()
        assert (pending.publisher, pending.ack_port, pending.pub_id) \
            == tuple(key)
        assert pending.remaining == {1, 2} and not pending.failed

    def test_settle_returns_the_publication_it_completed(self):
        key = ["pub", "acks", 7]
        state, results = applied(
            delivery_record(1, pub_key=key), delivery_record(2, pub_key=key),
            delivery_record(3),
            {"op": "settle", "delivery_id": 3, "handled": True},
            {"op": "settle", "delivery_id": 1, "handled": True},
            {"op": "settle", "delivery_id": 2, "handled": True},
            {"op": "settle", "delivery_id": 2, "handled": True})
        assert results[3] is None      # no publisher was waiting
        assert results[4] is None      # delivery 2 still pending
        assert results[5].pub_id == 7 and not results[5].failed
        assert results[6] is None      # already settled: absorbed
        assert not state.deliveries and not state.pending_pubs
        assert state.pending_by_publisher == {}

    def test_unhandled_settle_marks_the_publication_failed(self):
        key = ["pub", "acks", 7]
        state, results = applied(
            delivery_record(1, pub_key=key), delivery_record(2, pub_key=key),
            {"op": "settle", "delivery_id": 1, "handled": False})
        assert state.snapshot()["failed_pubs"] == [key]
        done = state.apply({"op": "settle", "delivery_id": 2,
                            "handled": True, "seq": 4})
        assert done.failed

    def test_dead_letters_are_bounded_and_drained(self):
        state, _ = applied(*({"op": "dlq", "entry": {"topic": f"t/{i}"}}
                             for i in range(6)), capacity=4)
        assert [e["topic"] for e in state.dead_letters] \
            == ["t/2", "t/3", "t/4", "t/5"]
        state.apply({"op": "dlq_drain", "seq": 7})
        assert not state.dead_letters

    def test_record_at_or_below_op_seq_is_absorbed(self):
        state, _ = applied(sub_record(1), sub_record(2))
        state.apply(dict(sub_record(3), seq=2))   # the snapshot had it
        state.apply(dict(sub_record(4), seq=1))
        assert list(state.subs.by_id) == [1, 2] and state.op_seq == 2
        state.apply(dict(sub_record(3), seq=3))
        assert list(state.subs.by_id) == [1, 2, 3]

    def test_unknown_op_is_ignored_but_advances_the_mark(self):
        state, results = applied(sub_record(1), {"op": "from-the-future"})
        assert results == [None, None]
        assert list(state.subs.by_id) == [1] and state.op_seq == 2

    def test_snapshot_restore_round_trip(self):
        key = ["pub", "acks", 7]
        state, _ = applied(
            sub_record(1, token=3), sub_record(2, "x/+", ack=True),
            {"op": "retain", "topic": "a/b", "event": event("a/b", 1)},
            delivery_record(1, pub_key=key), delivery_record(2, pub_key=key),
            delivery_record(3),
            {"op": "settle", "delivery_id": 1, "handled": False},
            {"op": "dlq", "entry": {"topic": "a/b", "reason": "timeout"}})
        state.deliveries[2].attempts = 5       # the soft budget rides along
        snapshot = json.loads(json.dumps(state.snapshot()))
        other = BrokerState(4)
        other.apply(dict(sub_record(9), seq=1))  # replaced, not merged
        other.restore(snapshot)
        assert other.snapshot() == snapshot
        assert other.pending_by_publisher == {"pub": 2}
        assert other.pending_pubs[tuple(key)].failed
        assert other.deliveries[2].attempts == 5
        state.clear()
        assert state.snapshot() == BrokerState(4).snapshot()


# -- SubscriptionTable ---------------------------------------------------------

PATTERNS = ["a/#", "a/+", "a/b", "+/b", "#", "b/+/c", "a/b/c", "a/c", "b",
            "c/b"]
TOPICS = ["a/b", "a/c", "a/b/c", "b/x/c", "b", "c/b"]

table_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(1, 8), st.sampled_from(PATTERNS)),
    # a held id under another filter: a replace-in-place
    st.tuples(st.just("replace"), st.integers(0, 7),
              st.sampled_from(PATTERNS)),
    st.tuples(st.just("remove"), st.integers(1, 8)),
    st.tuples(st.just("replace_all"), st.lists(
        st.tuples(st.integers(1, 8), st.sampled_from(PATTERNS)),
        max_size=5, unique_by=lambda pair: pair[0])),
    st.tuples(st.just("match"), st.sampled_from(TOPICS)),
), max_size=40)


class TestSubscriptionTable:
    @settings(max_examples=150, deadline=None)
    @given(table_ops)
    def test_match_equals_brute_force_under_any_interleaving(self, ops):
        table, cap = SubscriptionTable(), 3
        saved, broker_state._MATCH_CACHE_CAP = \
            broker_state._MATCH_CACHE_CAP, cap
        try:
            for op, *args in ops:
                # match sets handed out before the mutation, and a copy
                held = [(got, list(got)) for got in table.cache.values()]
                if op == "add":
                    table.add(args[0], _Sub(args[1], "c", "inbox"))
                elif op == "replace" and table.by_id:
                    ids = sorted(table.by_id)
                    sub_id = ids[args[0] % len(ids)]
                    pattern = args[1]
                    if pattern == table.by_id[sub_id].pattern:
                        pattern = "+/+" if pattern != "+/+" else "#"
                    table.add(sub_id, _Sub(pattern, "c", "inbox"))
                elif op == "remove":
                    table.remove(args[0])
                elif op == "replace_all":
                    table.replace_all((sub_id, _Sub(pattern, "c", "inbox"))
                                      for sub_id, pattern in args[0])
                # a caller iterating a set it was given never sees it move
                assert all(got == copy for got, copy in held)
                for topic in ([args[0]] if op == "match" else TOPICS):
                    expected = [(sub_id, sub)
                                for sub_id, sub in table.by_id.items()
                                if topic_matches(sub.pattern, topic)]
                    got = table.match(topic)
                    # same subscriptions, in subscription order
                    assert [(sub_id, sub) for sub_id, _, sub in got] \
                        == expected
                    assert all(delta == len(f', "sub_id": {sub_id}')
                               for sub_id, delta, _ in got)
                    assert len(table.cache) <= cap
        finally:
            broker_state._MATCH_CACHE_CAP = saved

    def test_exact_subscription_keeps_other_topics_cached(self):
        table = SubscriptionTable()
        table.add(1, _Sub("district/#", "dashboard", "inbox"))
        cached = table.match("district/d1/power")
        table.add(2, _Sub("actuation/x", "proxy", "inbox"))
        assert table.match("actuation/x")[0][0] == 2
        table.remove(2)
        # the one-shot subscription came and went without touching
        # another topic's match set
        assert table.cache["district/d1/power"] is cached
        assert table.match("actuation/x") == []

    def test_a_wildcard_joins_and_leaves_the_sets_it_matches(self):
        table = SubscriptionTable()
        table.add(1, _Sub("a/b", "c", "inbox"))
        table.match("a/b")
        table.match("c/d")
        unrelated = table.cache["c/d"]
        table.add(2, _Sub("a/+", "c", "inbox"))
        assert [sub_id for sub_id, _, _ in table.cache["a/b"]] == [1, 2]
        assert table.cache["c/d"] is unrelated
        table.remove(1)
        assert [sub_id for sub_id, _, _ in table.cache["a/b"]] == [2]
        assert table.cache["c/d"] is unrelated

    def test_find_is_by_subscriber_port_and_token(self):
        table = SubscriptionTable()
        table.add(1, _Sub("a/#", "c", "inbox", token=5))
        table.add(2, _Sub("a/#", "d", "inbox", token=5))
        assert table.find("d", "inbox", 5) == 2
        assert table.find("d", "other", 5) is None


# -- live == replay ------------------------------------------------------------

CONSUMERS = ["c0", "c1", "doomed"]
PUBLISHERS = ["p0", "p1"]
FILTERS = ["a/#", "a/+", "a/b", "deadletter/#"]
LIVE_TOPICS = ["a/b", "a/c", "a/b/c"]

subscribes = st.tuples(
    st.just("subscribe"), st.sampled_from(CONSUMERS),
    st.sampled_from(FILTERS), st.booleans(), st.sampled_from([None, 1]))
publishes = st.tuples(
    st.just("publish"), st.sampled_from(PUBLISHERS),
    st.sampled_from(LIVE_TOPICS), st.booleans(), st.booleans())
# subscribes and publishes listed three times: they are what gives the
# other frames something to act on (a keepalive needs a held token, an
# ack a pending delivery), so they are drawn three times as often
frames = st.lists(st.one_of(
    subscribes, subscribes, subscribes, publishes, publishes, publishes,
    st.tuples(st.just("unsubscribe"), st.sampled_from(CONSUMERS[:2]),
              st.integers(1, 6)),
    st.tuples(st.just("ack"), st.sampled_from(CONSUMERS[:2]),
              st.integers(1, 10)),
    st.tuples(st.just("nack"), st.sampled_from(CONSUMERS[:2]),
              st.integers(1, 10), st.booleans()),
    st.tuples(st.just("advance"), st.sampled_from([0.3, 1.1, 2.3])),
    st.tuples(st.just("drain")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("vanish")),
), max_size=30)


def durable_broker(state_dir):
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    broker = Broker(
        net.add_host("broker"), delivery_ack_timeout=1.0,
        max_delivery_attempts=3, dead_letter_capacity=3,
        durability=HubConfig(
            wal_path=str(state_dir / "broker.wal"),
            snapshot_path=str(state_dir / "broker.snap"),
            snapshot_period=1e6))
    return net, broker


def drive(net, broker, ops):
    """Feed raw frames (no peer library in the way) to a live broker."""
    hosts = {}
    for name in CONSUMERS + PUBLISHERS + ["ops"]:
        hosts[name] = net.add_host(name)
        for port in ("inbox", "acks"):
            hosts[name].bind(port, lambda message: None)
    ops_client = HttpClient(hosts["ops"])
    pub_ids = iter(range(1, 1000))

    def send(sender, **frame):
        if net.has_host(sender):
            hosts[sender].send("broker", BROKER_PORT, frame)

    for op, *args in ops:
        if op == "subscribe":
            consumer, pattern, ack, token = args
            frame = {"pattern": pattern, "port": "inbox", "ack": ack}
            if token is not None:
                frame["token"] = token
            send(consumer, verb="subscribe", **frame)
        elif op == "unsubscribe":
            send(args[0], verb="unsubscribe", sub_id=args[1])
        elif op == "publish":
            publisher, topic, retain, reliable = args
            frame = {"topic": topic, "payload": {"v": 1}, "retain": retain,
                     "published_at": net.scheduler.now}
            if reliable:
                frame.update(pub_id=next(pub_ids), ack_port="acks")
            send(publisher, verb="publish", **frame)
        elif op == "ack":
            send(args[0], verb="delivery_ack", delivery_id=args[1])
        elif op == "nack":
            send(args[0], verb="delivery_nack", delivery_id=args[1],
                 poison=args[2])
        elif op == "drain":
            ops_client.post(broker.uri + "deadletter/drain")
        elif op == "snapshot":
            broker.write_snapshot()
        elif op == "vanish" and net.has_host("doomed"):
            del net._hosts["doomed"]  # gone for good: its subs get reaped
        net.scheduler.run_for(args[0] if op == "advance" else 0.05)


def without_budget(snapshot):
    """A snapshot minus the soft redelivery budget.

    ``attempts`` / ``poison_count`` ride along in snapshots but are not
    logged (see ``_PendingDelivery``): a delivery rebuilt from the WAL
    starts a fresh budget.  Everything else must match exactly.
    """
    snapshot = json.loads(json.dumps(snapshot))
    for delivery in snapshot["deliveries"]:
        del delivery["attempts"], delivery["poison_count"]
    return snapshot


class TestLiveEqualsReplay:
    @settings(max_examples=100, deadline=None)
    @given(frames)
    def test_recovered_state_equals_live_state(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            net, broker = durable_broker(Path(tmp))
            drive(net, broker, ops)
            live = broker.snapshot()
            broker.journal.close()
            _, fresh = durable_broker(Path(tmp))
            fresh.recover()
            recovered = fresh.snapshot()
            fresh.journal.close()
        assert without_budget(recovered) == without_budget(live)

    def test_the_sequence_space_is_not_vacuous(self, tmp_path):
        """One hand-written walk through every record kind, so the
        property above cannot pass by generating nothing of interest."""
        net, broker = durable_broker(tmp_path)
        drive(net, broker, [
            ("subscribe", "c0", "a/#", False, 1),
            ("snapshot",),                            # the rest is WAL tail
            ("subscribe", "c0", "a/#", False, 1),    # keepalive, no change
            ("subscribe", "c0", "a/#", True, 1),     # keepalive flips ack
            ("subscribe", "c1", "a/+", True, None),
            ("subscribe", "doomed", "a/b", False, None),
            ("subscribe", "c1", "deadletter/#", False, 2),
            ("publish", "p0", "a/b", True, True),
            ("ack", "c0", 1),
            ("nack", "c1", 2, True), ("nack", "c1", 2, True),
            ("nack", "c1", 2, True),                  # poison -> DLQ
            ("vanish",),
            ("publish", "p1", "a/b", False, False),  # reaps doomed's sub
            ("nack", "c0", 3, False),                 # busy
            ("advance", 2.3), ("advance", 2.3),      # timeouts -> DLQ
            ("unsubscribe", "c1", 2),
            ("drain",),
            ("publish", "p0", "a/c", True, True),
        ])
        ops_seen = {r["op"] for r in broker.wal.records()}
        assert ops_seen == {"sub", "unsub", "retain", "delivery", "settle",
                            "dlq", "dlq_drain"}
        stats = broker.stats
        assert stats.duplicate_subscriptions_ignored == 2
        assert stats.dead_subscriptions_dropped == 1
        assert stats.redeliveries > 0 and stats.consumer_busy == 1
        assert stats.dead_lettered >= 2 and stats.pub_acks_withheld == 0
        live = broker.snapshot()
        broker.journal.close()
        _, fresh = durable_broker(tmp_path)
        fresh.recover()
        assert without_budget(fresh.snapshot()) == without_budget(live)
        fresh.journal.close()


# -- compatibility with the pre-split formats ----------------------------------

class TestPreSplitFormats:
    def test_wal_and_snapshot_of_the_parent_commit_recover_identically(
            self, tmp_path):
        for name in ("broker.wal", "broker.snap"):
            shutil.copy(FIXTURE / name, tmp_path / name)
        expected = json.loads((FIXTURE / "expected_snapshot.json")
                              .read_text())
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
        broker = Broker(
            net.add_host("broker"), delivery_ack_timeout=1.0,
            max_delivery_attempts=3, dead_letter_capacity=4,
            durability=HubConfig(
                wal_path=str(tmp_path / "broker.wal"),
                snapshot_path=str(tmp_path / "broker.snap"),
                snapshot_period=1e6))
        assert broker.recover() == expected["restored"]
        # exact, budget fields included: what a snapshot carried survives
        assert json.loads(json.dumps(broker.snapshot())) \
            == expected["snapshot"]
        assert broker.state.pending_pubs  # incl. the failed publication
        broker.journal.close()

    def test_the_envelope_is_still_version_1(self, tmp_path):
        envelope = json.loads((FIXTURE / "broker.snap").read_text())
        assert (envelope["format"], envelope["version"]) \
            == ("repro-broker-state", 1)
        net, broker = durable_broker(tmp_path)
        broker.write_snapshot()
        written = json.loads((tmp_path / "broker.snap").read_text())
        assert (written["format"], written["version"]) \
            == (envelope["format"], envelope["version"])
        assert set(written["state"]) == set(envelope["state"])
        broker.journal.close()


# -- structural rules, on the AST ----------------------------------------------

MUTATORS = {"clear", "pop", "popitem", "update", "setdefault",
            "__setitem__", "__delitem__"}


def walk_with_scope(tree):
    """Yield ``(node, enclosing class name, enclosing function name)``."""
    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                yield from visit(child, cls, name)
            else:
                yield child, cls, func
                yield from visit(child, cls, func)
    yield from visit(tree, None, None)


def is_attr(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name


def broker_sources():
    for module in (broker_module, broker_state):
        yield module.__name__, ast.parse(Path(module.__file__).read_text())


class TestStructuralRules:
    def test_only_the_table_mutates_its_dict_and_its_match_cache(self):
        offenders, sites = [], 0
        for module, tree in broker_sources():
            for node, cls, func in walk_with_scope(tree):
                for attr in ("cache", "by_id"):
                    touched = (
                        # x.cache = ..., x.cache[k] = ..., del x.cache[k]
                        (is_attr(node, attr)
                         and isinstance(node.ctx, (ast.Store, ast.Del)))
                        or (isinstance(node, ast.Subscript)
                            and is_attr(node.value, attr)
                            and isinstance(node.ctx, (ast.Store, ast.Del)))
                        # x.cache.clear() and friends
                        or (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in MUTATORS
                            and is_attr(node.func.value, attr)))
                    if touched:
                        sites += 1
                        if cls != "SubscriptionTable":
                            offenders.append((module, node.lineno, attr))
        assert sites >= 5       # the rule is looking at something
        assert offenders == []

    def test_only_commit_appends_to_the_wal_or_streams_to_standbys(self):
        sites = []
        for module, tree in broker_sources():
            for node, cls, func in walk_with_scope(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                call = node.func
                if call.attr == "record_write" or (
                        call.attr == "append" and is_attr(call.value, "wal")):
                    sites.append((cls, func, call.attr))
        assert sorted(sites) == [("Broker", "_commit", "append"),
                                 ("Broker", "_commit", "record_write")]

    def test_the_state_half_imports_nothing_that_could_send(self):
        (tree,) = [tree for module, tree in broker_sources()
                   if module.endswith("broker_state")]
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert {name for name in imported if name.startswith("repro")} \
            == {"repro.middleware.topics"}
