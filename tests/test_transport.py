"""Tests for the simulated transport layer."""

import pytest

from repro.errors import ConfigurationError, UnknownHostError
from repro.network.scheduler import Scheduler
from repro.network import transport
from repro.network.transport import (
    LatencyModel,
    Network,
    estimate_size,
    estimate_size_from,
)


@pytest.fixture
def net():
    sched = Scheduler()
    network = Network(sched, latency=LatencyModel(jitter=0.0))
    return network


class TestHosts:
    def test_add_and_lookup(self, net):
        host = net.add_host("master")
        assert net.host("master") is host
        assert net.has_host("master")

    def test_duplicate_host_rejected(self, net):
        net.add_host("master")
        with pytest.raises(ConfigurationError):
            net.add_host("master")

    def test_unknown_host_lookup(self, net):
        with pytest.raises(UnknownHostError):
            net.host("ghost")

    def test_bind_duplicate_port_rejected(self, net):
        host = net.add_host("a")
        host.bind("p", lambda m: None)
        with pytest.raises(ConfigurationError):
            host.bind("p", lambda m: None)

    def test_unbind_then_rebind(self, net):
        host = net.add_host("a")
        host.bind("p", lambda m: None)
        host.unbind("p")
        host.bind("p", lambda m: None)  # no error


class TestDelivery:
    def test_message_delivered_with_latency(self, net):
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("data", inbox.append)
        net.send("a", "b", "data", {"x": 1})
        net.scheduler.run_until_idle()
        assert len(inbox) == 1
        msg = inbox[0]
        assert msg.payload == {"x": 1}
        assert msg.sender == "a"
        assert msg.delivered_at > msg.sent_at

    def test_loopback_is_fast(self, net):
        a = net.add_host("a")
        inbox = []
        a.bind("self", inbox.append)
        a.send("a", "self", "ping")
        net.scheduler.run_until_idle()
        assert inbox[0].delivered_at - inbox[0].sent_at <= 1e-4

    def test_send_to_unknown_host_raises(self, net):
        net.add_host("a")
        with pytest.raises(UnknownHostError):
            net.send("a", "ghost", "p", None)

    def test_send_from_unknown_host_raises(self, net):
        net.add_host("b")
        with pytest.raises(UnknownHostError):
            net.send("ghost", "b", "p", None)

    def test_unbound_port_drops(self, net):
        net.add_host("a")
        net.add_host("b")
        net.send("a", "b", "nowhere", None)
        net.scheduler.run_until_idle()
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_delivered == 0

    def test_served_port_runs_its_handler_after_the_service_time(self,
                                                                 net):
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("served", inbox.append)
        b.bind("plain", inbox.append)
        b.serve("served", 0.5)
        net.send("a", "b", "served", "x")
        net.send("a", "b", "plain", "x")
        net.scheduler.run_until_idle()
        plain, served = sorted(inbox, key=lambda m: m.port)
        # the same arrival, then the service time
        assert served.delivered_at == plain.delivered_at + 0.5
        b.unbind("served")
        assert "served" not in b._service
        b.bind("served", inbox.append)
        net.send("a", "b", "served", "x")
        net.scheduler.run_until_idle()
        again = inbox[-1]
        assert again.delivered_at \
            == again.sent_at + net.latency.delay("a", "b", again.size)

    def test_larger_message_takes_longer(self, net):
        net.add_host("a")
        b = net.add_host("b")
        received = []
        b.bind("p", lambda m: received.append(m))
        net.send("a", "b", "p", "x")
        net.send("a", "b", "p", "y" * 100_000)
        net.scheduler.run_until_idle()
        small = next(m for m in received if m.payload == "x")
        large = next(m for m in received if m.payload != "x")
        assert (large.delivered_at - large.sent_at) > (
            small.delivered_at - small.sent_at
        )


class TestFailureInjection:
    def test_offline_host_drops_messages(self, net):
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("p", inbox.append)
        net.set_host_online("b", False)
        net.send("a", "b", "p", 1)
        net.scheduler.run_until_idle()
        assert inbox == []
        assert net.stats.messages_dropped == 1

    def test_host_restored(self, net):
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("p", inbox.append)
        net.set_host_online("b", False)
        net.send("a", "b", "p", 1)
        net.set_host_online("b", True)
        net.send("a", "b", "p", 2)
        net.scheduler.run_until_idle()
        assert [m.payload for m in inbox] == [2]

    def test_host_going_down_mid_flight_drops(self, net):
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("p", inbox.append)
        net.send("a", "b", "p", 1)
        net.set_host_online("b", False)  # before delivery event fires
        net.scheduler.run_until_idle()
        assert inbox == []

    def test_drop_probability_drops_some(self):
        sched = Scheduler()
        net = Network(sched, latency=LatencyModel(jitter=0.0),
                      drop_probability=0.5, seed=42)
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("p", inbox.append)
        for i in range(200):
            net.send("a", "b", "p", i)
        sched.run_until_idle()
        assert 0 < len(inbox) < 200

    def test_bad_drop_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(Scheduler(), drop_probability=1.0)


class TestLatencyModel:
    def test_deterministic_without_jitter(self):
        model = LatencyModel(base=0.01, bandwidth=1e6, jitter=0.0)
        assert model.delay("a", "b", 1000) == pytest.approx(0.011)

    def test_jitter_varies_but_positive(self):
        model = LatencyModel(jitter=0.3, seed=7)
        delays = [model.delay("a", "b", 100) for _ in range(50)]
        assert len(set(delays)) > 1
        assert all(d > 0 for d in delays)

    def test_same_seed_same_sequence(self):
        d1 = [LatencyModel(seed=3).delay("a", "b", 10) for _ in range(1)]
        d2 = [LatencyModel(seed=3).delay("a", "b", 10) for _ in range(1)]
        assert d1 == d2

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(base=-1.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(bandwidth=0.0)


class TestEstimateSize:
    @pytest.mark.parametrize(
        "payload,expected",
        [
            (None, 1),
            (b"abcd", 4),
            ("hello", 5),
        ],
    )
    def test_simple_payloads(self, payload, expected):
        assert estimate_size(payload) == expected

    def test_dict_payload_counts_json_bytes(self):
        assert estimate_size({"a": 1}) == len('{"a": 1}')

    def test_opaque_object_flat_charge(self):
        assert estimate_size(object) == 256 or estimate_size(object) > 0


class TestStats:
    def test_counters(self, net):
        net.add_host("a")
        b = net.add_host("b")
        b.bind("p", lambda m: None)
        net.send("a", "b", "p", "payload")
        net.scheduler.run_until_idle()
        assert net.stats.messages_sent == 1
        assert net.stats.messages_delivered == 1
        assert net.stats.bytes_sent >= 7
        assert net.stats.per_host_received["b"] == 1

    def test_reset(self, net):
        net.add_host("a")
        b = net.add_host("b")
        b.bind("p", lambda m: None)
        net.send("a", "b", "p", 1)
        net.scheduler.run_until_idle()
        net.stats.reset()
        assert net.stats.messages_sent == 0
        assert net.stats.per_host_received == {}


class TestEstimateSizeExactness:
    """The structural sizer must be value-identical to the seed's
    ``len(json.dumps(payload, default=str).encode("utf-8"))`` — size
    feeds bandwidth latency, and latency feeds event ordering."""

    SHAPES = [
        {},
        [],
        {"a": 1},
        {"kind": "event", "topic": "bldg/3/zone/1/temp", "seq": 17},
        {"nested": {"list": [1, 2.5, None, True, False], "s": "ok"}},
        [1, -42, 0.1, 2.5e-8, 1e20, "x", None, [{"deep": []}]],
        {"float_reprs": [0.1 + 0.2, 1 / 3, -0.0, 1e16, 123456.789]},
        {"unicode": "21°C in café"},
        {"escapes": 'quote " and backslash \\ and\nnewline'},
        {"tuple": (1, 2, 3)},
        {1: "int key", 2.5: "float key"},
        {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
        {"big": "x" * 1000, "ids": [f"dev-{i}" for i in range(50)]},
        {"bool_vs_int": [True, 1, False, 0]},
    ]

    @pytest.mark.parametrize("payload", SHAPES, ids=range(len(SHAPES)))
    def test_matches_json_dumps(self, payload):
        import json

        expected = len(json.dumps(payload, default=str).encode("utf-8"))
        assert estimate_size(payload) == expected

    def test_repeated_strings_hit_cache_and_stay_exact(self):
        import json

        payload = {"topic": "a/b/c", "values": ["a/b/c"] * 10}
        expected = len(json.dumps(payload).encode("utf-8"))
        for _ in range(3):
            assert estimate_size(payload) == expected

    def test_non_ascii_string_payload_counts_utf8_bytes(self):
        assert estimate_size("café") == len("café".encode("utf-8"))


class TestPresizedEstimate:
    """A reply envelope is sized by one walk that equals its JSON
    length, and measuring it leaves the payload untouched."""

    @pytest.mark.parametrize(
        "body",
        [
            None,
            {"attached": "devices", "device_ids": [f"d{i}" for i in range(30)]},
            [1, 2, {"deep": "value"}],
            "plain string body",
            {"exotic": "café ☃"},
        ],
    )
    def test_matches_full_estimate(self, body):
        import json

        envelope = {"kind": "request", "uri": "/register", "body": body,
                    "seq": 7}
        assert estimate_size(envelope) == \
            len(json.dumps(envelope, default=str).encode())

    def test_payload_restored_even_on_measurement(self):
        body = {"x": [1, 2, 3]}
        envelope = {"body": body, "k": "v"}
        estimate_size(envelope)
        assert envelope == {"body": {"x": [1, 2, 3]}, "k": "v"}
        assert envelope["body"] is body


class TestEstimateSizeFrom:
    """A dict sized from another one it shares items with equals a full
    estimate of it, whatever the items — including where their lengths
    do not add up to the whole and a full walk stands in."""

    @pytest.mark.parametrize("payload", [
        {"value": 21.5, "unit": "C"}, None, [1, "two", {"x": [3.0]}],
        "plain text", {"v": "café ☃"}, {"v": float("inf")},
        {("not", "a str"): 1}, object(),
    ])
    @pytest.mark.parametrize("topic", ["t/reading", "t/café"])
    def test_equals_a_full_estimate(self, payload, topic):
        sent = {"verb": "publish", "topic": topic, "payload": payload,
                "published_at": 1.25, "retain": True, "trace": [3, 4]}
        built = {"kind": "event", "topic": topic, "payload": payload,
                 "published_at": sent["published_at"]}
        assert estimate_size_from(estimate_size(sent), sent, built) == \
            estimate_size(built)

    def test_items_that_differ_or_one_side_lacks_are_walked(self):
        sent = {"verb": "publish", "topic": "t/1", "retain": False}
        for built in ({"kind": "event", "topic": "t/1", "payload": None},
                      {"topic": "t/2"}, {"topic": "t/1"}, {},
                      {"verb": "publish", "topic": "t/1", "retain": False}):
            assert estimate_size_from(estimate_size(sent), sent, built) \
                == estimate_size(built), built
        assert estimate_size_from(2, {}, sent) == estimate_size(sent)

    def test_a_non_str_key_is_walked_by_the_encoder(self):
        sent = {"verb": "publish", 7: "seven"}
        built = {"kind": "event", 7: "seven", 8: "eight"}
        assert estimate_size_from(estimate_size(sent), sent, built) == \
            estimate_size(built)


class TestStringLengthCache:
    def test_batch_frame_lines_never_enter_the_cache(self):
        # a small batched district past the cache's capacity in distinct
        # line-protocol lines: each is walked once, so none is cached,
        # and the names the cache is for are never flushed with them
        from repro.proxies.device_proxy import BatchConfig
        from repro.simulation.scenario import ScenarioConfig, deploy

        district = deploy(ScenarioConfig(seed=3, n_buildings=2,
                                         proxy_batching=BatchConfig()))
        cache = transport._STR_LEN_CACHE
        cache.clear()
        cache["sentinel"] = 10  # gone if the cache is ever cleared
        district.run(16 * 3600.0)
        lines = sum(proxy.batch_samples_published
                    for proxy in district.device_proxies.values())
        assert lines > transport._STR_LEN_CACHE_CAP
        assert [key for key in cache if " " in key] == []
        assert cache["sentinel"] == 10


class TestOfflineSenderStats:
    """A message whose sender is offline never leaves the host: dropped
    (with the offline split) but never charged as sent."""

    def test_sender_offline_not_charged_as_sent(self, net):
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("p", inbox.append)
        net.set_host_online("a", False)
        net.send("a", "b", "p", {"x": 1})
        net.scheduler.run_until_idle()
        assert inbox == []
        assert net.stats.messages_sent == 0
        assert net.stats.bytes_sent == 0
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_dropped_offline == 1

    def test_recipient_offline_still_counts_as_sent(self, net):
        net.add_host("a")
        net.add_host("b")
        net.set_host_online("b", False)
        net.send("a", "b", "p", {"x": 1})
        net.scheduler.run_until_idle()
        assert net.stats.messages_sent == 1
        assert net.stats.bytes_sent > 0
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_dropped_offline == 1

    def test_attempted_accounting_balances(self, net):
        net.add_host("a")
        b = net.add_host("b")
        b.bind("p", lambda m: None)
        net.send("a", "b", "p", 1)           # delivered
        net.set_host_online("b", False)
        net.send("a", "b", "p", 2)           # recipient offline
        net.set_host_online("b", True)
        net.set_host_online("a", False)
        net.send("a", "b", "p", 3)           # sender offline
        net.scheduler.run_until_idle()
        stats = net.stats
        attempted = stats.messages_sent + 1  # + sender-offline drop
        assert attempted == 3
        assert stats.messages_delivered + stats.messages_dropped == attempted


class TestSizeOverride:
    def test_size_passthrough_charges_given_size(self, net):
        net.add_host("a")
        b = net.add_host("b")
        inbox = []
        b.bind("p", inbox.append)
        net.send("a", "b", "p", {"x": 1}, size=5000)
        net.scheduler.run_until_idle()
        assert net.stats.bytes_sent == 5000
        assert inbox[0].size == 5000

    def test_size_override_affects_latency(self, net):
        net.add_host("a")
        b = net.add_host("b")
        received = []
        b.bind("p", received.append)
        net.send("a", "b", "p", "tiny", size=1_000_000)
        net.send("a", "b", "p", "tiny", size=1)
        net.scheduler.run_until_idle()
        big = next(m for m in received if m.size == 1_000_000)
        small = next(m for m in received if m.size == 1)
        assert (big.delivered_at - big.sent_at) > \
            (small.delivered_at - small.sent_at)
