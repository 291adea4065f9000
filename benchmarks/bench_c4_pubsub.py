"""Experiment C4 — the event-driven middleware (§II, "main feature").

Sweeps subscriber count and measures the pub/sub fabric:

* simulated publish-to-delivery latency (p50/p99) as fan-out grows;
* broker fan-out throughput (deliveries per published event);
* wall-clock topic-matching cost for literal, ``+`` and ``#`` filters
  (the broker's hot loop).

Expected shape: per-subscriber delivery latency grows mildly (the
broker serialises sends), throughput scales with fan-out, and wildcard
matching stays within a small constant factor of literal matching.
"""

import statistics
import time

import pytest

from repro.middleware.broker import Broker
from repro.middleware.peer import connect
from repro.middleware.topics import measurement_topic, topic_matches
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.observability import MetricsRegistry

EXPERIMENT = "C4"
SUBSCRIBER_COUNTS = (1, 4, 16, 64, 256)
EVENTS = 50
MATCHES = 1000


@pytest.mark.parametrize("subscribers", SUBSCRIBER_COUNTS)
def test_fanout_latency(subscribers, benchmark, report):
    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    broker = Broker(net.add_host("broker"))
    publisher = connect(net.add_host("pub"), "broker")
    metrics = MetricsRegistry()
    delivery = metrics.histogram("delivery")
    arrivals = {"n": 0}

    def on_event(event):
        arrivals["n"] += 1
        delivery.observe(event.delivered_at - event.published_at)

    for i in range(subscribers):
        peer = connect(net.add_host(f"sub-{i}"), "broker")
        pattern = "district/+/entity/+/device/+/power" if i % 2 == 0 \
            else "district/#"
        peer.subscribe(pattern, on_event)
    net.scheduler.run_until_idle()

    topic = measurement_topic("dst-0001", "bld-0001", "dev-0001", "power")

    rounds = []

    def publish_burst():
        start, wall0 = arrivals["n"], time.perf_counter()
        for k in range(EVENTS):
            publisher.publish(topic, {"v": k})
        net.scheduler.run_until_idle()
        rounds.append(time.perf_counter() - wall0)
        return arrivals["n"] - start

    with report.measure(EXPERIMENT, net):
        delivered = benchmark.pedantic(publish_burst, rounds=3,
                                       iterations=1)
    assert delivered == EVENTS * subscribers
    summary = metrics.summary("delivery")
    throughput = delivered / statistics.mean(rounds)
    report.header(EXPERIMENT,
                  "pub/sub middleware: fan-out latency and throughput")
    report.record(EXPERIMENT, delivery_p99_ms=summary.p99 * 1e3)
    report.add(EXPERIMENT,
               f"subscribers={subscribers:<4d} "
               f"delivery p50={summary.p50 * 1e3:7.3f}ms "
               f"p99={summary.p99 * 1e3:7.3f}ms "
               f"fanout/publish={broker.stats.fanout_deliveries // max(broker.stats.published, 1):<4d}"
               f" sim-deliveries/s(wall)={throughput:10.0f}")


@pytest.mark.parametrize("pattern,label", [
    ("district/dst-0001/entity/bld-0001/device/dev-0001/power", "literal"),
    ("district/+/entity/+/device/+/power", "plus-wildcards"),
    ("district/#", "hash-wildcard"),
])
def test_topic_matching_cost(pattern, label, benchmark, report):
    topic = measurement_topic("dst-0001", "bld-0001", "dev-0001", "power")
    assert topic_matches(pattern, topic)
    benchmark(topic_matches, pattern, topic)
    wall0 = time.perf_counter()
    for _ in range(MATCHES):
        topic_matches(pattern, topic)
    mean_us = (time.perf_counter() - wall0) / MATCHES * 1e6
    report.add(EXPERIMENT,
               f"topic match {label:<15s} {mean_us:7.2f} us/match")
