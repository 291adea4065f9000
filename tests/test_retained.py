"""Tests for retained messages (late-join last-value transfer)."""

import pytest

from repro.middleware.broker import Broker
from repro.middleware.peer import connect
from repro.middleware.topics import decode_event
from repro.observability import install
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network


@pytest.fixture
def net():
    network = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(network.add_host("broker"))
    return network


class TestRetainedMessages:
    def test_late_subscriber_receives_last_value(self, net):
        publisher = connect(net.add_host("pub"), "broker")
        publisher.publish("state/plant", {"v": 1}, retain=True)
        publisher.publish("state/plant", {"v": 2}, retain=True)
        net.scheduler.run_until_idle()
        events = []
        late = connect(net.add_host("late"), "broker")
        late.subscribe("state/#", events.append)
        net.scheduler.run_until_idle()
        assert len(events) == 1
        assert events[0].payload == {"v": 2}  # only the latest value
        assert events[0].retained

    def test_retained_replay_drops_publisher_trace(self, net):
        # regression: the retained copy used to keep the publisher's
        # live span header, so a replay at subscribe time — possibly
        # much later — parented the delivery span under a long-finished
        # trace.  The replayed delivery must be trace-root-less.
        install(net)
        publisher = connect(net.add_host("pub"), "broker")
        publisher.publish("state/plant", {"v": 1}, retain=True)
        net.scheduler.run_until_idle()
        publish_traces = {s.trace_id for s in net.tracer.spans()}
        assert publish_traces  # the live publication was traced
        events = []
        late = connect(net.add_host("late"), "broker")
        late.subscribe("state/#", events.append)
        net.scheduler.run_until_idle()
        assert len(events) == 1 and events[0].retained
        deliveries = [s for s in net.tracer.spans()
                      if s.name.startswith("deliver ")]
        # no delivery span was parented under the publisher's old trace
        assert all(s.trace_id not in publish_traces for s in deliveries)

    def test_non_retained_not_replayed(self, net):
        publisher = connect(net.add_host("pub"), "broker")
        publisher.publish("state/plant", {"v": 1})  # retain=False
        net.scheduler.run_until_idle()
        events = []
        late = connect(net.add_host("late"), "broker")
        late.subscribe("state/#", events.append)
        net.scheduler.run_until_idle()
        assert events == []

    def test_retained_replay_respects_filter(self, net):
        publisher = connect(net.add_host("pub"), "broker")
        publisher.publish("a/x", 1, retain=True)
        publisher.publish("b/y", 2, retain=True)
        net.scheduler.run_until_idle()
        events = []
        late = connect(net.add_host("late"), "broker")
        late.subscribe("a/+", events.append)
        net.scheduler.run_until_idle()
        assert [e.payload for e in events] == [1]

    def test_live_events_not_marked_retained(self, net):
        publisher = connect(net.add_host("pub"), "broker")
        events = []
        subscriber = connect(net.add_host("sub"), "broker")
        subscriber.subscribe("live/#", events.append)
        net.scheduler.run_until_idle()
        publisher.publish("live/x", 7, retain=True)
        net.scheduler.run_until_idle()
        assert len(events) == 1
        assert not events[0].retained

    def test_multiple_retained_topics_all_replayed(self, net):
        publisher = connect(net.add_host("pub"), "broker")
        for i in range(5):
            publisher.publish(f"metrics/m{i}", i, retain=True)
        net.scheduler.run_until_idle()
        events = []
        late = connect(net.add_host("late"), "broker")
        late.subscribe("metrics/#", events.append)
        net.scheduler.run_until_idle()
        assert sorted(e.payload for e in events) == [0, 1, 2, 3, 4]

    def test_every_replay_survives_racing_its_sub_ack(self):
        # the broker sends the sub-ack and then every replay at once;
        # with jitter most replays land before the ack names their
        # sub_id, and the peer holds them for it instead of dropping
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.5))
        Broker(net.add_host("broker"))
        publisher = connect(net.add_host("pub"), "broker")
        for i in range(40):
            publisher.publish(f"metrics/m{i}", i, retain=True)
        net.scheduler.run_until_idle()
        events = []
        late = connect(net.add_host("late"), "broker")
        late.subscribe("metrics/#", events.append)
        net.scheduler.run_until_idle()
        assert sorted(e.payload for e in events) == list(range(40))
        assert all(e.retained for e in events)
        assert late._early == []

    def test_replays_of_a_subscription_cancelled_before_its_ack_drop(self):
        net = Network(Scheduler(), latency=LatencyModel(jitter=0.5))
        Broker(net.add_host("broker"))
        publisher = connect(net.add_host("pub"), "broker")
        for i in range(40):
            publisher.publish(f"metrics/m{i}", i, retain=True)
        net.scheduler.run_until_idle()
        events = []
        late = connect(net.add_host("late"), "broker")
        late.subscribe("metrics/#", events.append).unsubscribe()
        net.scheduler.run_until_idle()
        assert events == []
        assert late._early == [] and late._unacked == set()

    def test_device_proxy_measurements_are_retained(self, net):
        from repro.devices.catalog import power_meter
        from repro.devices.firmware import DeviceFirmware, RadioLink
        from repro.devices.profiles import ConstantProfile
        from repro.protocols import make_adapter
        from repro.proxies.device_proxy import DeviceProxy

        proxy = DeviceProxy(net.add_host("proxy"), make_adapter("zigbee"),
                            "broker", "dst-0001")
        device = power_meter("dev-0001", "zigbee",
                             "00:12:4b:00:00:00:00:01", "bld-0001",
                             ConstantProfile(800.0))
        link = RadioLink(net.scheduler, latency=0.01)
        proxy.attach_device(device, link)
        DeviceFirmware(device, make_adapter("zigbee"), link,
                       net.scheduler).start()
        net.scheduler.run_until(121.0)
        # a monitor joining now still learns the current power
        events = []
        late = connect(net.add_host("late-monitor"), "broker")
        late.subscribe("district/#", events.append)
        # the firmware keeps sampling periodically, so the queue never
        # drains -- run just long enough for the retained replay to land
        net.scheduler.run_for(1.0)
        assert any(e.retained and decode_event(
            e.topic, e.payload, e.published_at).quantity == "power"
            for e in events)
