"""Experiment F1b — Figure 1(b), the Device-proxy schema.

Measures the cost of each of the proxy's three layers, per protocol:

* **dedicated layer** — wall-clock frame decode cost (the protocol-
  specific translation work);
* **local database** — wall-clock insert cost per sample;
* **Web Service layer** — simulated latency of a ``/latest`` request
  and of the pub/sub publication reaching a subscriber.

The wall-clock benchmarks are parametrized by protocol so the
pytest-benchmark table itself is the per-protocol comparison.
"""

import pytest

from repro.common.cdf import Measurement
from repro.middleware.broker import Broker
from repro.middleware.peer import connect
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.observability import MetricsRegistry
from repro.protocols import make_adapter
from repro.storage.localdb import LocalDatabase

EXPERIMENT = "F1b"

PROTOCOLS = ("ieee802154", "zigbee", "enocean", "opcua", "coap", "ble")
ADDRESSES = {
    "ieee802154": "0x0b0b",
    "zigbee": "00:12:4b:00:00:00:0b:0b",
    "enocean": "01000b0b",
    "opcua": "PLC0b.Meter",
    "coap": "fd00::b0b",
    "ble": "c4:7c:8d:00:0b:0b",
}


def make_frame(protocol):
    adapter = make_adapter(protocol)
    address = ADDRESSES[protocol]
    quantity = "power" if adapter.supports_quantity("power") \
        else "temperature"
    if protocol == "enocean":
        adapter.decode_frame(adapter.encode_teach_in(
            address, adapter.eep_for_quantities([quantity])))
    frame = adapter.encode_readings(address, [(quantity, 1234.0)], 60.0)
    return adapter, frame


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_dedicated_layer_decode(protocol, benchmark, report):
    adapter, frame = make_frame(protocol)
    readings = benchmark(adapter.decode_frame, frame, 60.0)
    assert readings
    mean_us = benchmark.stats.stats.mean * 1e6
    report.header(EXPERIMENT, "Figure 1(b) Device-proxy: per-layer costs")
    report.add(EXPERIMENT,
               f"dedicated-layer decode  {protocol:<11s} "
               f"{mean_us:8.1f} us/frame ({len(frame)} bytes)")


def test_local_database_insert(benchmark, report):
    db = LocalDatabase(retention=7 * 86400.0)
    counter = {"n": 0}

    def insert():
        counter["n"] += 1
        db.insert(Measurement(
            device_id="dev-0001", entity_id="bld-0001", quantity="power",
            value=100.0, timestamp=float(counter["n"] * 60),
        ))

    benchmark(insert)
    mean_us = benchmark.stats.stats.mean * 1e6
    report.add(EXPERIMENT,
               f"local-database insert   {'(all)':<11s} "
               f"{mean_us:8.1f} us/sample")


def test_web_service_layer(benchmark, report):
    """Simulated latency of the WS layer and the pub/sub publication."""
    from repro.devices.catalog import power_meter
    from repro.devices.firmware import DeviceFirmware, RadioLink
    from repro.devices.profiles import ConstantProfile
    from repro.proxies.device_proxy import DeviceProxy

    net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
    Broker(net.add_host("broker"))
    proxy = DeviceProxy(net.add_host("proxy"), make_adapter("zigbee"),
                        "broker", "dst-0001")
    device = power_meter("dev-0001", "zigbee", ADDRESSES["zigbee"],
                         "bld-0001", ConstantProfile(900.0))
    link = RadioLink(net.scheduler, latency=0.01)
    proxy.attach_device(device, link)
    DeviceFirmware(device, make_adapter("zigbee"), link,
                   net.scheduler).start()

    events = []
    subscriber = connect(net.add_host("sub"), "broker")
    subscriber.subscribe("district/#", events.append)
    net.scheduler.run_until(121.0)
    assert events

    metrics = MetricsRegistry()
    delivery = metrics.histogram("pub/sub publish -> subscriber")
    for event in events:
        delivery.observe(event.delivered_at - event.published_at)
    client = HttpClient(net.add_host("user"))

    def ws_request():
        with metrics.simulated("WS GET /latest", net.scheduler):
            return client.get("svc://proxy/latest/dev-0001/power")

    with report.measure(EXPERIMENT, net):
        response = benchmark.pedantic(ws_request, rounds=20, iterations=1)
    assert response.ok
    for summary in map(metrics.summary, metrics.names()):
        report.add(EXPERIMENT, "  " + summary.row())
    report.add(EXPERIMENT,
               f"frames received={proxy.frames_received} "
               f"published={proxy.measurements_published} "
               f"(uplink path fully exercised)")
