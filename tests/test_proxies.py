"""Tests for Device-proxies and Database-proxies."""

import numpy as np
import pytest

from repro.common import serialization
from repro.datasources.bim import build_office_bim
from repro.datasources.generators import synthesize_district
from repro.devices.catalog import power_meter, smart_plug
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.devices.profiles import ConstantProfile
from repro.errors import ConfigurationError
from repro.middleware.broker import Broker
from repro.middleware.peer import connect
from repro.middleware.topics import actuation_topic, decode_event
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.protocols import make_adapter
from repro.protocols.base import crc8
from repro.proxies.database_proxy import BimProxy, GisProxy, SimProxy
from repro.proxies.device_proxy import DeviceProxy
from repro.core.master import MasterNode


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


@pytest.fixture
def broker(net):
    return Broker(net.add_host("broker"))


def make_device_proxy(net, broker, protocol="zigbee", retention=None,
                      actuation_timeout=2.0):
    proxy = DeviceProxy(
        net.add_host(f"proxy-dev-{protocol}"),
        adapter=make_adapter(protocol),
        broker_host="broker",
        district_id="dst-0001",
        retention=retention,
        actuation_timeout=actuation_timeout,
    )
    return proxy


def attach_meter(net, proxy, device_id="dev-0001",
                 address="00:12:4b:00:00:00:00:01", watts=500.0,
                 period=60.0):
    device = power_meter(device_id, "zigbee", address, "bld-0001",
                         ConstantProfile(watts), sample_period=period)
    link = RadioLink(net.scheduler, latency=0.01)
    proxy.attach_device(device, link)
    firmware = DeviceFirmware(device, make_adapter("zigbee"), link,
                              net.scheduler)
    firmware.start()
    return device, link, firmware


class TestDeviceProxyLayers:
    def test_frames_land_in_local_database(self, net, broker):
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy, watts=750.0)
        net.scheduler.run_until(121.0)
        timestamp, value = proxy.database.latest("dev-0001", "power")
        assert value == pytest.approx(750.0, rel=0.01)
        assert proxy.frames_received == 2

    def test_measurements_published_to_middleware(self, net, broker):
        proxy = make_device_proxy(net, broker)
        events = []
        subscriber = connect(net.add_host("sub"), "broker")
        subscriber.subscribe("district/#", events.append)
        net.scheduler.run_until_idle()
        attach_meter(net, proxy)
        net.scheduler.run_until(61.0)
        assert len(events) == 1
        assert events[0].topic == (
            "district/dst-0001/entity/bld-0001/device/dev-0001/power"
        )
        measurement = decode_event(events[0].topic, events[0].payload,
                                   events[0].published_at)
        assert (measurement.device_id, measurement.entity_id) == \
            ("dev-0001", "bld-0001")
        assert measurement.source == proxy.name
        assert (measurement.timestamp, measurement.value) == \
            proxy.database.latest("dev-0001", "power")
        assert measurement.metadata == {"protocol": "zigbee", "seq": 1}

    def test_wrong_protocol_device_rejected(self, net, broker):
        proxy = make_device_proxy(net, broker, protocol="enocean")
        device = power_meter("dev-0001", "zigbee",
                             "00:12:4b:00:00:00:00:01", "bld-0001",
                             ConstantProfile(1.0))
        with pytest.raises(ConfigurationError):
            proxy.attach_device(device, RadioLink(net.scheduler))

    def test_duplicate_device_rejected(self, net, broker):
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy)
        device = power_meter("dev-0001", "zigbee",
                             "00:12:4b:00:00:00:00:02", "bld-0001",
                             ConstantProfile(1.0))
        with pytest.raises(ConfigurationError):
            proxy.attach_device(device, RadioLink(net.scheduler))

    def test_duplicate_address_rejected(self, net, broker):
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy)
        device = power_meter("dev-0002", "zigbee",
                             "00:12:4b:00:00:00:00:01", "bld-0001",
                             ConstantProfile(1.0))
        with pytest.raises(ConfigurationError):
            proxy.attach_device(device, RadioLink(net.scheduler))

    def test_corrupt_frame_counted_rejected(self, net, broker):
        proxy = make_device_proxy(net, broker)
        _device, link, _fw = attach_meter(net, proxy)
        link.uplink(b"\x00\x01garbage")
        net.scheduler.run_until(1.0)
        assert proxy.frames_rejected == 1

    @pytest.mark.parametrize("protocol, address",
                             [("coap", "fd00::1"), ("enocean", "0000b001")])
    def test_frame_that_broke_the_decoder_is_rejected(self, net, broker,
                                                      protocol, address):
        """Radio input never unwinds the scheduler: a CoAP Uri-Path that
        is not UTF-8, and an EnOcean telegram resealed with a 3-byte data
        field, are rejected frames, and the proxy goes on ingesting."""
        proxy = make_device_proxy(net, broker, protocol=protocol)
        device = power_meter("dev-0001", protocol, address, "bld-0001",
                             ConstantProfile(500.0), sample_period=60.0)
        link = RadioLink(net.scheduler, latency=0.01)
        proxy.attach_device(device, link)
        adapter = make_adapter(protocol)
        DeviceFirmware(device, adapter, link, net.scheduler).start()
        frame = adapter.encode_readings(address, [("power", 1.0)], 0.0)
        if protocol == "coap":
            at = frame.index(b"sensors")
            bad = frame[:at] + bytes([frame[at] ^ 0xFF]) + frame[at + 1:]
        else:
            body = frame[:9]  # RORG, 3 data bytes, sender, status
            bad = body + bytes([crc8(body)])
        link.uplink(bad)
        net.scheduler.run_until(121.0)
        assert proxy.frames_rejected == 1
        # the 120 s sample (EnOcean stamps it on arrival)
        timestamp, value = proxy.database.latest("dev-0001", "power")
        assert 120.0 <= timestamp < 121.0
        assert value == 500.0

    def test_unknown_address_rejected(self, net, broker):
        proxy = make_device_proxy(net, broker)
        _device, link, _fw = attach_meter(net, proxy)
        foreign = make_adapter("zigbee").encode_readings(
            "00:12:4b:00:00:00:00:99", [("power", 1.0)], 0.0
        )
        link.uplink(foreign)
        net.scheduler.run_until(1.0)
        assert proxy.frames_rejected == 1
        assert proxy.database.sample_count() == 0

    def test_retention_applied(self, net, broker):
        proxy = make_device_proxy(net, broker, retention=120.0)
        attach_meter(net, proxy, period=60.0)
        net.scheduler.run_until(601.0)
        series = proxy.database.series("dev-0001", "power")
        assert series.first()[0] >= 600.0 - 120.0 - 1.0


class TestDeviceProxyWebService:
    def test_devices_route_lists_descriptions(self, net, broker):
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy)
        client = HttpClient(net.add_host("user"))
        response = client.get(proxy.uri.rstrip("/") + "/devices")
        documents = serialization.decode(response.body["document"],
                                         response.body["format"])
        assert len(documents) == 1
        assert documents[0].device_id == "dev-0001"
        assert documents[0].protocol == "zigbee"

    def test_devices_route_xml(self, net, broker):
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy)
        client = HttpClient(net.add_host("user"))
        response = client.get(proxy.uri.rstrip("/") + "/devices",
                              params={"format": "xml"})
        documents = serialization.decode(response.body["document"], "xml")
        assert documents[0].device_id == "dev-0001"

    def test_data_route(self, net, broker):
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy, watts=100.0)
        net.scheduler.run_until(181.0)
        client = HttpClient(net.add_host("user"))
        response = client.get(
            proxy.uri.rstrip("/") + "/data",
            params={"device_id": "dev-0001", "quantity": "power"},
        )
        samples = response.body["samples"]
        assert len(samples) == 3
        assert all(v == pytest.approx(100.0, rel=0.01) for _t, v in samples)

    def test_latest_route(self, net, broker):
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy, watts=320.0)
        net.scheduler.run_until(61.0)
        client = HttpClient(net.add_host("user"))
        response = client.get(
            proxy.uri.rstrip("/") + "/latest/dev-0001/power"
        )
        assert response.body["value"] == pytest.approx(320.0, rel=0.01)

    def test_latest_route_404(self, net, broker):
        proxy = make_device_proxy(net, broker)
        client = HttpClient(net.add_host("user"))
        response = client.call(
            proxy.uri.rstrip("/") + "/latest/dev-0404/power", check=False
        )
        assert response.status == 404


class TestActuationFlow:
    def attach_plug(self, net, proxy):
        device = smart_plug("dev-0002", "zigbee",
                            "00:12:4b:00:00:00:00:02", "bld-0001",
                            ConstantProfile(90.0))
        link = RadioLink(net.scheduler, latency=0.01)
        proxy.attach_device(device, link)
        firmware = DeviceFirmware(device, make_adapter("zigbee"), link,
                                  net.scheduler)
        firmware.start()
        return device, link, firmware

    def collect_results(self, net, device_id):
        results = []
        subscriber = connect(net.add_host(f"results-{device_id}"), "broker")
        subscriber.subscribe(
            actuation_topic(device_id),
            lambda e: results.append(
                decode_event(e.topic, e.payload, e.published_at)),
        )
        # the attached firmware samples periodically, so the queue never
        # drains -- run just long enough for the subscription to land
        net.scheduler.run_for(1.0)
        return results

    def test_device_event_keys_are_pinned(self, net, broker):
        # each fact once: the topic names the device (and a sample's
        # entity and quantity, hence its unit) and the envelope's
        # published_at a result's completion, so the event says only
        # the rest -- no record tag, no unit, no completed_at; the 202
        # has no body, as the request already names device and command
        proxy = make_device_proxy(net, broker)
        self.attach_plug(net, proxy)
        keys = {}
        spy = connect(net.add_host("spy"), "broker")
        for pattern in ("district/#", "actuation/#"):
            spy.subscribe(pattern, lambda e: keys.setdefault(
                e.topic.split("/")[0], sorted(e.payload)))
        net.scheduler.run_for(1.0)
        response = HttpClient(net.add_host("user")).post(
            proxy.uri.rstrip("/") + "/actuate/dev-0002",
            body={"command": "switch", "value": 0.0},
        )
        assert (response.status, response.body) == (202, None)
        net.scheduler.run_for(3.0)
        assert keys == {
            "district": ["metadata", "source", "timestamp", "value"],
            "actuation": ["accepted", "command", "detail"],
        }

    def test_successful_actuation_publishes_result(self, net, broker):
        proxy = make_device_proxy(net, broker)
        device, _link, _fw = self.attach_plug(net, proxy)
        results = self.collect_results(net, "dev-0002")
        client = HttpClient(net.add_host("user"))
        response = client.post(
            proxy.uri.rstrip("/") + "/actuate/dev-0002",
            body={"command": "switch", "value": 0.0},
        )
        assert response.status == 202
        net.scheduler.run_until(net.scheduler.now + 3.0)
        assert len(results) == 1
        assert results[0].accepted
        assert device.channel("state").read(0.0) == 0.0

    def test_offline_device_times_out(self, net, broker):
        proxy = make_device_proxy(net, broker, actuation_timeout=1.0)
        device, _link, firmware = self.attach_plug(net, proxy)
        firmware.stop()  # device offline: never reports back
        results = self.collect_results(net, "dev-0002")
        client = HttpClient(net.add_host("user"))
        client.post(proxy.uri.rstrip("/") + "/actuate/dev-0002",
                    body={"command": "switch", "value": 0.0})
        net.scheduler.run_until(net.scheduler.now + 2.0)
        assert len(results) == 1
        assert not results[0].accepted
        assert "timeout" in results[0].detail

    def test_actuate_unknown_device_404(self, net, broker):
        proxy = make_device_proxy(net, broker)
        client = HttpClient(net.add_host("user"))
        response = client.call(
            proxy.uri.rstrip("/") + "/actuate/dev-0404",
            method="POST", body={"command": "switch"}, check=False,
        )
        assert response.status == 404

    def test_actuate_without_command_400(self, net, broker):
        proxy = make_device_proxy(net, broker)
        self.attach_plug(net, proxy)
        client = HttpClient(net.add_host("user"))
        response = client.call(
            proxy.uri.rstrip("/") + "/actuate/dev-0002",
            method="POST", body={}, check=False,
        )
        assert response.status == 400


    @pytest.mark.parametrize("value", ["warm", 1e9, float("inf"),
                                       float("nan"),
                                       pytest.param(10 ** 400,
                                                    id="10**400")])
    def test_actuate_value_the_frame_cannot_carry_400(self, net, broker,
                                                      value):
        proxy = make_device_proxy(net, broker)
        self.attach_plug(net, proxy)
        client = HttpClient(net.add_host("user"))
        response = client.call(
            proxy.uri.rstrip("/") + "/actuate/dev-0002", method="POST",
            body={"command": "switch", "value": value}, check=False,
        )
        assert response.status == 400
        assert "cannot encode command" in response.reason

    def test_actuate_handler_bug_surfaces_as_500(self, net, broker):
        # only encoding errors are the caller's fault; anything else
        # must not be dressed up as a 400
        proxy = make_device_proxy(net, broker)
        self.attach_plug(net, proxy)

        def broken(address, command, value):
            raise KeyError("adapter bug")

        proxy.adapter.encode_command = broken
        client = HttpClient(net.add_host("user"))
        response = client.call(
            proxy.uri.rstrip("/") + "/actuate/dev-0002", method="POST",
            body={"command": "switch", "value": 1.0}, check=False,
        )
        assert response.status == 500
        assert "KeyError" in response.reason


class TestDatabaseProxies:
    def test_bim_proxy_model_route(self, net):
        rng = np.random.RandomState(0)
        store = build_office_bim(rng, "HQ", 2, 2, 1000.0, "TO-01-1000",
                                 1999)
        proxy = BimProxy(net.add_host("proxy-bim"), store, "bld-0001",
                         "dst-0001")
        client = HttpClient(net.add_host("user"))
        for fmt in ("json", "xml"):
            response = client.get(proxy.uri.rstrip("/") + "/model",
                                  params={"format": fmt})
            model = serialization.decode(response.body["document"], fmt)
            assert model.entity_id == "bld-0001"
            assert model.source_kind == "bim"
        assert proxy.translations == 2

    def test_bim_proxy_bad_format(self, net):
        rng = np.random.RandomState(0)
        store = build_office_bim(rng, "HQ", 2, 2, 1000.0, "TO-01-1000",
                                 1999)
        proxy = BimProxy(net.add_host("proxy-bim"), store, "bld-0001",
                         "dst-0001")
        client = HttpClient(net.add_host("user"))
        response = client.call(proxy.uri.rstrip("/") + "/model",
                               params={"format": "csv"}, check=False)
        assert response.status == 400

    def test_bim_proxy_record_routes(self, net):
        rng = np.random.RandomState(0)
        store = build_office_bim(rng, "HQ", 1, 2, 500.0, "TO-01-1000", 1999)
        proxy = BimProxy(net.add_host("proxy-bim"), store, "bld-0001",
                         "dst-0001")
        client = HttpClient(net.add_host("user"))
        spaces = client.get(proxy.uri.rstrip("/") + "/spaces").body["spaces"]
        assert len(spaces) == 2
        guid = spaces[0]["guid"]
        record = client.get(proxy.uri.rstrip("/") + f"/record/{guid}").body
        assert record["GlobalId"] == guid
        missing = client.call(proxy.uri.rstrip("/") + "/record/nope",
                              check=False)
        assert missing.status == 404

    def test_sim_proxy_routes(self, net):
        district = synthesize_district(seed=1, n_buildings=4, n_networks=1)
        spec = district.networks[0]
        proxy = SimProxy(net.add_host("proxy-sim"), spec.sim,
                         spec.entity_id, district.district_id)
        client = HttpClient(net.add_host("user"))
        response = client.get(proxy.uri.rstrip("/") + "/model")
        model = serialization.decode(response.body["document"], "json")
        assert model.entity_type == "network"
        # the service points travel in the model as "serves" relations
        serves = {r.subject: r.object for r in model.relations
                  if r.relation == "serves"}
        assert serves and serves == spec.sim.service_points()

    def test_gis_proxy_routes(self, net):
        # the proxy serves one route, a feature's model; listing the
        # features is the store's own verb (the /features route went,
        # nothing but tests asked for it)
        district = synthesize_district(seed=1, n_buildings=4)
        proxy = GisProxy(net.add_host("proxy-gis"), district.gis,
                         district.district_id)
        client = HttpClient(net.add_host("user"))
        features = district.gis.layer("buildings")
        assert len(features) == 4
        fid = features[0].feature_id
        response = client.get(
            proxy.uri.rstrip("/") + f"/feature/{fid}",
            params={"entity_id": "bld-0001"},
        )
        model = serialization.decode(response.body["document"], "json")
        assert model.source_kind == "gis"
        assert model.geometry is not None
        for path in ("/features", "/locate"):
            gone = client.call(proxy.uri.rstrip("/") + path, check=False)
            assert gone.status == 404

    def test_gis_proxy_bbox_query(self, net):
        # the bounding-box query the /features route wrapped, asked of
        # the store: the district's bounds hold every feature, and a
        # layer narrows them
        district = synthesize_district(seed=1, n_buildings=4)
        bounds = district.gis.district_bounds()
        assert district.gis.query_bbox(bounds) == district.gis.features()
        assert district.gis.query_bbox(bounds, "buildings") \
            == district.gis.layer("buildings")

    def test_gis_features_bug_is_a_counted_500(self, net):
        # an unknown layer is the caller's fault (the store refuses it);
        # a store that fails any other way while the proxy serves
        # /feature/{id} is a bug the service counts as one
        district = synthesize_district(seed=1, n_buildings=2)
        proxy = GisProxy(net.add_host("proxy-gis"), district.gis,
                         district.district_id)
        client = HttpClient(net.add_host("user"))
        with pytest.raises(ConfigurationError):
            district.gis.layer("rivers")

        def broken(_feature_id):
            raise KeyError("feature index")

        proxy.store.feature = broken
        response = client.call(proxy.uri.rstrip("/") + "/feature/ft-00001",
                               check=False)
        assert response.status == 500
        assert proxy.metrics()["handler_errors"] == 1

    def test_gis_locate_needs_coordinates(self, net):
        # locating a point is the store's query_point (the /locate route
        # went): a building's centroid finds that building, and a point
        # outside the district finds nothing
        district = synthesize_district(seed=1, n_buildings=2)
        building = district.gis.layer("buildings")[0]
        centroid = building.geometry.centroid()
        hits = district.gis.query_point(centroid[0], centroid[1])
        assert [f.feature_id for f in hits] == [building.feature_id]
        bounds = district.gis.district_bounds()
        assert district.gis.query_point(bounds.max_x + 1.0,
                                        bounds.max_y + 1.0) == []


class TestRegistrationHandshake:
    def test_bim_proxy_registers_on_master(self, net):
        master = MasterNode(net.add_host("master"))
        rng = np.random.RandomState(0)
        store = build_office_bim(rng, "HQ", 1, 1, 100.0, "TO-01-1000", 2001)
        proxy = BimProxy(net.add_host("proxy-bim"), store, "bld-0001",
                         "dst-0001")
        body = proxy.register_with(master.uri)
        assert body["attached"] == "entity"
        assert proxy.registered
        entity = master.ontology.district("dst-0001").entity("bld-0001")
        assert entity.proxy_uris["bim"] == proxy.uri

    def test_device_proxy_registers_devices(self, net, broker):
        master = MasterNode(net.add_host("master"))
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy)
        body = proxy.register_with(master.uri)
        assert body["device_ids"] == ["dev-0001"]
        device = master.ontology.district("dst-0001").entity(
            "bld-0001").devices["dev-0001"]
        assert device.proxy_uri == proxy.uri
        assert "power" in device.quantities

    def test_unreachable_master_raises_registration_error(self, net,
                                                          broker):
        from repro.errors import RegistrationError

        master = MasterNode(net.add_host("master"))
        net.set_host_online("master", False)
        proxy = make_device_proxy(net, broker)
        attach_meter(net, proxy)
        proxy._client.timeout = 0.5
        with pytest.raises(RegistrationError):
            proxy.register_with(master.uri)
        assert not proxy.registered

    def test_rejected_registration_raises(self, net, broker):
        from repro.errors import RegistrationError

        MasterNode(net.add_host("master"))
        proxy = make_device_proxy(net, broker)
        # no devices attached: the master refuses the registration
        with pytest.raises(RegistrationError):
            proxy.register_with("svc://master/")
