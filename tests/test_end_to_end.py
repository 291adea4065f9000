"""End-to-end tests: the full Figure 1(a) workflow on a deployed district."""

import importlib.util
from pathlib import Path

import pytest

from repro.common.cdf import ActuationResult
from repro.common.identifiers import ServiceUri
from repro.datasources.geometry import BoundingBox
from repro.middleware.topics import decode_event
from repro.network.transport import estimate_size
from repro.ontology.queries import AreaQuery
from repro.simulation.scenario import ScenarioConfig, deploy


@pytest.fixture(scope="module")
def district():
    deployment = deploy(ScenarioConfig(
        seed=42, n_buildings=4, devices_per_building=5, n_networks=1,
        net_jitter=0.0,
    ))
    deployment.run(1800.0)  # 30 simulated minutes of data collection
    return deployment


@pytest.fixture()
def client(district):
    name = f"user-{district.network.stats.messages_sent}"
    return district.client(name)


class TestDeployment:
    def test_all_proxies_registered(self, district):
        assert len(district.bim_proxies) == 4
        assert len(district.sim_proxies) == 1
        assert all(p.registered for p in district.bim_proxies.values())
        assert all(p.registered for p in district.device_proxies.values())
        assert district.gis_proxy.registered

    def test_ontology_mirrors_dataset(self, district):
        root = district.master.ontology.district(district.district_id)
        assert len(root.entities) == 5  # 4 buildings + 1 network
        device_count = sum(len(e.devices) for e in root.entities.values())
        assert device_count == len(district.dataset.devices)
        assert root.gis_uris == [district.gis_proxy.uri]
        assert root.measurement_uris == [district.measurement_db.uri]

    def test_devices_are_sampling(self, district):
        assert district.measurement_db.ingested > 0
        for (entity, protocol), proxy in district.device_proxies.items():
            assert proxy.frames_received > 0, (entity, protocol)

    def test_global_db_sees_every_power_meter(self, district):
        meters = [d for d in district.dataset.devices
                  if d.kind == "power_meter"]
        for meter in meters:
            assert district.measurement_db.freshness(meter.device_id) \
                is not None


class TestResolutionWorkflow:
    def test_whole_district_resolution(self, district, client):
        resolved = client.resolve(AreaQuery(district.district_id))
        assert len(resolved.entities) == 5
        assert resolved.device_count == len(district.dataset.devices)

    def test_bbox_resolution_selects_subset(self, district, client):
        building = district.dataset.buildings[0]
        feature = district.dataset.gis.feature(building.feature_id)
        bounds = feature.geometry.bounds()
        resolved = client.resolve(AreaQuery(
            district.district_id, bbox=bounds, entity_type="building",
        ))
        assert building.entity_id in resolved.entity_ids
        assert len(resolved.entities) < 4 or len(resolved.entities) == 1

    def test_master_redirects_not_relays(self, district, client):
        before = dict(district.network.stats.per_host_received)
        resolved = client.resolve(AreaQuery(district.district_id))
        for entity in resolved.entities:
            for device in entity.devices:
                client.fetch_device_data(device, device.quantities[0])
        after = district.network.stats.per_host_received
        # the master served exactly one request in this block; all data
        # requests hit the proxies directly
        assert after["master"] - before.get("master", 0) == 1


class TestIntegrationWorkflow:
    def test_full_area_model(self, district, client):
        model = client.build_area_model(
            AreaQuery(district.district_id), with_data=True,
        )
        assert len(model.buildings) == 4
        assert len(model.networks) == 1
        for building in model.buildings:
            assert set(building.source_kinds) == {"bim", "gis"}
            assert building.geometry is not None
            assert building.properties.get("floor_area_m2") > 0
            assert building.properties.get("cadastral_id")
        network = model.networks[0]
        assert "sim" in network.source_kinds

    def test_measurements_attached(self, district, client):
        model = client.build_area_model(
            AreaQuery(district.district_id), with_data=True,
        )
        meters = [d for d in district.dataset.devices
                  if d.kind == "power_meter"]
        for meter in meters:
            entity = model.entity(meter.entity_id)
            samples = entity.samples(meter.device_id, "power")
            assert len(samples) >= 25  # ~30 samples in 30 min at 60s

    def test_sim_gis_join_finds_served_buildings(self, district, client):
        model = client.build_area_model(AreaQuery(district.district_id))
        network_id = district.dataset.networks[0].entity_id
        served = model.served_buildings(network_id)
        expected = {
            b.entity_id for b in district.dataset.buildings
            if b.cadastral_id in
            district.dataset.networks[0].sim.service_points().values()
        }
        assert set(served) == expected
        assert served  # the join yields at least one building

    def test_cross_format_consistency(self, district, client):
        # the cadastral id must agree between the BIM and GIS models of
        # every building: heterogeneity hidden, data consistent
        model = client.build_area_model(AreaQuery(district.district_id))
        for building in model.buildings:
            bim = building.sources["bim"]
            gis = building.sources["gis"]
            assert bim.properties["cadastral_id"] == \
                gis.properties["cadastral_id"]

    def test_measured_power_tracks_ground_truth(self, district, client):
        model = client.build_area_model(
            AreaQuery(district.district_id), with_data=True,
        )
        for building_spec in district.dataset.buildings:
            meter = building_spec.devices[0]
            entity = model.entity(building_spec.entity_id)
            samples = entity.samples(meter.device_id, "power")
            assert samples
            t, measured = samples[-1]
            truth = max(building_spec.load_profile.value(t), 0.0)
            # protocol quantisation and noise allow small deviations
            assert measured == pytest.approx(truth, rel=0.05, abs=10.0)


class TestActuationEndToEnd:
    def test_remote_setpoint_change(self, district):
        client = district.client("actuator-user")
        resolved = client.resolve(AreaQuery(district.district_id))
        actuators = [
            d for e in resolved.entities for d in e.devices
            if d.is_actuator and "setpoint" in d.quantities
        ]
        assert actuators, "scenario deployed no HVAC controllers"
        target = actuators[0]
        results = []
        client.actuate(target, "setpoint", 24.0,
                       on_result=results.append)
        district.run(10.0)
        assert len(results) == 1
        assert isinstance(results[0], ActuationResult)
        assert results[0].accepted
        device = district.devices[target.device_id]
        assert device.channel("setpoint").read(0.0) == 24.0


    def test_answered_actuations_leave_no_subscription_behind(
            self, district):
        # each actuate(on_result=...) subscribes once for its result; a
        # result that arrived must take its subscription with it
        client = district.client("oneshot-user")
        resolved = client.resolve(AreaQuery(district.district_id))
        target = next(d for e in resolved.entities for d in e.devices
                      if d.is_actuator and "setpoint" in d.quantities)
        peer = client.peer
        before = (len(peer._by_token), len(peer._by_sub_id))
        results = []
        for setpoint in (21.0, 22.0, 23.0, 24.0):
            client.actuate(target, "setpoint", setpoint,
                           on_result=results.append)
            district.run(10.0)
        assert [r.accepted for r in results] == [True] * 4
        assert (len(peer._by_token), len(peer._by_sub_id)) == before


    def test_a_body_that_is_not_a_result_is_waited_past(self):
        # any peer may publish on actuation/<device>; the one-shot
        # callback ignores what does not decode and keeps listening.
        # Its own district: the junk is retained, so the broker replays
        # it to the result's subscription ahead of the result
        district = deploy(ScenarioConfig(
            seed=42, n_buildings=1, devices_per_building=5, n_networks=1,
            net_jitter=0.0,
        ))
        district.run(60.0)
        client = district.client("patient-user")
        resolved = client.resolve(AreaQuery(district.district_id))
        target = next(d for e in resolved.entities for d in e.devices
                      if d.is_actuator and "setpoint" in d.quantities)
        topic = f"actuation/{target.device_id}"
        vandal = district.client("vandal").peer
        vandal.publish(topic, {"command": "setpoint"}, retain=True)
        district.run(1.0)
        seen = []
        client.peer.subscribe(topic, seen.append)
        results = []
        client.actuate(target, "setpoint", 20.0, on_result=results.append)
        district.run(10.0)
        assert [e.payload for e in seen] == [{"command": "setpoint"}] + \
            [results[0].to_event()]
        assert len(results) == 1 and results[0].accepted
        assert results[0].device_id == target.device_id


    def test_one_actuation_wire_is_pinned(self):
        # each frame says only what neither a default nor the request
        # says: no "ack": false on the subscribe, no "retain": false on
        # the publish, no 202 body, no completed_at beside the
        # envelope's published_at; and each is sized where it is built
        district = deploy(ScenarioConfig(
            seed=42, n_buildings=1, devices_per_building=5, n_networks=1,
            net_jitter=0.0, publish_buffer=256,
        ))
        district.run(60.0)
        client = district.client("wire-user")
        resolved = client.resolve(AreaQuery(district.district_id))
        target = next(d for e in resolved.entities for d in e.devices
                      if d.is_actuator and "setpoint" in d.quantities)
        proxy = ServiceUri.parse(target.proxy_uri).host
        topic = f"actuation/{target.device_id}"
        network = district.network
        frames = []
        send = network.send

        def spy(sender, recipient, port, payload, size=None):
            frames.append((sender, recipient, payload, size))
            send(sender, recipient, port, payload, size=size)

        network.send = spy
        results = []
        client.actuate(target, "setpoint", 20.0, on_result=results.append)
        district.run(10.0)
        publish, = [payload for _, _, payload, _ in frames
                    if payload.get("verb") == "publish"
                    and payload["topic"] == topic]
        pub_ack = {"kind": "pub-ack", "pub_id": publish["pub_id"]}
        wire = [(sender, recipient, payload, size)
                for sender, recipient, payload, size in frames
                if "wire-user" in (sender, recipient) or payload is publish
                or (recipient == proxy and payload == pub_ack)]
        assert [(sender, recipient, sorted(payload))
                for sender, recipient, payload, _ in wire] == [
            ("wire-user", "broker", ["pattern", "port", "token", "verb"]),
            ("wire-user", proxy, ["body", "method", "path", "request_id"]),
            ("broker", "wire-user", ["kind", "sub_id", "token"]),
            (proxy, "wire-user", ["request_id", "status"]),
            (proxy, "broker", ["ack_port", "payload", "pub_id",
                               "published_at", "topic", "verb"]),
            ("broker", "wire-user", ["kind", "payload", "published_at",
                                     "sub_id", "topic"]),
            ("broker", proxy, ["kind", "pub_id"]),
            ("wire-user", "broker", ["sub_id", "verb"]),
        ]
        assert sorted(publish["payload"]) == ["accepted", "command",
                                              "detail"]
        assert [size for *_, size in wire] == [
            estimate_size(payload) for _, _, payload, _ in wire]
        # 949 B with "ack": false, "retain": false, the 202's echo body
        # and completed_at (twice): 14 + 17 + 120 + 2 * 28 B more
        assert sum(size for *_, size in wire) == 742
        assert len(results) == 1 and results[0].accepted
        assert results[0].completed_at == publish["published_at"]


class TestLiveSubscription:
    def test_client_receives_live_measurements(self, district):
        client = district.client("live-user")
        events = []
        client.subscribe_measurements(events.append,
                                      district_id=district.district_id,
                                      quantity="power")
        district.run(120.0)
        assert events
        samples = [decode_event(e.topic, e.payload, e.published_at)
                   for e in events]
        assert {m.quantity for m in samples} == {"power"}
        assert all(m.unit == "W" for m in samples)


class TestDemandResponseExample:
    """``examples/demand_response.py`` reads live events the way any
    application must: through the topic-aware decoder."""

    def test_controller_records_power_and_actuates(self):
        # its own district: the controller actuates every HVAC
        district = deploy(ScenarioConfig(
            seed=42, n_buildings=2, devices_per_building=5, n_networks=1,
        ))
        district.run(600.0)
        path = Path(__file__).resolve().parents[1] / "examples" / \
            "demand_response.py"
        spec = importlib.util.spec_from_file_location("demand_response", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        controller = example.DemandResponseController(district,
                                                      threshold_watts=1000.0)
        meters = {device_id for device_id, device in district.devices.items()
                  if "power" in device.quantities}
        # a late-joining monitor learns every meter's last value at once
        district.run(1.0)
        assert set(controller.latest_power) == meters
        assert all(isinstance(watts, float)
                   for watts in controller.latest_power.values())
        district.run(300.0)
        assert controller.triggered and controller.hvacs
        assert controller.actions == [d.device_id for d in controller.hvacs]
        assert len(controller.results) == len(controller.actions)
