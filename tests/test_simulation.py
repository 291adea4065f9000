"""Tests for scenario deployment, workloads and metrics."""

import pytest

from repro.errors import ConfigurationError, QueryError
from repro.datasources.generators import DeviceSpec, synthesize_district
from repro.observability.metrics import MetricsRegistry
from repro.simulation.scenario import (
    DeployedDistrict,
    ScenarioConfig,
    build_device,
    deploy,
)
from repro.simulation.workloads import (
    quantity_queries,
    random_area_queries,
    run_integration_workload,
    run_resolution_workload,
    single_building_queries,
    whole_district_query,
)


@pytest.fixture(scope="module")
def deployment():
    d = deploy(ScenarioConfig(seed=5, n_buildings=4,
                              devices_per_building=3, n_networks=1,
                              net_jitter=0.0))
    d.run(600.0)
    return d


class TestBuildDevice:
    def test_every_generated_kind_buildable(self):
        dataset = synthesize_district(seed=2, n_buildings=4,
                                      devices_per_building=7, n_networks=1)
        for spec in dataset.devices:
            device = build_device(spec, dataset)
            assert device.device_id == spec.device_id
            assert device.protocol == spec.protocol

    def test_unknown_kind_rejected(self):
        dataset = synthesize_district(seed=2, n_buildings=1)
        spec = DeviceSpec("dev-9999", "toaster", "zigbee",
                          "00:00:00:00:00:00:00:01", "bld-0001")
        with pytest.raises(ConfigurationError):
            build_device(spec, dataset)

    def test_power_meter_gets_building_load(self):
        dataset = synthesize_district(seed=2, n_buildings=1)
        meter_spec = dataset.buildings[0].devices[0]
        device = build_device(meter_spec, dataset)
        noon = 4 * 86400 + 12 * 3600.0
        truth = max(dataset.buildings[0].load_profile.value(noon), 0.0)
        assert device.channel("power").read(noon) == pytest.approx(truth)


class TestDeployment:
    def test_counts(self, deployment):
        assert len(deployment.bim_proxies) == 4
        assert len(deployment.firmwares) == \
            len(deployment.dataset.devices)
        assert len(deployment.devices) == len(deployment.dataset.devices)

    def test_device_proxy_grouping(self, deployment):
        for (entity_id, protocol), proxy in \
                deployment.device_proxies.items():
            for device in proxy.devices():
                assert device.entity_id == entity_id
                assert device.protocol == protocol

    def test_stop_devices_halts_sampling(self):
        d = deploy(ScenarioConfig(seed=6, n_buildings=2,
                                  devices_per_building=2, net_jitter=0.0))
        d.run(120.0)
        d.stop_devices()
        d.run(5.0)  # drain frames already in flight
        before = d.measurement_db.ingested
        assert before > 0
        d.run(600.0)
        assert d.measurement_db.ingested == before

    def test_deploy_without_starting_devices(self):
        d = deploy(ScenarioConfig(seed=6, n_buildings=2,
                                  devices_per_building=2, net_jitter=0.0))
        d.stop_devices()
        d.run(300.0)
        assert d.measurement_db.ingested == 0


class TestWorkloads:
    def test_whole_district(self, deployment):
        query = whole_district_query(deployment)
        assert query.district_id == deployment.district_id

    def test_random_area_queries_reproducible(self, deployment):
        a = random_area_queries(deployment, 5, seed=1)
        b = random_area_queries(deployment, 5, seed=1)
        assert a == b
        assert len(a) == 5
        assert all(q.bbox is not None for q in a)

    def test_random_area_validation(self, deployment):
        with pytest.raises(ConfigurationError):
            random_area_queries(deployment, 0)
        with pytest.raises(ConfigurationError):
            random_area_queries(deployment, 1, fraction=0.0)

    def test_single_building_queries(self, deployment):
        queries = single_building_queries(deployment)
        assert len(queries) == 4
        assert all(len(q.entity_ids) == 1 for q in queries)

    def test_quantity_queries(self, deployment):
        (query,) = quantity_queries(deployment, "power")
        assert query.quantity == "power"

    def test_resolution_workload(self, deployment):
        client = deployment.client("workload-user-1")
        result = run_resolution_workload(
            client, deployment, single_building_queries(deployment)
        )
        assert result.queries == 4
        assert result.entities_returned == 4
        summary = result.metrics.summary("resolve")
        assert summary.count == 4
        assert summary.mean > 0

    def test_integration_workload(self, deployment):
        client = deployment.client("workload-user-2")
        result = run_integration_workload(
            client, deployment, [whole_district_query(deployment)],
            with_data=True,
        )
        assert result.entities_returned == 5
        assert result.devices_returned == len(deployment.dataset.devices)


class TestMetricsRecorder:
    """What the benchmarks' ``MetricsRecorder`` did, on the registry it
    was folded into (the class name keeps its tier-1 test ids)."""

    def test_summary_percentiles(self):
        recorder = MetricsRegistry()
        for v in range(1, 101):
            recorder.histogram("m").observe(v / 1000.0)
        summary = recorder.summary("m")
        assert summary.count == 100
        assert summary.p50 == pytest.approx(0.0505, rel=0.01)
        assert summary.minimum == 0.001
        assert summary.maximum == 0.1
        assert "n=100" in summary.row()

    def test_unknown_metric_raises(self):
        with pytest.raises(QueryError):
            MetricsRegistry().summary("ghost")
        registry = MetricsRegistry()
        registry.histogram("ghost")  # created, never observed
        with pytest.raises(QueryError):
            registry.summary("ghost")

    def test_simulated_context(self, deployment):
        recorder = MetricsRegistry()
        with recorder.simulated("op", deployment.scheduler):
            deployment.run(5.0)
        assert recorder.histogram("op").values == [pytest.approx(5.0)]

    def test_wallclock_context(self):
        recorder = MetricsRegistry()
        with recorder.wallclock("cpu"):
            sum(range(1000))
        assert recorder.histogram("cpu").values[0] >= 0.0

    def test_names_sorted(self):
        recorder = MetricsRegistry()
        recorder.histogram("b").observe(1.0)
        recorder.histogram("a").observe(1.0)
        assert recorder.names() == ["a", "b"]
        assert [s.name for s in map(recorder.summary, recorder.names())] \
            == ["a", "b"]
