"""Tests for consumption profiling and awareness reporting."""

import pytest

from repro.common.cdf import EntityModel
from repro.core.integration import integrate
from repro.core.monitoring import (
    ConsumptionProfiler,
    awareness_report,
)
from repro.errors import QueryError
from repro.ontology.queries import (
    ResolvedArea,
    ResolvedDevice,
    ResolvedEntity,
)


def feeder(device_id):
    # a feeder meter senses power AND energy (how the profiler spots it)
    return ResolvedDevice(device_id, "svc://p/", "zigbee",
                          ("power", "energy"), False)


def submeter(device_id):
    return ResolvedDevice(device_id, "svc://p/", "zigbee", ("power",),
                          False)


def building_entity(entity_id, devices):
    return ResolvedEntity(entity_id=entity_id, entity_type="building",
                          name=entity_id, proxy_uris={},
                          gis_feature_id="", devices=tuple(devices))


def bim(entity_id, area):
    return EntityModel(entity_id=entity_id, entity_type="building",
                       source_kind="bim", name=entity_id,
                       properties={"floor_area_m2": area})


def constant_samples(watts, hours=2, period=900.0):
    return [(i * period, watts) for i in range(int(hours * 3600 / period))]


def build_model():
    resolved = ResolvedArea(
        district_id="dst-0001", district_name="D",
        gis_uris=(), measurement_uris=(),
        entities=(
            building_entity("bld-0001", [feeder("dev-0100"),
                                         submeter("dev-0101")]),
            building_entity("bld-0002", [feeder("dev-0200")]),
        ),
    )
    models = {"bld-0001": [bim("bld-0001", 1000.0)],
              "bld-0002": [bim("bld-0002", 500.0)]}
    data = {
        "bld-0001": {
            ("dev-0100", "power"): constant_samples(2000.0),
            # sub-meter covers part of the feeder load: must NOT be
            # double-counted in the building profile
            ("dev-0101", "power"): constant_samples(500.0),
        },
        "bld-0002": {
            ("dev-0200", "power"): constant_samples(3000.0),
        },
    }
    return integrate(resolved, models, data)


class TestProfiler:
    def test_building_profile_uses_feeder_only(self):
        profiler = ConsumptionProfiler(build_model(), bucket=900.0)
        profile = profiler.building_profile("bld-0001")
        assert profile
        assert all(v == pytest.approx(2000.0) for _t, v in profile)

    def test_district_profile_sums_buildings(self):
        profiler = ConsumptionProfiler(build_model(), bucket=900.0)
        district = profiler.district_profile()
        assert all(v == pytest.approx(5000.0) for _t, v in district)

    def test_building_energy(self):
        profiler = ConsumptionProfiler(build_model(), bucket=900.0)
        # 2000 W over ~1.75 h of trapezoid span
        energy = profiler.building_energy_wh("bld-0001")
        assert energy == pytest.approx(2000.0 * 1.75, rel=0.01)

    def test_district_energy_is_sum(self):
        profiler = ConsumptionProfiler(build_model(), bucket=900.0)
        total = profiler.district_energy_wh()
        per_building = (profiler.building_energy_wh("bld-0001")
                        + profiler.building_energy_wh("bld-0002"))
        assert total == pytest.approx(per_building)

    def test_peak(self):
        profiler = ConsumptionProfiler(build_model(), bucket=900.0)
        _t, watts = profiler.peak()
        assert watts == pytest.approx(5000.0)
        _t, building_watts = profiler.peak("bld-0002")
        assert building_watts == pytest.approx(3000.0)

    def test_peak_without_data_raises(self):
        resolved = ResolvedArea("dst-0001", "D", (), (),
                                (building_entity("bld-0001", []),))
        model = integrate(resolved, {})
        profiler = ConsumptionProfiler(model)
        with pytest.raises(QueryError):
            profiler.peak()

    def test_bad_bucket_rejected(self):
        with pytest.raises(QueryError):
            ConsumptionProfiler(build_model(), bucket=0.0)

    def test_fallback_sums_all_power_devices_without_feeder(self):
        resolved = ResolvedArea(
            "dst-0001", "D", (), (),
            (building_entity("bld-0003", [submeter("dev-0301"),
                                          submeter("dev-0302")]),),
        )
        data = {"bld-0003": {
            ("dev-0301", "power"): constant_samples(100.0),
            ("dev-0302", "power"): constant_samples(200.0),
        }}
        model = integrate(resolved, {}, data)
        profiler = ConsumptionProfiler(model, bucket=900.0)
        profile = profiler.building_profile("bld-0003")
        assert all(v == pytest.approx(300.0) for _t, v in profile)


class TestAwarenessReport:
    def test_intensity_joins_bim_area_with_measurements(self):
        report = awareness_report(build_model(), bucket=900.0)
        b1 = report.building("bld-0001")
        b2 = report.building("bld-0002")
        assert b1.intensity_wh_per_m2 == pytest.approx(
            b1.energy_wh / 1000.0
        )
        assert b2.intensity_wh_per_m2 == pytest.approx(
            b2.energy_wh / 500.0
        )

    def test_ranking_worst_first(self):
        report = awareness_report(build_model())
        ranked = report.ranked
        # bld-0002: 3000 W over 500 m2 is far more intensive
        assert ranked[0].entity_id == "bld-0002"

    def test_vs_district_average_centred_on_one(self):
        report = awareness_report(build_model())
        ratios = [b.vs_district_average for b in report.buildings]
        assert all(r is not None for r in ratios)
        assert sum(ratios) / len(ratios) == pytest.approx(1.0)

    def test_district_energy_total(self):
        report = awareness_report(build_model())
        assert report.district_energy_wh == pytest.approx(
            5000.0 * 1.75, rel=0.01
        )

    def test_window_hours_derived_from_samples(self):
        report = awareness_report(build_model())
        assert report.window_hours == pytest.approx(1.75, rel=0.01)

    def test_missing_area_leaves_intensity_none(self):
        resolved = ResolvedArea(
            "dst-0001", "D", (), (),
            (building_entity("bld-0009", [feeder("dev-0900")]),),
        )
        data = {"bld-0009": {("dev-0900", "power"):
                             constant_samples(100.0)}}
        model = integrate(resolved, {}, data)  # no BIM model: no area
        report = awareness_report(model)
        entry = report.building("bld-0009")
        assert entry.intensity_wh_per_m2 is None
        assert entry.energy_wh > 0
        assert report.ranked == []

    def test_unknown_building_lookup(self):
        report = awareness_report(build_model())
        with pytest.raises(QueryError):
            report.building("bld-0404")
