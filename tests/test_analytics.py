"""Tests for anomaly detection and demand-response planning."""

import pytest

from repro.common.simtime import duration, is_weekend
from repro.core.analytics import (
    AnomalyDetector,
    DemandResponsePlanner,
)
from repro.core.integration import integrate
from repro.errors import QueryError
from repro.ontology.queries import (
    ResolvedArea,
    ResolvedDevice,
    ResolvedEntity,
)


def weekday_profile_samples(days=10, base=1000.0, peak=3000.0):
    """Synthetic history: office-like shape, hourly samples."""
    samples = []
    for day in range(days):
        for hour in range(24):
            t = duration(days=4 + day, hours=hour)  # start Monday
            if is_weekend(t):
                watts = base
            else:
                watts = peak if 8 <= hour <= 18 else base
            samples.append((t, watts))
    return samples


class TestAnomalyDetector:
    def test_fit_and_clean_data_no_anomalies(self):
        detector = AnomalyDetector(z_threshold=3.0)
        history = weekday_profile_samples()
        detector.fit("bld-0001", history)
        assert detector.detect("bld-0001", history) == []

    def test_spike_detected(self):
        detector = AnomalyDetector(z_threshold=3.0)
        history = weekday_profile_samples()
        detector.fit("bld-0001", history)
        # 3am on a Tuesday at full office load: way off baseline
        t = duration(days=15, hours=3)
        anomalies = detector.detect("bld-0001", [(t, 3000.0)])
        assert len(anomalies) == 1
        assert anomalies[0].z_score > 3.0
        assert anomalies[0].excess_watts == pytest.approx(2000.0)

    def test_weekend_waste_detected(self):
        detector = AnomalyDetector(z_threshold=3.0)
        history = weekday_profile_samples()
        detector.fit("bld-0001", history)
        saturday_noon = duration(days=16, hours=12)  # 2015-01-17
        anomalies = detector.detect("bld-0001", [(saturday_noon, 3000.0)])
        assert anomalies and anomalies[0].excess_watts > 1000.0

    def test_negative_anomaly_detected(self):
        detector = AnomalyDetector(z_threshold=3.0)
        detector.fit("bld-0001", weekday_profile_samples())
        tuesday_noon = duration(days=15, hours=12)
        anomalies = detector.detect("bld-0001", [(tuesday_noon, 0.0)])
        assert anomalies and anomalies[0].z_score < -3.0

    def test_untrained_slot_skipped(self):
        detector = AnomalyDetector()
        # history covering weekdays only
        history = [s for s in weekday_profile_samples()
                   if not is_weekend(s[0])]
        detector.fit("bld-0001", history)
        saturday = duration(days=16, hours=12)
        assert detector.detect("bld-0001", [(saturday, 9999.0)]) == []

    def test_baseline_expected_and_errors(self):
        detector = AnomalyDetector()
        with pytest.raises(QueryError):
            detector.baseline("bld-0001")
        with pytest.raises(QueryError):
            detector.fit("bld-0001", [])
        baseline = detector.fit("bld-0001", weekday_profile_samples())
        tuesday_noon = duration(days=15, hours=12)
        assert baseline.expected(tuesday_noon) == pytest.approx(3000.0)
        with pytest.raises(QueryError):
            AnomalyDetector(z_threshold=0.0)


def hvac_device(device_id="dev-0103"):
    return ResolvedDevice(device_id, "svc://p/", "opcua",
                          ("power", "setpoint"), True)


def model_with_hvacs(hvacs):
    """hvacs: list of (device_id, power, setpoint)."""
    devices = tuple(hvac_device(d) for d, _p, _s in hvacs)
    entity = ResolvedEntity("bld-0001", "building", "B1", {}, "", devices)
    resolved = ResolvedArea("dst-0001", "D", (), (), (entity,))
    data = {"bld-0001": {}}
    for device_id, power, setpoint in hvacs:
        data["bld-0001"][(device_id, "power")] = [(0.0, power)]
        data["bld-0001"][(device_id, "setpoint")] = [(0.0, setpoint)]
    return integrate(resolved, {}, data)


class TestDemandResponsePlanner:
    def test_savings_estimate(self):
        planner = DemandResponsePlanner(outdoor_temperature=0.0)
        # 2000 W holding 20 degC against 0 degC: 100 W per degree
        assert planner.savings_per_degree(2000.0, 20.0) == \
            pytest.approx(100.0)

    def test_no_savings_when_warm_outside(self):
        planner = DemandResponsePlanner(outdoor_temperature=20.0)
        assert planner.savings_per_degree(2000.0, 20.0) == 0.0

    def test_greedy_plan_biggest_savers_first(self):
        model = model_with_hvacs([
            ("dev-0001", 1000.0, 20.0),   # 50 W/deg -> 150 W for 3 deg
            ("dev-0002", 4000.0, 20.0),   # 200 W/deg -> 600 W
        ])
        planner = DemandResponsePlanner(outdoor_temperature=0.0)
        plan = planner.plan(model, target_watts=500.0)
        assert len(plan.actions) == 1
        assert plan.actions[0].device.device_id == "dev-0002"
        assert plan.meets_target

    def test_plan_takes_more_actions_for_bigger_target(self):
        model = model_with_hvacs([
            ("dev-0001", 1000.0, 20.0),
            ("dev-0002", 4000.0, 20.0),
        ])
        planner = DemandResponsePlanner(outdoor_temperature=0.0)
        plan = planner.plan(model, target_watts=700.0)
        assert len(plan.actions) == 2

    def test_plan_reports_shortfall(self):
        model = model_with_hvacs([("dev-0001", 100.0, 20.0)])
        planner = DemandResponsePlanner(outdoor_temperature=0.0)
        plan = planner.plan(model, target_watts=10_000.0)
        assert not plan.meets_target
        assert plan.estimated_savings_watts < 10_000.0

    def test_setpoint_floor_respected(self):
        model = model_with_hvacs([("dev-0001", 2000.0, 17.0)])
        planner = DemandResponsePlanner(outdoor_temperature=0.0,
                                        min_setpoint=16.0)
        plan = planner.plan(model, target_watts=1000.0)
        assert plan.actions[0].new_setpoint == pytest.approx(16.0)

    def test_device_at_floor_skipped(self):
        model = model_with_hvacs([("dev-0001", 2000.0, 16.0)])
        planner = DemandResponsePlanner(outdoor_temperature=0.0,
                                        min_setpoint=16.0)
        plan = planner.plan(model, target_watts=1000.0)
        assert plan.actions == []

    def test_bad_parameters(self):
        with pytest.raises(QueryError):
            DemandResponsePlanner(0.0, max_reduction_degrees=0.0)
        planner = DemandResponsePlanner(0.0)
        with pytest.raises(QueryError):
            planner.plan(model_with_hvacs([]), target_watts=0.0)

    def test_execute_dispatches_through_client(self):
        model = model_with_hvacs([("dev-0001", 2000.0, 20.0)])
        planner = DemandResponsePlanner(outdoor_temperature=0.0)
        plan = planner.plan(model, target_watts=100.0)

        class FakeClient:
            def __init__(self):
                self.calls = []

            def actuate(self, device, command, value, on_result=None):
                self.calls.append((device.device_id, command, value))

        client = FakeClient()
        count = planner.execute(plan, client)
        assert count == 1
        assert client.calls == [("dev-0001", "setpoint", 17.0)]
