"""Tests for device energy budgets and lifetime projection."""

import pytest

from repro.devices.energy import (
    PROTOCOL_BUDGETS,
    DeviceEnergyModel,
    EnergyBudget,
    budget_for_protocol,
    fleet_energy_report,
)
from repro.errors import ConfigurationError


class TestEnergyBudget:
    def test_protocol_budgets_cover_all_protocols(self):
        from repro.protocols import available_protocols

        for protocol in available_protocols():
            assert budget_for_protocol(protocol) is \
                PROTOCOL_BUDGETS[protocol]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            budget_for_protocol("carrier-pigeon")

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyBudget(battery_joules=-1.0)


class TestDeviceEnergyModel:
    def budget(self, **overrides):
        base = dict(battery_joules=10.0, harvest_milliwatts=0.0,
                    tx_microjoules_per_byte=1.0, sample_microjoules=10.0,
                    idle_microwatts=0.0)
        base.update(overrides)
        return EnergyBudget(**base)

    def test_transmission_costs_energy(self):
        model = DeviceEnergyModel(self.budget())
        model.on_transmit(1000, now=1.0)  # 1000 B * 1 uJ/B = 1 mJ
        assert model.spent_joules == pytest.approx(1e-3)
        assert model.bytes_sent == 1000
        assert model.frames_sent == 1

    def test_sampling_costs_energy(self):
        model = DeviceEnergyModel(self.budget())
        model.on_sample(3, now=1.0)
        assert model.spent_joules == pytest.approx(30e-6)
        assert model.samples_taken == 3

    def test_idle_drain_accrues_with_time(self):
        model = DeviceEnergyModel(self.budget(idle_microwatts=100.0))
        model.on_sample(0, now=1000.0)
        assert model.spent_joules == pytest.approx(0.1)  # 100 uW * 1000 s

    def test_state_of_charge_decreases(self):
        model = DeviceEnergyModel(self.budget(battery_joules=1.0))
        assert model.state_of_charge() == 1.0
        model.on_transmit(500_000, now=1.0)  # 0.5 J
        assert model.state_of_charge() == pytest.approx(0.5)

    def test_state_of_charge_floors_at_zero(self):
        model = DeviceEnergyModel(self.budget(battery_joules=0.001))
        model.on_transmit(10_000_000, now=1.0)
        assert model.state_of_charge() == 0.0

    def test_harvesting_offsets_spend(self):
        model = DeviceEnergyModel(self.budget(harvest_milliwatts=1.0))
        # after 1000 s: 1 J harvested; spend 0.5 J transmitting
        model.on_transmit(500_000, now=1000.0)
        assert model.net_spent_joules() == 0.0
        assert model.state_of_charge() == 1.0

    def test_mains_powered_always_full(self):
        model = DeviceEnergyModel(
            EnergyBudget(battery_joules=float("inf"))
        )
        model.on_transmit(10 ** 9, now=1.0)
        assert model.state_of_charge() == 1.0
        assert model.projected_lifetime_days(now=10.0) == float("inf")

    def test_lifetime_projection(self):
        # drain exactly 0.1 J per day of simulated time
        budget = self.budget(battery_joules=1.0, idle_microwatts=0.0)
        model = DeviceEnergyModel(budget)
        model.on_transmit(100_000, now=86400.0)  # 0.1 J on day one
        lifetime = model.projected_lifetime_days(now=86400.0)
        assert lifetime == pytest.approx(9.0, rel=0.01)  # 0.9 J left

    def test_harvest_positive_lifetime_infinite(self):
        model = DeviceEnergyModel(self.budget(harvest_milliwatts=10.0))
        model.on_transmit(100, now=1000.0)
        assert model.projected_lifetime_days(1000.0) == float("inf")


class TestFleetReport:
    def test_report_ranks_shortest_first(self):
        weak = DeviceEnergyModel(EnergyBudget(battery_joules=0.01))
        strong = DeviceEnergyModel(EnergyBudget(battery_joules=1000.0))
        for model in (weak, strong):
            model.on_transmit(1000, now=86400.0)
        rows = fleet_energy_report(
            {"dev-0001": weak, "dev-0002": strong},
            {"dev-0001": "ble", "dev-0002": "zigbee"},
            now=86400.0,
        )
        assert rows[0].device_id == "dev-0001"
        assert rows[0].projected_lifetime_days < \
            rows[1].projected_lifetime_days

    def test_deployment_energy_report(self):
        from repro.simulation import ScenarioConfig, deploy

        district = deploy(ScenarioConfig(seed=41, n_buildings=2,
                                         devices_per_building=4,
                                         net_jitter=0.0))
        district.run(3600.0)
        rows = district.energy_report()
        assert len(rows) == len(district.dataset.devices)
        assert all(0.0 <= row.state_of_charge <= 1.0 for row in rows)
        assert all(row.frames_sent > 0 for row in rows)
        # mains-powered OPC UA devices outlive battery nodes
        by_protocol = {row.protocol: row for row in rows}
        if "opcua" in by_protocol:
            assert by_protocol["opcua"].projected_lifetime_days == \
                float("inf")
