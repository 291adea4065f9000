"""Tests for device energy budgets and lifetime projection."""

import pytest

from repro.devices.catalog import power_meter
from repro.devices.energy import (
    PROTOCOL_BUDGETS,
    EnergyBudget,
    budget_for_protocol,
    fleet_energy_report,
)
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.devices.profiles import ConstantProfile
from repro.errors import ConfigurationError
from repro.network.scheduler import Scheduler
from repro.protocols import make_adapter

ADDRESSES = {"zigbee": "00:00:00:00:00:00:00:01",
             "ble": "c4:7c:8d:00:00:2a"}


def metered_firmware(sched, device_id="dev-0001", protocol="zigbee"):
    """A sampling power meter whose frames reach a gateway list."""
    link = RadioLink(sched)
    frames = []
    link.attach_gateway(frames.append)
    device = power_meter(device_id, protocol, ADDRESSES[protocol],
                         "bld-0001", ConstantProfile(750.0),
                         sample_period=60.0)
    firmware = DeviceFirmware(device, make_adapter(protocol), link, sched)
    return firmware, frames


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
    """A device's energy is its budget priced on the counts its firmware
    keeps (samples, bytes, seconds powered)."""

    def budget(self, **overrides):
        base = dict(battery_joules=10.0, harvest_milliwatts=0.0,
                    tx_microjoules_per_byte=1.0, sample_microjoules=10.0,
                    idle_microwatts=0.0)
        base.update(overrides)
        return EnergyBudget(**base)

    def test_transmission_costs_energy(self):
        sched = Scheduler()
        firmware, frames = metered_firmware(sched)
        firmware.start()
        sched.run_until(61.0)
        assert firmware.frames_sent == 1
        assert firmware.bytes_sent == len(frames[0])
        # 1000 B * 1 uJ/B = 1 mJ
        assert self.budget().net_spent_joules(0, 1000, 1.0) == \
            pytest.approx(1e-3)

    def test_sampling_costs_energy(self):
        sched = Scheduler()
        firmware, _ = metered_firmware(sched)
        firmware.start()
        sched.run_until(61.0)  # one power reading; energy waits 900 s
        assert firmware.samples_taken == 1
        assert self.budget().net_spent_joules(3, 0, 1.0) == \
            pytest.approx(30e-6)

    def test_idle_drain_accrues_with_time(self):
        budget = self.budget(idle_microwatts=100.0)
        # 100 uW * 1000 s
        assert budget.net_spent_joules(0, 0, 1000.0) == pytest.approx(0.1)

    def test_state_of_charge_decreases(self):
        budget = self.budget(battery_joules=1.0)
        assert budget.state_of_charge(0.0) == 1.0
        net = budget.net_spent_joules(0, 500_000, 1.0)  # 0.5 J
        assert budget.state_of_charge(net) == pytest.approx(0.5)

    def test_state_of_charge_floors_at_zero(self):
        budget = self.budget(battery_joules=0.001)
        net = budget.net_spent_joules(0, 10_000_000, 1.0)
        assert budget.state_of_charge(net) == 0.0

    def test_harvesting_offsets_spend(self):
        budget = self.budget(harvest_milliwatts=1.0)
        # after 1000 s: 1 J harvested; spend 0.5 J transmitting
        net = budget.net_spent_joules(0, 500_000, 1000.0)
        assert net == 0.0
        assert budget.state_of_charge(net) == 1.0

    def test_mains_powered_always_full(self):
        budget = EnergyBudget(battery_joules=float("inf"))
        net = budget.net_spent_joules(0, 10 ** 9, 10.0)
        assert budget.state_of_charge(net) == 1.0
        assert budget.projected_lifetime_days(net, 10.0) == float("inf")

    def test_lifetime_projection(self):
        # drain exactly 0.1 J per day of simulated time
        budget = self.budget(battery_joules=1.0, idle_microwatts=0.0)
        net = budget.net_spent_joules(0, 100_000, 86400.0)  # 0.1 J
        lifetime = budget.projected_lifetime_days(net, 86400.0)
        assert lifetime == pytest.approx(9.0, rel=0.01)  # 0.9 J left

    def test_harvest_positive_lifetime_infinite(self):
        budget = self.budget(harvest_milliwatts=10.0)
        net = budget.net_spent_joules(0, 100, 1000.0)
        assert budget.projected_lifetime_days(net, 1000.0) == float("inf")


class TestFleetReport:
    def test_report_ranks_shortest_first(self):
        # the same meter on two batteries: two AA cells (ZigBee)
        # outlast a BLE coin cell
        sched = Scheduler()
        aa, _ = metered_firmware(sched, "dev-0001", "zigbee")
        coin, _ = metered_firmware(sched, "dev-0002", "ble")
        for firmware in (aa, coin):
            firmware.start()
        sched.run_until(86400.0)
        rows = fleet_energy_report([aa, coin], now=86400.0)
        assert [row.device_id for row in rows] == ["dev-0002", "dev-0001"]
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
        # each row prices its own firmware's counters
        now = district.scheduler.now
        firmwares = {fw.device.device_id: fw for fw in district.firmwares}
        for row in rows:
            firmware = firmwares[row.device_id]
            budget = budget_for_protocol(row.protocol)
            net = budget.net_spent_joules(firmware.samples_taken,
                                          firmware.bytes_sent,
                                          now - firmware.powered_at)
            assert row.frames_sent == firmware.frames_sent
            assert row.state_of_charge == budget.state_of_charge(net)
        # mains-powered OPC UA devices outlive battery nodes
        by_protocol = {row.protocol: row for row in rows}
        if "opcua" in by_protocol:
            assert by_protocol["opcua"].projected_lifetime_days == \
                float("inf")
