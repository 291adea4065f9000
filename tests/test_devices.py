"""Tests for device models, firmware and the radio link."""

import pytest

from repro.devices.base import SimulatedDevice
from repro.devices.catalog import (
    dimmable_light,
    environment_sensor,
    heat_flow_meter,
    hvac_controller,
    occupancy_sensor,
    power_meter,
    pv_inverter,
    smart_plug,
)
from repro.devices.firmware import DeviceFirmware, RadioLink
from repro.devices.profiles import ConstantProfile
from repro.errors import ConfigurationError, UnsupportedCommandError
from repro.network.scheduler import Scheduler
from repro.protocols import make_adapter


class TestSimulatedDevice:
    def make_device(self):
        device = SimulatedDevice("dev-0001", "zigbee",
                                 "00:00:00:00:00:00:00:01", "bld-0001")
        device.add_sensor("power", ConstantProfile(100.0), 60.0)
        return device

    def test_duplicate_sensor_rejected(self):
        device = self.make_device()
        with pytest.raises(ConfigurationError):
            device.add_sensor("power", ConstantProfile(1.0), 60.0)

    def test_bad_sample_period_rejected(self):
        device = self.make_device()
        with pytest.raises(ConfigurationError):
            device.add_sensor("energy", ConstantProfile(1.0), 0.0)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_device().channel("temperature")

    def test_unknown_command_rejected(self):
        device = self.make_device()
        with pytest.raises(UnsupportedCommandError):
            device.apply_command("switch", 1.0)

    def test_command_range_enforced(self):
        device = self.make_device()
        applied = []
        device.add_actuator("dim", applied.append, (0.0, 1.0))
        with pytest.raises(UnsupportedCommandError):
            device.apply_command("dim", 2.0)
        assert applied == []
        device.apply_command("dim", 0.5)
        assert applied == [0.5]
        assert device.commands_handled == 1

    def test_description_round_trip_fields(self):
        device = self.make_device()
        device.add_actuator("switch", lambda v: None, (0.0, 1.0))
        desc = device.description()
        assert desc.device_id == "dev-0001"
        assert desc.protocol == "zigbee"
        assert desc.quantities == ("power",)
        assert desc.is_actuator
        assert desc.metadata["address"] == "00:00:00:00:00:00:00:01"


class TestCatalog:
    def test_power_meter_channels(self):
        meter = power_meter("dev-0001", "zigbee",
                            "00:00:00:00:00:00:00:01", "bld-0001",
                            ConstantProfile(500.0))
        assert meter.quantities == ["energy", "power"]
        assert meter.channel("power").read(0.0) == 500.0

    def test_environment_sensor_ranges(self):
        sensor = environment_sensor("dev-0002", "enocean", "0000a001",
                                    "bld-0001")
        temp = sensor.channel("temperature").read(1000.0)
        humidity = sensor.channel("humidity").read(1000.0)
        assert 15.0 < temp < 27.0
        assert 0.0 <= humidity <= 100.0

    def test_occupancy_sensor_binary(self):
        sensor = occupancy_sensor("dev-0003", "enocean", "0000a002",
                                  "bld-0001")
        values = {sensor.channel("occupancy").read(t * 3600.0)
                  for t in range(100)}
        assert values <= {0.0, 1.0}

    def test_smart_plug_switching(self):
        plug = smart_plug("dev-0004", "zigbee", "00:00:00:00:00:00:00:04",
                          "bld-0001", ConstantProfile(60.0))
        assert plug.channel("power").read(0.0) == 60.0
        assert plug.channel("state").read(0.0) == 1.0
        plug.apply_command("switch", 0.0)
        assert plug.channel("power").read(0.0) == 0.0
        assert plug.channel("state").read(0.0) == 0.0
        plug.apply_command("switch", 1.0)
        assert plug.channel("power").read(0.0) == 60.0

    def test_hvac_setpoint_feedback(self):
        hvac = hvac_controller("dev-0005", "opcua", "PLC1.Hvac", "bld-0001",
                               weather=ConstantProfile(5.0), setpoint=20.0)
        before = hvac.channel("power").read(0.0)
        hvac.apply_command("setpoint", 25.0)
        assert hvac.channel("power").read(0.0) > before
        assert hvac.channel("setpoint").read(0.0) == 25.0

    def test_hvac_setpoint_range(self):
        hvac = hvac_controller("dev-0005", "opcua", "PLC1.Hvac", "bld-0001")
        with pytest.raises(UnsupportedCommandError):
            hvac.apply_command("setpoint", 50.0)

    def test_dimmable_light(self):
        light = dimmable_light("dev-0006", "ieee802154", "0x0006",
                               "bld-0001", full_power=400.0)
        assert light.channel("power").read(0.0) == 400.0
        light.apply_command("dim", 0.25)
        assert light.channel("power").read(0.0) == 100.0

    def test_pv_inverter_non_positive(self):
        pv = pv_inverter("dev-0007", "opcua", "PLC1.PV", "bld-0001")
        for hour in range(24):
            assert pv.channel("power").read(hour * 3600.0) <= 0.0

    def test_heat_flow_meter_channels(self):
        meter = heat_flow_meter("dev-0008", "opcua", "PLC1.Sub", "net-0001")
        assert meter.quantities == ["flow_rate", "pressure"]
        assert meter.channel("flow_rate").read(0.0) >= 0.0


class TestRadioLink:
    def test_uplink_delivery_with_latency(self):
        sched = Scheduler()
        link = RadioLink(sched, latency=0.05)
        received = []
        link.attach_gateway(received.append)
        link.uplink(b"frame")
        assert received == []  # not yet delivered
        sched.run_until_idle()
        assert received == [b"frame"]
        assert sched.now == pytest.approx(0.05)

    def test_unattached_link_drops(self):
        link = RadioLink(Scheduler())
        link.uplink(b"lost")
        assert link.frames_dropped == 1

    def test_lossy_link_drops_some(self):
        sched = Scheduler()
        link = RadioLink(sched, loss=0.5, seed=11)
        received = []
        link.attach_gateway(received.append)
        for i in range(100):
            link.uplink(bytes([i]))
        sched.run_until_idle()
        assert 0 < len(received) < 100
        assert link.frames_dropped == 100 - len(received)

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RadioLink(Scheduler(), latency=-1.0)
        with pytest.raises(ConfigurationError):
            RadioLink(Scheduler(), loss=1.0)


class TestDeviceFirmware:
    def build(self, protocol="zigbee", address="00:00:00:00:00:00:00:01",
              device_factory=None):
        sched = Scheduler()
        link = RadioLink(sched, latency=0.01)
        frames = []
        link.attach_gateway(frames.append)
        if device_factory is None:
            device = power_meter("dev-0001", protocol, address, "bld-0001",
                                 ConstantProfile(750.0), sample_period=60.0)
        else:
            device = device_factory(protocol, address)
        adapter = make_adapter(protocol)
        firmware = DeviceFirmware(device, adapter, link, sched)
        return sched, link, frames, device, adapter, firmware

    def test_protocol_mismatch_rejected(self):
        sched = Scheduler()
        link = RadioLink(sched)
        device = power_meter("dev-0001", "zigbee",
                             "00:00:00:00:00:00:00:01", "bld-0001",
                             ConstantProfile(1.0))
        with pytest.raises(ConfigurationError):
            DeviceFirmware(device, make_adapter("enocean"), link, sched)

    def test_periodic_sampling_emits_frames(self):
        sched, link, frames, device, adapter, firmware = self.build()
        firmware.start()
        sched.run_until(310.0)
        # power at 60s period -> 5 frames in 310s; energy at 900s -> 0
        assert len(frames) == 5
        decoded = make_adapter("zigbee").decode_frame(frames[0])
        assert decoded[0].quantity == "power"
        assert decoded[0].value == pytest.approx(750.0, rel=0.01)

    def test_stop_halts_sampling(self):
        sched, link, frames, device, adapter, firmware = self.build()
        firmware.start()
        sched.run_until(130.0)
        firmware.stop()
        count = len(frames)
        sched.run_until(600.0)
        assert len(frames) == count
        assert not device.online

    def test_enocean_sends_teach_in_first(self):
        sched, link, frames, device, adapter, firmware = self.build(
            protocol="enocean", address="0000b001",
            device_factory=lambda p, a: environment_sensor(
                "dev-0002", p, a, "bld-0001"),
        )
        firmware.start()
        sched.run_until(301.0)
        receiver = make_adapter("enocean")
        # first frame is the teach-in; decoding it registers the EEP
        assert receiver.decode_frame(frames[0]) == []
        assert receiver.taught_devices == {"0000b001": "A5-04-01"}
        readings = receiver.decode_frame(frames[1], received_at=300.0)
        assert {r.quantity for r in readings} == {"temperature", "humidity"}

    def test_enocean_meter_fragments_power_energy(self):
        def meter_same_period(protocol, address):
            device = SimulatedDevice("dev-0003", protocol, address,
                                     "bld-0001")
            device.add_sensor("power", ConstantProfile(900.0), 900.0)
            device.add_sensor("energy", ConstantProfile(1234.0), 900.0)
            return device

        sched, link, frames, device, adapter, firmware = self.build(
            protocol="enocean", address="0000b002",
            device_factory=meter_same_period,
        )
        firmware.start()
        sched.run_until(901.0)
        receiver = make_adapter("enocean")
        decoded = []
        for frame in frames:
            decoded.extend(receiver.decode_frame(frame, received_at=900.0))
        quantities = {r.quantity for r in decoded}
        # both meter channels sample at 900s and fragment into telegrams
        assert quantities == {"power", "energy"}

    @pytest.mark.parametrize("protocol, address", [
        ("zigbee", "00:00:00:00:00:00:00:01"), ("enocean", "0000b002")])
    def test_nan_reading_does_not_hold_back_the_others(self, protocol,
                                                      address):
        """A NaN no frame can carry is a FrameEncodeError, so the
        sample fragments and its finite reading still goes out; the
        NaN is counted as the sampling task's error."""
        def meter_with_a_nan(protocol, address):
            device = SimulatedDevice("dev-0005", protocol, address,
                                     "bld-0001")
            # channels sample in quantity order: the NaN goes first
            device.add_sensor("energy", ConstantProfile(float("nan")), 60.0)
            device.add_sensor("power", ConstantProfile(900.0), 60.0)
            return device

        sched, link, frames, device, adapter, firmware = self.build(
            protocol=protocol, address=address,
            device_factory=meter_with_a_nan)
        firmware.start()
        sched.run_until(61.0)
        receiver = make_adapter(protocol)
        readings = [reading for frame in frames
                    for reading in receiver.decode_frame(frame, 60.0)]
        assert [(r.quantity, r.value) for r in readings] \
            == [("power", 900.0)]
        assert firmware.frames_sent == 1
        assert sched.periodic_task_errors == 1

    def test_downlink_command_applied_and_reported(self):
        sched, link, frames, device, adapter, firmware = self.build(
            device_factory=lambda p, a: smart_plug(
                "dev-0004", p, a, "bld-0001", ConstantProfile(60.0)),
        )
        firmware.start()
        command = make_adapter("zigbee").encode_command(
            device.address, "switch", 0.0
        )
        link.downlink(command)
        sched.run_until(1.0)
        assert firmware.commands_applied == 1
        # the post-command report shows the plug off
        report = make_adapter("zigbee").decode_frame(frames[-1])
        by_quantity = {r.quantity: r.value for r in report}
        assert by_quantity["state"] == 0.0
        assert by_quantity["power"] == 0.0

    def test_command_for_other_device_ignored(self):
        sched, link, frames, device, adapter, firmware = self.build(
            device_factory=lambda p, a: smart_plug(
                "dev-0004", p, a, "bld-0001"),
        )
        firmware.start()
        command = make_adapter("zigbee").encode_command(
            "00:00:00:00:00:00:00:99", "switch", 0.0
        )
        link.downlink(command)
        sched.run_until(1.0)
        assert firmware.commands_applied == 0

    def test_out_of_range_command_rejected_silently(self):
        sched, link, frames, device, adapter, firmware = self.build(
            device_factory=lambda p, a: dimmable_light(
                "dev-0006", p, a, "bld-0001"),
        )
        firmware.start()
        command = make_adapter("zigbee").encode_command(
            device.address, "dim", 5.0
        )
        link.downlink(command)
        sched.run_until(1.0)
        assert firmware.commands_rejected == 1
        assert frames == []  # no report sent

    def test_corrupt_downlink_ignored(self):
        sched, link, frames, device, adapter, firmware = self.build()
        firmware.start()
        link.downlink(b"\x00garbage\xff")
        sched.run_until(1.0)
        assert firmware.commands_applied == 0
