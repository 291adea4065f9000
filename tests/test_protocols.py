"""Tests for the four heterogeneous protocol adapters."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FrameDecodeError, FrameEncodeError, ConfigurationError
from repro.protocols import (
    BleAdapter,
    CoapAdapter,
    EnOceanAdapter,
    Ieee802154Adapter,
    OpcUaAdapter,
    ZigbeeAdapter,
    available_protocols,
    make_adapter,
)
from repro.protocols.base import crc8, crc16_ccitt

ADDRESSES = {
    "ieee802154": "0x1a2f",
    "zigbee": "00:12:4b:00:01:02:03:04",
    "enocean": "018a3c5f",
    "opcua": "PLC1.Meter7",
    "coap": "fd00::1a2b",
    "ble": "c4:7c:8d:00:00:2a",
}


def adapters():
    return [
        Ieee802154Adapter(),
        ZigbeeAdapter(),
        EnOceanAdapter(),
        OpcUaAdapter(),
        CoapAdapter(),
        BleAdapter(),
    ]


def int16_downlinks():
    """The adapters whose command argument is a scaled int16."""
    return [a for a in adapters()
            if a.name in ("ieee802154", "zigbee", "enocean", "ble")]


def uplink_round_trip(adapter, readings, timestamp=1000.0):
    address = ADDRESSES[adapter.name]
    if adapter.name == "enocean":
        # teach the receiver first, as a real gateway must
        eep = adapter.eep_for_quantities([q for q, _v in readings])
        teach = adapter.encode_teach_in(address, eep)
        assert adapter.decode_frame(teach) == []
    frame = adapter.encode_readings(address, readings, timestamp)
    assert isinstance(frame, bytes)
    return adapter.decode_frame(frame, received_at=timestamp)


class TestRegistry:
    def test_all_six_protocols_registered(self):
        assert set(available_protocols()) >= {
            "ieee802154", "zigbee", "enocean", "opcua", "coap", "ble"
        }

    def test_make_adapter(self):
        assert make_adapter("zigbee").name == "zigbee"

    def test_make_adapter_unknown(self):
        with pytest.raises(ConfigurationError):
            make_adapter("lorawan")


class TestUplinkRoundTrip:
    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_power_reading_round_trips(self, adapter):
        if not adapter.supports_quantity("power"):
            pytest.skip(f"{adapter.name} has no power profile")
        decoded = uplink_round_trip(adapter, [("power", 1500.0)])
        assert len(decoded) == 1
        reading = decoded[0]
        assert reading.quantity == "power"
        assert reading.value == pytest.approx(1500.0, rel=0.01)
        assert reading.device_address == ADDRESSES[adapter.name]

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_temperature_reading_round_trips(self, adapter):
        if not adapter.supports_quantity("temperature"):
            pytest.skip(f"{adapter.name} has no temperature profile")
        decoded = uplink_round_trip(adapter, [("temperature", 21.3)])
        assert decoded[0].value == pytest.approx(21.3, abs=0.2)

    def test_802154_multi_tlv_frame(self):
        adapter = Ieee802154Adapter()
        decoded = uplink_round_trip(
            adapter,
            [("power", 230.0), ("temperature", -5.5), ("humidity", 40.0)],
        )
        by_quantity = {r.quantity: r.value for r in decoded}
        assert by_quantity["power"] == pytest.approx(230.0, abs=0.1)
        assert by_quantity["temperature"] == pytest.approx(-5.5, abs=0.1)
        assert by_quantity["humidity"] == pytest.approx(40.0, abs=0.5)

    def test_zigbee_multi_attribute_report(self):
        adapter = ZigbeeAdapter()
        decoded = uplink_round_trip(
            adapter, [("voltage", 231.2), ("current", 6.51), ("state", 1.0)]
        )
        by_quantity = {r.quantity: r.value for r in decoded}
        assert by_quantity["voltage"] == pytest.approx(231.2, abs=0.1)
        assert by_quantity["current"] == pytest.approx(6.51, abs=0.001)
        assert by_quantity["state"] == 1.0

    def test_zigbee_readings_saturate_at_the_zcl_range(self):
        decoded = uplink_round_trip(ZigbeeAdapter(), [
            ("current", 70.0), ("illuminance", 70_000.0),
            ("humidity", -1.0), ("temperature", 400.0),
        ])
        assert [r.value for r in decoded] == pytest.approx(
            [65.535, 65535.0, 0.0, 327.67])

    def test_ble_readings_saturate_at_the_field_range(self):
        # illuminance is a uint24 of 0.01 lx: it clamps like power's
        # uint32 instead of raising and losing the whole frame
        decoded = uplink_round_trip(BleAdapter(), [
            ("illuminance", -1.0), ("illuminance", 200_000.0),
            ("power", -1.0),
        ])
        assert [r.value for r in decoded] == pytest.approx(
            [0.0, 167_772.15, 0.0])

    def test_enocean_temperature_humidity_profile(self):
        adapter = EnOceanAdapter()
        decoded = uplink_round_trip(
            adapter, [("temperature", 20.0), ("humidity", 55.0)]
        )
        by_quantity = {r.quantity: r.value for r in decoded}
        assert by_quantity["temperature"] == pytest.approx(20.0, abs=0.2)
        assert by_quantity["humidity"] == pytest.approx(55.0, abs=0.5)

    def test_enocean_timestamps_use_arrival_time(self):
        adapter = EnOceanAdapter()
        decoded = uplink_round_trip(adapter, [("temperature", 10.0)],
                                    timestamp=777.0)
        assert decoded[0].timestamp == 777.0

    def test_opcua_embedded_source_timestamp(self):
        adapter = OpcUaAdapter()
        frame = adapter.encode_readings(
            "PLC1.M", [("power", 5.5)], timestamp=123.25
        )
        decoded = adapter.decode_frame(frame, received_at=999.0)
        assert decoded[0].timestamp == 123.25  # not the arrival time

    def test_opcua_preserves_float_precision(self):
        adapter = OpcUaAdapter()
        value = 1234.56789012345
        frame = adapter.encode_readings("P.X", [("power", value)], 0.0)
        assert adapter.decode_frame(frame)[0].value == value

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_unsupported_quantity_raises(self, adapter):
        # "voltage" is absent from 802.15.4/EnOcean profiles; "co2" from
        # ZigBee/OPC UA; pick one the adapter genuinely cannot carry
        unsupported = next(
            q for q in ("voltage", "co2", "pressure")
            if not adapter.supports_quantity(q)
        )
        with pytest.raises(FrameEncodeError):
            adapter.encode_readings(
                ADDRESSES[adapter.name], [(unsupported, 1.0)], 0.0
            )

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_empty_readings_raise(self, adapter):
        with pytest.raises(FrameEncodeError):
            adapter.encode_readings(ADDRESSES[adapter.name], [], 0.0)


# protocols with frame integrity protection (CRC / checksum) must
# reject a flip of ANY byte; the others only guarantee detection of
# structural damage (header corruption, truncation)
CHECKSUMMED = ("ieee802154", "zigbee", "enocean")


class TestCorruption:
    @pytest.mark.parametrize("adapter",
                             [a for a in adapters()
                              if a.name in CHECKSUMMED],
                             ids=lambda a: a.name)
    def test_any_flipped_byte_detected(self, adapter):
        quantity = "power" if adapter.supports_quantity("power") else \
            "temperature"
        address = ADDRESSES[adapter.name]
        if adapter.name == "enocean":
            eep = adapter.eep_for_quantities([quantity])
            adapter.decode_frame(adapter.encode_teach_in(address, eep))
        original = adapter.encode_readings(address, [(quantity, 100.0)],
                                           0.0)
        for index in range(len(original)):
            frame = bytearray(original)
            frame[index] ^= 0xFF
            with pytest.raises(FrameDecodeError):
                adapter.decode_frame(bytes(frame))

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_header_corruption_detected(self, adapter):
        quantity = "power" if adapter.supports_quantity("power") else \
            "temperature"
        address = ADDRESSES[adapter.name]
        if adapter.name == "enocean":
            eep = adapter.eep_for_quantities([quantity])
            adapter.decode_frame(adapter.encode_teach_in(address, eep))
        frame = bytearray(
            adapter.encode_readings(address, [(quantity, 100.0)], 0.0)
        )
        frame[0] ^= 0xFF
        with pytest.raises(FrameDecodeError):
            adapter.decode_frame(bytes(frame))

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_truncated_frame_detected(self, adapter):
        quantity = "power" if adapter.supports_quantity("power") else \
            "temperature"
        address = ADDRESSES[adapter.name]
        if adapter.name == "enocean":
            eep = adapter.eep_for_quantities([quantity])
            adapter.decode_frame(adapter.encode_teach_in(address, eep))
        frame = adapter.encode_readings(address, [(quantity, 100.0)], 0.0)
        with pytest.raises(FrameDecodeError):
            adapter.decode_frame(frame[:5])

    def test_foreign_frame_rejected_by_each_adapter(self):
        frames = {}
        for adapter in adapters():
            quantity = ("power" if adapter.supports_quantity("power")
                        else "temperature")
            address = ADDRESSES[adapter.name]
            if adapter.name == "enocean":
                adapter.decode_frame(adapter.encode_teach_in(
                    address, adapter.eep_for_quantities([quantity])))
            frames[adapter.name] = adapter.encode_readings(
                address, [(quantity, 1.0)], 0.0
            )
        for adapter in adapters():
            for other_name, frame in frames.items():
                if other_name == adapter.name:
                    continue
                with pytest.raises(FrameDecodeError):
                    adapter.decode_frame(frame)

    def test_enocean_unteached_sender_rejected(self):
        sender = EnOceanAdapter()
        receiver = EnOceanAdapter()  # fresh gateway: no teach-in seen
        frame = sender.encode_readings("0a0b0c0d", [("temperature", 20.0)],
                                       0.0)
        with pytest.raises(FrameDecodeError, match="un-taught"):
            receiver.decode_frame(frame)


class TestDownlink:
    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_setpoint_command_round_trips(self, adapter):
        address = ADDRESSES[adapter.name]
        frame = adapter.encode_command(address, "setpoint", 21.5)
        command = adapter.decode_command(frame)
        assert command.command == "setpoint"
        assert command.value == pytest.approx(21.5, abs=0.05)
        assert command.device_address == address

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_switch_command_round_trips(self, adapter):
        address = ADDRESSES[adapter.name]
        frame = adapter.encode_command(address, "switch", 1.0)
        command = adapter.decode_command(frame)
        assert command.command == "switch"
        assert command.value == pytest.approx(1.0)

    @pytest.mark.parametrize("value", [1e6, float("inf"), float("nan")],
                             ids=["1e6", "inf", "nan"])
    @pytest.mark.parametrize("adapter", int16_downlinks(),
                             ids=lambda a: a.name)
    def test_argument_the_int16_field_cannot_carry_raises(self, adapter,
                                                          value):
        with pytest.raises(FrameEncodeError):
            adapter.encode_command(ADDRESSES[adapter.name], "setpoint",
                                   value)

    @pytest.mark.parametrize("adapter", int16_downlinks(),
                             ids=lambda a: a.name)
    def test_int16_field_edges_still_carry(self, adapter):
        address = ADDRESSES[adapter.name]
        k = 10.0 if adapter.name == "ieee802154" else 100.0
        for edge in (0x7FFF / k, -0x8000 / k):
            frame = adapter.encode_command(address, "setpoint", edge)
            assert adapter.decode_command(frame).value == \
                pytest.approx(edge)

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_unknown_command_raises(self, adapter):
        with pytest.raises(FrameEncodeError):
            adapter.encode_command(ADDRESSES[adapter.name], "self-destruct",
                                   None)

    @pytest.mark.parametrize("adapter", adapters(), ids=lambda a: a.name)
    def test_uplink_frame_is_not_a_command(self, adapter):
        quantity = ("power" if adapter.supports_quantity("power")
                    else "temperature")
        address = ADDRESSES[adapter.name]
        if adapter.name == "enocean":
            adapter.decode_frame(adapter.encode_teach_in(
                address, adapter.eep_for_quantities([quantity])))
        frame = adapter.encode_readings(address, [(quantity, 1.0)], 0.0)
        with pytest.raises(FrameDecodeError):
            adapter.decode_command(frame)


    def test_only_payload_errors_are_coap_decode_errors(self, monkeypatch):
        # what JSON, indexing and float() raise on a bad payload is a
        # FrameDecodeError; any other exception is a bug and propagates
        adapter = CoapAdapter()
        frame = adapter.encode_command(ADDRESSES["coap"], "setpoint", 21.5)
        for decoded in ([], {}, 7, [{"w": 1}], [{"v": "x"}], [{"v": None}],
                        [{"v": 10**400}]):
            monkeypatch.setattr("repro.protocols.coap.json", SimpleNamespace(
                loads=lambda text, decoded=decoded: decoded))
            with pytest.raises(FrameDecodeError):
                adapter.decode_command(frame)

        def broken(text):
            raise RuntimeError("not a payload error")

        monkeypatch.setattr("repro.protocols.coap.json",
                            SimpleNamespace(loads=broken))
        with pytest.raises(RuntimeError):
            adapter.decode_command(frame)


class TestChecksums:
    def test_crc16_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_crc8_known_vector(self):
        # CRC-8 (poly 0x07) of "123456789" is 0xF4
        assert crc8(b"123456789") == 0xF4

    def test_crc_detects_single_bit_flip(self):
        data = bytes(range(32))
        original = crc16_ccitt(data)
        corrupted = bytearray(data)
        corrupted[7] ^= 0x01
        assert crc16_ccitt(bytes(corrupted)) != original


# property tests: values survive each protocol's quantisation within its
# documented resolution

@given(st.floats(0, 60000))
def test_802154_power_resolution(watts):
    adapter = Ieee802154Adapter()
    decoded = adapter.decode_frame(
        adapter.encode_readings("0x0001", [("power", watts)], 0.0)
    )
    assert decoded[0].value == pytest.approx(watts, abs=0.51)


@given(st.floats(-20, 50))
def test_zigbee_temperature_resolution(celsius):
    adapter = ZigbeeAdapter()
    decoded = adapter.decode_frame(
        adapter.encode_readings(ADDRESSES["zigbee"],
                                [("temperature", celsius)], 0.0)
    )
    assert decoded[0].value == pytest.approx(celsius, abs=0.0051)


@given(st.floats(0, 40))
def test_enocean_temperature_resolution(celsius):
    adapter = EnOceanAdapter()
    address = "0000a1b2"
    adapter.decode_frame(adapter.encode_teach_in(address, "A5-02-05"))
    decoded = adapter.decode_frame(
        adapter.encode_readings(address, [("temperature", celsius)], 0.0)
    )
    # 8-bit over 40 degC: resolution ~0.157 degC
    assert decoded[0].value == pytest.approx(celsius, abs=0.08)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_opcua_lossless_doubles(value):
    adapter = OpcUaAdapter()
    decoded = adapter.decode_frame(
        adapter.encode_readings("D.X", [("power", float(value))], 0.0)
    )
    assert decoded[0].value == float(value)
