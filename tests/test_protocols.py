"""Tests for the six heterogeneous protocol adapters.

``TestGoldenCorpus`` pins every adapter's frames and decoded values
byte for byte against ``tests/fixtures/protocol_corpus.json``.  After a
change that moves a frame on purpose, re-record it from the repository
root and review the diff:

    PYTHONPATH=src python -m tests.test_protocols --record
"""

import json
import math
import random
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FrameDecodeError, FrameEncodeError, ConfigurationError
from repro.protocols import (
    BleAdapter,
    RawCommand,
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


# golden corpus: what every adapter encodes and decodes, pinned exactly

CORPUS = Path(__file__).parent / "fixtures" / "protocol_corpus.json"
CORPUS_SEED = 38

#: values every quantity and command argument is encoded at, beside
#: CORPUS_SEED's draws: zero, unit, and the values no field can carry
EDGE_VALUES = (0.0, 1.0, -1.0, 1e9, -1e9, math.inf, -math.inf, math.nan)
#: and, where a value travels as a scaled integer, the rounding and
#: saturation edges of its fields
INTEGER_EDGES = (2.5, 0.005, 0.015, 21.5, 327.675, -327.685, 3276.75,
                 65536.0, 16777216.0, 4294967296.0)

COMMANDS = ("switch", "setpoint", "dim")
TEXTUAL = ("opcua", "coap")
BAD_ADDRESSES = {
    "ieee802154": "0x1ffff",
    "zigbee": "00:12:4b:00:01:02:03",
    "enocean": "1ffffffff",
    "opcua": "",
    "coap": "fe80::1",
    "ble": "c4:7c:8d:00:00:zz",
}


def _outcome(call, sent=None):
    """What *call* returns, as text, or the class of what it raises.

    Readings name their address and time once while those repeat, and
    not at all while they equal *sent*, the (address, time) encoded.
    """
    try:
        result = call()
    except Exception as exc:  # the corpus pins the class, not the message
        return "!" + type(exc).__name__
    if isinstance(result, bytes):
        return result.hex()
    if isinstance(result, RawCommand):
        return f"{result.device_address}/{result.command}={result.value!r}"
    text, stamp = [], sent
    for r in result:
        if (r.device_address, r.timestamp) != stamp:
            stamp = r.device_address, r.timestamp
            text.append(f"{r.device_address}@{r.timestamp!r}:")
        text.append(f"{r.quantity}={r.value!r}")
    return " ".join(text)


def _receiver(name, quantities):
    """A fresh gateway-side adapter, taught *quantities*' EEP if EnOcean."""
    adapter = make_adapter(name)
    if name == "enocean":
        address = ADDRESSES[name]
        eep = adapter.eep_for_quantities(quantities)
        adapter.decode_frame(adapter.encode_teach_in(address, eep))
    return adapter


def _seal(name, body):
    """*body* with the checksum trailer its protocol appends."""
    if name == "zigbee":
        return body + bytes([sum(body) & 0xFF])
    if name == "ieee802154":
        return body + struct.pack("<H", crc16_ccitt(body))
    if name == "enocean":
        return body + bytes([crc8(body)])
    return body


def _damaged(name, frame):
    """Every single-byte flip and truncation of *frame*.

    For a checksummed protocol the flips and truncations are repeated
    with the checksum recomputed, so they reach the decoder proper.
    """
    yield "flips", [frame[:i] + bytes([frame[i] ^ 0xFF]) + frame[i + 1:]
                    for i in range(len(frame))]
    yield "cuts", [frame[:n] for n in range(len(frame))]
    trailer = len(_seal(name, b""))
    if trailer:
        body = frame[:-trailer]
        # the low bit turns a key into its neighbour: another quantity,
        # field width or type, or an unknown one
        yield "resealed flips", [
            _seal(name, body[:i] + bytes([body[i] ^ 0x01]) + body[i + 1:])
            for i in range(len(body))]
        yield "resealed cuts", [_seal(name, body[:n])
                                for n in range(len(body))]


def _multi_readings(name, rng):
    """The multi-reading frames recorded for adapter *name*."""
    quantities = make_adapter(name).uplink_quantities()
    if name == "enocean":
        return [[("temperature", 20.0), ("humidity", 55.0)],
                [("power", 1500.0), ("energy", 12.0)]]
    if name in TEXTUAL:  # long frames: two readings suffice
        quantities = quantities[:2]
    every = [(q, round(rng.uniform(-50.0, 500.0), 3)) for q in quantities]
    return [every, [("power", 1.0), ("power", 2.0)]]


def corpus():
    """Every row of the golden corpus, recomputed from the adapters."""
    rng = random.Random(CORPUS_SEED)
    drawn = tuple(rng.uniform(-100.0, 100.0) for _ in range(2)) + tuple(
        rng.uniform(0.0, 70_000.0) for _ in range(2))
    rows = {}
    frames = {}  # row prefix -> (adapter name, frame, decode)
    for name in sorted(ADDRESSES):
        address = ADDRESSES[name]

        def uplink(readings, timestamp=1000.0, address=address,
                   name=name):
            frame = _outcome(lambda: make_adapter(name).encode_readings(
                address, readings, timestamp))
            if frame.startswith("!"):
                return frame, None
            blob = bytes.fromhex(frame)
            receiver = _receiver(name, [q for q, _v in readings])
            return (frame + " -> " + _outcome(
                lambda: receiver.decode_frame(blob, received_at=timestamp),
                (address, timestamp)), blob)

        # OPC UA doubles and SenML text carry every value alike
        sweep = EDGE_VALUES + drawn + (
            () if name in TEXTUAL else INTEGER_EDGES)
        for quantity in make_adapter(name).uplink_quantities():
            for value in sweep:
                rows[f"{name} {quantity} {value!r}"] = uplink(
                    [(quantity, value)])[0]
        for timestamp in (0.0, 1234.5, 2.0 ** 32 + 7.9, -3.0):
            rows[f"{name} timestamp {timestamp!r}"] = uplink(
                [(make_adapter(name).uplink_quantities()[0], 1.0)],
                timestamp)[0]
        rows[f"{name} bad address"] = _outcome(
            lambda: make_adapter(name).encode_readings(
                BAD_ADDRESSES[name], [("power", 1.0)], 0.0))
        rows[f"{name} no readings"] = _outcome(
            lambda: make_adapter(name).encode_readings(address, [], 0.0))
        for index, readings in enumerate(_multi_readings(name, rng)):
            rows[f"{name} multi{index}"], blob = uplink(readings)
            if blob is not None:
                quantities = [q for q, _v in readings]
                frames[f"{name} multi{index}"] = (
                    name, blob, lambda frame, name=name, q=quantities:
                    _receiver(name, q).decode_frame(frame))
        for command in COMMANDS:
            for value in (None,) + sweep:
                frame = _outcome(lambda: make_adapter(name).encode_command(
                    address, command, value))
                if not frame.startswith("!"):
                    frame += " -> " + _outcome(
                        lambda: make_adapter(name).decode_command(
                            bytes.fromhex(frame)))
                rows[f"{name} {command}({value!r})"] = frame
            frames[f"{name} {command}(21.5)"] = (
                name, make_adapter(name).encode_command(
                    address, command, 21.5),
                lambda frame, name=name:
                make_adapter(name).decode_command(frame))
        rows[f"{name} unknown command"] = _outcome(
            lambda: make_adapter(name).encode_command(
                address, "self-destruct", None))
        if name == "enocean":
            for eep in ("A5-02-05", "A5-04-01", "A5-06-01", "A5-07-01",
                        "A5-12-01"):
                frames[f"enocean teach-in {eep}"] = (
                    name, make_adapter(name).encode_teach_in(address, eep),
                    lambda frame: make_adapter("enocean").decode_frame(
                        frame))
        if name == "ieee802154":  # the sequence number counts up
            adapter = make_adapter(name)
            rows["ieee802154 sequence"] = [
                adapter.encode_readings(address, [("power", 1.0)],
                                        0.0).hex(),
                adapter.encode_command(address, "switch", 1.0).hex(),
                adapter.encode_readings(address, [("power", 1.0)],
                                        0.0).hex()]
    for prefix, (name, frame, decode) in frames.items():
        for kind, damaged in _damaged(name, frame):
            rows[f"{prefix} {kind}"] = [
                _outcome(lambda blob=blob: decode(blob)) for blob in damaged]
        rows[f"{prefix} as uplink"] = [
            _outcome(lambda other=other: make_adapter(other).decode_frame(
                frame)) for other in sorted(ADDRESSES)]
        rows[f"{prefix} as command"] = [
            _outcome(lambda other=other: make_adapter(other).decode_command(
                frame)) for other in sorted(ADDRESSES)]
    return rows


class TestGoldenCorpus:
    def test_every_frame_and_decoded_value_is_as_recorded(self):
        recorded = json.loads(CORPUS.read_text())
        fresh = corpus()
        assert sorted(fresh) == sorted(recorded)
        assert [row for row in recorded if fresh[row] != recorded[row]] \
            == []
        assert CORPUS.stat().st_size <= 250_000


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_protocols --record")
    CORPUS.write_text(json.dumps(corpus(), indent=0, sort_keys=True) + "\n")
    print(f"recorded {CORPUS}")
