"""Golden corpus of every record whose fields are its codec.

Each record kind of the district — the CDF records, the ontology
nodes, the resolve answer, the TSDB config and the broker's
subscription and pending delivery — is pinned by its dict (key order
included), a CDF record also by its JSON and XML text, and every record
by what decoding makes of coercible inputs (numeric strings, 0 / 1 for
bools, absent optionals) and of each missing key.

    python -m tests.test_records --record
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.common.cdf import (
    ActuationCommand,
    ActuationResult,
    Measurement,
    record_from_dict,
)
from repro.common.serialization import to_json, to_xml
from repro.datasources.generators import synthesize_district
from repro.errors import SerializationError
from repro.middleware.broker_state import _PendingDelivery, _Sub
from repro.ontology.model import DeviceNode, DistrictNode, EntityNode
from repro.ontology.queries import AreaQuery, ResolvedArea, ResolvedEntity
from repro.proxies.translators import (
    translate_bim,
    translate_gis_feature,
    translate_sim,
)
from repro.simulation import ScenarioConfig, deploy
from repro.simulation.scenario import build_device
from repro.storage.blocks import TsdbConfig

CORPUS = Path(__file__).parent / "fixtures" / "record_corpus.json"
CORPUS_SEED = 55


def _outcome(call):
    """What *call* returns, as its repr, or what it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return f"!{type(exc).__name__}: {exc}"


def _coerced(data):
    """*data* with each top-level number as its text and each bool as 0
    or 1: what a loosely typed sender would put on the wire."""
    return {key: int(value) if isinstance(value, bool) else
            repr(value) if isinstance(value, (int, float)) else value
            for key, value in data.items()}


def _cdf_records(rng):
    """Translated models, device descriptions and their nested records,
    samples and actuations of a seeded synthetic district."""
    dataset = synthesize_district(seed=CORPUS_SEED, n_buildings=2,
                                  devices_per_building=4)
    records = []
    for building in dataset.buildings:
        records.append(translate_bim(building.bim, building.entity_id))
        records.append(translate_gis_feature(
            dataset.gis.feature(building.feature_id), building.entity_id))
    for network in dataset.networks:
        records.append(translate_sim(network.sim, network.entity_id))
    records += [records[0].components[0], records[0].relations[0]]
    devices = [build_device(spec, dataset).description()
               for spec in dataset.devices]
    records += devices
    records += [devices[0].sensors[0]]
    records += [a for d in devices for a in d.actuators][:2]
    for device in devices:
        for sensor in device.sensors:
            records.append(Measurement(
                device.device_id, device.entity_id, sensor.quantity,
                rng.uniform(-50.0, 500.0), rng.uniform(0.0, 86400.0),
                source=f"proxy-{device.protocol}",
                metadata={"seq": rng.randrange(1000)} if rng.random() < 0.5
                else {}))
        for actuator in device.actuators:
            value = None if actuator.value_range is None else \
                rng.uniform(*actuator.value_range)
            records.append(ActuationCommand(
                device.device_id, actuator.command, value,
                rng.uniform(0.0, 86400.0)))
            records.append(ActuationResult(
                device.device_id, actuator.command, rng.random() < 0.7,
                "" if rng.random() < 0.5 else "out of range",
                rng.uniform(0.0, 86400.0)))
    return records


def _deployed_records():
    """A small deployed district's master ontology, whole-area resolve
    answer, TSDB config and broker subscriptions, and two deliveries."""
    district = deploy(ScenarioConfig(seed=CORPUS_SEED, n_buildings=2))
    district.run(60.0)
    master = district.master
    records = []
    for node in master.ontology.districts():
        records.append(node)
        for entity in node.entities.values():
            records.append(entity)
            records += list(entity.devices.values())[:2]
    area = master.resolve_area(AreaQuery(district_id=district.district_id))
    records += [area] + list(area.entities)
    records += [district.measurement_db.store.config,
                TsdbConfig(block_size=64, compaction_target=256,
                           compaction_period=300.0)]
    subs = district.broker.state.subs.by_id
    records += [(sub_id, subs[sub_id]) for sub_id in sorted(subs)][:4]
    records += [(9, _Sub("district/+/power", "dashboard", "inbox", 5,
                         True))]
    records += [
        _PendingDelivery(3, 9, "dashboard", "inbox",
                         {"payload": {"value": 1.5}, "published_at": 2.0},
                         "proxy-a", "district/bld-0001/power", 2, 1,
                         ("proxy-a", "acks", 4)),
        _PendingDelivery(4, 9, "dashboard", "inbox", {"payload": None},
                         "proxy-b", "district/bld-0002/power")]
    return records


#: record class -> (corpus name, decoder, encoder)
KINDS = {
    DistrictNode: ("district-node", DistrictNode.from_dict, None),
    EntityNode: ("entity-node", EntityNode.from_dict, None),
    DeviceNode: ("device-node", DeviceNode.from_dict, None),
    ResolvedArea: ("resolved-area", ResolvedArea.from_dict, None),
    ResolvedEntity: ("resolved-entity", ResolvedEntity.from_dict, None),
    TsdbConfig: ("tsdb-config", TsdbConfig.from_dict, None),
    _PendingDelivery: ("pending-delivery", _PendingDelivery.from_record,
                       lambda record: record.to_record()),
}


def _entry(record):
    """(corpus name, the record's dict, its decoder)."""
    if isinstance(record, tuple):  # a subscription and its id
        sub_id, sub = record
        return "subscription", sub.to_record(sub_id), _Sub.from_record
    kind = KINDS.get(type(record))
    if kind is None:
        return type(record).__name__, record.to_dict(), type(record).from_dict
    name, decode, encode = kind
    return name, (encode or type(record).to_dict)(record), decode


def corpus():
    rng = random.Random(CORPUS_SEED)
    rows = {}
    counts = {}
    tagged = set()
    for record in _cdf_records(rng) + _deployed_records():
        name, data, decode = _entry(record)
        index = counts[name] = counts.get(name, -1) + 1
        prefix = f"{name} {index}"
        rows[f"{prefix} dict"] = json.dumps(data)
        if "record" in data:
            rows[f"{prefix} json"] = to_json(record)
            rows[f"{prefix} xml"] = to_xml(record)
            tagged.add(name)
        rows[f"{prefix} decoded"] = _outcome(lambda: decode(data))
        rows[f"{prefix} coerced"] = _outcome(lambda: decode(_coerced(data)))
        required = {}
        for key in data:
            without = {k: v for k, v in data.items() if k != key}
            outcome = _outcome(lambda: decode(without))
            if outcome.startswith("!"):
                rows[f"{prefix} missing {key}"] = outcome
                required[key] = data[key]
        rows[f"{prefix} absent optionals"] = _outcome(
            lambda: decode(required))
        if name in tagged:
            rows[f"{prefix} dispatched"] = _outcome(
                lambda: record_from_dict(data))
    return rows


@pytest.mark.parametrize("decode, data, message", [
    (Measurement.from_dict,
     {"device_id": "dev-1", "entity_id": "bld-1", "quantity": "power",
      "value": "ten", "timestamp": 0.0},
     "measurement record field 'value': could not convert"),
    (ActuationCommand.from_dict,
     {"device_id": "dev-1", "command": "setpoint", "issued_at": [1]},
     "actuation_command record field 'issued_at': float() argument"),
    (DeviceNode.from_dict,
     {"device_id": "dev-1", "proxy_uri": "svc://p/", "protocol": "zigbee",
      "quantities": 7},
     "device-node record field 'quantities': 'int' object"),
    (ResolvedEntity.from_dict,
     {"entity_id": "bld-1", "entity_type": "building",
      "device_proxies": [{"uri": "svc://p/", "protocol": "zigbee",
                          "devices": ["dev-1"], "actuators": []}]},
     "resolved-entity record field 'device_proxies': 'list' object"),
    (ResolvedArea.from_dict,
     {"district_id": "dst-1", "entities": [{"entity_type": "building"}]},
     "resolved-entity record missing field 'entity_id'"),
    (TsdbConfig.from_dict, {"block_size": "big"},
     "tsdb-config record field 'block_size': invalid literal"),
], ids=["measurement", "actuation-command", "device-node", "resolved-entity",
        "resolved-area", "tsdb-config"])
def test_a_refused_value_names_its_record_and_field(decode, data, message):
    with pytest.raises(SerializationError) as raised:
        decode(data)
    assert str(raised.value).startswith(message)


class TestRecordCorpus:
    def test_every_record_and_decode_is_as_recorded(self):
        recorded = json.loads(CORPUS.read_text())
        fresh = corpus()
        assert sorted(fresh) == sorted(recorded)
        assert [row for row in recorded if fresh[row] != recorded[row]] \
            == []
        assert CORPUS.stat().st_size <= 400_000


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_records --record")
    CORPUS.write_text(json.dumps(corpus(), indent=0, sort_keys=True) + "\n")
    print(f"recorded {CORPUS}")
