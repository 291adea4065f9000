"""Golden tests for the BENCH_*.json schema.

The perf-smoke CI job uploads these records as reports, so the schema
validator must reject every malformed shape here.
"""

import json

import pytest

from repro.observability.benchreport import (
    BENCH_KEYS,
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    bench_filename,
    load_bench_reports,
    validate_bench_report,
    write_bench_report,
)


def _record(**overrides):
    base = dict(experiment="C4", title="pub/sub middleware",
                wall_seconds=2.0, sim_seconds=600.0,
                messages_total=50_000,
                headline_metrics={"delivery_p99_ms": 41.2})
    base.update(overrides)
    return BenchRecord(**base)


# -- the record itself -------------------------------------------------------


def test_record_rate_and_golden_dict():
    record = _record()
    assert record.msgs_per_sec == pytest.approx(25_000.0)
    assert record.to_dict() == {
        "schema": 1,
        "experiment": "C4",
        "title": "pub/sub middleware",
        "wall_seconds": 2.0,
        "sim_seconds": 600.0,
        "messages_total": 50_000,
        "msgs_per_sec": 25_000.0,
        "headline_metrics": {"delivery_p99_ms": 41.2},
        "quick": False,
    }
    assert tuple(record.to_dict()) == BENCH_KEYS  # emission order is stable


def test_record_with_no_wall_reports_zero_rate():
    assert _record(wall_seconds=0.0).msgs_per_sec == 0.0


def test_merge_sums_measures_and_overlays_headlines():
    record = _record()
    record.merge(wall_seconds=1.0, sim_seconds=100.0, messages_total=10_000,
                 headline_metrics={"delivery_p99_ms": 50.0,
                                   "ingest_speedup": 3.1})
    assert record.wall_seconds == pytest.approx(3.0)
    assert record.sim_seconds == pytest.approx(700.0)
    assert record.messages_total == 60_000
    assert record.headline_metrics == {"delivery_p99_ms": 50.0,
                                       "ingest_speedup": 3.1}


# -- schema validation -------------------------------------------------------


def test_valid_record_passes():
    assert validate_bench_report(_record().to_dict()) == []


def test_non_object_is_rejected():
    assert validate_bench_report([1, 2]) == \
        ["record is list, expected object"]


@pytest.mark.parametrize("key", BENCH_KEYS)
def test_every_missing_key_is_named(key):
    data = _record().to_dict()
    del data[key]
    assert f"missing key {key!r}" in validate_bench_report(data)


def test_unknown_key_is_rejected():
    data = _record().to_dict()
    data["vibes"] = "good"
    assert validate_bench_report(data) == ["unknown key 'vibes'"]


def test_wrong_types_are_rejected():
    data = _record().to_dict()
    data["messages_total"] = "many"
    data["title"] = 7
    problems = validate_bench_report(data)
    assert any("messages_total" in p for p in problems)
    assert any("'title'" in p for p in problems)


def test_bool_does_not_satisfy_int():
    data = _record().to_dict()
    data["messages_total"] = True  # bool is an int subclass — refuse it
    assert validate_bench_report(data) == \
        ["key 'messages_total' is bool, expected <class 'int'>"]


def test_wrong_schema_version_is_rejected():
    data = _record().to_dict()
    data["schema"] = BENCH_SCHEMA_VERSION + 1
    assert validate_bench_report(data) == \
        [f"schema version {BENCH_SCHEMA_VERSION + 1} "
         f"!= {BENCH_SCHEMA_VERSION}"]


def test_non_numeric_headline_metric_is_rejected():
    data = _record().to_dict()
    data["headline_metrics"] = {"p99": "fast", "flag": True}
    problems = validate_bench_report(data)
    assert "headline metric 'p99' is not numeric" in problems
    assert "headline metric 'flag' is not numeric" in problems


# -- write / load round trip -------------------------------------------------


def test_write_then_load_round_trips(tmp_path):
    path = write_bench_report(_record(), str(tmp_path))
    assert path.endswith(bench_filename("C4"))
    with open(path) as handle:
        assert validate_bench_report(json.load(handle)) == []
    loaded = load_bench_reports(str(tmp_path))
    assert loaded == {"C4": _record().to_dict()}


def test_load_skips_foreign_files(tmp_path):
    write_bench_report(_record(), str(tmp_path))
    (tmp_path / "notes.json").write_text("{}")
    (tmp_path / "BENCH_O3.txt").write_text("not json")
    assert set(load_bench_reports(str(tmp_path))) == {"C4"}


def test_load_missing_directory_is_empty(tmp_path):
    assert load_bench_reports(str(tmp_path / "nope")) == {}


def test_load_raises_on_invalid_record(tmp_path):
    bad = _record().to_dict()
    del bad["msgs_per_sec"]
    (tmp_path / "BENCH_C4.json").write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="missing key 'msgs_per_sec'"):
        load_bench_reports(str(tmp_path))

