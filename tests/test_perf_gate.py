"""Red/green tests for CI's "nothing moved" check.

CI runs ``scripts/bench_pairs.py <recording> . --exact`` against the
committed ``benchmarks/baselines/districtbench_counters.json``.  The
check is only trustworthy if it demonstrably goes red on a moved counter
and green when only the host clock moved; both cases are driven here
with canned runs standing in for districtbench, so nothing here starts a
benchmark.  ``test_no_baselines_is_a_noop`` reads the committed
recording itself.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNTERS = ROOT / "benchmarks" / "baselines" / "districtbench_counters.json"
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WORKLOADS = ["area_query", "ingest_batched"]


@pytest.fixture()
def checkout(tmp_path):
    """A checkout whose ``BENCHMARK.json`` lists :data:`WORKLOADS`."""
    path = tmp_path / "checkout"
    path.mkdir()
    _list_workloads(path, WORKLOADS)
    return path


def _list_workloads(checkout, workloads):
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": name} for name in workloads]}))


def _canned(monkeypatch, edit=None):
    """Stand in for ``run_once``; returns the ``(key, scale)`` of each
    run.  Host-clock values change on every run; ``edit(key, values)``
    may change the rest."""
    calls = []

    def run(checkout, workload, seed, trace, scale):
        key = (workload, seed, trace)
        calls.append((key, scale))
        values = {"sim_bytes_per_op": 992.5 + seed, "ops_per_s": 400.0,
                  "setup_s": 2.0 + len(calls)}
        if trace:
            values = {"scheduler.events": 1000 + seed, "broker.calls": 120,
                      "broker.self_s": 0.01 * len(calls),
                      "tracing_overhead_x": 1.5}
        if edit:
            edit(key, values)
        return values
    monkeypatch.setattr(bench_pairs, "run_once", run)
    return calls


def _record(monkeypatch, checkout, path):
    _canned(monkeypatch)
    assert bench_pairs.main(["--record", str(path), str(checkout)]) == 0


def _check(path, checkout):
    return bench_pairs.main([str(path), str(checkout), "--exact"])


def test_green_within_tolerance(checkout, tmp_path, monkeypatch, capsys):
    # equal counters pass, however the host clock moved in between
    recording = tmp_path / "counters.json"
    _record(monkeypatch, checkout, recording)
    calls = _canned(monkeypatch)
    assert _check(recording, checkout) == 0
    out = capsys.readouterr().out
    assert out.count(" 0 differ") == 8 and "nothing moved" in out
    # the recording sets the scale and the seeds of the runs checked
    assert sorted(calls) == sorted(
        (key, "smoke")
        for key in bench_pairs.run_keys(WORKLOADS, [17, 29]))


def test_red_below_floor(checkout, tmp_path, monkeypatch, capsys):
    # one moved counter fails the check and is named
    recording = tmp_path / "counters.json"
    _record(monkeypatch, checkout, recording)

    def one_more_event(key, values):
        if key == ("area_query", 29, 1):
            values["scheduler.events"] += 1
    _canned(monkeypatch, one_more_event)
    assert _check(recording, checkout) == 1
    out = capsys.readouterr().out
    assert "area_query seed 29 trace 1: 2 values, 1 differ" in out
    assert "  scheduler.events: 1029 -> 1030" in out
    assert "differing values: 1" in out


def test_red_when_baselined_result_is_missing(checkout, tmp_path,
                                              monkeypatch, capsys):
    # a recorded run the checkout no longer makes is a difference
    recording = tmp_path / "counters.json"
    _record(monkeypatch, checkout, recording)
    _list_workloads(checkout, ["area_query"])
    calls = _canned(monkeypatch)
    assert _check(recording, checkout) == 1
    out = capsys.readouterr().out
    assert "ingest_batched seed 17 trace 1: 2 values, 2 differ" in out
    assert "  scheduler.events: 1017 -> None" in out
    assert "differing values: 6" in out
    assert {key[0] for key, _scale in calls} == {"area_query"}


def test_throughput_free_baseline_is_skipped(checkout, tmp_path,
                                             monkeypatch, capsys):
    # host-clock values are never recorded, and never compared
    recording = tmp_path / "counters.json"
    _record(monkeypatch, checkout, recording)
    names = {name for values in json.loads(recording.read_text())["runs"]
             .values() for name in values}
    assert names == {"sim_bytes_per_op", "scheduler.events", "broker.calls"}

    def ten_times_slower(key, values):
        for name in values:
            if bench_pairs.host_clock(name):
                values[name] *= 10
    _canned(monkeypatch, ten_times_slower)
    assert _check(recording, checkout) == 0
    assert "nothing moved" in capsys.readouterr().out


def test_unbaselined_result_only_warns(checkout, tmp_path, monkeypatch,
                                       capsys):
    # the wall-clock gate only warned here; a value only one side has is
    # now a difference, in either direction
    recording = tmp_path / "counters.json"
    _record(monkeypatch, checkout, recording)

    def new_counter(key, values):
        if key == ("ingest_batched", 17, 1):
            values["broker.published"] = 5
    _canned(monkeypatch, new_counter)
    assert _check(recording, checkout) == 1
    assert "  broker.published: None -> 5" in capsys.readouterr().out

    def lost_counter(key, values):
        if key == ("ingest_batched", 17, 1):
            del values["broker.calls"]
    _canned(monkeypatch, lost_counter)
    assert _check(recording, checkout) == 1
    assert "  broker.calls: 120 -> None" in capsys.readouterr().out


def test_malformed_record_exits_2(checkout, tmp_path, monkeypatch, capsys):
    # a malformed recording is refused before any run starts
    recording = tmp_path / "counters.json"
    runs = {"area_query/17/0": {"sim_bytes_per_op": 992.5}}
    for bad in ("{", "[]", {"runs": runs}, {"scale": "huge", "runs": runs},
                {"scale": "smoke", "runs": {}},
                {"scale": "smoke", "runs": {"area_query/17": {"x": 1}}},
                {"scale": "smoke", "runs": {"area_query/17/0": {}}},
                {"scale": "smoke", "runs": {"area_query/17/0": {"x": "1"}}},
                {"scale": "smoke", "runs": {"area_query/17/1":
                                            {"broker.self_s": 0.4}}}):
        recording.write_text(bad if isinstance(bad, str)
                             else json.dumps(bad))
        calls = _canned(monkeypatch)
        with pytest.raises(SystemExit) as exited:
            _check(recording, checkout)
        assert exited.value.code == 2, bad
        assert calls == [], bad
    assert "without the host clock" in capsys.readouterr().err


def test_no_baselines_is_a_noop():
    # the committed recording covers every BENCHMARK.json workload at
    # both seeds and both traces, at smoke scale, with no host clock;
    # trace 0 holds the simulated end-to-end values, trace 1 the counts
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scale, runs = bench_pairs.load_recording(COUNTERS)
    assert scale == "smoke"
    assert sorted(runs) == sorted(bench_pairs.run_keys(
        [workload["name"] for workload in spec["workloads"]], [17, 29]))
    expected = [{metric["name"] for metric in spec[table]
                 if not bench_pairs.host_clock(metric["name"])}
                for table in ("end_to_end", "per_layer")]
    for key, values in runs.items():
        assert set(values) == expected[key[2]], key
    assert [path.name for path in COUNTERS.parent.iterdir()] == \
        [COUNTERS.name]


def test_update_rewrites_baselines(checkout, tmp_path, monkeypatch, capsys):
    # --record round-trips: the values it writes are the runs' own, a
    # second recording is byte-identical, and the check passes against it
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    _record(monkeypatch, checkout, first)
    calls = _canned(monkeypatch)
    assert bench_pairs.main(["--record", str(second), str(checkout)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert {scale for _key, scale in calls} == {"smoke"}
    scale, runs = bench_pairs.load_recording(first)
    assert scale == "smoke"
    assert runs["area_query", 29, 0] == {"sim_bytes_per_op": 1021.5}
    assert runs["ingest_batched", 17, 1] == {"scheduler.events": 1017,
                                             "broker.calls": 120}
    assert "8 runs, 12 values" in capsys.readouterr().out
    assert _check(first, checkout) == 0
