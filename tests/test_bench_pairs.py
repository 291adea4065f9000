"""The pair protocol's verdict (``scripts/bench_pairs.py``) on canned runs.

``compare`` is a pure function of two lists of paired runs; nothing here
starts a benchmark.  The rule is the ``choosing-metrics`` guide's: a gain
needs nine tenths of all pairs won (ties count for neither side) *and* a
median gap wider than the distance between the parent's quartiles.
``--exact`` is checked the same way: its filter, and its exit status on
canned runs standing in for the benchmark; ``--calls`` by its table of
canned counts and its counter on canned calls.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
compare = bench_pairs.compare

#: ISSUE 22's own parent runs of ``area_query.ops_per_s``, doubled to ten
PARENT = [379.0, 438.0, 439.0, 426.0, 418.0, 381.0, 436.0, 440.0, 425.0,
          419.0]


def test_quartiles():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == \
        [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_clear_gain():
    result = compare(PARENT, [p * 1.25 for p in PARENT])
    assert (result["won"], result["lost"], result["tied"]) == (10, 0, 0)
    assert result["verdict"] == "gain"
    assert result["parent"][1] == pytest.approx(425.5)


def test_nine_of_ten_is_enough_eight_is_not():
    change = [p + 100.0 for p in PARENT]
    change[0] = PARENT[0] - 1.0
    assert compare(PARENT, change)["verdict"] == "gain"
    change[1] = PARENT[1] - 1.0
    result = compare(PARENT, change)
    assert (result["won"], result["lost"]) == (8, 2)
    assert result["verdict"] == "unresolved"


def test_a_tie_counts_for_neither_side():
    change = [p + 100.0 for p in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    result = compare(PARENT, change)
    assert (result["won"], result["lost"], result["tied"]) == (8, 0, 2)
    assert result["verdict"] == "unresolved"


def test_winning_every_pair_inside_the_parents_spread_is_unresolved():
    # parent quartiles 418.25 / 425.5 / 437.5: a +5 gap is inside them
    result = compare(PARENT, [p + 5.0 for p in PARENT])
    assert result["won"] == 10
    assert result["verdict"] == "unresolved"


def test_fewer_than_ten_pairs_never_resolve():
    result = compare(PARENT[:5], [p * 2 for p in PARENT[:5]])
    assert result["won"] == 5 and result["verdict"] == "unresolved"
    assert compare([400.0], [600.0])["verdict"] == "unresolved"
    assert compare(PARENT[:9], [p * 2 for p in PARENT[:9]])["verdict"] == \
        "unresolved"
    twenty = PARENT + PARENT
    change = [p + 100.0 for p in twenty]
    change[0], change[1] = twenty[0] - 1.0, twenty[1] - 1.0
    assert compare(twenty, change)["verdict"] == "gain"       # 18 of 20
    change[2] = twenty[2] - 1.0
    assert compare(twenty, change)["verdict"] == "unresolved"  # 17 of 20


def test_worse_is_the_mirror_image():
    assert compare(PARENT, [p * 0.7 for p in PARENT])["verdict"] == "worse"
    assert compare(PARENT, [p - 5.0 for p in PARENT])["verdict"] == \
        "unresolved"


def test_lower_is_better_metrics_flip_the_sign():
    setup_s = [2.8, 2.9, 2.7, 2.8, 3.0, 2.8, 2.9, 2.7, 2.8, 3.0]
    faster = [s - 1.0 for s in setup_s]
    assert compare(setup_s, faster, "lower")["verdict"] == "gain"
    assert compare(setup_s, faster, "higher")["verdict"] == "worse"
    assert compare(faster, setup_s, "lower")["verdict"] == "worse"


def test_identical_runs_are_unresolved():
    result = compare(PARENT, list(PARENT))
    assert result["tied"] == 10 and result["verdict"] == "unresolved"


# -- --exact: the "nothing moved" proof ------------------------------------


def test_host_clock_values_are_the_only_ones_skipped():
    for name in ("setup_s", "ops_per_s", "peak_rss_mb", "attributed_share",
                 "tracing_overhead_x", "broker.self_s",
                 "scheduler.self_share"):
        assert bench_pairs.host_clock(name), name
    for name in ("sim_op_latency_p99_ms", "sim_bytes_per_op",
                 "broker.calls", "transport.bytes_sent",
                 "client.resolve.sim_p50_ms", "device_proxy.frames_received"):
        assert not bench_pairs.host_clock(name), name


def test_differing_names_every_moved_value_and_only_those():
    parent = {"sim_bytes_per_op": 992.44, "ops_per_s": 4759.0,
              "broker.self_s": 0.41, "broker.calls": 120.0,
              "device_proxy.samples_per_frame": float("nan")}
    change = dict(parent, ops_per_s=4705.0, **{"broker.self_s": 0.39})
    assert bench_pairs.differing(parent, change) == []
    change["broker.calls"] = 121.0
    del change["sim_bytes_per_op"]
    assert bench_pairs.differing(parent, change) == ["broker.calls",
                                                     "sim_bytes_per_op"]


def _canned(moved_at=None):
    """A stand-in for ``run_once``: the change side's ``broker.calls``
    moves on the (workload, seed, trace) named by *moved_at*."""
    def run(checkout, workload, seed, trace, scale):
        values = {"sim_op_latency_p50_ms": 10.15, "ops_per_s": 400.0}
        if trace:
            values = {"broker.calls": 120.0, "broker.self_s": 0.4}
        if checkout.name == "change":
            values["ops_per_s" if not trace else "broker.self_s"] *= 1.1
            if (workload, seed, trace) == moved_at:
                values["broker.calls"] += 1
        return values
    return run


def _exact(monkeypatch, moved_at=None):
    monkeypatch.setattr(bench_pairs, "run_once", _canned(moved_at))
    keys = bench_pairs.run_keys(["area_query", "ingest_batched"], [17, 29])
    return bench_pairs.exact(*(bench_pairs.checkout_runs(Path(side), keys,
                                                         "full")
                               for side in ("parent", "change")))


def test_exact_exits_0_when_only_the_host_clock_moved(monkeypatch, capsys):
    assert _exact(monkeypatch) == 0
    out = capsys.readouterr().out
    assert out.count("0 differ") == 8 and "nothing moved" in out


def test_exact_exits_1_and_names_the_value_that_moved(monkeypatch, capsys):
    assert _exact(monkeypatch, ("ingest_batched", 29, 1)) == 1
    out = capsys.readouterr().out
    assert "ingest_batched seed 29 trace 1: 2 values, 1 differ" in out
    assert "  broker.calls: 120.0 -> 121.0" in out
    assert "differing values: 1" in out


def test_runs_use_a_copy_taken_at_start(tmp_path):
    # an edit to the checkout during a long --exact run must not reach
    # the runs still to come
    checkout = tmp_path / "checkout"
    files = {"src/repro/loop.py": "FAST = True\n",
             "benchmarks/district/run.py": "print('run')\n",
             "benchmarks/district/out/trace_area_query.json": "{}\n",
             "benchmarks/bench_other.py": "\n",
             "BENCHMARK.json": "{}\n"}
    for name, text in files.items():
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(text)
    copy = bench_pairs.snapshot(checkout, tmp_path / "copy")
    (checkout / "src/repro/loop.py").write_text("FAST = False\n")
    assert (copy / "src/repro/loop.py").read_text() == "FAST = True\n"
    assert (copy / "benchmarks/district/run.py").is_file()
    assert (copy / "BENCHMARK.json").is_file()
    assert not (copy / "benchmarks/district/out").exists()
    assert not (copy / "benchmarks/bench_other.py").exists()


# -- --calls: calls per op by package ----------------------------------------


def test_calls_table_divides_by_each_sides_ops_busiest_package_first():
    sides = {
        "parent": {"ops": 100, "calls": {
            "repro.middleware": {"py": 1810, "c": 2330},
            "python": {"py": 810, "c": 60}}},
        "change": {"ops": 50, "calls": {
            "repro.middleware": {"py": 830, "c": 1125},
            "repro.network": {"py": 2235, "c": 3015}}},
    }
    header, *rows = bench_pairs.calls_table(sides)
    assert header.split() == ["package", "parent", "py", "parent", "C",
                              "change", "py", "change", "C"]
    table = {row.split()[0]: [float(value) for value in row.split()[1:]]
             for row in rows}
    # by calls per op over both sides: 105.0, 80.5, 8.7
    assert [row.split()[0] for row in rows] == [
        "repro.network", "repro.middleware", "python", "total"]
    assert table["repro.middleware"] == [18.1, 23.3, 16.6, 22.5]
    # a package one side never called reads 0 there
    assert table["repro.network"] == [0.0, 0.0, 44.7, 60.3]
    assert table["python"] == [8.1, 0.6, 0.0, 0.0]
    assert table["total"] == [26.2, 23.9, 61.3, 82.8]


def test_call_counter_files_a_c_call_under_its_own_module():
    import heapq
    import json.encoder
    from types import SimpleNamespace

    def frame(filename):
        return SimpleNamespace(f_code=SimpleNamespace(co_filename=filename))

    network = frame("/co/src/repro/network/transport.py")
    bench = frame("/co/benchmarks/district/run.py")
    counter = bench_pairs.CallCounter()
    for event, at, arg in [
            ("call", network, None), ("call", network, None),
            ("call", bench, None),
            # made from repro.network, filed under the C function's module
            ("c_call", network, len), ("c_call", network, {}.get),
            ("c_call", bench, heapq.heappush),
            ("c_call", bench, json.encoder.encode_basestring_ascii),
            ("return", network, None), ("c_return", network, len)]:
        counter(at, event, arg)
    assert counter.counts == {
        "repro.network": {"py": 2, "c": 0},
        "districtbench": {"py": 1, "c": 0},
        "builtins": {"py": 0, "c": 2},
        "_heapq": {"py": 0, "c": 1},
        "_json": {"py": 0, "c": 1},
    }


# -- pairs: what a verdict and a sim_* line say ------------------------------

#: ``actuation_waves`` seed 17, ``peak_rss_mb`` over ten alternating
#: pairs, with a decoder that gave each kept record its own copy of the
#: ids: a real +0.95 % regression, lost 10 of 10
RSS_PARENT = [66.4727, 66.3906, 66.3359, 66.3281, 66.4453,
              66.5, 66.2148, 66.2773, 66.3047, 66.4414]
RSS_CHANGE = [66.9297, 67.043, 66.8906, 67.1055, 67.0273,
              66.8906, 66.9609, 67.0352, 67.082, 66.9453]


def test_rss_regression_below_the_noise_floor_is_still_flagged():
    floor = bench_pairs.NOISE_FLOOR["peak_rss_mb"]
    assert floor == 0.01
    result = compare(RSS_PARENT, RSS_CHANGE, "lower", floor)
    assert result["lost"] == 10
    assert result["verdict"] == "worse (< 1 % apart: re-run)"
    assert result["verdict"].startswith(
        compare(RSS_PARENT, RSS_CHANGE, "lower")["verdict"])
    # the mirror image is a gain that asks for a re-run too
    assert compare(RSS_CHANGE, RSS_PARENT, "lower", floor)["verdict"] == \
        "gain (< 1 % apart: re-run)"
    # one percent or more apart is a plain verdict, in both directions
    assert compare(RSS_PARENT, [r * 1.02 for r in RSS_PARENT], "lower",
                   floor)["verdict"] == "worse"
    assert compare(RSS_PARENT, [r * 0.98 for r in RSS_PARENT], "lower",
                   floor)["verdict"] == "gain"


def test_noise_floor_never_resolves_an_unresolved_pair_series():
    floor = bench_pairs.NOISE_FLOOR["peak_rss_mb"]
    mixed = RSS_CHANGE[:5] + RSS_PARENT[5:]
    assert compare(RSS_PARENT, mixed, "lower", floor)["verdict"] == \
        "unresolved"


def test_other_metrics_have_no_noise_floor():
    assert set(bench_pairs.NOISE_FLOOR) == {"peak_rss_mb"}
    # a +1.2 % ops_per_s gap outside the parent's spread still resolves
    steady = [1000.0 + i * 0.1 for i in range(10)]
    assert compare(steady, [s * 1.012 for s in steady])["verdict"] == "gain"


def test_sim_line_states_parent_change_and_the_relative_move():
    line = bench_pairs.sim_line("sim_bytes_per_op", [1242.29] * 10,
                                [905.61] * 10)
    assert line == "sim_bytes_per_op: DIFFERS 1242.29 → 905.61 (-27.1 %)"
    assert bench_pairs.sim_line("sim_op_latency_p50_ms", [4.0] * 3,
                                [4.1] * 3).endswith("(+2.5 %)")
    assert bench_pairs.sim_line("sim_x", [8.5] * 4, [8.5] * 4) == \
        "sim_x: exactly equal [8.5]"
    # a side that is not one value is listed, not summarised
    assert bench_pairs.sim_line("sim_x", [1.0, 2.0], [3.0, 3.0]) == \
        "sim_x: DIFFERS [1.0, 2.0] → [3.0]"
