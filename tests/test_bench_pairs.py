"""The pair protocol's verdict (``scripts/bench_pairs.py``) on canned runs.

``compare`` is a pure function of two lists of paired runs; nothing here
starts a benchmark.  The rule is the ``choosing-metrics`` guide's: a gain
needs nine tenths of all pairs won (ties count for neither side) *and* a
median gap wider than the distance between the parent's quartiles.
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
