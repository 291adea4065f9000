"""Self-tests of districtbench.

Run by explicit path (``testpaths`` keeps them out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/district/test_districtbench.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(section: str):
    return [metric["name"] for metric in SPEC[section]]


def test_names_are_well_formed_and_match_the_code():
    names = declared("end_to_end") + declared("per_layer") \
        + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why
               for w in SPEC["workloads"])
    assert "setup_s" in declared("end_to_end")
    for layer in LAYERS:
        for key in ("calls", "self_s", "self_share"):
            assert f"{layer}.{key}" in declared("per_layer")


def test_self_time_is_duration_minus_children():
    #        a: 0..10, b: 1..3 in a, c: 4..8 in a, d: 5..6 in c
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_layer_shares_follow_the_spans_and_sum_to_at_most_one():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.name_id("Scheduler.run_until", "scheduler")
    inner = tracer.name_id("Network.send", "transport")
    a = tracer.begin(outer)        # t=0
    b = tracer.begin(inner)        # t=1
    tracer.end(b)                  # t=2
    c = tracer.begin(inner)        # t=3
    tracer.end(c)                  # t=4
    tracer.end(a)                  # t=5
    table = tracer.by_layer(window_s=6.0)
    assert table["scheduler"] == {"calls": 1, "self_s": 3.0,
                                  "self_share": 0.5}
    assert table["transport"]["calls"] == 2
    assert table["transport"]["self_s"] == 2.0
    assert sum(row["self_share"] for row in table.values()) <= 1.0
    document = tracer.to_document(workload="x")
    assert document["spans"]["parent"] == [-1, 0, 0]
    assert document["spans_total"] == document["spans_written"] == 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_generated_workload(name, tmp_path):
    def generated(seed):
        return json.dumps(WORKLOADS[name](seed, 0.5, tmp_path).describe(),
                          sort_keys=True)

    assert generated(17) == generated(17)
    assert generated(17) != generated(29)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name):
    # the traced run starts its untraced twin itself, so this covers both
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "17", "--seconds", "16", "--scale", "smoke",
         "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert any("SMOKE SCALE" in line for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(declared("per_layer"))
    detail = json.loads(next(line for line in lines
                             if line.startswith("detail "))[7:])
    assert sorted(detail["end_to_end"]) == sorted(declared("end_to_end"))
    trace = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
    assert trace["spans_written"] == len(trace["spans"]["name"]) > 0
