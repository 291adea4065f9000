"""Machine-readable benchmark results: the ``BENCH_<id>.json`` schema.

Every benchmark session historically produced one free-text
``experiments.txt``.  This module defines the record each experiment
also emits (via the shared ``report`` fixture in
``benchmarks/conftest.py``); the ``perf-smoke`` CI job uploads the
records of its quick O3, C4 and O4 runs as reports.  No gate reads them:
CI's "nothing moved" check compares districtbench's exact counters
instead (``scripts/bench_pairs.py``).

One record per experiment, one file per record::

    benchmarks/results/BENCH_C4.json
    {
      "schema": 1,
      "experiment": "C4",
      "title": "pub/sub middleware: ...",
      "wall_seconds": 1.84,
      "sim_seconds": 600.0,
      "messages_total": 45210,
      "msgs_per_sec": 24570.6,
      "headline_metrics": {"delivery_p99_ms": 41.2},
      "quick": false
    }

``msgs_per_sec`` — simulated transport messages delivered per wall
second — is the fleet-wide speed number; message-less experiments (pure
translation/ontology microbenches) report ``0.0``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: bump when the BENCH_*.json key set changes incompatibly
BENCH_SCHEMA_VERSION = 1

#: every key a schema-valid record carries, in emission order
BENCH_KEYS = (
    "schema",
    "experiment",
    "title",
    "wall_seconds",
    "sim_seconds",
    "messages_total",
    "msgs_per_sec",
    "headline_metrics",
    "quick",
)

_KEY_TYPES = {
    "schema": int,
    "experiment": str,
    "title": str,
    "wall_seconds": (int, float),
    "sim_seconds": (int, float),
    "messages_total": int,
    "msgs_per_sec": (int, float),
    "headline_metrics": dict,
    "quick": bool,
}


@dataclass
class BenchRecord:
    """One experiment's accumulated machine-readable result."""

    experiment: str
    title: str = ""
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    messages_total: int = 0
    headline_metrics: Dict[str, float] = field(default_factory=dict)
    quick: bool = False

    @property
    def msgs_per_sec(self) -> float:
        """Simulated messages delivered per wall second (0.0 if unknown)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.messages_total / self.wall_seconds

    def merge(self, wall_seconds: float = 0.0, sim_seconds: float = 0.0,
              messages_total: int = 0,
              headline_metrics: Optional[Dict[str, float]] = None) -> None:
        """Fold one more measured workload into this record.

        Wall, sim and message counts add up (several tests of one
        experiment each contribute their slice); headline metrics merge
        by key, later writers winning.
        """
        self.wall_seconds += float(wall_seconds)
        self.sim_seconds += float(sim_seconds)
        self.messages_total += int(messages_total)
        if headline_metrics:
            self.headline_metrics.update(headline_metrics)

    def to_dict(self) -> Dict[str, Any]:
        """Stable-key JSON encoding (the BENCH_*.json contract)."""
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "experiment": self.experiment,
            "title": self.title,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "messages_total": self.messages_total,
            "msgs_per_sec": self.msgs_per_sec,
            "headline_metrics": dict(self.headline_metrics),
            "quick": self.quick,
        }


def validate_bench_report(data: Any) -> List[str]:
    """Schema-check one decoded BENCH_*.json; returns a list of problems.

    An empty list means the record is valid.  Checks key presence, key
    types, and that no unknown keys sneak in.
    """
    if not isinstance(data, dict):
        return [f"record is {type(data).__name__}, expected object"]
    problems: List[str] = []
    for key in BENCH_KEYS:
        if key not in data:
            problems.append(f"missing key {key!r}")
            continue
        expected = _KEY_TYPES[key]
        value = data[key]
        # bool is an int subclass; don't let quick=true satisfy an int
        if isinstance(value, bool) and expected is not bool:
            problems.append(f"key {key!r} is bool, expected {expected}")
        elif not isinstance(value, expected):
            problems.append(
                f"key {key!r} is {type(value).__name__}, "
                f"expected {expected}"
            )
    for key in data:
        if key not in BENCH_KEYS:
            problems.append(f"unknown key {key!r}")
    if not problems and data["schema"] != BENCH_SCHEMA_VERSION:
        problems.append(f"schema version {data['schema']} != "
                        f"{BENCH_SCHEMA_VERSION}")
    if not problems:
        for name, value in data["headline_metrics"].items():
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                problems.append(f"headline metric {name!r} is not numeric")
    return problems


def bench_filename(experiment: str) -> str:
    return f"BENCH_{experiment}.json"


def write_bench_report(record: BenchRecord, directory: str) -> str:
    """Write one record to ``<directory>/BENCH_<id>.json``; returns path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, bench_filename(record.experiment))
    with open(path, "w") as handle:
        json.dump(record.to_dict(), handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_bench_reports(directory: str) -> Dict[str, Dict[str, Any]]:
    """Load every ``BENCH_*.json`` under *directory*, keyed by experiment.

    Invalid records raise ``ValueError`` naming the file and problems.
    """
    reports: Dict[str, Dict[str, Any]] = {}
    if not os.path.isdir(directory):
        return reports
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        with open(path) as handle:
            data = json.load(handle)
        problems = validate_bench_report(data)
        if problems:
            raise ValueError(f"{path}: " + "; ".join(problems))
        reports[data["experiment"]] = data
    return reports

