"""Shared harness for the experiment benchmarks.

Each benchmark registers human-readable result rows on the session-wide
:class:`ExperimentReport`; ``pytest_terminal_summary`` prints them after
the pytest-benchmark table, so ``pytest benchmarks/ --benchmark-only``
emits every experiment's series/table exactly once per run.  Rows are
also written to ``benchmarks/results/experiments.txt`` for EXPERIMENTS.md.

Beyond the prose tables, every experiment now also produces one
machine-readable ``benchmarks/results/BENCH_<id>.json`` record (see
``repro.observability.benchreport``) carrying wall seconds, simulated
seconds, total transport messages and the derived ``msgs_per_sec`` —
the reports the CI ``perf-smoke`` job uploads (no gate compares them
with a wall-clock baseline).  Benchmarks feed the record
either directly via :meth:`ExperimentReport.record` or, for
network-driving workloads, by wrapping the measured section in
:meth:`ExperimentReport.measure`, which captures the wall/sim/message
deltas around the block.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List

import pytest

from repro.observability.benchreport import BenchRecord, write_bench_report

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


class ExperimentReport:
    """Collects per-experiment result rows during the benchmark session."""

    def __init__(self) -> None:
        self._rows: "OrderedDict[str, List[str]]" = OrderedDict()
        self._records: "OrderedDict[str, BenchRecord]" = OrderedDict()

    def add(self, experiment: str, row: str) -> None:
        """Append one formatted row to an experiment's table."""
        self._rows.setdefault(experiment, []).append(row)

    def header(self, experiment: str, title: str) -> None:
        """Set an experiment's title row (idempotent)."""
        rows = self._rows.setdefault(experiment, [])
        banner = f"--- {experiment}: {title} ---"
        if not rows or rows[0] != banner:
            rows.insert(0, banner)
        record = self._records.get(experiment)
        if record is not None and not record.title:
            record.title = title

    def record(self, experiment: str, *, wall_seconds: float = 0.0,
               sim_seconds: float = 0.0, messages_total: int = 0,
               **headline: float) -> BenchRecord:
        """Fold measured work into the experiment's BENCH_*.json record.

        Call it as many times as convenient — wall/sim/message totals
        accumulate across calls and across tests of the same
        experiment; keyword extras land in ``headline_metrics`` (later
        writers win).  Returns the live record.
        """
        rec = self._records.get(experiment)
        if rec is None:
            title = ""
            rows = self._rows.get(experiment)
            if rows and rows[0].startswith("--- "):
                # "--- C4: some title ---" -> "some title"
                title = rows[0][4:-4].split(": ", 1)[-1]
            rec = BenchRecord(experiment=experiment, title=title,
                              quick=_QUICK)
            self._records[experiment] = rec
        rec.merge(wall_seconds=wall_seconds, sim_seconds=sim_seconds,
                  messages_total=messages_total,
                  headline_metrics=headline or None)
        return rec

    @contextmanager
    def measure(self, experiment: str, network=None):
        """Time a measured section and record its wall/sim/message deltas.

        With a *network*, also captures the simulated-clock and
        ``stats.messages_delivered`` deltas across the block, so one
        ``with report.measure("C4", network):`` around the driven
        workload yields a complete throughput record.
        """
        wall0 = time.perf_counter()
        sim0 = network.scheduler.now if network is not None else 0.0
        msgs0 = network.stats.messages_delivered if network is not None else 0
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            sim = (network.scheduler.now - sim0) if network is not None \
                else 0.0
            msgs = (network.stats.messages_delivered - msgs0) \
                if network is not None else 0
            self.record(experiment, wall_seconds=wall, sim_seconds=sim,
                        messages_total=msgs)

    def render(self) -> str:
        lines: List[str] = []
        for experiment, rows in self._rows.items():
            lines.extend(rows)
            telemetry = self._telemetry_line(experiment)
            if telemetry:
                lines.append(telemetry)
            lines.append("")
        return "\n".join(lines)

    def _telemetry_line(self, experiment: str) -> str:
        """Human-readable throughput footer for one experiment's table."""
        rec = self._records.get(experiment)
        if rec is None or rec.wall_seconds <= 0.0:
            return ""
        line = (f"[telemetry] wall {rec.wall_seconds:.2f}s"
                f" | sim {rec.sim_seconds:,.0f}s"
                f" | messages {rec.messages_total:,}")
        if rec.messages_total:
            line += f" | {rec.msgs_per_sec:,.0f} msgs/s"
        return line

    def bench_records(self) -> Dict[str, BenchRecord]:
        """Experiment -> accumulated machine-readable record."""
        return dict(self._records)

    @property
    def empty(self) -> bool:
        return not self._rows

    def reset(self) -> None:
        """Drop all rows and records (test helper)."""
        self._rows.clear()
        self._records.clear()


_REPORT = ExperimentReport()


@pytest.fixture(scope="session")
def report() -> ExperimentReport:
    """The session-wide experiment report."""
    return _REPORT


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _REPORT.empty:
        return
    rendered = _REPORT.render()
    terminalreporter.write_sep("=", "experiment results (paper-shape tables)")
    terminalreporter.write_line(rendered)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    path = os.path.join(_RESULTS_DIR, "experiments.txt")
    with open(path, "w") as handle:
        handle.write(rendered + "\n")
    terminalreporter.write_line(f"(also written to {path})")
    for record in _REPORT.bench_records().values():
        json_path = write_bench_report(record, _RESULTS_DIR)
        terminalreporter.write_line(f"(bench record: {json_path})")
