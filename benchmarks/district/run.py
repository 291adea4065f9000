#!/usr/bin/env python3
"""districtbench: four workloads, end-to-end metrics, a per-layer trace.

    python3 benchmarks/district/run.py --seed 17          # everything
    python3 benchmarks/district/run.py --selfcheck        # A/A check
    python3 benchmarks/district/run.py --workload area_query \
        --seed 17 --seconds 10 --trace 0                  # one run

With ``--workload`` the process performs exactly one run (one fresh
interpreter, one deployment, one measured window) and prints, as the
last line of its output, the result object ``BENCHMARK.json`` describes.
Without it the process only orchestrates: every (workload, repeat) is a
child interpreter of the same file, because repeats inside one process
do not measure the same program (see README, "Known finding").

See README.md beside this file for what every number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    from repro.protocols import available_protocols

    from tracing import LAYERS, Tracer
    from workloads import (
        WORKLOADS,
        BenchError,
        cumulative_counts,
        derive_counts,
    )
except ImportError as exc:  # no src/ beside the benchmark: nothing to run
    sys.exit(f"districtbench: cannot import the program under test: {exc}")

#: fresh interpreters per workload whose median is reported
REPEATS = 3
#: executions of the window (each on its own deployment) per run; the
#: window is cut into slices of identical work and ``ops_per_s`` counts,
#: for each slice, the fastest of its executions
EXECUTIONS = 4
#: ``--scale smoke`` multiplies the work by this (self-tests only)
SMOKE_FACTOR = 0.05
#: a child run must end well inside the driver's 180 s
CHILD_TIMEOUT_S = 170


def load_spec() -> Dict:
    """``BENCHMARK.json``: the declared metrics, their units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one run, in this process ---------------------------------------------


def timed_setup(workload) -> float:
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def timed_window(workload, tracer: Optional[Tracer] = None) -> List[float]:
    """Host seconds of each slice of the measured window."""
    times = []
    if tracer:
        tracer.on = True
    mark = time.perf_counter()
    for _ in workload.window():
        now = time.perf_counter()
        times.append(now - mark)
        mark = now
    if tracer:
        tracer.on = False
    return times


def measure(name: str, seed: int, seconds: int, scale: str, trace: bool
            ) -> Dict:
    """One run: deploy, measured window, output checks.

    ``--seconds`` is the host time the run spends measuring, spread
    over :data:`EXECUTIONS` executions of the same window.  Only the
    first execution — the one on fresh interpreter state — is checked
    and supplies the simulated-clock metrics, the counts and (traced)
    the spans; the others each add a set-up time and one more
    timing of every slice.  Smoke and traced runs execute once.
    """
    units = seconds * (SMOKE_FACTOR if scale == "smoke" else 1.0) \
        / EXECUTIONS
    OUT.mkdir(exist_ok=True)
    tracer = None
    if trace:
        # the untraced twin runs first, in its own interpreter
        untraced = spawn(name, seed, seconds, scale, trace=False)
        tracer = Tracer()
        tracer.install()
    first = WORKLOADS[name](
        seed, units, OUT, tracer.operation if tracer else nullcontext)
    error = None
    try:
        setups = [timed_setup(first)]
        before = cumulative_counts(first)
        executions = [timed_window(first, tracer)]
        after = cumulative_counts(first)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            / 1024.0
        try:
            first.check()
            if not first.ops or not len(first.latencies):
                raise BenchError(f"{name}: the window measured nothing")
        except BenchError as exc:
            error = str(exc)
        delta = {key: after[key] - before[key] for key in after}
        counts = derive_counts(delta, first)
    finally:
        first.teardown()
    if not trace and scale != "smoke":
        for _ in range(EXECUTIONS - 1):
            again = WORKLOADS[name](seed, units, OUT)
            try:
                setups.append(timed_setup(again))
                executions.append(timed_window(again))
            finally:
                again.teardown()
        if len({len(times) for times in executions}) != 1:
            raise BenchError(f"{name}: executions differ in slice count")

    window_s = sum(executions[0])
    fastest_s = sum(map(min, zip(*executions)))
    ops = max(first.ops, 1)
    latency_ms = np.asarray(first.latencies or [0.0]) * 1e3
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
        "traced": trace, "error": error,
        "attempted": first.ops, "failed": first.failed,
        "latency_samples": len(first.latencies),
        "slices": len(executions[0]),
        "window_s": window_s,
        "execution_windows_s": [sum(times) for times in executions],
        "setup_runs_s": setups,
        "generator_lag_max_sim_s": first.generator_lag_max,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "ops_per_s": first.ops / fastest_s,
            "sim_op_latency_p50_ms": float(np.percentile(latency_ms, 50)),
            "sim_op_latency_p99_ms": float(np.percentile(latency_ms, 99)),
            "sim_bytes_per_op": delta["transport.bytes_sent"] / ops,
            "peak_rss_mb": peak_rss_mb,
        },
        "counts": counts,
    }
    if tracer:
        # first execution against first execution: the same work, each
        # timed once, so the ratio also carries the host's mood
        layers = tracer.by_layer(window_s)
        record["per_layer"] = per_layer(
            tracer, layers, counts, window_s / untraced["window_s"])
        document = tracer.to_document(
            workload=name, seed=seed, scale=scale, window_s=window_s,
            layers=layers)
        (OUT / f"trace_{name}.json").write_text(json.dumps(document))
    return record


def per_layer(tracer: Tracer, layers: Dict, counts: Dict,
              overhead_x: float) -> Dict[str, float]:
    """Every per-layer metric of one traced window."""
    metrics = {f"{layer}.{key}": value for layer in LAYERS
               for key, value in layers[layer].items()}
    metrics.update(counts)
    calls = tracer.calls_by_label()
    for protocol in available_protocols():
        metrics[f"protocols.{protocol}.calls"] = sum(
            count for label, count in calls.items()
            if label.startswith(protocol + "."))
    metrics["serialization.bytes"] = tracer.serialized_bytes
    metrics["attributed_share"] = sum(layers[layer]["self_share"]
                                      for layer in LAYERS)
    metrics["tracing_overhead_x"] = overhead_x
    return metrics


def result_line(record: Dict, spec: Dict) -> str:
    """The object the driver reads from the last line of stdout."""
    section = "per_layer" if record["traced"] else "end_to_end"
    declared, values = spec[section], record[section]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        raise BenchError(
            "BENCHMARK.json and run.py disagree on metric names: "
            f"{sorted(set(names) ^ set(values))}")
    return json.dumps({
        "correct": record["error"] is None,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    })


def run_one(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, args.scale,
                     bool(args.trace))
    workload = WORKLOADS[args.workload]
    print(f"districtbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} scale={args.scale} "
          f"traced={record['traced']} ({workload.loop} loop; op = "
          f"{workload.op}; sim_* on the simulated clock, the rest host)")
    if args.scale == "smoke":
        print("SMOKE SCALE: numbers are for self-tests, never compare them")
    print(f"window {record['window_s']:.3f} s host, "
          f"{record['attempted']} ops, {record['failed']} failed, "
          f"{record['latency_samples']} latency samples")
    if record["error"]:
        print("OUTPUT CHECK FAILED:", record["error"])
    print("detail", json.dumps(record))
    print(result_line(record, load_spec()))
    return 0 if record["error"] is None else 1


# -- orchestration: every run is a child interpreter ----------------------


def spawn(name: str, seed: int, seconds: int, scale: str, trace: bool
          ) -> Dict:
    """One run in a fresh interpreter; returns its ``detail`` record."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--scale", scale,
               "--trace", str(int(trace))]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    details = [line for line in done.stdout.splitlines()
               if line.startswith("detail ")]
    if done.returncode != 0 or not details:
        raise BenchError(
            f"run of {name} failed (exit {done.returncode}):\n"
            + done.stdout[-2000:] + done.stderr[-2000:])
    return json.loads(details[-1][len("detail "):])


def check_repeats_identical(name: str, records: List[Dict]) -> None:
    """Simulated-clock metrics and counts must repeat exactly."""
    def exact(record: Dict) -> Dict:
        fixed = {key: value for key, value in record["end_to_end"].items()
                 if key.startswith("sim_")}
        fixed.update(record["counts"])
        fixed["attempted"] = record["attempted"]
        fixed["failed"] = record["failed"]
        return fixed

    first = exact(records[0])
    for other in map(exact, records[1:]):
        moved = sorted(key for key in first if first[key] != other[key])
        if moved:
            raise BenchError(
                f"{name}: not deterministic across fresh interpreters: "
                + ", ".join(f"{key} {first[key]} != {other[key]}"
                            for key in moved))


def run_repeats(name: str, args) -> List[Dict]:
    """``REPEATS`` untraced runs of one workload, each a fresh interpreter."""
    records = [spawn(name, args.seed, args.seconds, args.scale, trace=False)
               for _ in range(REPEATS)]
    check_repeats_identical(name, records)
    return records


def medians(records: List[Dict]) -> Dict[str, float]:
    return {key: statistics.median(r["end_to_end"][key] for r in records)
            for key in records[0]["end_to_end"]}


def failed_share(records: List[Dict]) -> float:
    return max(r["failed"] / max(r["attempted"], 1) for r in records)


def print_end_to_end(name: str, records: List[Dict], spec: Dict) -> None:
    workload = WORKLOADS[name]
    first = records[0]
    print(f"\n== {name} ({workload.loop} loop; op = {workload.op}) ==")
    print(f"   {workload.why}")
    print(f"   ops {first['attempted']}, latency samples "
          f"{first['latency_samples']}, window "
          f"{statistics.median(r['window_s'] for r in records):.2f} s host, "
          f"generator lag max {first['generator_lag_max_sim_s']:.3f} sim s")
    print(f"   {'metric':<24}{'unit':<8}{'median':>14}{'min':>14}"
          f"{'max':>14}   ({len(records)} fresh interpreters)")
    for metric in spec["end_to_end"]:
        values = [r["end_to_end"][metric["name"]] for r in records]
        print(f"   {metric['name']:<24}{metric['unit']:<8}"
              f"{statistics.median(values):>14.4f}{min(values):>14.4f}"
              f"{max(values):>14.4f}")
    print(f"   {'failed_share':<24}{'ratio':<8}"
          f"{failed_share(records):>14.6f}")


def print_per_layer(record: Dict, spec: Dict) -> None:
    metrics = record["per_layer"]
    print(f"   traced run: window {record['window_s']:.2f} s, "
          f"tracing_overhead_x {metrics['tracing_overhead_x']:.2f}, "
          f"attributed to named layers "
          f"{metrics['attributed_share']:.1%}; spans in "
          f"out/trace_{record['workload']}.json")
    print(f"   {'layer':<16}{'calls':>10}{'self_s':>10}{'self_share':>12}")
    for layer in LAYERS:
        print(f"   {layer:<16}{metrics[layer + '.calls']:>10}"
              f"{metrics[layer + '.self_s']:>10.3f}"
              f"{metrics[layer + '.self_share']:>12.1%}")
    in_table = {f"{layer}.{key}" for layer in LAYERS
                for key in ("calls", "self_s", "self_share")}
    for metric in spec["per_layer"]:
        if metric["name"] not in in_table:
            value = metrics[metric["name"]]
            shown = f"{value:.4f}" if isinstance(value, float) else value
            print(f"   {metric['name']:<40}{shown:>16} {metric['unit']}")


def run_all(args) -> int:
    spec = load_spec()
    print(f"districtbench seed={args.seed} seconds={args.seconds} "
          f"scale={args.scale}: sim_* metrics and counts are on the "
          f"simulated clock and exact per seed, everything else is host "
          f"time; WAL flush policy: one fsync per record, in a temp dir "
          f"under {OUT.relative_to(ROOT)}/")
    if args.scale == "smoke":
        print("SMOKE SCALE: numbers are for self-tests, never compare them")
    for name in WORKLOADS:
        print_end_to_end(name, run_repeats(name, args), spec)
        print_per_layer(spawn(name, args.seed, args.seconds, args.scale,
                              trace=True), spec)
    return 0


def selfcheck(args) -> int:
    """Two complete sets of the same code must agree within the bounds."""
    spec = load_spec()
    first = {name: run_repeats(name, args) for name in WORKLOADS}
    second = {name: run_repeats(name, args) for name in WORKLOADS}
    worst = 0
    print(f"{'workload':<18}{'metric':<24}{'set 1':>14}{'set 2':>14}"
          f"{'worse by':>10}{'bound':>8}")
    for name in WORKLOADS:
        check_repeats_identical(name, first[name] + second[name])
        a, b = medians(first[name]), medians(second[name])
        for metric in spec["end_to_end"]:
            key = metric["name"]
            change = (b[key] - a[key]) / a[key]
            worse = change if metric["better"] == "lower" else -change
            verdict = "" if worse <= metric["bound"] else "  EXCEEDED"
            worst |= bool(verdict)
            print(f"{name:<18}{key:<24}{a[key]:>14.4f}{b[key]:>14.4f}"
                  f"{worse:>+10.2%}{metric['bound']:>8.0%}{verdict}")
        if failed_share(second[name]) > failed_share(first[name]):
            worst = 1
            print(f"{name:<18}failed_share increased  EXCEEDED")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="perform this one run in this process")
    parser.add_argument("--seed", type=int, default=17,
                        help="workload seed (default 17; 29 is held out)")
    parser.add_argument("--seconds", type=int, default=16,
                        help="size the measured window to about this "
                             "many host seconds on the reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: ~20x less work, for the self-tests")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two complete sets, compare to the bounds")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # report as runs finish
    try:
        if args.selfcheck:
            return selfcheck(args)
        if args.workload:
            return run_one(args)
        return run_all(args)
    except BenchError as exc:
        print("districtbench failed:", exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
