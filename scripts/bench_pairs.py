#!/usr/bin/env python3
"""Alternating parent / change pairs of one districtbench workload.

    python scripts/bench_pairs.py <parent-checkout> <change-checkout> \
        --workload area_query [--pairs 10] [--seed 17]
    python scripts/bench_pairs.py <parent-checkout-or-recording> \
        <change-checkout> --exact [--seed 17 --seed 29] [--workload W]
    python scripts/bench_pairs.py --record <recording.json> <checkout>
    python scripts/bench_pairs.py <parent-checkout> <change-checkout> \
        --calls --workload W [--seed 17]

Each run is the checkout's own ``benchmarks/district/run.py --workload W
--seed S --trace T`` in a fresh interpreter, run from a copy of the
checkout taken once at start (:func:`snapshot`), so an edit made to the
checkout while the runs go on cannot mix two versions under one verdict.
The pair protocol runs ``--trace 0``, one run at a time, and alternates
which side goes first; it prints every run, each side's quartiles per
end-to-end metric, pairs won / lost / tied, each ``sim_*`` metric as
exactly equal or as ``parent → change (±x.x %)`` (:func:`sim_line`), and
the gain / unresolved / worse verdict of :func:`compare` (a gain or
worse closer than a metric's :data:`NOISE_FLOOR` adds "re-run").

``--exact`` is the "nothing moved" proof: for every ``BENCHMARK.json``
workload (or the one given) and every ``--seed`` (default 17 and 29),
one ``--trace 0`` and one ``--trace 1`` run per side, ``os.cpu_count()``
at a time, then every value that differs apart from the host-clock ones
(:func:`host_clock`).  Exit status 1 on any difference.  The parent may
be a recording ``--record`` wrote (those runs of one checkout at
``--scale smoke``, host clock left out), which sets the scale and seeds.
CI checks ``benchmarks/baselines/districtbench_counters.json`` this way.

``--calls`` counts work instead of timing it: each side's ``run.py
--scale smoke --trace 0`` runs once under a ``sys.setprofile`` counter
that is on only during the measured window (:data:`CALLS_CHILD` wraps
``run.py``'s ``timed_window``; ``run.py`` itself is not changed), and
the Python and C calls per op of each package are printed for both
sides (:func:`calls_table`).  A Python call is filed under the package
of the code called, a C call under the module of the C function
(``builtins``, ``json``, ``_heapq``, ...; :class:`CallCounter`).  It
reports; nothing is recorded or gated.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: values that time this machine rather than count the program's work
HOST_CLOCK = ("setup_s", "ops_per_s", "peak_rss_mb", "attributed_share",
              "tracing_overhead_x")
#: a metric's relative median gap below which a gain or worse verdict
#: asks for a re-run: ``peak_rss_mb``'s level moves ~0.5 MiB (~1 %)
#: between invocations of one tree, however tight each series is
NOISE_FLOOR = {"peak_rss_mb": 0.01}
#: the seeds of ``--exact`` and ``--record`` when no ``--seed`` is given
EXACT_SEEDS = [17, 29]
#: the scale ``--record`` runs at (~20x less work than ``full``)
RECORD_SCALE = "smoke"
#: how a recording names a run: ``workload/seed/trace``
RUN_KEY = re.compile(r"\w+/\d+/[01]")

#: run in a checkout by ``--calls``: ``run.py --workload argv[1] --seed
#: argv[2] --scale smoke --trace 0`` with argv[3]'s (this file's)
#: :class:`CallCounter` on during the window; its only line on stdout is
#: ``{"ops", "calls": {package: {"py", "c"}}}`` (``run.py``'s own report
#: goes to stderr)
CALLS_CHILD = """
import contextlib, importlib.util, json, sys
sys.path.insert(0, "benchmarks/district")

def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

run = load("districtbench", "benchmarks/district/run.py")
counter = load("bench_pairs", sys.argv[3]).CallCounter()
window = run.timed_window

def counted(*args, **kwargs):
    sys.setprofile(counter)
    try:
        return window(*args, **kwargs)
    finally:
        sys.setprofile(None)

run.timed_window = counted
measure, records = run.measure, []
run.measure = lambda *args: records.append(measure(*args)) or records[-1]
with contextlib.redirect_stdout(sys.stderr):
    run.main(["--workload", sys.argv[1], "--seed", sys.argv[2],
              "--scale", "smoke", "--trace", "0"])
print(json.dumps({"ops": records[0]["attempted"], "calls": counter.counts}))
"""


def package_of(filename: str) -> str:
    """The package a Python file belongs to: ``repro.<subpackage>``, a
    site-packages distribution, ``districtbench`` or ``python``."""
    parts = Path(filename).parts
    for at in range(len(parts) - 1, 0, -1):
        if parts[at - 1:at + 1] == ("src", "repro"):
            return ".".join(parts[at:min(at + 2, len(parts) - 1)])
    if "site-packages" in parts:
        return parts[parts.index("site-packages") + 1]
    if parts[-2:-1] == ("district",):
        return "districtbench"
    return "python"


def c_module(function: Any) -> str:
    """The top-level module of a C function: its own (``len`` is
    ``builtins``, ``heapq.heappush`` ``_heapq``), or for a method of an
    object, its type's (``{}.get`` is ``builtins``)."""
    module = getattr(function, "__module__", None)
    if module is None:
        module = type(getattr(function, "__self__", None)).__module__
    return module.split(".")[0]


class CallCounter:
    """A ``sys.setprofile`` hook: each Python call counted under the
    package of the code called (:func:`package_of`), each C call under
    the module of the C function (:func:`c_module`), in
    ``counts[name]["py"]`` / ``["c"]``."""

    def __init__(self) -> None:
        self.counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: {"py": 0, "c": 0})
        self._packages: Dict[str, str] = {}

    def __call__(self, frame, event: str, arg: Any) -> None:
        if event == "call":
            filename = frame.f_code.co_filename
            package = self._packages.get(filename)
            if package is None:
                package = self._packages[filename] = package_of(filename)
            self.counts[package]["py"] += 1
        elif event == "c_call":
            self.counts[c_module(arg)]["c"] += 1


#: a run's ``(workload, seed, trace)``, and one deferred run per key
Key = Tuple[str, int, int]
Runs = Dict[Key, Callable[[], Dict[str, float]]]


def quartiles(runs: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; one run is all three)."""
    if len(runs) < 2:
        return [runs[0]] * 3
    return statistics.quantiles(runs, n=4, method="inclusive")


def compare(parent: Sequence[float], change: Sequence[float],
            better: str = "higher", noise: float = 0.0) -> Dict:
    """Section 8 on two lists of paired runs (``parent[i]`` ran with
    ``change[i]``): *gain* only on ten pairs or more, when the change
    wins at least nine tenths of them, ties counting for neither, and
    the medians differ by more than the distance between the parent's
    quartiles; *worse* is the mirror image, anything else *unresolved*.
    A gain or worse whose medians are less than *noise* of the parent's
    median apart keeps its word and says so: ``worse (< 1 % apart:
    re-run)``."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (c_q[1] - p_q[1])
    spread = p_q[2] - p_q[0]
    need = 0.9 * len(parent) if len(parent) >= 10 else float("inf")
    verdict = "gain" if won >= need and gap > spread \
        else "worse" if lost >= need and -gap > spread else "unresolved"
    if verdict != "unresolved" and abs(gap) < noise * abs(p_q[1]):
        verdict += f" (< {noise * 100:g} % apart: re-run)"
    return {"won": won, "lost": lost, "tied": len(parent) - won - lost,
            "parent": p_q, "change": c_q, "verdict": verdict}


def host_clock(name: str) -> bool:
    """Whether metric *name* is a host-clock value ``--exact`` skips."""
    return name in HOST_CLOCK or name.endswith((".self_s", ".self_share"))


def differing(parent: Dict[str, float], change: Dict[str, float]
              ) -> List[str]:
    """Names of the values two runs disagree on, host clock excepted
    (a value missing on one side differs; NaN equals NaN)."""
    def same(a, b):
        return a == b or (a != a and b != b)
    return sorted(name for name in parent.keys() | change.keys()
                  if not host_clock(name)
                  and not same(parent.get(name), change.get(name)))


def snapshot(checkout: Path, into: Path) -> Path:
    """Copy what a run of *checkout* executes — ``src/``,
    ``benchmarks/district/`` without its ``out/``, ``BENCHMARK.json`` —
    into the new directory *into*, and return it.  A directory the
    checkout lacks is not copied; a run that needs it fails as it
    would in the checkout."""
    district = checkout / "benchmarks" / "district"

    def skip(directory: str, names: List[str]) -> List[str]:
        return [name for name in names if name == "__pycache__"
                or (name == "out" and Path(directory) == district)]
    into.mkdir(parents=True)
    for part in (checkout / "src", district):
        if part.is_dir():
            shutil.copytree(part, into / part.relative_to(checkout),
                            ignore=skip)
    shutil.copy2(checkout / "BENCHMARK.json", into / "BENCHMARK.json")
    return into


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0,
             scale: str = "full") -> Dict[str, float]:
    """One run of *checkout*'s own benchmark; its metrics by name."""
    out = subprocess.run(
        [sys.executable, "benchmarks/district/run.py", "--workload",
         workload, "--seed", str(seed), "--trace", str(trace),
         "--scale", scale],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: run failed its own checks: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def count_calls(checkout: Path, workload: str, seed: int) -> Dict:
    """One smoke run of *checkout* under :data:`CALLS_CHILD`'s counter:
    ``{"ops": n, "calls": {package: {"py": n, "c": n}}}``."""
    done = subprocess.run(
        [sys.executable, "-c", CALLS_CHILD, workload, str(seed),
         str(Path(__file__).resolve())],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{checkout}: the counted run failed:\n{done.stderr}")
    return json.loads(done.stdout)


def calls_table(sides: Dict[str, Dict]) -> List[str]:
    """Python and C calls per op of each package, one column pair per
    side, the busiest package first, then the total."""
    names = list(sides)
    per_op = {name: {package: {kind: count / max(side["ops"], 1)
                               for kind, count in calls.items()}
                     for package, calls in side["calls"].items()}
              for name, side in sides.items()}
    packages = sorted({package for side in per_op.values()
                       for package in side},
                      key=lambda package: (-sum(
                          sum(side.get(package, {}).values())
                          for side in per_op.values()), package))
    rows = [(package, [per_op[name].get(package, {}).get(kind, 0.0)
                       for name in names for kind in ("py", "c")])
            for package in packages]
    rows.append(("total", [sum(values[i] for _, values in rows)
                           for i in range(2 * len(names))]))
    header = f"{'package':<24}" + "".join(
        f"{name + ' ' + kind:>14}" for name in names
        for kind in ("py", "C"))
    return [header] + [f"{package:<24}" + "".join(
        f"{value:>14.1f}" for value in values) for package, values in rows]


def run_keys(workloads: Sequence[str], seeds: Sequence[int]) -> List[Key]:
    """Both traces of each workload and seed."""
    return [(workload, seed, trace) for workload in workloads
            for seed in seeds for trace in (0, 1)]


def checkout_runs(checkout: Path, keys: Sequence[Key], scale: str) -> Runs:
    """One deferred run of *checkout*'s benchmark per key."""
    return {key: partial(run_once, checkout, *key, scale) for key in keys}


def load_recording(path: Path) -> Tuple[str, Dict[Key, Dict[str, float]]]:
    """The scale and runs of a recording ``--record`` wrote;
    ``ValueError`` if *path* is not one."""
    data = json.loads(path.read_text())
    if not (isinstance(data, dict) and data.get("scale") in ("full", "smoke")
            and isinstance(data.get("runs"), dict) and data["runs"]):
        raise ValueError(f"{path}: a recording has a scale and runs")
    runs = {}
    for key, values in data["runs"].items():
        if not (RUN_KEY.fullmatch(key) and isinstance(values, dict)
                and values and all(isinstance(value, (int, float))
                                   and not host_clock(name)
                                   for name, value in values.items())):
            raise ValueError(f"{path}: {key!r} is not a run's values "
                             "without the host clock")
        workload, seed, trace = key.split("/")
        runs[workload, int(seed), int(trace)] = values
    return data["scale"], runs


def concurrently(runs: Dict[Key, Callable]) -> Iterator[Tuple[Key, Any]]:
    """Each run's result by key, in order; ``os.cpu_count()`` at a time."""
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        futures = {key: pool.submit(run) for key, run in runs.items()}
        for key, future in futures.items():
            yield key, future.result()


def exact(parent: Runs, change: Runs) -> int:
    """The "nothing moved" proof; 1 when any value differs, else 0.  A
    run only one side has counts as every value differing."""
    def both(key):
        return lambda: (parent.get(key, dict)(), change.get(key, dict)())
    moved = 0
    for key, (before, after) in concurrently(
            {key: both(key) for key in {**parent, **change}}):
        names = differing(before, after)
        moved += len(names)
        print("{} seed {} trace {}: ".format(*key)
              + f"{len(before)} values, {len(names)} differ", flush=True)
        for name in names:
            print(f"  {name}: {before.get(name)} -> {after.get(name)}")
    print(f"differing values: {moved}" if moved else "nothing moved")
    return 1 if moved else 0


def record(path: Path, runs: Runs) -> int:
    """Write the runs' values, host clock excepted, as a recording."""
    recorded = {"/".join(map(str, key)): {
        name: value for name, value in values.items()
        if not host_clock(name)} for key, values in concurrently(runs)}
    path.write_text(json.dumps({"scale": RECORD_SCALE, "runs": recorded},
                               indent=1, sort_keys=True) + "\n")
    print(f"{path}: {len(recorded)} runs, "
          f"{sum(map(len, recorded.values()))} values")
    return 0


def sim_line(name: str, parent: Sequence[float], change: Sequence[float]
             ) -> str:
    """A ``sim_*`` metric over the pairs: ``exactly equal [v]``, or
    ``DIFFERS parent → change (±x.x %)`` (each side's distinct values
    when a side is not one value)."""
    before, after = sorted(set(parent)), sorted(set(change))
    if before == after and len(before) == 1:
        return f"{name}: exactly equal {before}"
    if len(before) == len(after) == 1 and before[0]:
        p, c = before[0], after[0]
        return f"{name}: DIFFERS {p} → {c} ({(c - p) / p * 100:+.1f} %)"
    return f"{name}: DIFFERS {before} → {after}"


def pairs(sides: Dict[str, Path], workload: str, seed: int, count: int,
          spec: Dict) -> None:
    """The alternating pair protocol on one workload and seed."""
    runs: Dict[str, List[Dict[str, float]]] = {side: [] for side in sides}
    for pair in range(count):
        for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
            metrics = run_once(sides[side], workload, seed)
            runs[side].append(metrics)
            print(f"pair {pair + 1:2d} {side:6s} " + "  ".join(
                f"{name}={value:.6g}" for name, value in metrics.items()),
                flush=True)
    print(f"\n{workload}, seed {seed}: q1 / median / q3")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent, change = ([run[name] for run in runs[side]] for side in sides)
        if name.startswith("sim_"):
            print(sim_line(name, parent, change))
            continue
        c = compare(parent, change, metric["better"],
                    NOISE_FLOOR.get(name, 0.0))
        print(f"{name} [{metric['unit']}, {metric['better']} is better]: "
              + "  ".join(f"{side} " + " / ".join(f"{q:.4g}" for q in c[side])
                          for side in sides)
              + f"  won {c['won']} lost {c['lost']} tied {c['tied']}"
              f"  -> {c['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="a checkout, or a recording (--exact) or the "
                             "recording to write (--record)")
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload",
                        help="required for pairs; --exact runs every "
                             "BENCHMARK.json workload without it")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable (default 17; --exact: 17 and 29)")
    parser.add_argument("--exact", action="store_true",
                        help="prove every non-host-clock value equal")
    parser.add_argument("--record", action="store_true",
                        help="write the change side's runs to the parent")
    parser.add_argument("--calls", action="store_true",
                        help="Python and C calls per op by package, one "
                             "smoke run per side")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        args.change = snapshot(args.change, Path(scratch) / "change")
        if not (args.record or args.parent.is_file()):
            args.parent = snapshot(args.parent, Path(scratch) / "parent")
        return measure(parser, args)


def measure(parser: argparse.ArgumentParser, args: argparse.Namespace
            ) -> int:
    """The mode *args* asks for, on the copies :func:`main` took."""
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [args.workload] if args.workload else \
        [workload["name"] for workload in spec["workloads"]]
    seeds = args.seed or EXACT_SEEDS
    if args.record:
        return record(args.parent, checkout_runs(
            args.change, run_keys(workloads, seeds), RECORD_SCALE))
    if args.exact and args.parent.is_file():
        if args.workload or args.seed:
            parser.error("a recording sets the workloads and seeds")
        try:
            scale, recorded = load_recording(args.parent)
        except ValueError as exc:
            parser.error(str(exc))
        seeds = sorted({seed for _workload, seed, _trace in recorded})
        return exact({key: partial(dict, values)
                      for key, values in recorded.items()},
                     checkout_runs(args.change, run_keys(workloads, seeds),
                                   scale))
    if args.exact:
        keys = run_keys(workloads, seeds)
        return exact(checkout_runs(args.parent, keys, "full"),
                     checkout_runs(args.change, keys, "full"))
    if not args.workload:
        parser.error("--workload is required without --exact")
    sides = {"parent": args.parent, "change": args.change}
    if args.calls:
        for seed in args.seed or [17]:
            print(f"{args.workload}, seed {seed}: calls per op in the "
                  f"measured window ({RECORD_SCALE} scale)")
            print("\n".join(calls_table({
                side: count_calls(checkout, args.workload, seed)
                for side, checkout in sides.items()})))
        return 0
    for seed in args.seed or [17]:
        pairs(sides, args.workload, seed, args.pairs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
