#!/usr/bin/env python3
"""Alternating parent / change pairs of one districtbench workload.

    python scripts/bench_pairs.py <parent-checkout> <change-checkout> \
        --workload area_query [--pairs 10] [--seed 17]
    python scripts/bench_pairs.py <parent-checkout> <change-checkout> \
        --exact --seed 17 --seed 29 [--workload area_query]

Each run is the checkout's own ``benchmarks/district/run.py --workload W
--trace T`` in a fresh interpreter.  The pair protocol runs ``--trace 0``
and alternates which side goes first; it prints every run, each side's
quartiles per end-to-end metric, pairs won / lost / tied, whether every
``sim_*`` metric is exactly equal, and the verdict of the
``choosing-metrics`` guide, section 8.

``--exact`` is the "nothing moved" proof: for every ``BENCHMARK.json``
workload (or the one given) and every ``--seed``, one ``--trace 0`` and
one ``--trace 1`` run per side, then every value that differs apart from
the host-clock ones (:func:`host_clock`).  Exit status 1 on any
difference.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence

#: values that time this machine rather than count the program's work
HOST_CLOCK = ("setup_s", "ops_per_s", "peak_rss_mb", "attributed_share",
              "tracing_overhead_x")


def quartiles(runs: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; one run is all three)."""
    if len(runs) < 2:
        return [runs[0]] * 3
    return statistics.quantiles(runs, n=4, method="inclusive")


def compare(parent: Sequence[float], change: Sequence[float],
            better: str = "higher") -> Dict:
    """Section 8 on two lists of paired runs (``parent[i]`` ran with
    ``change[i]``): *gain* only on ten pairs or more, when the change
    wins at least nine tenths of them, ties counting for neither, and
    the medians differ by more than the distance between the parent's
    quartiles; *worse* is the mirror image, anything else *unresolved*."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (c_q[1] - p_q[1])
    spread = p_q[2] - p_q[0]
    need = 0.9 * len(parent) if len(parent) >= 10 else float("inf")
    verdict = "gain" if won >= need and gap > spread \
        else "worse" if lost >= need and -gap > spread else "unresolved"
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


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0
             ) -> Dict[str, float]:
    """One run of *checkout*'s own benchmark; its metrics by name."""
    out = subprocess.run(
        [sys.executable, "benchmarks/district/run.py", "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: run failed its own checks: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def exact(sides: Dict[str, Path], workloads: Sequence[str],
          seeds: Sequence[int],
          run: Callable[..., Dict[str, float]] = run_once) -> int:
    """The "nothing moved" proof; 1 when any value differs, else 0."""
    moved = 0
    for workload in workloads:
        for seed in seeds:
            for trace in (0, 1):
                parent, change = (run(sides[side], workload, seed, trace)
                                  for side in ("parent", "change"))
                names = differing(parent, change)
                moved += len(names)
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{len(parent)} values, {len(names)} differ",
                      flush=True)
                for name in names:
                    print(f"  {name}: {parent.get(name)} -> "
                          f"{change.get(name)}")
    print(f"differing values: {moved}" if moved else "nothing moved")
    return 1 if moved else 0


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
            seen = sorted(set(parent + change))
            print(f"{name}: "
                  f"{'exactly equal' if len(seen) == 1 else 'DIFFERS'} {seen}")
            continue
        c = compare(parent, change, metric["better"])
        print(f"{name} [{metric['unit']}, {metric['better']} is better]: "
              + "  ".join(f"{side} " + " / ".join(f"{q:.4g}" for q in c[side])
                          for side in sides)
              + f"  won {c['won']} lost {c['lost']} tied {c['tied']}"
              f"  -> {c['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload",
                        help="required for pairs; --exact runs every "
                             "BENCHMARK.json workload without it")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable (default 17)")
    parser.add_argument("--exact", action="store_true",
                        help="prove every non-host-clock value equal")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    seeds = args.seed or [17]
    if args.exact:
        workloads = [args.workload] if args.workload else \
            [workload["name"] for workload in spec["workloads"]]
        return exact(sides, workloads, seeds)
    if not args.workload:
        parser.error("--workload is required without --exact")
    for seed in seeds:
        pairs(sides, args.workload, seed, args.pairs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
