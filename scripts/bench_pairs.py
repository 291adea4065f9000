#!/usr/bin/env python3
"""Alternating parent / change pairs of one districtbench workload.

    python scripts/bench_pairs.py <parent-checkout> <change-checkout> \
        --workload area_query [--pairs 10] [--seed 17]

Each run is the checkout's own ``benchmarks/district/run.py --workload W
--trace 0`` in a fresh interpreter; which side goes first alternates.
Prints every run, each side's quartiles per end-to-end metric, pairs
won / lost / tied, whether every ``sim_*`` metric is exactly equal, and
the verdict of the ``choosing-metrics`` guide, section 8.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence


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


def run_once(checkout: Path, workload: str, seed: int) -> Dict[str, float]:
    """One run of *checkout*'s own benchmark; its metrics by name."""
    out = subprocess.run(
        [sys.executable, "benchmarks/district/run.py", "--workload",
         workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: run failed its own checks: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[Dict[str, float]]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
            metrics = run_once(sides[side], args.workload, args.seed)
            runs[side].append(metrics)
            print(f"pair {pair + 1:2d} {side:6s} " + "  ".join(
                f"{name}={value:.6g}" for name, value in metrics.items()),
                flush=True)
    print(f"\n{args.workload}, seed {args.seed}: q1 / median / q3")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
