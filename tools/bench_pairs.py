"""Alternating before/after pairs of the end-to-end benchmark of two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload sweep --seed 1 --pairs 10

PARENT and CHANGE are the roots of two checkouts (say, fresh `git archive`
copies of a commit and of its parent). Each pair runs

    python3 <checkout>/bench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, one process at a time: odd pairs run the parent
first, even pairs the change. It prints each pair's end-to-end metrics as
the pair ends. Then, for each end-to-end metric of BENCHMARK.json, it
prints the parent's median [lower quartile, upper quartile], the change's
median, in how many pairs the change did better by the metric's `better`,
and the median [quartiles] of the pairwise relative differences
change / parent - 1 next to the metric's bound, and whether the gain rule
is met: the change did better in at least nine tenths of the pairs (a tie
counts for neither side), and its median beats the parent's by more than
the parent's interquartile range. Last, whether the verdict fingerprints
of each pair match. Given one checkout as both sides (an A/A
set), the relative differences are the noise floor of the day. Stdlib
only; no file is written, and the children write no bytecode either.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(meta, result): the last two stdout lines of one untraced bench run."""
    out = subprocess.run(
        [sys.executable, str(Path(checkout) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    meta, result = out.stdout.splitlines()[-2:]
    return json.loads(meta)["meta"], json.loads(result)


def run_pairs(parent: str, change: str, workload: str, seed: int, seconds: float,
              pairs: int, runner=run_bench):
    """Yield, pair by pair, {"parent": (meta, result), "change": (meta,
    result)}; the parent runs first in pairs 1, 3, 5, ..."""
    dirs = {"parent": parent, "change": change}
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        yield {side: runner(dirs[side], workload, seed, seconds) for side in order}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summary(runs: list[dict[str, tuple[dict, dict]]], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric, then one for the fingerprints."""
    lines = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        before = [r["parent"][1]["metrics"][name]["value"] for r in runs]
        after = [r["change"][1]["metrics"][name]["value"] for r in runs]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(before, after))
        q1, med, q3 = quartiles(before)
        r1, rel, r3 = quartiles([b / a - 1 for a, b in zip(before, after)])
        after_med = statistics.median(after)
        margin = after_med - med if higher else med - after_med
        met = 10 * wins >= 9 * len(runs) and margin > q3 - q1
        lines.append(f"  {name:12} {med:.6g} [{q1:.6g}, {q3:.6g}] -> "
                     f"{after_med:.6g} {m['unit']} ({m['better']} is better): "
                     f"change better in {wins} of {len(runs)}; change/parent - 1 "
                     f"{rel:+.1%} [{r1:+.1%}, {r3:+.1%}], bound {m['bound']:.0%}; "
                     f"gain rule {'met' if met else 'not met'}")
    same = sum(r["parent"][0]["fingerprint"] == r["change"][0]["fingerprint"] for r in runs)
    lines.append(f"  fingerprints match in {same} of {len(runs)} pairs"
                 + ("" if same == len(runs) else ": they differ"))
    return lines


def main(argv=None, runner=run_bench) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", default="sweep")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print(f"{args.workload} seed={args.seed}: {args.pairs} pairs of {args.seconds:g} s runs, "
          "parent -> change", flush=True)
    runs = []
    for i, run in enumerate(run_pairs(args.parent, args.change, args.workload, args.seed,
                                      args.seconds, args.pairs, runner), 1):
        runs.append(run)
        values = [f"{m['name']} {run['parent'][1]['metrics'][m['name']]['value']:.6g} -> "
                  f"{run['change'][1]['metrics'][m['name']]['value']:.6g}" for m in metrics]
        print(f"  pair {i}: " + ", ".join(values), flush=True)
    print("median [quartiles] of the parent -> median of the change")
    print("\n".join(summary(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
