"""Alternating parent/change pairs of the benchmark on one workload and seed.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload pcs_heavyhex --seed 7301

The change side is this checkout's working tree.  The parent side is the
`--parent` revision, checked out with `git worktree` into a temporary
directory that is removed afterwards.  Each pair runs
`perfbench/run.py --trace 0` once per side, at the benchmark's own run
length, the side that runs first alternating from pair to pair.  For every
end-to-end metric in BENCHMARK.json the script prints the parent's median
[lower quartile, upper quartile], the change's median, and in how many pairs
the change did better.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    return ap.parse_args(argv)


def run_once(tree: Path, args) -> dict[str, float]:
    """Metric values of one `perfbench/run.py --trace 0` run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(specs: list[dict], runs: dict[str, list[dict]]) -> None:
    print(f"{'metric':18s} {'parent median [IQR]':>36s} {'change median':>14s}  wins")
    for spec in specs:
        name = spec["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        q1, med, q3 = quartiles(parent)
        if spec["better"] == "lower":
            wins = sum(c < p for p, c in zip(parent, change))
        else:
            wins = sum(c > p for p, c in zip(parent, change))
        print(f"{name:18s} {med:14.6g} [{q1:.6g}, {q3:.6g}] "
              f"{statistics.median(change):14.6g}  {wins}/{len(parent)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        specs = json.load(fh)["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    parent_tree = tmp / "parent"
    added = False
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), args.parent],
                       cwd=ROOT, check=True, capture_output=True)
        added = True
        runs = {"parent": [], "change": []}
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    finally:
        if added:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                           cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    report(specs, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
