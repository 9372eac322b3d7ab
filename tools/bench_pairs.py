"""Alternating parent/change pairs of the benchmark on one workload and seed.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload pcs_heavyhex --seed 7301

The parent side is the `--parent` revision, exported with `git archive`.
The change side is this checkout's working tree, exported too: every file
git tracks or would track (committed, modified or new, and not ignored),
so neither side starts with the other's `__pycache__` bytecode and
`setup_s` compares like with like.  Both go into a temporary directory that
is removed afterwards.  Each pair runs `perfbench/run.py --trace 0`
once per side, at the benchmark's own run length, the side that runs first
alternating from pair to pair.  For every end-to-end metric in
BENCHMARK.json the script prints its bound, the parent's median [lower
quartile, upper quartile], the change's median, in how many pairs the
change did better, and a verdict (see `verdict`).  Last it prints each
side's share of failed operations over all its runs, with the verdict
`more-failures` if the change's share is the higher one.  With
`--claim METRIC` it also prints whether the change's gain on that metric
is shown (see `claim`).  Each side whose runs include one that
`perfbench/run.py` reports as not correct gets the verdict `incorrect`.
A run that exits non-zero stops the script with its side, its exit code
and the last lines of its stderr.  With `--json PATH` it also writes every
run's metrics and correct flag, the medians, quartiles and verdicts, the
failed shares, the correctness verdicts and the claim to PATH.  Both the
printout and the JSON also give the line count of `src/qedc/*.py` on each
side, as `wc -l` counts it, so a change that removes code reports its line
delta with its bench numbers.
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
    ap.add_argument("--json", type=Path, help="also write the runs and the summary here")
    ap.add_argument("--claim", metavar="METRIC", help="end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    names = [spec["name"] for spec in load_specs()]
    if args.claim is not None and args.claim not in names:
        ap.error(f"--claim must be an end-to-end metric: {', '.join(names)}")
    return args


def load_specs() -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["end_to_end"]


# stderr lines of a failed run that are reported
STDERR_TAIL = 20


class RunError(Exception):
    """A benchmark run that exited non-zero."""


def source_lines(tree: Path) -> int:
    """Lines of `src/qedc/*.py` in `tree`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "qedc").glob("*.py"))


def export_revision(root: Path, rev: str, dest: Path) -> None:
    """Extract into `dest`, which is made, the files of revision `rev` of
    the repository at `root`, with `git archive`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(root: Path, dest: Path) -> None:
    """Copy into `dest` the files of the working tree at `root` that git
    tracks or would track, as they are on disk: a deleted file stays out,
    and so does everything ignored, such as `__pycache__`."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_once(tree: Path, args) -> dict:
    """Metric values, operations attempted and failed, and the correct flag
    of one `perfbench/run.py --trace 0` run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        raise RunError(f"exit code {proc.returncode}; last lines of stderr:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"]}


def run_pairs(trees: dict[str, Path], args) -> dict[str, list[dict]]:
    """`args.pairs` runs per side, the side that runs first alternating."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(trees[side], args))
            except RunError as exc:
                raise RunError(f"{side} run of pair {i + 1} failed, {exc}") from None
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(spec: dict, parent: list[float], change: list[float]) -> str:
    """`worse` if the change's median is worse than the parent's by more
    than bound × the parent's median; else `unresolved` if the parent's
    interquartile range is wider than that, unless every change run beats
    every parent run; else `ok`."""
    q1, med, q3 = quartiles(parent)
    allowed = spec["bound"] * abs(med)
    lower = spec["better"] == "lower"
    loss = statistics.median(change) - med if lower else med - statistics.median(change)
    if loss > allowed:
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    return "ok"


def pairs_won(spec: dict, parent: list[float], change: list[float]) -> int:
    """Pairs in which the change did better; a tie counts for neither side."""
    if spec["better"] == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def claim(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Whether a claimed gain is shown: the change wins at least nine in ten
    pairs, and its median is better than the parent's by more than the
    parent's interquartile range."""
    wins = pairs_won(spec, parent, change)
    q1, med, q3 = quartiles(parent)
    gain = statistics.median(change) - med
    if spec["better"] == "lower":
        gain = -gain
    met = 10 * wins >= 9 * len(parent) and gain > q3 - q1
    return {"metric": spec["name"], "wins": wins, "pairs": len(parent), "gain": gain,
            "parent_iqr": q3 - q1, "verdict": "claim met" if met else "claim not met"}


def failed_share(runs: list[dict]) -> tuple[int, int, float]:
    """Operations failed and attempted over all runs, and their ratio."""
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return failed, attempted, failed / attempted if attempted else 0.0


def failure_verdict(runs: dict[str, list[dict]]) -> str:
    """`more-failures` if the change failed a larger share of its
    operations than the parent, else `ok`."""
    worse = failed_share(runs["change"])[2] > failed_share(runs["parent"])[2]
    return "more-failures" if worse else "ok"


def correctness(runs: list[dict]) -> dict:
    """How many of one side's runs were not correct, and the verdict
    `incorrect` if any was, else `ok`."""
    bad = sum(not r["correct"] for r in runs)
    return {"incorrect": bad, "runs": len(runs), "verdict": "incorrect" if bad else "ok"}


def summary(specs: list[dict], runs: dict[str, list[dict]], claimed: str | None = None) -> dict:
    """Per metric: its bound, each side's median and quartiles, the pairs
    the change won and the verdict; then each side's failed share, the
    failure verdict, each side's correctness and, if a metric is `claimed`,
    its claim."""
    metrics, out = {}, {}
    for spec in specs:
        name = spec["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        metrics[name] = {"bound": spec["bound"], "better": spec["better"],
                         "parent": dict(zip(("q1", "median", "q3"), quartiles(parent))),
                         "change": dict(zip(("q1", "median", "q3"), quartiles(change))),
                         "wins": pairs_won(spec, parent, change), "pairs": len(parent),
                         "verdict": verdict(spec, parent, change)}
        if name == claimed:
            out["claim"] = claim(spec, parent, change)
    failed = {side: dict(zip(("failed", "attempted", "share"), failed_share(runs[side])))
              for side in ("parent", "change")}
    correct = {side: correctness(runs[side]) for side in ("parent", "change")}
    return {"metrics": metrics, "failed": failed, "failure_verdict": failure_verdict(runs),
            "correct": correct, **out}


def report(specs: list[dict], runs: dict[str, list[dict]], claimed: str | None = None) -> None:
    result = summary(specs, runs, claimed)
    print(f"{'metric':18s} {'bound':>6s} {'parent median [IQR]':>36s} "
          f"{'change median':>14s}  wins  verdict")
    for name, m in result["metrics"].items():
        parent = m["parent"]
        print(f"{name:18s} {m['bound']:6.2f} {parent['median']:14.6g} "
              f"[{parent['q1']:.6g}, {parent['q3']:.6g}] "
              f"{m['change']['median']:14.6g}  {m['wins']}/{m['pairs']}  {m['verdict']}")
    for side, f in result["failed"].items():
        print(f"{side} failed {f['failed']} of {f['attempted']} operations ({f['share']:.4g})")
    print(f"failed share: {result['failure_verdict']}")
    for side, c in result["correct"].items():
        print(f"{side} incorrect runs: {c['incorrect']} of {c['runs']}: {c['verdict']}")
    if claimed is not None:
        c = result["claim"]
        print(f"claim {c['metric']}: {c['wins']}/{c['pairs']} pairs won, median gain "
              f"{c['gain']:.6g} against parent IQR {c['parent_iqr']:.6g}: {c['verdict']}")


def write_json(path: Path, args, specs: list[dict], runs: dict[str, list[dict]],
               lines: dict[str, int]) -> None:
    """The settings, each side's source lines, every run and the summary,
    as one JSON object."""
    out = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
           "parent": args.parent, "source_lines": lines, "runs": runs,
           **summary(specs, runs, args.claim)}
    path.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    specs = load_specs()
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        export_revision(ROOT, args.parent, trees["parent"])
        export_worktree(ROOT, trees["change"])
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        runs = run_pairs(trees, args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    report(specs, runs, args.claim)
    print(f"src/qedc/*.py lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    if args.json:
        write_json(args.json, args, specs, runs, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
