import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402

LOWER = {"name": "pipeline_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "shots_per_s", "better": "higher", "bound": 0.25}
PARENT = [0.95, 0.98, 1.0, 1.0, 1.02, 1.05]  # median 1.0, IQR 0.985-1.015


def test_verdict_ok_within_bound():
    assert bench_pairs.verdict(LOWER, PARENT, [1.1, 1.2, 1.15]) == "ok"
    assert bench_pairs.verdict(HIGHER, PARENT, [0.9, 0.8, 0.85]) == "ok"


def test_verdict_worse_past_the_bound():
    assert bench_pairs.verdict(LOWER, PARENT, [1.3, 1.26, 1.4]) == "worse"
    assert bench_pairs.verdict(HIGHER, PARENT, [0.7, 0.74, 0.6]) == "worse"
    # a change past the bound in the good direction is not worse
    assert bench_pairs.verdict(LOWER, PARENT, [0.5, 0.6]) == "ok"
    assert bench_pairs.verdict(HIGHER, PARENT, [1.5, 1.6]) == "ok"


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    wide = [0.5, 0.6, 1.0, 1.4, 1.5]  # median 1.0, IQR 0.6-1.4
    assert bench_pairs.verdict(LOWER, wide, [1.0, 1.05, 0.95]) == "unresolved"
    assert bench_pairs.verdict(HIGHER, wide, [1.0, 1.05, 0.95]) == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.verdict(LOWER, wide, [0.4, 0.45]) == "ok"
    assert bench_pairs.verdict(HIGHER, wide, [1.6, 1.7]) == "ok"
    # a loss past the bound is worse however wide the parent
    assert bench_pairs.verdict(LOWER, wide, [1.3, 1.35]) == "worse"


def test_pairs_below_one_is_rejected_before_any_run(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(["--workload", "pcs_wide", "--seed", "1", "--pairs", "0"])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def _stub_runs(monkeypatch, failed):
    """run_pairs over three pairs with run_once stubbed: 13 operations per
    run, of which `failed[side]` fail; every run is correct."""
    def run_once(tree, args):
        metrics = {"pipeline_s": 1.0, "shots_per_s": 1.0}
        return {"metrics": metrics, "attempted": 13, "failed": failed[tree.name], "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = argparse.Namespace(pairs=3)
    return bench_pairs.run_pairs({"parent": Path("parent"), "change": Path("change")}, args)


def test_failed_share_is_kept_per_side(monkeypatch, capsys):
    runs = _stub_runs(monkeypatch, {"parent": 1, "change": 1})
    assert [len(runs[side]) for side in ("parent", "change")] == [3, 3]
    assert bench_pairs.failed_share(runs["change"]) == (3, 39, 3 / 39)
    assert bench_pairs.failure_verdict(runs) == "ok"
    bench_pairs.report([LOWER, HIGHER], runs)
    out = capsys.readouterr().out
    assert "parent failed 3 of 39 operations" in out
    assert "change failed 3 of 39 operations" in out
    assert "failed share: ok" in out


def test_a_higher_failed_share_is_more_failures(monkeypatch, capsys):
    runs = _stub_runs(monkeypatch, {"parent": 1, "change": 2})
    assert bench_pairs.failure_verdict(runs) == "more-failures"
    bench_pairs.report([LOWER, HIGHER], runs)
    assert "failed share: more-failures" in capsys.readouterr().out
    # fewer failures than the parent is not a regression
    assert bench_pairs.failure_verdict(_stub_runs(monkeypatch, {"parent": 2, "change": 0})) == "ok"


def test_json_holds_the_runs_and_the_summary(monkeypatch, tmp_path):
    runs = _stub_runs(monkeypatch, {"parent": 1, "change": 2})
    runs["change"][0]["metrics"]["pipeline_s"] = 0.5
    args = argparse.Namespace(workload="pcs_wide", seed=7, pairs=3, parent="HEAD~1", claim=None)
    path = tmp_path / "bench.json"
    bench_pairs.write_json(path, args, [LOWER, HIGHER], runs, {"parent": 120, "change": 100})
    out = json.loads(path.read_text())
    assert out["source_lines"] == {"parent": 120, "change": 100}
    assert (out["workload"], out["seed"], out["pairs"], out["parent"]) == ("pcs_wide", 7, 3, "HEAD~1")
    assert out["runs"] == runs
    lower = out["metrics"]["pipeline_s"]
    assert lower["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert lower["change"] == {"q1": 0.75, "median": 1.0, "q3": 1.0}
    assert (lower["wins"], lower["pairs"], lower["verdict"]) == (1, 3, "ok")
    assert out["metrics"]["shots_per_s"]["wins"] == 0
    assert out["failed"]["change"] == {"failed": 6, "attempted": 39, "share": 6 / 39}
    assert out["failure_verdict"] == "more-failures"


def test_source_lines_count_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "qedc"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n\n\nw = 4")  # no newline at the end
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.source_lines(tmp_path) == 5  # wc -l counts newlines


def test_the_change_side_is_exported_without_ignored_files(tmp_path):
    # both sides must start without bytecode, so the export takes what git
    # tracks or would track, as it is on disk, and nothing it ignores
    root, dest = tmp_path / "root", tmp_path / "dest"
    (root / "src" / "__pycache__").mkdir(parents=True)
    (root / ".gitignore").write_text("__pycache__/\n")
    (root / "src" / "kept.py").write_text("old\n")
    (root / "src" / "gone.py").write_text("deleted\n")

    def git(*cmd):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t", *cmd],
                       cwd=root, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    (root / "src" / "kept.py").write_text("modified\n")
    (root / "src" / "gone.py").unlink()
    (root / "src" / "new.py").write_text("untracked\n")
    (root / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"bytecode")
    bench_pairs.export_worktree(root, dest)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/kept.py", "src/new.py"]
    assert (dest / "src" / "kept.py").read_text() == "modified\n"


TEN = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]  # median 1.0, IQR 0.9925-1.0075


def test_claim_met_when_nine_of_ten_pairs_win_by_more_than_the_iqr():
    faster = [p * 1.25 for p in TEN]
    c = bench_pairs.claim(HIGHER, TEN, faster)
    assert (c["wins"], c["pairs"], c["verdict"]) == (10, 10, "claim met")
    assert c["gain"] == pytest.approx(0.25) and c["parent_iqr"] == pytest.approx(0.015)
    faster[3] = 0.5  # one lost pair still meets 9/10
    assert bench_pairs.claim(HIGHER, TEN, faster)["verdict"] == "claim met"
    # lower is better: the same rule with the sign turned
    slower = [p / 1.25 for p in TEN]
    assert bench_pairs.claim(LOWER, TEN, slower)["verdict"] == "claim met"
    assert bench_pairs.claim(LOWER, TEN, faster)["verdict"] == "claim not met"


def test_claim_not_met_below_nine_wins_or_inside_the_iqr():
    faster = [p * 1.25 for p in TEN]
    faster[3] = faster[5] = 0.5  # 8 of 10 wins
    c = bench_pairs.claim(HIGHER, TEN, faster)
    assert (c["wins"], c["verdict"]) == (8, "claim not met")
    # 10 of 10 wins, but the median gain (0.01) is inside the IQR (0.015)
    c = bench_pairs.claim(HIGHER, TEN, [p + 0.01 for p in TEN])
    assert (c["wins"], c["verdict"]) == (10, "claim not met")
    # ties count for neither side: two ties leave 8 wins
    tied = [p * 1.25 for p in TEN]
    tied[0], tied[1] = TEN[0], TEN[1]
    c = bench_pairs.claim(HIGHER, TEN, tied)
    assert (c["wins"], c["verdict"]) == (8, "claim not met")


def test_claim_is_printed_and_written(monkeypatch, tmp_path, capsys):
    runs = _stub_runs(monkeypatch, {"parent": 0, "change": 0})
    for r in runs["change"]:
        r["metrics"]["shots_per_s"] = 2.0
    bench_pairs.report([LOWER, HIGHER], runs, "shots_per_s")
    assert "claim shots_per_s: 3/3 pairs won" in capsys.readouterr().out
    args = argparse.Namespace(workload="iceberg_qaoa", seed=7, pairs=3, parent="HEAD", claim="shots_per_s")
    path = tmp_path / "bench.json"
    bench_pairs.write_json(path, args, [LOWER, HIGHER], runs, {"parent": 1, "change": 1})
    out = json.loads(path.read_text())
    assert out["claim"] == {"metric": "shots_per_s", "wins": 3, "pairs": 3, "gain": 1.0,
                            "parent_iqr": 0.0, "verdict": "claim met"}
    assert "claim" not in bench_pairs.summary([LOWER, HIGHER], runs)


def test_claim_must_name_an_end_to_end_metric(capsys):
    assert bench_pairs.parse_args(["--workload", "pcs_wide", "--seed", "1",
                                   "--claim", "shots_per_s"]).claim == "shots_per_s"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(["--workload", "pcs_wide", "--seed", "1", "--claim", "speed"])
    assert exc.value.code == 2
    assert "--claim must be an end-to-end metric" in capsys.readouterr().err


def test_an_incorrect_run_gives_its_side_the_incorrect_verdict(monkeypatch, tmp_path, capsys):
    runs = _stub_runs(monkeypatch, {"parent": 0, "change": 0})
    assert bench_pairs.summary([LOWER, HIGHER], runs)["correct"]["change"]["verdict"] == "ok"
    runs["change"][1]["correct"] = False
    bench_pairs.report([LOWER, HIGHER], runs)
    out = capsys.readouterr().out
    assert "parent incorrect runs: 0 of 3: ok" in out
    assert "change incorrect runs: 1 of 3: incorrect" in out
    args = argparse.Namespace(workload="pcs_wide", seed=7, pairs=3, parent="HEAD", claim=None)
    path = tmp_path / "bench.json"
    bench_pairs.write_json(path, args, [LOWER, HIGHER], runs, {"parent": 1, "change": 1})
    written = json.loads(path.read_text())
    assert written["correct"] == {"parent": {"incorrect": 0, "runs": 3, "verdict": "ok"},
                                  "change": {"incorrect": 1, "runs": 3, "verdict": "incorrect"}}
    assert written["runs"]["change"][1]["correct"] is False


def _fake_perfbench(monkeypatch, results):
    """subprocess.run stubbed: a run in tree `t` exits with results[t.name],
    a (return code, stdout, stderr) triple."""
    def run(cmd, cwd, capture_output, text):
        code, out, err = results[Path(cwd).name]
        return subprocess.CompletedProcess(cmd, code, out, err)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


def test_run_once_keeps_the_correct_flag(monkeypatch):
    line = json.dumps({"correct": False, "attempted": 13, "failed": 1,
                       "metrics": {"pipeline_s": {"value": 0.5, "unit": "s"}}})
    _fake_perfbench(monkeypatch, {"tree": (0, "workload pcs_wide\n" + line + "\n", "")})
    args = argparse.Namespace(workload="pcs_wide", seed=7)
    assert bench_pairs.run_once(Path("tree"), args) == {
        "metrics": {"pipeline_s": 0.5}, "attempted": 13, "failed": 1, "correct": False}


def test_a_failed_run_names_its_side_exit_code_and_stderr(monkeypatch):
    ok = json.dumps({"correct": True, "attempted": 13, "failed": 0, "metrics": {}})
    err = "".join(f"line {i}\n" for i in range(30)) + "Traceback: boom\n"
    _fake_perfbench(monkeypatch, {"parent": (0, ok, ""), "change": (3, "", err)})
    args = argparse.Namespace(workload="pcs_wide", seed=7, pairs=2)
    with pytest.raises(bench_pairs.RunError) as exc:
        bench_pairs.run_pairs({"parent": Path("parent"), "change": Path("change")}, args)
    message = str(exc.value)
    assert message.startswith("change run of pair 1 failed, exit code 3")
    assert "Traceback: boom" in message and "line 29" in message
    assert "line 10\n" not in message  # only the last lines of stderr
