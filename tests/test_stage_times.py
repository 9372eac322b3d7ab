import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STAGES = ["parse", "compile", "emit", "handoff", "estimate", "sample", "postselect"]


def _run(*args):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_times.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    return out


@pytest.mark.parametrize("workload, backend", [("iceberg_qaoa", "statevector"), ("pcs_heavyhex", "pauli-frame")])
def test_one_json_line_with_every_stage(workload, backend):
    out = _run("--workload", workload, "--seed", "4", "--repeats", "1", "--calls", "1")
    assert out.returncode == 0, out.stderr
    (line,) = out.stdout.splitlines()
    report = json.loads(line)
    assert (report["workload"], report["seed"], report["repeats"], report["calls"]) == (workload, 4, 1, 1)
    assert list(report["ms"]) == STAGES
    record = report["sample"]
    assert record["backend"] == backend and record["shots"] > 0
    assert {"faulty_shots", "simulated_shots", "statevector_passes", "noisy_instructions"} <= set(record)
    if workload == "pcs_heavyhex":
        # the routed PCS estimate raises: an error, and every other stage timed
        assert report["ms"]["estimate"] is None and "estimate" in report["errors"]
        assert all(report["ms"][s] > 0 for s in STAGES if s != "estimate")
    else:
        assert report["errors"] == {} and all(report["ms"][s] > 0 for s in STAGES)
        assert record["statevector_passes"] > 0


def test_repeats_below_one_are_rejected():
    out = _run("--workload", "pcs_wide", "--seed", "1", "--repeats", "0")
    assert out.returncode == 2 and "--repeats and --calls must be at least 1" in out.stderr
