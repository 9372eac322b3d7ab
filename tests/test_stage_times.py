import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import stage_times  # noqa: E402

STAGES = ["parse", "compile", "emit", "handoff", "estimate", "sample", "postselect"]
# the calls compile_circuit(code="auto") makes on each workload, in its order;
# VF2 finds no layout for pcs_heavyhex's compile
_PCS = ["select_code", "largest_clifford_region", "synthesize_checks", "insert_pcs"]
COMPILE_STAGES = {
    "iceberg_qaoa": ["select_code", "largest_clifford_region", "build_iceberg_circuit", "schedule"],
    "pcs_heavyhex": _PCS + ["interaction_graph", "vf2_layouts", "fallback_layout", "route", "schedule"],
    "pcs_wide": _PCS + ["schedule"],
}


def _run(*args):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_times.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    return out


@pytest.mark.parametrize("workload, backend", [("iceberg_qaoa", "statevector"), ("pcs_heavyhex", "pauli-frame"),
                                               ("pcs_wide", "pauli-frame")])
def test_one_json_line_with_every_stage(workload, backend):
    out = _run("--workload", workload, "--seed", "4", "--repeats", "1", "--calls", "1")
    assert out.returncode == 0, out.stderr
    (line,) = out.stdout.splitlines()
    report = json.loads(line)
    assert (report["workload"], report["seed"], report["repeats"], report["calls"]) == (workload, 4, 1, 1)
    assert list(report["ms"]) == STAGES
    assert list(report["compile_stages"]) == COMPILE_STAGES[workload]
    assert all(ms > 0 for ms in report["compile_stages"].values())
    # route's DEBUG record, from the compile: only pcs_heavyhex routes
    if workload == "pcs_heavyhex":
        assert report["route"] == {"nonlocal_gates": 10, "swaps": 25, "table_paths": 6, "searched_paths": 4}
    else:
        assert report["route"] is None
    record = report["sample"]
    assert record["backend"] == backend and record["shots"] > 0
    assert {"faulty_shots", "simulated_shots", "statevector_passes", "noisy_instructions"} <= set(record)
    if workload == "pcs_heavyhex":
        # the routed PCS estimate raises: an error, and every other stage timed
        assert report["ms"]["estimate"] is None and "estimate" in report["errors"]
        assert all(report["ms"][s] > 0 for s in STAGES if s != "estimate")
    else:
        assert report["errors"] == {} and all(report["ms"][s] > 0 for s in STAGES)
    assert (record["statevector_passes"] > 0) == (backend == "statevector")


def test_repeats_below_one_are_rejected():
    out = _run("--workload", "pcs_wide", "--seed", "1", "--repeats", "0")
    assert out.returncode == 2 and "--repeats and --calls must be at least 1" in out.stderr


def test_compile_stages_need_the_compile_and_its_circuit():
    workload = stage_times.WORKLOADS["pcs_wide"]
    inputs = stage_times.make_inputs(workload, 4)
    calls, errors = stage_times.stage_calls(workload, inputs, None)
    assert list(stage_times.compile_stage_ms(workload, calls, errors, None, 1, 1)) == COMPILE_STAGES["pcs_wide"]
    errors = {}
    assert stage_times.compile_stage_ms(workload, {}, errors, None, 1, 1) is None
    assert errors == {"compile_stages": "not run: compile did not complete"}
    # stages that compile another circuit than compile_circuit are not timed
    other = stage_times.qedc.compile_circuit(calls["parse"](), code="none")
    assert stage_times.compile_stage_ms(workload, dict(calls, compile=lambda: other), errors, None, 1, 1) is None
    assert errors["compile_stages"] == "the stages compile another circuit than compile_circuit"
