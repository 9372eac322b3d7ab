import json
import math

import pytest

from qedc.cli import EXIT_COMPILE, EXIT_IO, EXIT_PARSE, EXIT_SIM, main
from qedc.layout import heavy_hex_127
from qedc.pipeline import CompilationMeta
from qedc.postprocess import estimate_overhead, postselect_counts_iceberg
from qedc.qasm import emit_qasm, parse_qasm
from qedc.simulator import NoiseModel
from test_acceptance import _case_study_circuit_4q
from test_iceberg import MID_CIRCUIT_QASM, SWAPPED_MAP_QASM

BELL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""

ROT_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
rx(0.5) q[0];
rzz(0.7) q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""

GHZ4_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
"""


@pytest.fixture
def bell(tmp_path):
    p = tmp_path / "bell.qasm"
    p.write_text(BELL_QASM)
    return p


@pytest.fixture
def rot(tmp_path):
    p = tmp_path / "rot.qasm"
    p.write_text(ROT_QASM)
    return p


def test_analyze_reports_regions_and_choice(bell, tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["analyze", str(bell), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["num_qubits"] == 2
    assert data["regions"][0]["is_clifford"] is True
    assert data["code_choice"]["code"] in ("PCS", "ICEBERG", "NONE")
    assert data["interaction_graph"]["edges"] == [[0, 1, 1]]


def test_compile_run_postselect_pipeline(bell, tmp_path):
    compiled = tmp_path / "c.qasm"
    meta = tmp_path / "m.json"
    counts = tmp_path / "counts.json"
    report = tmp_path / "r.json"
    assert main(["compile", str(bell), "--code", "pcs", "--checks", "1",
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    assert json.loads(meta.read_text())["code"] == "pcs"
    assert main(["run", str(compiled), "--shots", "500", "--seed", "3",
                 "--out", str(counts)]) == 0
    data = json.loads(counts.read_text())
    assert data["shots"] == 500 == sum(data["counts"].values())
    assert main(["postselect", "--counts", str(counts), "--meta", str(meta),
                 "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["total"] == 500
    assert rep["keep_rate"] == 1.0  # noiseless
    dist = rep["counts"]
    assert set(dist) <= {"00", "11"}


def test_iceberg_pipeline(rot, tmp_path):
    compiled = tmp_path / "c.qasm"
    meta = tmp_path / "m.json"
    counts = tmp_path / "counts.json"
    report = tmp_path / "r.json"
    assert main(["compile", str(rot), "--code", "iceberg", "--checks", "1",
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    assert main(["run", str(compiled), "--shots", "400", "--seed", "1",
                 "--out", str(counts)]) == 0
    assert main(["postselect", "--counts", str(counts), "--meta", str(meta),
                 "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["keep_rate"] == 1.0
    assert all(len(k) == 2 for k in rep["counts"])


@pytest.mark.parametrize("cycles", [0, 2])
def test_iceberg_postselect_matches_library(rot, tmp_path, cycles):
    compiled = tmp_path / "c.qasm"
    meta = tmp_path / "m.json"
    noise = tmp_path / "noise.json"
    counts = tmp_path / "counts.json"
    report = tmp_path / "r.json"
    noise.write_text(json.dumps({"p1": 0.01, "p2": 0.05}))
    assert main(["compile", str(rot), "--code", "iceberg", "--checks", str(cycles),
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    assert main(["run", str(compiled), "--noise", str(noise), "--shots", "400", "--seed", "5",
                 "--out", str(counts)]) == 0
    assert main(["postselect", "--counts", str(counts), "--meta", str(meta),
                 "--out", str(report)]) == 0
    library = postselect_counts_iceberg(
        json.loads(counts.read_text())["counts"],
        CompilationMeta.from_dict(json.loads(meta.read_text())).code_meta,
        parse_qasm(compiled.read_text()).cregs,
    )
    rep = json.loads(report.read_text())
    assert rep == library.to_dict()
    assert 0 < rep["kept"] < rep["total"]


def test_compile_with_coupling(bell, tmp_path):
    coupling = tmp_path / "cg.json"
    coupling.write_text(json.dumps(
        {"num_qubits": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]}))
    compiled = tmp_path / "c.qasm"
    meta = tmp_path / "m.json"
    assert main(["compile", str(bell), "--code", "pcs", "--checks", "1",
                 "--coupling", str(coupling),
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    m = json.loads(meta.read_text())
    assert m["layout"] is not None
    assert m["depth"] > 0


def test_extrapolate_roundtrip(tmp_path):
    series = tmp_path / "s.json"
    series.write_text(json.dumps(
        [{"m": m, "value": 0.4 + 0.2 * 0.5 ** m, "stderr": 0.0} for m in (1, 2, 3, 4)]))
    out = tmp_path / "e.json"
    assert main(["extrapolate", "--series", str(series), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["model"] == "exponential"
    assert math.isclose(data["estimate"], 0.4, abs_tol=1e-6)
    assert math.isclose(data["fitted_params"]["rate"], 0.5, abs_tol=1e-6)
    assert data["degenerate"] is False


def test_extrapolate_reports_degenerate_fit(tmp_path):
    series = tmp_path / "s.json"
    series.write_text(json.dumps(
        [{"m": m, "value": v, "stderr": e} for m, v, e in
         [(1, -0.9874, 7e-4), (2, -0.9796, 8e-4), (3, -0.9775, 9e-4), (4, -0.9823, 8e-4)]]))
    out = tmp_path / "e.json"
    assert main(["extrapolate", "--series", str(series), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["degenerate"] is True


def test_byte_identical_determinism(bell, tmp_path):
    outs = []
    for tag in ("a", "b"):
        compiled = tmp_path / f"c{tag}.qasm"
        meta = tmp_path / f"m{tag}.json"
        counts = tmp_path / f"k{tag}.json"
        main(["compile", str(bell), "--code", "pcs", "--checks", "2",
              "--out", str(compiled), "--meta-out", str(meta)])
        main(["run", str(compiled), "--shots", "300", "--seed", "9",
              "--out", str(counts)])
        outs.append((compiled.read_bytes(), meta.read_bytes(), counts.read_bytes()))
    assert outs[0] == outs[1]


def test_seed_env_default(bell, tmp_path, monkeypatch):
    compiled = tmp_path / "c.qasm"
    meta = tmp_path / "m.json"
    main(["compile", str(bell), "--code", "none",
          "--out", str(compiled), "--meta-out", str(meta)])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("QED_SEED", "17")
    main(["run", str(compiled), "--shots", "200", "--out", str(a)])
    main(["run", str(compiled), "--shots", "200", "--seed", "17", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_non_integer_seed_env_exits_parse(bell, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QED_SEED", "abc")
    assert main(["run", str(bell), "--shots", "10"]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"] == "parse"


def test_missing_input_exits_io(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.qasm")])
    assert rc == EXIT_IO
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io"


def test_bad_qasm_exits_parse(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n")
    rc = main(["analyze", str(bad)])
    assert rc == EXIT_PARSE
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("statement,code", [
    ("h q[1.5];", "syntax"),
    ("measure q[0.5] -> c[0];", "syntax"),
    ("rz(1/0) q[0];", "bad-params"),
    ("rz(1e400) q[0];", "bad-params"),
])
def test_malformed_numbers_exit_parse(tmp_path, capsys, statement, code):
    bad = tmp_path / "bad.qasm"
    bad.write_text(f"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n{statement}\n")
    rc = main(["compile", str(bad), "--code", "none", "--out", str(tmp_path / "c.qasm"),
               "--meta-out", str(tmp_path / "m.json")])
    assert rc == EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"] == code


def test_compile_failure_exits_compile(tmp_path, capsys):
    odd = tmp_path / "odd.qasm"
    odd.write_text("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nrx(0.4) q[0];\n"
                   "measure q[0] -> c[0];\n")
    rc = main(["compile", str(odd), "--code", "iceberg",
               "--out", str(tmp_path / "c.qasm"), "--meta-out", str(tmp_path / "m.json")])
    assert rc == EXIT_COMPILE
    assert json.loads(capsys.readouterr().err)["error"] == "odd-qubit-count"


@pytest.mark.parametrize("body", MID_CIRCUIT_QASM, ids=["measure", "reset"])
def test_iceberg_mid_circuit_measure_or_reset_exits_compile(tmp_path, capsys, body):
    src = tmp_path / "mid.qasm"
    src.write_text(f"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n{body}")
    rc = main(["compile", str(src), "--code", "iceberg",
               "--out", str(tmp_path / "c.qasm"), "--meta-out", str(tmp_path / "m.json")])
    assert rc == EXIT_COMPILE
    assert json.loads(capsys.readouterr().err)["error"] == "compile"


def test_iceberg_permuted_measurement_map_exits_compile(tmp_path, capsys):
    src = tmp_path / "swapped.qasm"
    src.write_text(SWAPPED_MAP_QASM)
    rc = main(["compile", str(src), "--code", "iceberg",
               "--out", str(tmp_path / "c.qasm"), "--meta-out", str(tmp_path / "m.json")])
    assert rc == EXIT_COMPILE == 3
    assert json.loads(capsys.readouterr().err)["error"] == "compile"
    assert not (tmp_path / "c.qasm").exists()


def test_too_many_checks_exits_compile(bell, tmp_path, capsys):
    out = tmp_path / "c.qasm"
    rc = main(["compile", str(bell), "--code", "pcs", "--checks", "1000",
               "--out", str(out), "--meta-out", str(tmp_path / "m.json")])
    assert rc == EXIT_COMPILE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-parameters"
    assert "1000" in err["message"]
    assert not out.exists()


def test_negative_shots_exit_sim(rot, tmp_path, capsys):
    out = tmp_path / "counts.json"
    rc = main(["run", str(rot), "--shots", "-5", "--out", str(out)])
    assert rc == EXIT_SIM
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-parameters"
    assert "-5" in err["message"]
    assert not out.exists()


def test_too_wide_noisy_clifford_exits_sim(tmp_path, capsys):
    n = 70
    ghz = tmp_path / "ghz.qasm"
    ghz.write_text("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                   f"qreg q[{n}];\ncreg c[1];\nh q[0];\n"
                   + "".join(f"cx q[{q - 1}],q[{q}];\n" for q in range(1, n))
                   + f"measure q[{n - 1}] -> c[0];\n")
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p1": 0.001, "p2": 0.01}))
    out = tmp_path / "counts.json"
    rc = main(["run", str(ghz), "--noise", str(noise), "--shots", "10", "--out", str(out)])
    assert rc == EXIT_SIM
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "simulation"
    assert "Pauli-frame limit of 64" in err["message"]
    assert not out.exists()


def test_bad_series_exits_parse(tmp_path, capsys):
    s = tmp_path / "s.json"
    s.write_text("[{\"m\": 1}]")
    rc = main(["extrapolate", "--series", str(s)])
    assert rc == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize("field,bad", [("value", math.nan), ("stderr", math.inf)])
def test_extrapolate_non_finite_point_exits_bad_series(tmp_path, capsys, field, bad):
    points = [{"m": m, "value": 0.4 + 0.2 * 0.5 ** m, "stderr": 0.01} for m in (1, 2, 3, 4)]
    points[2][field] = bad  # written as NaN or Infinity, which json.loads accepts
    s = tmp_path / "s.json"
    s.write_text(json.dumps(points))
    out = tmp_path / "e.json"
    rc = main(["extrapolate", "--series", str(s), "--out", str(out)])
    assert rc == EXIT_COMPILE
    assert json.loads(capsys.readouterr().err)["error"] == "bad-series"
    assert not out.exists()


@pytest.mark.parametrize("stderr", [0.0, -0.01])
def test_extrapolate_unusable_stderr_exits_bad_series(tmp_path, capsys, stderr):
    points = [{"m": m, "value": v, "stderr": 0.01}
              for m, v in [(1, 0.6), (2, 0.5), (3, 0.45), (4, 0.30), (5, 0.42)]]
    points[3]["stderr"] = stderr
    s = tmp_path / "s.json"
    s.write_text(json.dumps(points))
    out = tmp_path / "e.json"
    rc = main(["extrapolate", "--series", str(s), "--out", str(out)])
    assert rc == EXIT_COMPILE
    assert json.loads(capsys.readouterr().err)["error"] == "bad-series"
    assert not out.exists()


@pytest.mark.parametrize("m", [1.7, -1, True, "2"])
def test_extrapolate_non_integer_m_exits_parse(tmp_path, capsys, m):
    points = [{"m": k, "value": 0.4 + 0.2 * 0.5 ** k} for k in (2, 3, 4)]
    points.append({"m": m, "value": 0.5})
    s = tmp_path / "s.json"
    s.write_text(json.dumps(points))
    rc = main(["extrapolate", "--series", str(s)])
    assert rc == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "non-negative integer" in err["message"]


def test_stdout_when_no_out(bell, capsys):
    assert main(["analyze", str(bell)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_qubits"] == 2


def test_non_object_noise_exits_parse(bell, tmp_path, capsys):
    noise = tmp_path / "noise.json"
    noise.write_text("[1, 2]")
    out = tmp_path / "counts.json"
    rc = main(["run", str(bell), "--noise", str(noise), "--out", str(out)])
    assert rc == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "noise" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("gates", ['"rx"', '["cnot"]'], ids=["string", "unknown"])
def test_bad_noise_gate_list_exits_parse(bell, tmp_path, capsys, gates):
    noise = tmp_path / "noise.json"
    noise.write_text('{"p1": 0.5, "gates1": %s}' % gates)
    out = tmp_path / "counts.json"
    rc = main(["run", str(bell), "--noise", str(noise), "--out", str(out)])
    assert rc == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "gates1" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("bad", ['"7"', "-2", "1.5", "true"],
                         ids=["string", "negative", "fraction", "bool"])
def test_bad_count_values_exit_parse(bell, tmp_path, capsys, bad):
    meta = tmp_path / "m.json"
    assert main(["compile", str(bell), "--code", "pcs", "--checks", "1",
                 "--out", str(tmp_path / "c.qasm"), "--meta-out", str(meta)]) == 0
    counts = tmp_path / "counts.json"
    counts.write_text('{"counts": {"0 00": 3, "0 11": %s}}' % bad)
    out = tmp_path / "r.json"
    rc = main(["postselect", "--counts", str(counts), "--meta", str(meta), "--out", str(out)])
    assert rc == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "0 11" in err["message"]
    assert not out.exists()


def test_run_without_clbits_counts_the_empty_key(tmp_path):
    src = tmp_path / "noclbits.qasm"
    src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n')
    out = tmp_path / "counts.json"
    assert main(["run", str(src), "--shots", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["counts"] == {"": 10}


@pytest.mark.parametrize("which", ["qasm", "noise"])
def test_non_utf8_input_exits_parse(bell, tmp_path, capsys, which):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfeOPENQASM 2.0;")
    argv = ["analyze", str(bad)] if which == "qasm" else ["run", str(bell), "--noise", str(bad)]
    assert main(argv) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert str(bad) in err["message"]


@pytest.mark.parametrize("key", ["000 00 0", "0000 00 0 1", "0000 00 00", "0000 000 0", "0000 0x 0"],
                         ids=["readout-3-bits", "extra-group", "verify-2-bits", "synd-3-bits",
                              "bad-character"])
def test_iceberg_counts_that_do_not_match_the_registers_exit_mismatch(rot, tmp_path, capsys, key):
    meta = tmp_path / "m.json"
    assert main(["compile", str(rot), "--code", "iceberg", "--checks", "1",
                 "--out", str(tmp_path / "c.qasm"), "--meta-out", str(meta)]) == 0
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"counts": {"0000 00 0": 5, key: 3}}))
    out = tmp_path / "r.json"
    rc = main(["postselect", "--counts", str(counts), "--meta", str(meta), "--out", str(out)])
    assert rc == EXIT_COMPILE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err)
    assert err["error"] == "mismatch"
    assert repr(key) in err["message"]
    assert not out.exists()


def _bell_pcs_meta(bell, tmp_path):
    meta = tmp_path / "m.json"
    assert main(["compile", str(bell), "--code", "pcs", "--checks", "1",
                 "--out", str(tmp_path / "c.qasm"), "--meta-out", str(meta)]) == 0
    return meta


@pytest.mark.parametrize("counts", [{"0 000": 3, "0 111": 4}, {"0 00": 3, "0 111": 4}],
                         ids=["every-key", "second-key"])
def test_pcs_counts_that_do_not_match_the_registers_exit_mismatch(bell, tmp_path, capsys, counts):
    meta = _bell_pcs_meta(bell, tmp_path)
    path, out = tmp_path / "counts.json", tmp_path / "r.json"
    path.write_text(json.dumps({"counts": counts}))
    rc = main(["postselect", "--counts", str(path), "--meta", str(meta), "--out", str(out)])
    assert rc == EXIT_COMPILE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "mismatch"
    assert "register widths [1, 2]" in err["message"]
    assert not out.exists()


def test_pcs_meta_without_registers_still_postselects(bell, tmp_path):
    meta = _bell_pcs_meta(bell, tmp_path)
    data = json.loads(meta.read_text())
    del data["meta"]["cregs"]
    meta.write_text(json.dumps(data))
    path, out = tmp_path / "counts.json", tmp_path / "r.json"
    path.write_text(json.dumps({"counts": {"0 00": 3, "1 11": 4}}))
    assert main(["postselect", "--counts", str(path), "--meta", str(meta), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["counts"] == {"00": 3}


@pytest.mark.parametrize("bits", ["2", "01", "x"])
def test_bad_expected_ancilla_bits_exit_parse(bell, tmp_path, capsys, bits):
    meta = _bell_pcs_meta(bell, tmp_path)
    data = json.loads(meta.read_text())
    data["meta"]["expected_ancilla_bits"] = bits
    meta.write_text(json.dumps(data))
    path, out = tmp_path / "counts.json", tmp_path / "r.json"
    path.write_text(json.dumps({"counts": {"0 00": 3}}))
    rc = main(["postselect", "--counts", str(path), "--meta", str(meta), "--out", str(out)])
    assert rc == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "expected_ancilla_bits" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("code", ["iceberg", "pcs"])
def test_estimate_prints_the_librarys_estimate(bell, rot, tmp_path, capsys, code):
    compiled, meta, noise = tmp_path / "c.qasm", tmp_path / "m.json", tmp_path / "noise.json"
    assert main(["compile", str(rot if code == "iceberg" else bell), "--code", code, "--checks", "1",
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    noise.write_text(json.dumps({"p1": 0.001, "p2": 0.01}))
    capsys.readouterr()
    assert main(["estimate", str(compiled), "--meta", str(meta), "--noise", str(noise)]) == 0
    out = json.loads(capsys.readouterr().out)
    est = estimate_overhead(parse_qasm(compiled.read_text()),
                            CompilationMeta.from_dict(json.loads(meta.read_text())),
                            NoiseModel(p1=0.001, p2=0.01))
    want = {"keep_rate": est.keep_rate, "expected_shot_multiplier": est.expected_shot_multiplier,
            "detectable_fraction_by_gate": est.detectable_fraction_by_gate}
    if code == "pcs":
        want["scope"] = "upper bound: faults outside the PCS payload count as undetected"
    assert out == want
    assert 0 < out["keep_rate"] < 1 and any(out["detectable_fraction_by_gate"])


def test_estimate_of_routed_pcs_meta_exits_mismatch(tmp_path, capsys):
    src, coupling = tmp_path / "in.qasm", tmp_path / "cg.json"
    src.write_text(emit_qasm(_case_study_circuit_4q()))
    coupling.write_text(json.dumps(heavy_hex_127().to_dict()))
    compiled, meta, noise = tmp_path / "c.qasm", tmp_path / "m.json", tmp_path / "noise.json"
    assert main(["compile", str(src), "--code", "pcs", "--checks", "2", "--coupling", str(coupling),
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    noise.write_text(json.dumps({"p1": 3e-5, "p2": 0.002}))
    out = tmp_path / "e.json"
    rc = main(["estimate", str(compiled), "--meta", str(meta), "--noise", str(noise), "--out", str(out)])
    assert rc == EXIT_COMPILE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err)
    assert err["error"] == "mismatch"
    assert "outside the payload qubits" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("meta_of", ["bell", "ghz4"])
def test_estimate_with_the_meta_of_another_circuit_exits_mismatch(bell, tmp_path, capsys, meta_of):
    """Bell's PCS meta on the input Bell circuit, and a 4-qubit GHZ
    circuit's PCS meta on the compiled Bell circuit."""
    compiled, meta, noise = tmp_path / "c.qasm", tmp_path / "m.json", tmp_path / "noise.json"
    assert main(["compile", str(bell), "--code", "pcs", "--checks", "1",
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    circuit = bell
    if meta_of == "ghz4":  # its meta replaces Bell's
        ghz4 = tmp_path / "ghz4.qasm"
        ghz4.write_text(GHZ4_QASM)
        assert main(["compile", str(ghz4), "--code", "pcs", "--checks", "1",
                     "--out", str(tmp_path / "g.qasm"), "--meta-out", str(meta)]) == 0
        circuit = compiled
    noise.write_text(json.dumps({"p1": 0.001, "p2": 0.01}))
    capsys.readouterr()
    assert main(["estimate", str(circuit), "--meta", str(meta), "--noise", str(noise)]) == EXIT_COMPILE
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "mismatch"
    assert "lie outside the circuit" in err["message"]
    assert captured.out == ""


def test_estimate_without_a_detection_code_exits_compile(bell, tmp_path, capsys):
    compiled, meta, noise = tmp_path / "c.qasm", tmp_path / "m.json", tmp_path / "noise.json"
    assert main(["compile", str(bell), "--code", "none",
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    noise.write_text(json.dumps({"p2": 0.01}))
    capsys.readouterr()
    assert main(["estimate", str(compiled), "--meta", str(meta), "--noise", str(noise)]) == EXIT_COMPILE
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "no-detection-code"
    assert captured.out == ""


@pytest.mark.parametrize("sign", [0, "1"])
def test_bad_check_sign_exits_parse(bell, tmp_path, capsys, sign):
    meta = _bell_pcs_meta(bell, tmp_path)
    data = json.loads(meta.read_text())
    data["meta"]["checks"][0]["sign"] = sign
    meta.write_text(json.dumps(data))
    path, out = tmp_path / "counts.json", tmp_path / "r.json"
    path.write_text(json.dumps({"counts": {"0 00": 3}}))
    rc = main(["postselect", "--counts", str(path), "--meta", str(meta), "--out", str(out)])
    assert rc == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert "sign must be 1 or -1" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("field, bad", [("k", 3), ("cycles", -1)])
def test_bad_iceberg_meta_exits_parse(rot, tmp_path, capsys, field, bad):
    meta, out = tmp_path / "m.json", tmp_path / "r.json"
    assert main(["compile", str(rot), "--code", "iceberg", "--checks", "1",
                 "--out", str(tmp_path / "c.qasm"), "--meta-out", str(meta)]) == 0
    data = json.loads(meta.read_text())
    data["meta"][field] = bad
    meta.write_text(json.dumps(data))
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"counts": {"0000 00 0": 3}}))
    rc = main(["postselect", "--counts", str(path), "--meta", str(meta), "--out", str(out)])
    assert rc == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse"
    assert f"{field} must be" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("decl", ["creg anc[2];", "qreg anc_q[2];", "qreg anc[1];"])
def test_pcs_input_with_an_ancilla_register_name_exits_compile(tmp_path, capsys, decl):
    src, out = tmp_path / "anc.qasm", tmp_path / "c.qasm"
    src.write_text(BELL_QASM.replace("creg c[2];\n", f"creg c[2];\n{decl}\n"))
    rc = main(["compile", str(src), "--code", "pcs", "--out", str(out), "--meta-out", str(tmp_path / "m.json")])
    assert rc == EXIT_COMPILE == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "compile"
    assert "is reserved for the PCS check ancillas" in err["message"]
    assert not out.exists()


def test_register_less_iceberg_input_exits_compile(tmp_path, capsys):
    src, out = tmp_path / "bare.qasm", tmp_path / "c.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[2];\nx q[0];\nrx(0.3) q[1];\nrzz(0.2) q[0],q[1];\n")
    rc = main(["compile", str(src), "--code", "iceberg", "--out", str(out), "--meta-out", str(tmp_path / "m.json")])
    assert rc == EXIT_COMPILE == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "compile"
    assert "into clbit q" in err["message"]
    assert not out.exists()


# one check of sign -1, so its expected ancilla bits read "10"
SIGNED_QASM = BELL_QASM.replace("h q[0];", "s q[0];")


def _older_format(meta: dict) -> dict:
    """A code's meta as older versions wrote it: with the keys that are now
    derived from the rest or fixed."""
    if meta["code"] == "iceberg":
        k = meta["k"]
        return {**meta, "data_qubits": list(range(k + 2)), "ancillas": [k + 2, k + 3],
                "registers": {"verify": "verify", "cycle": "synd", "readout": "meas"},
                "accept_rule": "cycles_zero_and_even_parity"}
    bits = "".join("1" if c["sign"] == -1 else "0" for c in reversed(meta["checks"]))
    return {**meta, "ancilla_register": "anc", "expected_ancilla_bits": bits}


@pytest.mark.parametrize("code, qasm", [("iceberg", ROT_QASM), ("pcs", SIGNED_QASM)])
def test_meta_files_in_the_older_format_give_the_same_bytes(tmp_path, code, qasm):
    src, compiled, meta, old = (tmp_path / name for name in ("in.qasm", "c.qasm", "m.json", "old.json"))
    noise, counts = tmp_path / "noise.json", tmp_path / "counts.json"
    src.write_text(qasm)
    noise.write_text(json.dumps({"p1": 0.01, "p2": 0.05}))
    assert main(["compile", str(src), "--code", code, "--checks", "2",
                 "--out", str(compiled), "--meta-out", str(meta)]) == 0
    new = json.loads(meta.read_text())
    old_data = {**new, "meta": _older_format(new["meta"])}
    old.write_text(json.dumps(old_data))
    assert CompilationMeta.from_dict(old_data) == CompilationMeta.from_dict(new)
    if code == "pcs":
        assert old_data["meta"]["expected_ancilla_bits"] == "10"
    assert main(["run", str(compiled), "--noise", str(noise), "--shots", "400", "--seed", "3",
                 "--out", str(counts)]) == 0
    for command in (["postselect", "--counts", str(counts)], ["estimate", str(compiled), "--noise", str(noise)]):
        outs = []
        for path in (meta, old):
            out = tmp_path / f"{command[0]}-{path.stem}.json"
            assert main(command + ["--meta", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert "counts" not in report or 0 < report["kept"] < report["total"]
