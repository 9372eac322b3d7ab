import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qedc.analysis
import qedc.iceberg
from qedc import simulator
from qedc.analysis import select_code, transpile_to_gateset
from qedc.circuit import Circuit, Instruction
from qedc.layout import CouplingGraph, heavy_hex_127
from qedc.pipeline import CompileError, compile_circuit
from qedc.postprocess import detectors
from qedc.qasm import emit_qasm, parse_qasm
from test_acceptance import _case_study_circuit_4q, _qaoa6

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

LINE_8 = CouplingGraph(8, [(i, i + 1) for i in range(7)])


def _pauli_rotations_4q():
    """rxx, ryy and ry beside a Clifford, so both gate sets expand each axis."""
    circ = Circuit()
    circ.add_qreg("q", 4)
    circ.add_creg("c", 4)
    circ.append("rxx", (0, 1), (0.3,))
    circ.append("ryy", (2, 1), (-0.8,))
    circ.append("ry", (3,), (1.1,))
    circ.append("cx", (3, 0))
    circ.append("ryy", (0, 3), (math.pi / 2,))
    for q in range(4):
        circ.append("measure", (q,), clbits=(q,))
    return circ


def _qaoa6_rz_first():
    """The ring QAOA with rz(0.3) on q[0] before its h: no all-h first layer."""
    circ = _qaoa6()
    circ.instructions.insert(0, Instruction("rz", (0,), (0.3,)))
    return circ


# name -> (compile_circuit arguments, SWAPs routing inserts)
_COMPILES = {
    "iceberg-qaoa": (dict(circ=_qaoa6(), code="iceberg", checks=2), 0),
    "iceberg-qaoa-rz-first": (dict(circ=_qaoa6_rz_first(), code="iceberg", checks=2), 0),
    "iceberg-qaoa-heavyhex": (dict(circ=_qaoa6(), code="iceberg", checks=2,
                                   coupling=heavy_hex_127()), 207),
    "pcs-case-study-heavyhex": (dict(circ=_case_study_circuit_4q(), code="pcs", checks=2,
                                     coupling=heavy_hex_127()), 25),
    "pcs-case-study-line8": (dict(circ=_case_study_circuit_4q(), code="pcs", checks=2,
                                  coupling=LINE_8), 18),
}

# sha256 of emit_qasm of the compiled circuit, or of the transpiled one: a
# change to the gate order of any compile stage, to the qubit numbering of
# heavy_hex_127 or to the SWAPs routing picks fails here
_PINNED_QASM = {
    "iceberg-qaoa": "19565607b682536f33459032160ce61864636b673403f27da06052ca60b5c757",
    "iceberg-qaoa-rz-first": "b554fc1e9671e8615bb0918cc600c66af46a425492df3c581d1ead6470fa8143",
    "iceberg-qaoa-heavyhex": "41b2fdb53c0892c6942cc47ead2194066a8284340d8d4ed6cb342005b5f24e2d",
    "pcs-case-study-heavyhex": "7c77fcd6689cc7eabf24e9279a62456195741baa20bfb6f54b1c8c7173940189",
    "pcs-case-study-line8": "079f1cf9c15ca5481c2eef8f5a3e2a0a7326ed26ed5925224349ed42ee611f99",
    "transpile-pcs-default": "e0ec8ea38e4bb719e66f73fa9864d29096530c828f7980d5ae9da808e8e117a1",
    "transpile-iceberg-logical": "23f150329b9bbd05eb7c7fd8d44a934e6c09329cd84aaff7bfae97e0f454d128",
}

_ICEBERG_QAOA_META = {"code": "iceberg", "k": 6, "cycles": 2}
_CASE_STUDY_META = {
    "code": "pcs",
    "checks": [{"left": "+XIIZ", "right": "+YZYZ", "sign": 1, "ancilla": 4},
               {"left": "+IXZI", "right": "+XYZX", "sign": 1, "ancilla": 5}],
    "payload": [0, 10], "payload_qubits": [0, 1, 2, 3], "payload_span": [6, 16],
    "cregs": [["c", 4], ["anc", 2]],
}


def _meta(code, code_meta, layout, swap_count, depth):
    return {"code": code, "meta": code_meta, "swap_count": swap_count, "depth": depth,
            "layout": layout, "version": "0.1.0"}


# CompilationMeta.to_dict() of each compile, as JSON reads it back
_PINNED_META = {
    "iceberg-qaoa": _meta("iceberg", _ICEBERG_QAOA_META, None, 0, 42),
    "iceberg-qaoa-rz-first": _meta("iceberg", _ICEBERG_QAOA_META, None, 0, 58),
    "iceberg-qaoa-heavyhex": _meta("iceberg", _ICEBERG_QAOA_META,
                                   {"map": [0, 2, 3, 4, 14, 15, 16, 17, 1, 29], "score": 119}, 207, 156),
    "pcs-case-study-heavyhex": _meta("pcs", _CASE_STUDY_META, {"map": [0, 14, 15, 1, 2, 29], "score": 16},
                                     25, 29),
    "pcs-case-study-line8": _meta("pcs", _CASE_STUDY_META, {"map": [0, 4, 5, 1, 2, 3], "score": 16}, 18, 31),
}


def _compiled(name):
    kwargs, _ = _COMPILES[name]
    return compile_circuit(**kwargs)


@pytest.mark.parametrize("name", list(_COMPILES))
def test_compiles_are_pinned(name):
    compiled, meta = _compiled(name)
    assert meta.swap_count == _COMPILES[name][1]
    assert hashlib.sha256(emit_qasm(compiled).encode()).hexdigest() == _PINNED_QASM[name]
    assert json.loads(json.dumps(meta.to_dict())) == _PINNED_META[name]


@pytest.mark.parametrize("target", ["pcs-default", "iceberg-logical"])
def test_transpiles_are_pinned(target):
    text = emit_qasm(transpile_to_gateset(_pauli_rotations_4q(), target))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_QASM["transpile-" + target]


_OVERHEAD = {"pcs": 2, "iceberg": 4}
# select_code(...).to_dict() on each benchmark workload's input
_PINNED_CHOICES = {
    "iceberg_qaoa": {"code": "ICEBERG", "rationale": {
        "clifford_fraction": 0.2, "two_qubit_pauli_rotation_fraction": 0.4, "qubit_overhead_estimate": _OVERHEAD}},
    "pcs_heavyhex": {"code": "PCS", "rationale": {
        "clifford_fraction": 1.0, "two_qubit_pauli_rotation_fraction": 0.0, "qubit_overhead_estimate": _OVERHEAD}},
    "pcs_wide": {"code": "PCS", "rationale": {
        "clifford_fraction": 1.0, "two_qubit_pauli_rotation_fraction": 0.0, "qubit_overhead_estimate": _OVERHEAD}},
}


@pytest.mark.parametrize("name", list(_PINNED_CHOICES))
def test_workload_code_choices_are_pinned(name):
    assert select_code(parse_qasm(WORKLOADS[name].qasm())).to_dict() == _PINNED_CHOICES[name]


@pytest.mark.parametrize("decl", ["creg anc[1];", "qreg anc_q[1];", "qreg anc[1];"])
@pytest.mark.parametrize("code", ["pcs", "auto"])
def test_pcs_refuses_the_ancilla_register_names(decl, code):
    # the check ancillas' registers are always anc_q and anc
    circ = parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{decl}\nh q[0];\ncx q[0],q[1];\n")
    with pytest.raises(CompileError, match=r"register name 'anc(_q)?' is reserved") as info:
        compile_circuit(circ, code=code)
    assert info.value.reason == "compile"


def test_auto_iceberg_compile_transpiles_once(monkeypatch):
    targets = []

    def counted(circ, target):
        targets.append(target)
        return transpile_to_gateset(circ, target)

    monkeypatch.setattr(qedc.analysis, "transpile_to_gateset", counted)
    monkeypatch.setattr(qedc.iceberg, "transpile_to_gateset", counted)
    _, meta = compile_circuit(_qaoa6(), code="auto", checks=2)
    assert meta.code == "iceberg"
    assert targets == ["iceberg-logical"]


@pytest.mark.parametrize("name", list(_COMPILES))
def test_z_draws_never_flip_a_detector(name):
    # a Z drawn at the start or after a measurement or reset stabilizes the
    # reference state, so it must leave every detector's parity alone
    compiled, meta = _compiled(name)
    insts = [i for i in compiled.instructions if i.name != "barrier"]
    nc = compiled.num_clbits
    draws = simulator._signatures(insts, compiled.num_qubits, nc, [False] * len(insts))[1]
    bits = np.unpackbits(draws.view(np.uint8), axis=1, count=nc, bitorder="little")
    assert draws.any()  # the draws do flip records, just never a detector's parity
    for clbits, _ in detectors(meta.code_meta, compiled.cregs):
        assert not (bits[:, list(clbits)].sum(axis=1) % 2).any()
