import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qedc.circuit import Circuit, GATE_SPECS, Instruction
from qedc.qasm import QasmError, emit_qasm, parse_qasm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from qasm_differential import mutate  # noqa: E402

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_parse_bell():
    c = parse_qasm(HEADER + "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n")
    names = [i.name for i in c.instructions]
    assert names == ["h", "cx", "measure", "measure"]
    assert c.num_qubits == 2 and c.num_clbits == 2


def test_parameter_expressions():
    c = parse_qasm(HEADER + "qreg q[1];\nrz(pi/2) q[0];\nrx(-pi) q[0];\nry(2*pi/3) q[0];\nrz(0.25) q[0];\n")
    params = [i.params[0] for i in c.instructions]
    assert params == pytest.approx([math.pi / 2, -math.pi, 2 * math.pi / 3, 0.25])


def test_register_broadcast():
    c = parse_qasm(HEADER + "qreg q[3];\nh q;\n")
    assert [i.qubits for i in c.instructions] == [(0,), (1,), (2,)]


def test_u_sugar_expands():
    c = parse_qasm(HEADER + "qreg q[1];\nu3(0.1,0.2,0.3) q[0];\nu1(0.5) q[0];\n")
    assert all(i.name in ("rz", "rx") for i in c.instructions)


# (source after HEADER, or a whole text as a 1-tuple; code, line, col): one
# row per place the parser raises
ERROR_CASES = [
    # a character that starts no token is reported ahead of an earlier error
    ("qreg q[2];\nbad q[0];\nh q[0] @;\n", "syntax", 5, 8),
    ("qreg q[2]\nh q[0];\n", "syntax", 4, 1),
    ("qreg q[", "syntax", 3, 7),
    (('include "a\nb"',), "syntax", 1, 9),
    (("OPENQASM 2.0\nqreg q[1];\n",), "syntax", 2, 1),
    (('include "qelib1.inc"\nqreg q[1];\n',), "syntax", 2, 1),
    ("qreg q[1.5];\n", "syntax", 3, 8),
    ("qreg q[2];\nqreg q[1];\n", "duplicate-register", 4, 6),
    ("qreg q[2];\ncreg q[1];\n", "duplicate-register", 4, 6),
    ("qreg q[2];\nbad q[0];\n", "unknown-gate", 4, 1),
    ("qreg q[1];\ncreg c[1];\nmeasure(0) q[0] -> c[0];\n", "syntax", 5, 8),
    ("qreg q[1];\nrz(pi/) q[0];\n", "syntax", 4, 7),
    ("qreg q[1];\nrz(1 2) q[0];\n", "syntax", 4, 6),
    ("h q[0];\n", "unknown-register", 3, 3),
    ("qreg q[2];\nh q[0\n;\n", "syntax", 5, 1),
    ("qreg q[2];\nh q[5];\n", "out-of-bounds", 4, 5),
    ("qreg q[2];\nh q[1.5];\n", "syntax", 4, 5),
    ("qreg q[1];\ncreg c[1];\nmeasure q[0.5] -> c[0];\n", "syntax", 5, 11),
    ("qreg q[2];\ncx q[0] -> q[1];\n", "syntax", 4, 9),
    ("qreg q[1];\ncreg c[1];\nmeasure q[0], c[0];\n", "syntax", 5, 13),
    ("qreg q[1];\ncreg c[1];\nmeasure q -> c[0];\n", "syntax", 5, 9),
    ("qreg q[2];\ncreg c[1];\nmeasure q -> c;\n", "out-of-bounds", 5, 14),
    ("qreg q[2];\nrz q[0];\n", "bad-params", 4, 1),
    ("qreg q[2];\nu3(1) q[0];\n", "bad-params", 4, 1),
    ("qreg q[1];\nrz(1/0) q[0];\n", "bad-params", 4, 1),
    ("qreg q[1];\nrz(1e400) q[0];\n", "bad-params", 4, 1),
    ("qreg q[1];\nrz(" + "(" * 5000 + "1" + ")" * 5000 + ") q[0];\n", "bad-params", 4, 1),
    ("qreg q[1];\nrz(" + "-" * 5000 + "1) q[0];\n", "bad-params", 4, 1),
    # a value error waits for the rest of the text to parse
    ("qreg q[1];\nrz(1e400) q[0];\nbad q[0];\n", "unknown-gate", 5, 1),
    ("qreg q[2];\ncx q[0];\n", "bad-arity", 4, 1),
    ("qreg q[2];\ncx q,q[1];\n", "syntax", 4, 1),
    ("qreg q[2];\ncx q[0],q[0];\n", "duplicate-qubit", 4, 1),
    ("qreg q[2];\ncx q[0],\n  q[7];\n", "out-of-bounds", 5, 5),
    ("qreg q[2]; // two qubits\n// h q[9];\nh q[2];\n", "out-of-bounds", 5, 5),
    # statements in emit_qasm's spacing that it would not write
    ("qreg q[2];\ncreg c[2];\nrz(1.5.2) q[0];\n", "syntax", 5, 7),
    ("qreg q[2];\ncreg c[2];\nrz(1e999) q[0];\nh q[1];\nbad q[0];\n", "unknown-gate", 7, 1),
    ("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[5];\n", "out-of-bounds", 5, 19),
    ("qreg q[2];\ncreg c[2];\nmeasure q[0] -> q[0];\n", "unknown-register", 5, 17),
    ("qreg q[2];\ncreg c[2];\ncx q[0],c[0];\n", "unknown-register", 5, 9),
    ("qreg q[2];\ncreg c[2];\nh c[0];\n", "unknown-register", 5, 3),
    ("qreg q[2];\ncreg c[2];\nrz(0.1,0.2) q[0];\n", "bad-params", 5, 1),
    ("qreg q[2];\ncreg c[2];\ncx(0.5) q[0],q[1];\n", "bad-params", 5, 1),
    ("qreg q[2];\ncreg c[2];\nh q[0],q[1];\n", "bad-arity", 5, 1),
    ("qreg q[2];\ncreg c[2];\ncx q[1],q[1];\n", "duplicate-qubit", 5, 1),
]


def test_error_codes_and_locations():
    for source, code, line, col in ERROR_CASES:
        text = source[0] if isinstance(source, tuple) else HEADER + source
        with pytest.raises(QasmError) as exc:
            parse_qasm(text)
        assert (exc.value.code, exc.value.line, exc.value.col) == (code, line, col), text


def test_barrier_sugar_and_reset_in_emitter_spacing():
    c = parse_qasm(HEADER + "qreg q[2];\ncreg c[2];\nbarrier q[0],q[1];\nu1(0.5) q[0];\nreset q[0];\n")
    assert c.instructions == [Instruction("barrier", (0, 1)), Instruction("rz", (0,), (0.5,)),
                              Instruction("reset", (0,))]


def _workload_shaped() -> list[str]:
    """A small ring QAOA as the benchmark writes its inputs, and a compiled
    circuit as emit_qasm writes it: two of each register, every gate form."""
    ring = HEADER + "qreg q[3];\ncreg c[3];\n" + "".join(
        f"h q[{i}];\nrzz(0.7) q[{i}],q[{(i + 1) % 3}];\nrx(0.6) q[{i}];\n" for i in range(3)
    ) + "".join(f"measure q[{i}] -> c[{i}];\n" for i in range(3))
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_qreg("anc_q", 2)
    c.add_creg("c", 3)
    c.add_creg("anc", 2)
    for name, qubits, params in [("h", (3,), ()), ("cx", (3, 0), ()), ("rz", (1,), (-math.pi / 2,)),
                                 ("cz", (1, 4), ()), ("swap", (0, 2), ()), ("rxx", (2, 4), (1e-05,)),
                                 ("sdg", (2,), ()), ("barrier", (0, 1, 2), ()), ("reset", (4,), ())]:
        c.append(name, qubits, params)
    for q in range(5):
        c.append("measure", (q,), clbits=(q,))
    return [ring, emit_qasm(c)]


def _outcome(text: str):
    try:
        return parse_qasm(text)
    except QasmError as exc:
        return exc.code, exc.line, exc.col


def test_statements_in_emitter_form_parse_as_the_general_path_does():
    # a comment before each newline sends every later statement through the
    # general path, and moves no earlier line or column
    rng = random.Random(2021)
    for base in _workload_shaped():
        for text in [base] + [mutate(base, rng) for _ in range(1000)]:
            assert _outcome(text) == _outcome(text.replace("\n", " //\n")), text


def test_blanks_and_comments_do_not_change_the_circuit():
    plain = HEADER + (
        "qreg q[3];\ncreg c[3];\nrz(-pi/2*(1+2)) q[1];\ncx q[0],q[2];\nbarrier q;\n"
        "measure q -> c;\n"
    )
    spaced = (
        "// header\n  OPENQASM  2.0 ;\ninclude\t\"qelib1.inc\" ; // ignored\n"
        "qreg\nq [ 3 ] ;creg c[3];\n"
        "rz ( - pi / 2 // half turn\n * ( 1 + 2 ) ) q [1] ;\n"
        "cx q[0] ,\n\n q[2];barrier // all\n q ;\n"
        "measure q\n->\nc // last\n;\n// end"
    )
    assert parse_qasm(spaced) == parse_qasm(plain)


def test_emit_contains_header_and_measure_arrow():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("rz", (0,), (0.1,))
    c.append("measure", (1,), clbits=(0,))
    text = emit_qasm(c)
    assert text.startswith("OPENQASM 2.0;")
    assert 'include "qelib1.inc";' in text
    assert "measure q[1] -> c[0];" in text


def test_roundtrip_preserves_circuit():
    src = HEADER + (
        "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nrzz(0.7) q[1],q[2];\n"
        "barrier q[0],q[1],q[2];\nreset q[2];\nmeasure q[0] -> c[0];\n"
    )
    c1 = parse_qasm(src)
    c2 = parse_qasm(emit_qasm(c1))
    assert c1 == c2


GATE_NAMES = [n for n in GATE_SPECS if n not in ("barrier",)]


@st.composite
def circuits(draw):
    nq = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 4))
    c = Circuit()
    c.add_qreg("q", nq)
    c.add_creg("c", nc)
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from(GATE_NAMES))
        arity, nparams, nclb = GATE_SPECS[name]
        if arity == 2 and nq < 2:
            continue
        qubits = tuple(draw(st.permutations(range(nq)))[:arity])
        params = tuple(
            draw(st.floats(-10, 10, allow_nan=False, allow_infinity=False))
            for _ in range(nparams)
        )
        clbits = (draw(st.integers(0, nc - 1)),) if nclb else ()
        c.append(name, qubits, params, clbits)
    return c


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_roundtrip_random_circuits(c):
    assert parse_qasm(emit_qasm(c)) == c
