import math
import random

import numpy as np
import pytest

from qedc.analysis import (
    CLIFFORD_MIN,
    GATESETS,
    NoProtectableRegionError,
    TranspileError,
    find_clifford_regions,
    iceberg_obstacle,
    interaction_graph,
    largest_clifford_region,
    select_code,
    transpile_to_gateset,
)
from qedc.circuit import Circuit
from qedc.pipeline import CompileError, compile_circuit
from qedc.qasm import parse_qasm

from oracles import circuit_unitary


def random_circuit(rng, n, depth, gate_pool):
    c = Circuit()
    c.add_qreg("q", n)
    two_q = ("cx", "cz", "swap", "rzz", "rxx", "ryy")
    pool = gate_pool if n >= 2 else [g for g in gate_pool if g not in two_q]
    for _ in range(depth):
        g = rng.choice(pool)
        if g in two_q:
            qubits = tuple(rng.sample(range(n), 2))
        else:
            qubits = (rng.randrange(n),)
        params = (rng.uniform(-3, 3),) if g.startswith("r") or g in ("u",) else ()
        c.append(g, qubits, params)
    return c


POOL = ["h", "s", "t", "x", "y", "z", "rz", "rx", "ry", "cx", "cz", "swap", "rzz", "rxx", "ryy"]


@pytest.mark.parametrize("target", ["pcs-default", "iceberg-logical"])
def test_transpile_preserves_unitary(target):
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(1, 5)
        c = random_circuit(rng, n, rng.randrange(1, 10), POOL)
        if target == "iceberg-logical" and any(i.name in ("t", "tdg") for i in c.instructions):
            # t has no continuous-rotation obstacle; it maps to rz
            pass
        out = transpile_to_gateset(c, target)
        assert all(i.name in GATESETS[target] or i.name in ("measure", "barrier")
                   for i in out.instructions)
        u1 = circuit_unitary(c.instructions, n)
        u2 = circuit_unitary(out.instructions, n)
        overlap = abs(np.trace(u1.conj().T @ u2)) / 2 ** n
        assert overlap > 1 - 1e-10, target


def test_transpile_keeps_trailing_measures():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("h", (0,))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (1,), clbits=(1,))
    out = transpile_to_gateset(c, "iceberg-logical")
    assert [i.name for i in out.instructions[-2:]] == ["measure", "measure"]


def test_midcircuit_measure_rejected_for_iceberg():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("measure", (0,), clbits=(0,))
    c.append("h", (0,))
    with pytest.raises(TranspileError):
        transpile_to_gateset(c, "iceberg-logical")


def test_find_clifford_regions_split_by_t():
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("h", (0,))
    c.append("cx", (0, 1))
    c.append("t", (1,))
    c.append("cx", (1, 2))
    c.append("s", (2,))
    regions = find_clifford_regions(c)
    cliff = [(r.start, r.end) for r in regions if r.is_clifford]
    assert (0, 2) in cliff and (3, 5) in cliff


def test_largest_region_prefers_two_qubit_count():
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("h", (0,))
    c.append("s", (0,))
    c.append("h", (1,))  # 3 single-qubit Cliffords
    c.append("t", (0,))
    c.append("cx", (0, 1))
    c.append("cx", (1, 2))  # 2 two-qubit Cliffords
    r = largest_clifford_region(c)
    assert (r.start, r.end) == (4, 6)


def test_no_protectable_region():
    c = Circuit()
    c.add_qreg("q", 1)
    c.append("t", (0,))
    with pytest.raises(NoProtectableRegionError):
        largest_clifford_region(c)


def test_interaction_graph_weights():
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("cx", (0, 1))
    c.append("cx", (1, 0))
    c.append("rzz", (1, 2), (0.5,))
    assert interaction_graph(c) == {(0, 1): 2, (1, 2): 1}


def test_select_code_pcs_for_clifford_heavy():
    c = Circuit()
    c.add_qreg("q", 4)
    for q in range(3):
        c.append("cx", (q, q + 1))
    c.append("h", (0,))
    choice = select_code(c)
    assert choice.code == "PCS"
    assert choice.clifford_fraction == 1.0


def _measure_all(c):
    """Declare c[k] and measure each qubit q into clbit q, the readout the
    Iceberg code decodes into."""
    c.add_creg("c", c.num_qubits)
    for q in range(c.num_qubits):
        c.append("measure", (q,), clbits=(q,))
    return c


def test_select_code_iceberg_for_rotation_heavy():
    c = Circuit()
    c.add_qreg("q", 6)
    for q in range(6):
        c.append("rzz", (q, (q + 1) % 6), (0.7,))
        c.append("rx", (q,), (0.4,))
    assert select_code(_measure_all(c)).code == "ICEBERG"


def test_select_code_none_for_empty_and_odd_rotation():
    c = Circuit()
    c.add_qreg("q", 2)
    assert select_code(c).code == "NONE"
    d = Circuit()
    d.add_qreg("q", 3)  # odd qubit count blocks iceberg
    for q in range(3):
        d.append("rx", (q,), (0.3,))
    assert select_code(d).code == "NONE"


def test_selection_threshold_is_clifford_min():
    c = Circuit()
    c.add_qreg("q", 2)
    c.append("cx", (0, 1))
    c.append("rx", (0,), (0.3,))
    choice = select_code(c)
    assert (choice.clifford_fraction, choice.code) == (CLIFFORD_MIN, "PCS")
    d = Circuit()
    d.add_qreg("q", 2)
    for _ in range(50):
        d.append("cx", (0, 1))
    for _ in range(51):
        d.append("rx", (0,), (0.3,))
    choice = select_code(_measure_all(d))
    assert choice.clifford_fraction == 50 / 101 < CLIFFORD_MIN
    assert choice.code == "ICEBERG"


@pytest.mark.parametrize("cregs, measures, fits", [
    ("", "", False),
    ("creg c[2];", "measure q[0] -> c[0];\nmeasure q[1] -> c[1];", True),
    ("creg c[2];", "measure q[1] -> c[1];\nbarrier q;\nmeasure q[0] -> c[0];", True),
    ("creg c[2];", "measure q[0] -> c[1];\nmeasure q[1] -> c[0];", False),
    ("creg c[2];", "measure q[0] -> c[0];", False),
    ("creg c[2];", "", False),
    ("creg c[3];", "measure q[0] -> c[0];\nmeasure q[1] -> c[1];", False),
    ("creg a[1];\ncreg b[1];", "measure q[0] -> a[0];\nmeasure q[1] -> b[0];", False),
    ("creg c[2];", "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[1] -> c[1];", False),
], ids=["no-clbits", "in-order", "any-order", "swapped", "one-unread", "none-read", "wide-register",
        "two-registers", "read-twice"])
def test_iceberg_obstacle_measurement_map(cregs, measures, fits):
    # the Iceberg readout decodes logical qubit q into clbit q of one k-bit register
    circ = parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{cregs}\nrx(0.3) q[0];\nrzz(0.7) q[0],q[1];\n{measures}\n")
    obstacle = iceberg_obstacle(circ)
    assert (obstacle is None) == fits
    assert fits or obstacle[1] == "compile"
    assert select_code(circ).code == ("ICEBERG" if fits else "NONE")


@pytest.mark.parametrize("qasm, reason, message", [
    ("qreg q[3];\ncreg c[3];\nrx(0.3) q[0];\nmeasure q -> c;", "odd-qubit-count", "must be even"),
    ("qreg q[1];\ncreg c[1];\nrx(0.3) q[0];\nmeasure q -> c;", "odd-qubit-count", "must be even"),
    ("qreg q[2];\ncreg c[2];\nrx(0.3) q[0];\nmeasure q[0] -> c[0];\nrx(0.3) q[0];\nmeasure q -> c;",
     "compile", "mid-circuit measure at instruction 1"),
    ("qreg q[2];\ncreg c[2];\nreset q[1];\nrx(0.3) q[0];\nmeasure q -> c;", "compile", "reset at instruction 0"),
    ("qreg q[2];\ncreg c[2];\nrx(0.3) q[0];\nmeasure q[0] -> c[1];\nmeasure q[1] -> c[0];",
     "compile", "into clbit q"),
], ids=["odd", "too-few", "mid-circuit-measure", "reset", "swapped-map"])
def test_iceberg_obstacle_reason_codes(qasm, reason, message):
    # the reason code, not the message's wording, picks the CLI error
    circ = parse_qasm(f"OPENQASM 2.0;\n{qasm}\n")
    why, code = iceberg_obstacle(circ)
    assert code == reason and message in why
    with pytest.raises(CompileError) as info:
        compile_circuit(circ, code="iceberg")
    assert (info.value.reason, str(info.value)) == (reason, why)


def test_register_less_input_is_not_iceberg():
    # its keys would read k logical bits while the input's ideal distribution reads none
    circ = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nx q[0];\nrx(0.3) q[1];\nrzz(0.2) q[0],q[1];\n")
    with pytest.raises(CompileError) as info:
        compile_circuit(circ, code="iceberg")
    assert info.value.reason == "compile"
    assert select_code(circ).code != "ICEBERG"
    assert compile_circuit(circ, code="auto")[1].code != "iceberg"
