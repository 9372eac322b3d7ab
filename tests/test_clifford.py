import math
import random

import numpy as np
import pytest

from qedc.circuit import Circuit, Instruction
from qedc.clifford import (
    PAULI_AXES,
    clifford_gate_sequence,
    conjugate,
    is_clifford,
    step_signed,
    step_xz,
    tableau_from_circuit,
)
from qedc.pauli import PauliString
from qedc.simulator import gate_matrix

from oracles import circuit_unitary, conj_named, is_symplectic, pauli_matrix

PHASES = [1, 1j, -1, -1j]

CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z"]
CLIFFORD_2Q = ["cx", "cz", "swap"]


def random_clifford_circuit(rng, n, depth):
    c = Circuit()
    c.add_qreg("q", n)
    for _ in range(depth):
        kind = rng.random()
        if kind < 0.45 or n == 1:
            c.append(rng.choice(CLIFFORD_1Q), (rng.randrange(n),))
        elif kind < 0.75:
            a, b = rng.sample(range(n), 2)
            c.append(rng.choice(CLIFFORD_2Q), (a, b))
        else:
            # Clifford-angle rotations exercise the canonicalization path
            name = rng.choice(["rz", "rx", "ry"])
            step = rng.randrange(4)
            c.append(name, (rng.randrange(n),), (step * math.pi / 2,))
    return c


def dense_conjugate(u, label):
    return u @ pauli_matrix(label) @ u.conj().T


def check_tableau_against_dense(circ, n, cases=None):
    tab = tableau_from_circuit(circ.instructions, n)
    u = circuit_unitary(circ.instructions, n)
    rng = np.random.default_rng(7)
    if cases is None:
        cases = [PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), 0)
                 for _ in range(8)]
    for p in cases:
        got = conjugate(tab, p)
        want = dense_conjugate(u, p.to_label())
        got_mat = PHASES[got.phase] * pauli_matrix(got.bare().to_label())
        assert np.allclose(got_mat, want, atol=1e-9), (p.to_label(), got.to_label())


def test_conjugation_matches_dense_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 5)
        circ = random_clifford_circuit(rng, n, rng.randrange(1, 15))
        check_tableau_against_dense(circ, n)


def test_named_gate_rules():
    # textbook images under conjugation
    for name, label, want in [
        ("h", "X", "+Z"), ("h", "Z", "+X"), ("h", "Y", "-Y"),
        ("s", "X", "+Y"), ("s", "Y", "-X"), ("s", "Z", "+Z"),
        ("sdg", "X", "-Y"),
        ("x", "Z", "-Z"), ("z", "X", "-X"), ("y", "X", "-X"),
    ]:
        c = Circuit()
        c.add_qreg("q", 1)
        c.append(name, (0,))
        tab = tableau_from_circuit(c.instructions, 1)
        got = conjugate(tab, PauliString.from_label(label))
        assert got.to_label() == want, (name, label, got.to_label())


def test_conj_named_matches_dense_conjugation():
    # the reference the row kernels are held to, on every signed 1- and
    # 2-qubit Pauli, every named gate and both qubit orders
    gates = [(1, g, (0,)) for g in CLIFFORD_1Q]
    gates += [(2, g, (q,)) for g in CLIFFORD_1Q for q in range(2)]
    gates += [(2, g, qs) for g in CLIFFORD_2Q for qs in ((0, 1), (1, 0))]
    for n, name, qubits in gates:
        u = circuit_unitary([Instruction(name, qubits)], n)
        for x in range(1 << n):
            for z in range(1 << n):
                for phase in (0, 2):
                    p = PauliString(n, x, z, phase)
                    got = conj_named(p, name, qubits)
                    want = dense_conjugate(u, p.bare().to_label()) * PHASES[phase]
                    got_mat = PHASES[got.phase] * pauli_matrix(got.bare().to_label())
                    assert np.allclose(got_mat, want, atol=1e-9), (name, qubits, p.to_label())


def _int_rows(paulis, n):
    """Bit j of x[q] (z[q]) is the X (Z) bit at q of Pauli j."""
    return ([sum((p.x >> q & 1) << j for j, p in enumerate(paulis)) for q in range(n)],
            [sum((p.z >> q & 1) << j for j, p in enumerate(paulis)) for q in range(n)])


def _bool_to_int(rows):
    return [sum(int(b) << j for j, b in enumerate(row)) for row in rows]


def test_step_xz_matches_signed_conjugation_on_int_and_bool_rows():
    rng = random.Random(17)
    for n in range(1, 6):
        paulis = [PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(40)]
        start = _int_rows(paulis, n)
        gates = [(g, (q,)) for g in CLIFFORD_1Q for q in range(n)]
        gates += [(g, (a, b)) for g in CLIFFORD_2Q for a in range(n) for b in range(n) if a != b]
        for name, qubits in gates:
            want = _int_rows([conj_named(p, name, qubits) for p in paulis], n)
            x, z = list(start[0]), list(start[1])
            # bool rows: column j is Pauli j
            bx, bz = ([np.array([r >> j & 1 for j in range(len(paulis))], dtype=bool) for r in rows]
                      for rows in start)
            step_xz(x, z, name, qubits)
            step_xz(bx, bz, name, qubits)
            assert (x, z) == want
            assert (_bool_to_int(bx), _bool_to_int(bz)) == want
            # every map is an involution, which the backward detector sweep uses
            step_xz(x, z, name, qubits)
            step_xz(bx, bz, name, qubits)
            assert (x, z) == start
            assert (_bool_to_int(bx), _bool_to_int(bz)) == start


def test_step_signed_matches_signed_conjugation_on_int_and_bool_rows():
    rng = random.Random(19)
    for n in range(1, 5):
        paulis = [PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.choice((0, 2)))
                  for _ in range(40)]
        start = _int_rows(paulis, n)
        signs = sum((p.phase == 2) << j for j, p in enumerate(paulis))
        gates = [(g, (q,)) for g in CLIFFORD_1Q for q in range(n)]
        gates += [(g, (a, b)) for g in CLIFFORD_2Q for a in range(n) for b in range(n) if a != b]
        for name, qubits in gates:
            images = [conj_named(p, name, qubits) for p in paulis]
            want = _int_rows(images, n), sum((p.phase == 2) << j for j, p in enumerate(images))
            x, z = list(start[0]), list(start[1])
            bx, bz = ([np.array([r >> j & 1 for j in range(len(paulis))], dtype=bool) for r in rows]
                      for rows in start)
            r = step_signed(x, z, signs, name, qubits)
            br = step_signed(bx, bz, np.array([signs >> j & 1 for j in range(len(paulis))],
                                              dtype=bool), name, qubits)
            assert ((x, z), r) == want
            assert ((_bool_to_int(bx), _bool_to_int(bz)), _bool_to_int([br])[0]) == want


def test_cx_rules():
    c = Circuit()
    c.add_qreg("q", 2)
    c.append("cx", (0, 1))  # control qubit 0, target qubit 1
    tab = tableau_from_circuit(c.instructions, 2)
    # label order: leftmost = qubit 1 (target)
    for label, want in [("IX", "+XX"), ("XI", "+XI"), ("IZ", "+IZ"), ("ZI", "+ZZ")]:
        got = conjugate(tab, PauliString.from_label(label))
        assert got.to_label() == want


def test_tableaus_stay_symplectic():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 5)
        circ = random_clifford_circuit(rng, n, 12)
        assert is_symplectic(tableau_from_circuit(circ.instructions, n))


def test_is_symplectic_rejects_a_flipped_x_bit():
    # Flipping the X bit at q of generator g multiplies g by X_q, which
    # changes g's commutation with every generator that has Z at q.  That
    # breaks the relations unless g is the only one (X_q is then g's
    # partner up to sign, and g X_q is a valid replacement for g).
    rng = random.Random(23)
    rejected = 0
    for _ in range(10):
        n = rng.randrange(2, 5)
        circ = random_clifford_circuit(rng, n, 12)
        for q in range(n):
            for g in range(2 * n):
                tab = tableau_from_circuit(circ.instructions, n)
                want = tab.z[q] == 1 << g
                tab.x[q] ^= 1 << g
                assert is_symplectic(tab) == want, (q, g)
                rejected += not want
    assert rejected > 0


def test_is_clifford_classification():
    c = Circuit()
    c.add_qreg("q", 2)
    c.append("rz", (0,), (math.pi / 2,))
    c.append("rz", (0,), (0.3,))
    c.append("t", (0,))
    c.append("cx", (0, 1))
    insts = c.instructions
    assert is_clifford(insts[0])
    assert not is_clifford(insts[1])
    assert not is_clifford(insts[2])
    assert is_clifford(insts[3])


def test_clifford_gate_sequence_preserves_unitary():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(1, 4)
        circ = random_clifford_circuit(rng, n, 8)
        named = []
        for inst in circ.instructions:
            for name, qubits in clifford_gate_sequence(inst):
                named.append((name, qubits))
        seq = [Instruction(nm, qs) for nm, qs in named]
        u1 = circuit_unitary(circ.instructions, n)
        u2 = circuit_unitary(seq, n)
        overlap = abs(np.trace(u1.conj().T @ u2)) / 2 ** n
        assert overlap > 1 - 1e-9


@pytest.mark.parametrize("name, qubits, params", [
    ("t", (0,), ()), ("tdg", (0,), ()), ("rz", (0,), (0.3,)), ("rzz", (0, 1), (0.3,)),
    ("measure", (0,), ()), ("reset", (0,), ()), ("barrier", (0, 1), ()),
])
def test_clifford_gate_sequence_is_none_for_a_non_clifford_instruction(name, qubits, params):
    inst = Instruction(name, qubits, params, (0,) if name == "measure" else ())
    assert clifford_gate_sequence(inst) is None
    assert not is_clifford(inst)


# each rotation at k*pi/2, k = 0..3, as named gates on qubit 1 or on
# qubits (2, 0), written "gate[qubits]"
_PINNED_SEQUENCES = {
    "rz": ["", "s[1]", "z[1]", "sdg[1]"],
    "rx": ["h[1] h[1]", "h[1] s[1] h[1]", "h[1] z[1] h[1]", "h[1] sdg[1] h[1]"],
    "ry": ["sdg[1] h[1] h[1] s[1]", "sdg[1] h[1] s[1] h[1] s[1]", "sdg[1] h[1] z[1] h[1] s[1]",
           "sdg[1] h[1] sdg[1] h[1] s[1]"],
    "rzz": ["", "s[2] s[0] cz[2,0]", "z[2] z[0]", "cz[2,0] sdg[2] sdg[0]"],
    "rxx": ["h[2] h[0] h[2] h[0]", "h[2] h[0] s[2] s[0] cz[2,0] h[2] h[0]",
            "h[2] h[0] z[2] z[0] h[2] h[0]", "h[2] h[0] cz[2,0] sdg[2] sdg[0] h[2] h[0]"],
    "ryy": ["sdg[2] sdg[0] h[2] h[0] h[2] h[0] s[2] s[0]",
            "sdg[2] sdg[0] h[2] h[0] s[2] s[0] cz[2,0] h[2] h[0] s[2] s[0]",
            "sdg[2] sdg[0] h[2] h[0] z[2] z[0] h[2] h[0] s[2] s[0]",
            "sdg[2] sdg[0] h[2] h[0] cz[2,0] sdg[2] sdg[0] h[2] h[0] s[2] s[0]"],
}


@pytest.mark.parametrize("name", sorted(_PINNED_SEQUENCES))
def test_clifford_gate_sequences_are_pinned(name):
    assert sorted(_PINNED_SEQUENCES) == sorted(n for n in PAULI_AXES if n not in ("t", "tdg"))
    qubits = (2, 0) if len(name) == 3 else (1,)
    for k, want in enumerate(_PINNED_SEQUENCES[name]):
        seq = clifford_gate_sequence(Instruction(name, qubits, (k * math.pi / 2,)))
        assert " ".join(f"{g}[{','.join(map(str, qs))}]" for g, qs in seq) == want, k


@pytest.mark.parametrize("name", sorted(PAULI_AXES))
def test_pauli_axes_agree_with_gate_matrices(name):
    """Each rotation is exp(-i theta P / 2) for its PAULI_AXES Pauli P, up
    to a global phase; t and tdg are rz(pi/4) and rz(-pi/4)."""
    x, z = PAULI_AXES[name]
    theta = {"t": math.pi / 4, "tdg": -math.pi / 4}.get(name, 0.37)
    got = gate_matrix(name, () if name in ("t", "tdg") else (theta,))
    p = pauli_matrix("IZXY"[2 * x + z] * (len(got) // 2))
    want = math.cos(theta / 2) * np.eye(len(p)) - 1j * math.sin(theta / 2) * p
    phase = np.vdot(want, got) / np.vdot(want, want)
    assert abs(abs(phase) - 1) < 1e-12 and np.allclose(got, phase * want, rtol=0, atol=1e-12)


def test_conjugate_requires_hermitian():
    c = Circuit()
    c.add_qreg("q", 1)
    c.append("h", (0,))
    tab = tableau_from_circuit(c.instructions, 1)
    with pytest.raises(Exception):
        conjugate(tab, PauliString(1, 1, 0, 1))  # phase i is not Hermitian
