import dataclasses
import math
import random

import numpy as np
import pytest

import qedc.pcs
from qedc.analysis import Region, largest_clifford_region
from qedc.circuit import Circuit
from qedc.pauli import PauliString, single_qubit_pauli
from qedc.pcs import (
    CheckPair,
    PcsError,
    PcsMeta,
    _candidate_rows,
    _column,
    insert_pcs,
    synthesize_checks,
)
from qedc.postprocess import normalize_counts, postselect_counts, tvd
from qedc.simulator import deterministic_distribution, ideal_distribution, sample
from qedc.stabilizer import stabilizer_run

from oracles import (
    circuit_unitary,
    conj_named,
    pauli_matrix,
    sorted_candidate_lefts,
    tableau_check_choice,
)

PHASES = [1, 1j, -1, -1j]


def clifford_payload(rng, n, depth):
    c = Circuit()
    c.add_qreg("q", n)
    pool = ["h", "s", "sdg", "x", "z"]
    if n >= 2:
        pool += ["cx", "cz", "swap"]
    for _ in range(depth):
        g = rng.choice(pool)
        if g in ("cx", "cz", "swap"):
            c.append(g, tuple(rng.sample(range(n), 2)))
        else:
            c.append(g, (rng.randrange(n),))
    return c


def test_right_check_is_conjugated_left():
    # R = U L U^dag as dense matrices, including the split sign
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randrange(1, 4)
        payload = clifford_payload(rng, n, rng.randrange(1, 10))
        checks = synthesize_checks(payload.instructions, tuple(range(n)), 1)
        (c,) = checks
        u = circuit_unitary(payload.instructions, n)
        left = pauli_matrix(c.left.to_label())
        right = c.sign * pauli_matrix(c.right.to_label())
        assert np.allclose(u @ left @ u.conj().T, right, atol=1e-9)


def test_sign_minus_one_example():
    # S payload with L = Y: S Y Sdg = -X, so the expected ancilla bit is 1
    payload = Circuit()
    payload.add_qreg("q", 1)
    payload.append("s", (0,))
    tabchecks = synthesize_checks(payload.instructions, (0,), 3)
    y = PauliString.from_label("Y")
    match = [c for c in tabchecks if c.left == y]
    if not match:
        from qedc.clifford import conjugate, tableau_from_circuit
        tab = tableau_from_circuit(payload.instructions, 1)
        r = conjugate(tab, y)
        match = [CheckPair(y, r.bare(), r.sign)]
    (c,) = match[:1]
    assert c.right == PauliString.from_label("X").bare()
    assert c.sign == -1
    assert c.expected_bit == 1


def test_sign_minus_one_postselects_everything():
    circ = Circuit()
    circ.add_qreg("q", 1)
    circ.add_creg("c", 1)
    circ.append("s", (0,))
    circ.append("measure", (0,), clbits=(0,))
    region = Region(0, 1, frozenset({0}), 0, True)
    y = PauliString.from_label("Y")
    from qedc.clifford import conjugate, tableau_from_circuit
    tab = tableau_from_circuit([circ.instructions[0]], 1)
    r = conjugate(tab, y)
    checks = [CheckPair(y, r.bare(), r.sign)]
    sand, meta = insert_pcs(circ, region, checks)
    assert meta.expected_ancilla_bits == "1"
    counts = sample(sand, shots=2000, seed=0)
    report = postselect_counts(counts, meta, sand.cregs)
    assert report.keep_rate == 1.0


def test_noiseless_sandwich_preserves_distribution():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randrange(2, 4)
        circ = clifford_payload(rng, n, rng.randrange(2, 8))
        circ.add_creg("c", n)
        for q in range(n):
            circ.append("measure", (q,), clbits=(q,))
        region = largest_clifford_region(circ)
        checks = synthesize_checks(
            circ.instructions[region.start:region.end], region.qubits,
            rng.randrange(1, 3))
        sand, meta = insert_pcs(circ, region, checks)
        ideal = ideal_distribution(circ)
        dist = deterministic_distribution(sand)
        report_counts = {}
        expected = meta.expected_ancilla_bits
        kept = 0.0
        for key, p in dist.items():
            anc, rest = key.split(" ", 1)
            if anc == expected:
                report_counts[rest] = report_counts.get(rest, 0.0) + p
                kept += p
        assert kept == pytest.approx(1.0, abs=1e-9)
        assert tvd(report_counts, ideal) < 1e-9


def test_detection_flags_exactly_the_anticommuting_faults():
    # inject every single-qubit Pauli at every payload boundary; the ancilla
    # pattern must deviate iff the propagated error anticommutes with a right
    # check (stabilizer simulation as the oracle)
    rng = random.Random(23)
    circ = clifford_payload(rng, 3, 6)
    circ.add_creg("c", 3)
    for q in range(3):
        circ.append("measure", (q,), clbits=(q,))
    region = largest_clifford_region(circ)
    checks = synthesize_checks(
        circ.instructions[region.start:region.end], region.qubits, 2)
    sand, meta = insert_pcs(circ, region, checks)
    start, end = meta.payload_span
    n = sand.num_qubits
    anc_reg = sand.creg_by_name(meta.ancilla_register)

    from qedc.clifford import clifford_gate_sequence
    local_of = {g: i for i, g in enumerate(meta.payload_qubits)}
    for boundary in range(start, end + 1):
        for q in meta.payload_qubits:
            for kind in "XYZ":
                err = single_qubit_pauli(n, q, kind)
                records, _ = stabilizer_run(sand, injected=err, inject_before=boundary, seed=1)
                anc_bits = {r.clbit: r.outcome for r in records
                            if anc_reg.start <= (r.clbit or -1) < anc_reg.start + anc_reg.size}
                flagged = any(
                    anc_bits[anc_reg.start + i] != meta.check_pairs[i].expected_bit
                    for i in range(len(meta.check_pairs)))
                # oracle: propagate through the rest of the payload, compare with rights
                local_err = single_qubit_pauli(len(meta.payload_qubits), local_of[q], kind)
                rest = [inst for inst in sand.instructions[boundary:end]]
                p = local_err
                for inst in rest:
                    loc = dataclasses.replace(inst, qubits=tuple(local_of[x] for x in inst.qubits))
                    for nm, qs in clifford_gate_sequence(loc):
                        p = conj_named(p, nm, qs)
                predicted = any(not p.commutes_with(c.right) for c in meta.check_pairs)
                assert flagged == predicted


@pytest.fixture(params=["float32", "float64"])
def scoring(request, monkeypatch):
    """Score coverage in float32, as every payload here allows, or in the
    float64 a payload of total weight 2**24 and above gets."""
    if request.param == "float64":
        monkeypatch.setattr(qedc.pcs, "FLOAT32_EXACT_WEIGHT", 0)
    return request.param


_NAMED_1Q = ["h", "s", "sdg", "x", "y", "z"]
_NAMED_2Q = ["cx", "cz", "swap"]
_ROTATIONS_1Q = ["rz", "rx", "ry"]
_ROTATIONS_2Q = ["rzz", "rxx", "ryy"]


def test_greedy_checks_match_the_suffix_tableau_reference(scoring):
    # every named gate and half-pi rotation, on payload qubits spread over a
    # wider register so that the payload is localized
    rng = random.Random(2718)
    for _ in range(240):
        k = rng.randrange(1, 7)
        c = Circuit()
        c.add_qreg("q", k + rng.randrange(3))
        qubits = sorted(rng.sample(range(c.num_qubits), k))
        pool = _NAMED_1Q + _ROTATIONS_1Q + (_NAMED_2Q + _ROTATIONS_2Q if k > 1 else [])
        for _ in range(rng.randrange(25)):
            g = rng.choice(pool)
            two = g in _NAMED_2Q + _ROTATIONS_2Q
            params = (rng.choice([-1, 1, 2, 3]) * math.pi / 2,) if g[0] == "r" else ()
            c.append(g, tuple(rng.sample(qubits, 2 if two else 1)), params)
        m = rng.randrange(1, 5 if k > 1 else 4)
        got = synthesize_checks(c.instructions, qubits, m)
        assert got == tableau_check_choice(c.instructions, qubits, m)


def test_greedy_checks_match_the_reference_across_segments(scoring):
    # up to 9 payload qubits, a few of them busy and the rest idle for long
    # runs or never touched, with barriers and instructions whose gate
    # sequence is empty, so each qubit's rows run in long and uneven segments
    rng = random.Random(9029)
    for _ in range(60):
        k = rng.randrange(1, 10)
        c = Circuit()
        c.add_qreg("q", k + rng.randrange(3))
        qubits = sorted(rng.sample(range(c.num_qubits), k))
        busy = rng.sample(qubits, rng.randrange(1, min(k, 3) + 1))
        for _ in range(rng.randrange(1, 30)):
            on = busy if rng.random() < 0.85 else qubits
            roll = rng.random()
            if roll < 0.1:
                c.append("barrier", tuple(rng.sample(qubits, rng.randrange(1, k + 1))))
            elif roll < 0.2:
                if len(on) > 1 and rng.random() < 0.5:
                    c.append("rzz", tuple(rng.sample(on, 2)), (0.0,))
                else:
                    c.append("rz", (rng.choice(on),), (0.0,))
            elif len(on) > 1 and roll < 0.5:
                c.append(rng.choice(_NAMED_2Q), tuple(rng.sample(on, 2)))
            else:
                c.append(rng.choice(_NAMED_1Q), (rng.choice(on),))
        m = rng.randrange(1, 6 if k > 1 else 4)
        got = synthesize_checks(c.instructions, qubits, m)
        assert got == tableau_check_choice(c.instructions, qubits, m)


# pcs_wide's payload, the benchmark's fixed 16-qubit circuit (its measurements
# left out), and the four checks picked for it before coverage was scored per
# segment; the reference is too slow for it (1,128 candidates against 1,536
# faults)
def _pcs_wide_payload():
    rng = random.Random("pcs_wide")
    c = Circuit()
    c.add_qreg("q", 16)
    for _ in range(4):
        qs = rng.sample(range(16), 11)
        for i in range(3):
            c.append(rng.choice(("cx", "cz")), (qs[2 * i], qs[2 * i + 1]))
        for q in qs[6:]:
            c.append(rng.choice(("h", "s", "sdg")), (q,))
    return c


_PCS_WIDE_CHECKS = [
    ("+IIIIXIIIXIIIIIII", "+ZIIIXIXXYIZIZIIY", 1),
    ("+IXIIIIIIIIIIXIII", "+IXIZZZXXIIIIXXII", 1),
    ("+IIIIIXYIIIIIIIII", "+YZIIZYYIZIIIZIII", 1),
    ("+IIIIIIIIIIIXIIXI", "+IIIIIIIIIIIZIIYI", -1),
]


def test_pcs_wide_checks_are_pinned(scoring):
    checks = synthesize_checks(_pcs_wide_payload().instructions, range(16), 4)
    assert [(c.left.to_label(), c.right.to_label(), c.sign) for c in checks] == _PCS_WIDE_CHECKS


def test_candidate_rows_are_the_lefts_in_label_order():
    for k in range(1, 13):
        x, z, count = _candidate_rows(k)
        want = sorted_candidate_lefts(k)
        assert len(x) == len(z) == k and count == len(want)
        assert all(row >> count == 0 for row in x + z)
        assert [PauliString(k, _column(x, j), _column(z, j)) for j in range(count)] == want


def test_synthesis_errors():
    payload = Circuit()
    payload.add_qreg("q", 2)
    payload.append("t", (0,))
    with pytest.raises(PcsError):
        synthesize_checks(payload.instructions, (0, 1), 1)
    ok = Circuit()
    ok.add_qreg("q", 2)
    ok.append("cx", (0, 1))
    with pytest.raises(PcsError):
        synthesize_checks(ok.instructions, (0, 1), 0)
    # a gate on a qubit outside payload_qubits names it; barriers are skipped
    wide = Circuit()
    wide.add_qreg("q", 5)
    wide.append("barrier", (0, 4))
    wide.append("cx", (0, 3))
    wide.append("h", (2,))
    with pytest.raises(PcsError, match=r"qubits \[2, 3\] outside payload_qubits"):
        synthesize_checks(wide.instructions, (0, 1), 1)
    assert synthesize_checks(wide.instructions[:1], (0, 1), 1) == synthesize_checks([], (0, 1), 1)


def test_meta_roundtrip():
    payload = Circuit()
    payload.add_qreg("q", 2)
    payload.append("cx", (0, 1))
    checks = synthesize_checks(payload.instructions, (0, 1), 2)
    circ = payload.copy()
    region = Region(0, 1, frozenset({0, 1}), 1, True)
    sand, meta = insert_pcs(circ, region, checks)
    assert PcsMeta.from_dict(meta.to_dict()).to_dict() == meta.to_dict()


def test_expected_bits_come_from_the_signs():
    z = PauliString.from_label("Z")
    meta = PcsMeta([CheckPair(z, z, -1, 1), CheckPair(z, z, 1, 2), CheckPair(z, z, -1, 3)], (0, 1), (0,))
    assert meta.expected_ancilla_bits == "101"  # counts-key order: check 2 leftmost
    assert meta.ancilla_register == "anc"
    assert not {"ancilla_register", "expected_ancilla_bits"} & set(meta.to_dict())
    # a file of an older version carries both; its bits must agree with the signs
    old = {**meta.to_dict(), "ancilla_register": "anc", "expected_ancilla_bits": "101"}
    assert PcsMeta.from_dict(old) == meta
    with pytest.raises(ValueError, match="disagree with the checks' signs"):
        PcsMeta.from_dict({**old, "expected_ancilla_bits": "100"})


def test_meta_records_the_output_registers():
    payload = Circuit()
    payload.add_qreg("q", 2)
    payload.add_creg("c", 2)
    payload.append("cx", (0, 1))
    checks = synthesize_checks(payload.instructions, (0, 1), 2)
    sand, meta = insert_pcs(payload.copy(), Region(0, 1, frozenset({0, 1}), 1, True), checks)
    assert meta.cregs() == sand.cregs
    assert meta.to_dict()["cregs"] == [["c", 2], ["anc", 2]]
    # metadata written before the registers were recorded still loads
    old = meta.to_dict()
    del old["cregs"]
    assert PcsMeta.from_dict(old).cregs() is None


@pytest.mark.parametrize("field, bad", [
    ("expected_ancilla_bits", "2"), ("expected_ancilla_bits", "0"), ("expected_ancilla_bits", "012"),
    ("expected_ancilla_bits", "0a"), ("expected_ancilla_bits", 10), ("cregs", [["c", 0]]),
    ("cregs", [["c", "2"]]), ("cregs", [[3, 2]]), ("cregs", [["c", 2, 1]]),
    ("sign", 0), ("sign", 2), ("sign", "-1"), ("sign", 1.0),
])
def test_meta_from_dict_rejects_bad_bits_and_registers(field, bad):
    payload = Circuit()
    payload.add_qreg("q", 2)
    payload.append("cx", (0, 1))
    checks = synthesize_checks(payload.instructions, (0, 1), 2)
    _, meta = insert_pcs(payload.copy(), Region(0, 1, frozenset({0, 1}), 1, True), checks)
    d = meta.to_dict()
    if field == "sign":
        d["checks"][1][field] = bad
    else:
        d[field] = bad
    with pytest.raises(ValueError):
        PcsMeta.from_dict(d)
