import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from qedc.analysis import transpile_to_gateset
from qedc.circuit import Circuit, Instruction, Register
from qedc.errorprop import propagate_flips
from qedc.iceberg import (
    IcebergError,
    IcebergMeta,
    build_iceberg_circuit,
    decode_readout,
    iceberg_encode_init,
)
from qedc.pauli import PauliString, single_qubit_pauli
from qedc.pipeline import CompileError, compile_circuit
from qedc.postprocess import normalize_counts, postselect_counts_iceberg, tvd
from qedc.qasm import parse_qasm
from qedc.simulator import deterministic_distribution, ideal_distribution, statevector
from qedc.stabilizer import StabilizerState, stabilizer_run


def logical_circuit(rng, k, depth):
    c = Circuit()
    c.add_qreg("q", k)
    c.add_creg("c", k)
    for _ in range(depth):
        g = rng.choice(["rz", "rx", "rzz", "rxx"])
        if g in ("rzz", "rxx"):
            c.append(g, tuple(rng.sample(range(k), 2)), (rng.uniform(-3, 3),))
        else:
            c.append(g, (rng.randrange(k),), (rng.uniform(-3, 3),))
    for q in range(k):
        c.append("measure", (q,), clbits=(q,))
    return c


def test_encode_prepares_ghz_with_clean_verify():
    frag = iceberg_encode_init(2)
    c = Circuit()
    c.add_qreg("d", 4)
    c.add_qreg("anc", 2)
    c.add_creg("v", 1)
    c.instructions = [i for i in frag if i.name not in ("measure", "reset")]
    psi = statevector(c)
    want = np.zeros(2 ** 6, dtype=complex)
    want[0b0000] = want[0b1111] = 1 / math.sqrt(2)  # ancilla returns to |0>
    assert abs(abs(np.vdot(psi, want)) - 1) < 1e-9


def test_encode_rejects_bad_k():
    for k in (0, 1, 3, 5):
        with pytest.raises(IcebergError):
            iceberg_encode_init(k)


def test_decode_rules():
    meta = IcebergMeta(2, 0)
    assert decode_readout("0000", meta) == (True, "00")
    assert decode_readout("0001", meta)[0] is False          # odd parity
    assert decode_readout("1111", meta) == (True, "00")      # X stabilizer image
    # b=1 flips both logical offsets: readout t=0,l1=1,l2=0,b=1 -> parity even
    accept, logical = decode_readout("1010", meta)
    assert accept is True
    with pytest.raises(IcebergError):
        decode_readout("000", meta)


def test_structure_counts_for_qaoa_shape():
    rng = random.Random(1)
    circ = logical_circuit(rng, 6, 12)
    enc, meta = build_iceberg_circuit(circ, cycles=2)
    assert enc.num_qubits == 8 + 2
    names = {r.name: r.size for r in enc.cregs}
    assert names == {"verify": 1, "synd": 4, "meas": 8}
    assert meta == IcebergMeta(6, 2)


def test_build_rejects_odd_or_mismatched():
    c = Circuit()
    c.add_qreg("q", 3)
    with pytest.raises(IcebergError):
        build_iceberg_circuit(c, cycles=0)


MID_CIRCUIT_QASM = [
    "h q[0];\nmeasure q[0] -> c[0];\ncx q[0],q[1];\nmeasure q[1] -> c[1];\n",
    "h q[0];\nreset q[1];\ncx q[0],q[1];\nmeasure q -> c;\n",
]


@pytest.mark.parametrize("body", MID_CIRCUIT_QASM, ids=["measure", "reset"])
def test_build_rejects_mid_circuit_measure_and_reset(body):
    circ = parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n{body}")
    with pytest.raises(IcebergError, match="unsupported"):
        build_iceberg_circuit(circ, cycles=1)
    with pytest.raises(CompileError, match="unsupported") as info:
        compile_circuit(circ, code="iceberg", checks=1)
    assert info.value.reason == "compile"


SWAPPED_MAP_QASM = ("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nx q[0];\n"
                    "measure q[0] -> c[1];\nmeasure q[1] -> c[0];\n")


def test_build_rejects_a_permuted_measurement_map():
    # the readout decodes logical qubit q into clbit q, which would read '01' here
    circ = parse_qasm(SWAPPED_MAP_QASM)
    assert ideal_distribution(circ) == {"10": 1.0}
    with pytest.raises(IcebergError, match="into clbit q"):
        build_iceberg_circuit(circ, cycles=1)
    with pytest.raises(CompileError, match="into clbit q") as info:
        compile_circuit(circ, code="iceberg", checks=1)
    assert info.value.reason == "compile"


def test_noiseless_logical_equivalence():
    rng = random.Random(31)
    for _ in range(6):
        k = rng.choice([2, 4])
        circ = logical_circuit(rng, k, rng.randrange(1, 12))
        cycles = rng.randrange(0, 3)
        enc, meta = build_iceberg_circuit(circ, cycles=cycles)
        dist = deterministic_distribution(enc)
        ideal = ideal_distribution(circ)
        kept = {}
        total_kept = 0.0
        for key, p in dist.items():
            parts = key.split(" ")
            groups = {r.name: parts[i] for i, r in enumerate(reversed(enc.cregs))}
            if int(groups["verify"], 2) != 0:
                continue
            if cycles and int(groups["synd"], 2) != 0:
                continue
            accept, logical = decode_readout(groups["meas"], meta)
            if not accept:
                continue
            kept[logical] = kept.get(logical, 0.0) + p
            total_kept += p
        assert total_kept == pytest.approx(1.0, abs=1e-9)
        assert tvd(kept, ideal) < 1e-9


def _postselected(enc, meta):
    """The noiseless logical distribution of an encoded circuit, postselected
    on its verify, syndrome and readout-parity checks, and the kept mass."""
    kept = {}
    for key, p in deterministic_distribution(enc).items():
        parts = key.split(" ")
        groups = {r.name: parts[i] for i, r in enumerate(reversed(enc.cregs))}
        if "1" in groups["verify"] + groups.get("synd", ""):
            continue
        accept, logical = decode_readout(groups["meas"], meta)
        if accept:
            kept[logical] = kept.get(logical, 0.0) + p
    return kept, sum(kept.values())


_GATES = ["h", "x", "s", "rz", "rx", "ry", "rzz", "rxx", "ryy", "cx", "cz"]


def _gate(draw, name, qubits):
    q = tuple(draw(st.permutations(qubits))[:2 if name in ("rzz", "rxx", "ryy", "cx", "cz") else 1])
    params = (draw(st.floats(-3, 3)),) if name.startswith("r") else ()
    return Instruction(name, q, params)


@st.composite
def _encodable_inputs(draw):
    """A measure-all input on k in {2, 4, 6} qubits, and whether h is the
    first instruction on every qubit.  Each qubit's opening h lands anywhere
    before the body's first gate on it; an input without the all-h layer puts
    one more gate other than h in front, so its qubit meets its h later."""
    k = draw(st.sampled_from([2, 4, 6]))
    body = [_gate(draw, name, range(k)) for name in draw(st.lists(st.sampled_from(_GATES), max_size=10))]
    first = [next((i for i, inst in enumerate(body) if q in inst.qubits), len(body)) for q in range(k)]
    at = [draw(st.integers(0, first[q])) for q in range(k)]
    gates = []
    for i in range(len(body) + 1):
        gates += [Instruction("h", (q,)) for q in range(k) if at[q] == i]
        gates += body[i:i + 1]
    all_h = draw(st.booleans())
    if not all_h:
        gates.insert(0, _gate(draw, draw(st.sampled_from(_GATES[1:])), range(k)))
    circ = Circuit()
    circ.add_qreg("q", k)
    circ.add_creg("c", k)
    circ.instructions = gates + [Instruction("measure", (q,), clbits=(q,)) for q in range(k)]
    return circ, all_h


@seed(30)
@settings(max_examples=40, deadline=None)
@given(_encodable_inputs(), st.integers(0, 2))
def test_build_is_exact_with_and_without_the_opening_h_layer(case, cycles):
    circ, all_h = case
    enc, meta = build_iceberg_circuit(circ, cycles=cycles)
    kept, total_kept = _postselected(enc, meta)
    assert abs(total_kept - 1.0) < 1e-12
    assert tvd(kept, ideal_distribution(circ)) < 1e-12
    # the opening h layer follows the verify reset as n physical h's, and
    # each logical gate maps to one rzz or rxx: the k absorbed h's save 3k
    prep = len(iceberg_encode_init(meta.k))
    assert enc.instructions[prep - 1].name == "reset"
    h_layer = [Instruction("h", (d,)) for d in meta.data_qubits]
    assert (enc.instructions[prep:prep + meta.n] == h_layer) == all_h
    rotations = sum(1 for inst in enc.instructions if inst.name in ("rzz", "rxx"))
    logical = transpile_to_gateset(circ, "iceberg-logical").instructions
    assert rotations == sum(1 for inst in logical if inst.name != "measure") - 3 * meta.k * all_h


def test_stabilizer_preservation_of_logical_gates():
    # every logical gate's physical realization commutes with both stabilizers
    rng = random.Random(7)
    circ = logical_circuit(rng, 4, 10)
    enc, meta = build_iceberg_circuit(circ, cycles=0)
    n_data = meta.n
    nq = enc.num_qubits
    sx = PauliString(nq, sum(1 << q for q in meta.data_qubits), 0, 0)
    sz = PauliString(nq, 0, sum(1 << q for q in meta.data_qubits), 0)
    for inst in enc.instructions:
        if inst.name in ("rzz", "rxx"):
            gen_kind = "Z" if inst.name == "rzz" else "X"
            gen = PauliString(nq, 0, 0, 0)
            from qedc.pauli import pauli_mul
            for q in inst.qubits:
                gen = pauli_mul(gen, single_qubit_pauli(nq, q, gen_kind))
            assert gen.commutes_with(sx) and gen.commutes_with(sz)


def test_distance_two_all_single_qubit_errors_detected_k2():
    # brute force: flips from any single-qubit Pauli at any boundary either
    # trip a detection bit or act trivially on the readout
    rng = random.Random(12)
    circ = logical_circuit(rng, 2, 6)
    enc, meta = build_iceberg_circuit(circ, cycles=2)
    hard = set()
    parity = set()
    for reg in enc.cregs:
        target = hard if reg.name in ("verify", "synd") else parity
        target.update(range(reg.start, reg.start + reg.size))
    n = enc.num_qubits
    undetected_nontrivial = 0
    for boundary in range(len(enc.instructions) + 1):
        for q in range(meta.n):
            for kind in "XYZ":
                err = single_qubit_pauli(n, meta.data_qubits[q], kind)
                flips = propagate_flips(enc.instructions, boundary, err)
                flagged = bool(flips & hard) or len(flips & parity) % 2 == 1
                if not flagged:
                    readout_flips = flips & parity
                    # trivial: no readout change, or the full X stabilizer
                    if readout_flips not in (set(), parity):
                        undetected_nontrivial += 1
    assert undetected_nontrivial == 0


def test_propagate_flips_matches_stabilizer_on_clifford_encodings():
    # on Clifford-angle logical circuits the whole encoded circuit is
    # Clifford, so stabilizer simulation gives an independent oracle.  The
    # deterministic verify/syndrome bits and the readout parity expectation
    # are branch-free observables, so they compare exactly across runs.
    rng = random.Random(3)
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    for _ in range(4):
        g = rng.choice(["rz", "rx", "rzz"])
        step = rng.choice([1, 2, 3])
        if g == "rzz":
            c.append(g, (0, 1), (step * math.pi / 2,))
        else:
            c.append(g, (rng.randrange(2),), (step * math.pi / 2,))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (1,), clbits=(1,))
    enc, meta = build_iceberg_circuit(c, cycles=1)
    n = enc.num_qubits
    readout_start = enc.creg_by_name("meas").start
    body = enc.copy_empty()
    body.instructions = [i for i in enc.instructions
                         if not (i.name == "measure" and i.clbits[0] >= readout_start)]
    parity_bits = {readout_start + i for i in range(meta.n)}
    parity_op = PauliString(n, 0, sum(1 << q for q in meta.data_qubits), 0)

    base_records, base_state = stabilizer_run(body, seed=0)
    det_base = {r.clbit: r.outcome for r in base_records if r.deterministic}
    assert base_state.expectation(parity_op) == 1

    for boundary in range(0, len(enc.instructions) + 1, 2):
        body_boundary = min(boundary, len(body.instructions))
        for dq in meta.data_qubits:
            for kind in "XYZ":
                err = single_qubit_pauli(n, dq, kind)
                records, state = stabilizer_run(
                    body, injected=err, inject_before=body_boundary, seed=0)
                det = {r.clbit: r.outcome for r in records if r.deterministic}
                flips = propagate_flips(body.instructions, body_boundary, err)
                for clbit, outcome in det_base.items():
                    if clbit in det:
                        assert (det[clbit] != outcome) == (clbit in flips)
                # readout parity flip from the full circuit's flip set
                full_flips = propagate_flips(enc.instructions, boundary, err)
                want_parity = 1 if len(full_flips & parity_bits) % 2 == 0 else -1
                if boundary <= len(body.instructions):
                    got = state.expectation(parity_op)
                    assert got == want_parity, (boundary, dq, kind)


def test_meta_roundtrip():
    rng = random.Random(2)
    circ = logical_circuit(rng, 2, 3)
    _, meta = build_iceberg_circuit(circ, cycles=1)
    assert IcebergMeta.from_dict(meta.to_dict()).to_dict() == meta.to_dict()


def test_meta_is_k_and_cycles():
    meta = IcebergMeta(4, 3)
    assert [f.name for f in dataclasses.fields(IcebergMeta)] == ["k", "cycles"]
    assert meta.to_dict() == {"code": "iceberg", "k": 4, "cycles": 3}
    assert (meta.n, meta.data_qubits, meta.ancillas) == (6, (0, 1, 2, 3, 4, 5), (6, 7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        meta.k = 2


@pytest.mark.parametrize("k, cycles", [(3, 1), (0, 1), (-2, 1), (2.0, 1), ("2", 1), (2, -1), (2, True)])
def test_meta_from_dict_rejects_what_no_compile_writes(k, cycles):
    with pytest.raises(ValueError, match="must be"):
        IcebergMeta.from_dict({"code": "iceberg", "k": k, "cycles": cycles})
