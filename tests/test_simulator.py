import hashlib
import json
import logging
import math
import random

import numpy as np
import pytest

import qedc.clifford
import qedc.simulator as simulator
from qedc.circuit import GATE_SPECS, Circuit, Instruction, Register, terminal_start
from qedc.clifford import PAULI_AXES, is_clifford
from qedc.simulator import (
    MAX_STATEVECTOR_QUBITS,
    NoiseModel,
    SimulationError,
    deterministic_distribution,
    gate_matrix,
    ideal_distribution,
    sample,
    statevector,
)
from qedc.stabilizer import stabilizer_run
from oracles import circuit_unitary, embed, noisy_distribution

SQ2 = 1 / math.sqrt(2)


def bell():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("h", (0,))
    c.append("cx", (0, 1))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (1,), clbits=(1,))
    return c


def test_h_amplitudes():
    c = Circuit()
    c.add_qreg("q", 1)
    c.append("h", (0,))
    assert np.allclose(statevector(c), [SQ2, SQ2])


def test_bell_amplitudes():
    assert np.allclose(statevector(bell()), [SQ2, 0, 0, SQ2])


def test_statevector_matches_matrix_oracle():
    rng = random.Random(2)
    gates1 = ["h", "s", "t", "x", "rz", "rx", "ry"]
    gates2 = ["cx", "cz", "swap", "rzz", "rxx", "ryy"]
    circuits = []
    for _ in range(15):
        n = rng.randrange(2, 7)
        c = Circuit()
        c.add_qreg("q", n)
        for _ in range(rng.randrange(1, 15)):
            if rng.random() < 0.5:
                g = rng.choice(gates1)
                p = (rng.uniform(-3, 3),) if g.startswith("r") else ()
                c.append(g, (rng.randrange(n),), p)
            else:
                g = rng.choice(gates2)
                p = (rng.uniform(-3, 3),) if g.startswith("r") else ()
                a, b = rng.sample(range(n), 2)
                c.append(g, (a, b), p)
        circuits.append(c)
    # every gate, on the lowest and highest qubit and on pairs in both
    # orders, and rotations by 0 (the identity)
    c = Circuit()
    c.add_qreg("q", 4)
    for q in range(4):
        c.append("h", (q,))
    for g in gates1 + ["y", "z", "sdg", "tdg"]:
        for q in (0, 3):
            c.append(g, (q,), (0.7,) if g.startswith("r") else ())
    c.append("rx", (1,), (0.0,))
    for g in gates2:
        for pair in ((0, 3), (3, 1), (2, 1)):
            c.append(g, pair, (0.7,) if g.startswith("r") else ())
    c.append("rzz", (2, 0), (0.0,))
    circuits.append(c)
    for c in circuits:
        n = c.num_qubits
        got = statevector(c)
        want = circuit_unitary(c.instructions, n)[:, 0]
        assert np.allclose(got, want, rtol=0, atol=1e-10)  # global phase too


_UNITARY_KINDS = sorted(g for g, (k, _, clbits) in GATE_SPECS.items()
                        if k in (1, 2) and not clbits and g != "reset")


@pytest.mark.parametrize("name", _UNITARY_KINDS)
def test_kernels_match_dense_matrices(name):
    """A gate's kernels, at random placements on 3 and 4 qubits, apply its
    gate_matrix; in a flipped row a non-Clifford rotation applies
    gate_matrix(-theta), and t applies tdg.  Angles are random or multiples
    of pi/2, so rotations run both as _Rotation and in a _Permutation."""
    k, nparams, _ = GATE_SPECS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for n in (3, 4):
        for trial in range(6):
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            turns = rng.integers(-4, 5, nparams) * math.pi / 2
            params = tuple(float(p) for p in (turns if trial % 2 else rng.uniform(-3, 3, nparams)))
            inst = Instruction(name, qubits, params)
            (op,) = simulator._program([inst], n)
            batch = simulator._Batch(2, n)
            batch.psi[:] = rng.normal(size=(2, 2 ** n)) + 1j * rng.normal(size=(2, 2 ** n))
            psi = batch.psi.copy()
            want = psi @ embed(gate_matrix(name, params), qubits, n).T
            flip = None
            if not is_clifford(inst):
                flip = np.array([False, True])
                negated = gate_matrix({"t": "tdg", "tdg": "t"}.get(name, name), tuple(-p for p in params))
                want[1] = embed(negated, qubits, n) @ psi[1]
            batch.apply(op.kernels, 2, flip)
            assert np.allclose(batch.psi, want, rtol=0, atol=1e-12), (qubits, params)


def test_fused_runs_match_the_dense_product():
    """Random runs of Clifford monomials, broken by h and non-Clifford
    rotations, run as one kernel per run, and statevector() equals the
    dense product, global phase included."""
    rng = random.Random(12)
    runs = 0
    for _ in range(40):
        n = rng.randrange(2, 5)
        c = Circuit()
        c.add_qreg("q", n)
        breaks = 0
        for _ in range(rng.randrange(1, 30)):
            quarter = rng.randrange(4) * math.pi / 2
            if rng.random() < 0.15:
                breaks += 1
                g, k, p = rng.choice([("h", 1, ()), ("t", 1, ()), ("rx", 1, (0.3,)),
                                      ("rz", 1, (-1.1,)), ("ryy", 2, (0.8,)), ("rzz", 2, (2.0,))])
            else:
                g, k, p = rng.choice([("x", 1, ()), ("y", 1, ()), ("z", 1, ()), ("s", 1, ()),
                                      ("sdg", 1, ()), ("rz", 1, (quarter,)), ("cx", 2, ()),
                                      ("cz", 2, ()), ("swap", 2, ()), ("rzz", 2, (quarter,))])
            if k <= n:
                c.append(g, tuple(rng.sample(range(n), k)), p)
        ops = simulator._program(c.instructions, n)
        # a kernel per break (two for an h) and at most one per run
        assert sum(len(op.kernels) for op in ops) <= 2 * breaks + 1
        runs += sum(isinstance(kern, simulator._Permutation) for op in ops for kern in op.kernels)
        want = circuit_unitary(c.instructions, n)[:, 0]
        assert np.allclose(statevector(c), want, rtol=0, atol=1e-10)
    assert runs > 40


def _ancilla_rounds(rng, data, low, resets=True):
    """Three rounds of random gates on the data qubits, each followed by two
    ancillas entangled with them and then reset (with `resets`) for reuse.
    The ancillas are the top two qubits, or with `low` qubit 0 and the top
    one; every qubit is measured at the end."""
    n = data + 2
    ancillas = (0, n - 1) if low else (n - 2, n - 1)
    dq = [q for q in range(n) if q not in ancillas]
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", n)

    def add(g, qubits):  # rotations take a random angle
        c.append(g, qubits, (rng.uniform(-3, 3),) if g[0] == "r" else ())

    for _ in range(3):
        for _ in range(rng.randrange(2, 7)):
            g, k = rng.choice([("h", 1), ("t", 1), ("s", 1), ("rx", 1), ("ry", 1), ("cx", 2),
                               ("cz", 2), ("rzz", 2), ("ryy", 2)])
            add(g, tuple(rng.sample(dq, k)))
        for a in ancillas:
            add(rng.choice(["h", "ry"]), (a,))
            add(rng.choice(["cx", "cz", "rzz", "rxx"]), (a, rng.choice(dq)))
        for a in ancillas if resets else ():
            c.append("reset", (a,))
    return _measure_all(c, n)


def test_trimmed_widths_match_the_oracles():
    """Qubits not known to be |0> set an op's width: ancillas on the top
    qubits are left out of every batch row between their reset and their
    next use, and the results match the dense oracles."""
    rng = random.Random(15)
    for trial in range(12):
        data, low = rng.randrange(2, 5), trial % 3 == 0
        c = _ancilla_rounds(rng, data, low)
        n = c.num_qubits
        ops = simulator._program(c.instructions, n)
        widths = [op.width for op in ops if op.kernels]
        assert min(widths[len(widths) // 3:]) < (n if low else n - 1)  # the top ancilla left out
        want = noisy_distribution(c, NoiseModel())
        got = deterministic_distribution(c)
        assert set(got) <= set(want)
        assert all(abs(got.get(key, 0.0) - p) < 1e-9 for key, p in want.items()), (trial, got, want)
        # without resets the ancillas are only reused: rows grow as qubits
        # come into use
        u = _ancilla_rounds(random.Random(trial), data, low, resets=False)
        unitary = u.instructions[:-n]
        assert np.allclose(statevector(u), circuit_unitary(unitary, n)[:, 0], rtol=0, atol=1e-10)


def test_batch_fit_grows_with_zeros_and_shrinks_exactly():
    rng = np.random.default_rng(5)
    batch = simulator._Batch(3, 4)
    batch.psi[:], batch._out[:] = 7, 7  # what earlier kernels left behind
    batch.fit(2, 0)
    rows = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    batch.psi[:] = rows
    batch.fit(4, 2)
    assert batch.psi.shape == (3, 16) and batch.psi.flags.c_contiguous
    assert np.array_equal(batch.psi[:2, :4], rows[:2]) and not batch.psi[:2, 4:].any()
    batch.fit(3, 2)
    batch.fit(2, 2)
    assert batch.psi.shape == (3, 4) and np.array_equal(batch.psi[:2], rows[:2])
    # a kernel on the low qubits runs on the low block alone, as it would
    # on the whole row
    inst = Instruction("ryy", (1, 0), (0.8,))
    (op,) = simulator._program([inst], 4)
    batch.apply(op.kernels, 2, np.array([False, True]))
    full = simulator._Batch(2, 4)
    full.psi[:, :4] = rows[:2]
    full.apply(op.kernels, 2, np.array([False, True]))
    assert np.array_equal(batch.psi[:2], full.psi[:, :4]) and not full.psi[:, 4:].any()
    assert (batch.amplitudes, full.amplitudes) == (2 * 4, 2 * 16)


def test_iceberg_ancillas_leave_the_rows_after_each_reset_round():
    from qedc.pipeline import compile_circuit

    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("rzz", (0, 1), (0.7,))
    c.append("rx", (0,), (0.4,))
    c.append("rz", (1,), (0.3,))
    compiled, _ = compile_circuit(_measure_all(c, 2), code="iceberg", checks=1)
    insts = [i for i in compiled.instructions if i.name != "barrier"]
    ops = simulator._program(insts, compiled.num_qubits)
    # data qubits 0-3, ancillas 4 and 5.  The encoding is one fused run up
    # to the verification on ancilla 4, measured and reset; two logical
    # rotations run on the data alone; the syndrome round brings both
    # ancillas back until their resets; the last rotation and the readout
    # leave them out again
    names = [op.name for op in ops]
    assert names[6:8] == ["measure", "reset"] and names[20:24] == ["measure"] * 2 + ["reset"] * 2
    assert [op.width for op in ops] == [5] * 8 + [4] * 2 + [6] * 14 + [4] * 5
    assert simulator._compact(compiled) is compiled  # nothing to compact


def test_norm_preserved():
    rng = random.Random(8)
    c = Circuit()
    c.add_qreg("q", 4)
    for _ in range(30):
        c.append("rxx", tuple(rng.sample(range(4), 2)), (rng.uniform(-3, 3),))
    assert abs(np.linalg.norm(statevector(c)) - 1.0) < 1e-12


def test_qubit_limit_and_midcircuit_errors():
    c = Circuit()
    c.add_qreg("q", MAX_STATEVECTOR_QUBITS + 1)
    for q in range(MAX_STATEVECTOR_QUBITS + 1):
        c.append("t", (q,))  # non-Clifford blocks the stabilizer fallback
    with pytest.raises(SimulationError):
        statevector(c)
    d = Circuit()
    d.add_qreg("q", 2)
    d.add_creg("c", 1)
    d.append("measure", (0,), clbits=(0,))
    d.append("h", (0,))
    with pytest.raises(SimulationError):
        statevector(d)


def test_reset_is_followed_not_skipped():
    c = Circuit()
    c.add_qreg("q", 1)
    c.add_creg("c", 1)
    c.append("x", (0,))
    c.append("reset", (0,))
    c.append("measure", (0,), clbits=(0,))
    assert ideal_distribution(c) == {"0": pytest.approx(1.0)}
    assert sample(c, shots=50, seed=1) == {"0": 50}
    with pytest.raises(SimulationError):
        statevector(c)


def test_resets_after_the_last_measurements_change_nothing():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("h", (0,))
    c.append("cx", (0, 1))
    c.append("measure", (0,), clbits=(0,))
    c.append("reset", (0,))
    c.append("measure", (1,), clbits=(1,))
    c.append("reset", (0,))
    c.append("reset", (1,))
    assert ideal_distribution(c) == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}


def test_noiseless_sampling_bell():
    counts = sample(bell(), shots=10000, seed=3)
    assert set(counts) == {"00", "11"}
    assert abs(counts["00"] - 5000) < 300


def test_sampling_matches_amplitudes_5sigma():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("ry", (0,), (1.1,))
    c.append("cx", (0, 1))
    c.append("ry", (1,), (0.4,))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (1,), clbits=(1,))
    shots = 40000
    counts = sample(c, shots=shots, seed=1)
    ideal = ideal_distribution(c)
    for key, p in ideal.items():
        sigma = math.sqrt(shots * p * (1 - p))
        assert abs(counts.get(key, 0) - shots * p) < 5 * sigma + 1


def test_determinism_same_seed():
    noise = NoiseModel(p1=0.001, p2=0.01)
    a = sample(bell(), noise=noise, shots=2000, seed=42)
    b = sample(bell(), noise=noise, shots=2000, seed=42)
    assert a == b
    c = sample(bell(), noise=noise, shots=2000, seed=43)
    assert a != c


def test_zero_noise_equals_noiseless():
    noise = NoiseModel(p1=0.0, p2=0.0)
    assert sample(bell(), noise=noise, shots=500, seed=9) == sample(bell(), shots=500, seed=9)


def test_injection_frequency_matches_p2():
    # single cx; depolarizing flips show up as keys other than "00"
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("cx", (0, 1))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (1,), clbits=(1,))
    p2 = 0.002
    shots = 200000
    counts = sample(c, noise=NoiseModel(p2=p2), shots=shots, seed=17)
    flipped = shots - counts.get("00", 0)
    # 12 of the 15 injected Paulis change the Z-basis outcome (any X/Y factor)
    expect = shots * p2 * 12 / 15
    sigma = math.sqrt(shots * p2 * (12 / 15) * (1 - p2 * 12 / 15))
    assert abs(flipped - expect) < 5 * sigma


def test_stabilizer_agrees_with_statevector_on_cliffords():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randrange(2, 6)
        c = Circuit()
        c.add_qreg("q", n)
        c.add_creg("c", n)
        for _ in range(12):
            g = rng.choice(["h", "s", "x", "cx", "cz"])
            if g in ("cx", "cz"):
                c.append(g, tuple(rng.sample(range(n), 2)))
            else:
                c.append(g, (rng.randrange(n),))
        body = c.copy()
        for q in range(n):
            c.append("measure", (q,), clbits=(q,))
        probs = np.abs(statevector(body)) ** 2
        records, _ = stabilizer_run(c, seed=4)
        # determinism is conditional on the outcomes already collapsed, so
        # check each record against the ideal distribution restricted to them
        mask = np.ones(len(probs), dtype=bool)
        for r in records:
            idx = np.arange(len(probs))
            bitvals = (idx >> r.qubit) & 1
            cond = probs[mask]
            mass1 = probs[mask & (bitvals == 1)].sum()
            frac1 = mass1 / cond.sum()
            if r.deterministic:
                assert frac1 > 1 - 1e-9 if r.outcome else frac1 < 1e-9
            else:
                assert abs(frac1 - 0.5) < 1e-9  # random outcomes are unbiased
            mask &= bitvals == r.outcome


def test_stabilizer_bell_correlation():
    c = bell()
    for seed in range(20):
        records, _ = stabilizer_run(c, seed=seed)
        assert records[0].outcome == records[1].outcome


def test_deterministic_distribution_handles_midcircuit():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("x", (0,))
    c.append("measure", (0,), clbits=(0,))
    c.append("h", (1,))
    c.append("measure", (1,), clbits=(1,))
    dist = deterministic_distribution(c)
    assert dist == pytest.approx({"01": 0.5, "11": 0.5})
    d = Circuit()
    d.add_qreg("q", 2)
    d.add_creg("c", 2)
    d.append("h", (0,))
    d.append("measure", (0,), clbits=(0,))
    d.append("h", (1,))
    with pytest.raises(SimulationError, match="not deterministic"):
        deterministic_distribution(d)


def test_deterministic_distribution_branches_on_a_random_reset():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("h", (0,))
    c.append("cx", (0, 1))
    c.append("reset", (0,))
    _measure_all(c, 2)
    assert deterministic_distribution(c) == pytest.approx({"00": 0.5, "10": 0.5})
    # each branch weighs its outcome's probability, sin^2(0.3) for 1
    d = Circuit()
    d.add_qreg("q", 2)
    d.add_creg("c", 1)
    d.append("ry", (0,), (0.6,))
    d.append("cx", (0, 1))
    d.append("reset", (0,))
    d.append("measure", (1,), clbits=(0,))
    p1 = math.sin(0.3) ** 2
    assert deterministic_distribution(d) == pytest.approx({"0": 1 - p1, "1": p1})
    # a random mid-circuit measurement still raises, and names its kind
    e = Circuit()
    e.add_qreg("q", 2)
    e.add_creg("c", 2)
    e.append("h", (0,))
    e.append("cx", (0, 1))
    e.append("measure", (0,), clbits=(0,))
    e.append("x", (1,))
    e.append("measure", (1,), clbits=(1,))
    with pytest.raises(SimulationError, match="mid-circuit measurement on qubit 0 is not deterministic"):
        deterministic_distribution(e)


def test_large_clifford_uses_stabilizer_path():
    n = 20
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", 2)
    c.append("h", (0,))
    for q in range(1, n):
        c.append("cx", (q - 1, q))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (n - 1,), clbits=(1,))
    counts = sample(c, shots=2000, seed=12)
    assert set(counts) == {"00", "11"}
    assert sample(c, shots=2000, seed=12) == counts


def test_wide_noisy_clifford_names_the_pauli_frame_limit():
    n = simulator.MAX_STABILIZER_QUBITS + 6
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", 1)
    c.append("h", (0,))
    for q in range(1, n):
        c.append("cx", (q - 1, q))
    c.append("measure", (n - 1,), clbits=(0,))
    with pytest.raises(SimulationError, match=f"{n} active qubits exceeds the Pauli-frame limit of 64"):
        sample(c, noise=NoiseModel(p2=0.01), shots=10, seed=1)


def test_noise_model_validation_and_roundtrip():
    with pytest.raises(ValueError):
        NoiseModel(p1=1.5)
    nm = NoiseModel(p1=3e-5, p2=0.002)
    assert NoiseModel.from_dict(nm.to_dict()) == nm


@pytest.mark.parametrize("lists", [
    {"gates1": "rx"}, {"gates1": ["cnot"]}, {"gates2": ["rx"]}, {"gates1": ["cx"]},
    {"gates1": ["measure"]}, {"gates1": ["reset"]}, {"gates2": ["barrier"]},
    {"gates2": [["cx"]]}, {"gates1": 5}, {"gates1": {"rx": 1}},
], ids=["string", "unknown", "1q-as-2q", "2q-as-1q", "measure", "reset", "barrier",
        "nested", "number", "dict"])
def test_noise_gate_lists_are_validated(lists):
    # before, "rx" became ('r', 'x') and unknown names were kept, so the
    # noise silently never applied
    with pytest.raises(ValueError, match="gates[12]"):
        NoiseModel.from_dict({"p1": 0.1, "p2": 0.1, **lists})


def test_noise_gate_lists_are_kept_as_tuples():
    nm = NoiseModel.from_dict({"p1": 0.1, "gates1": ["rx", "h"], "gates2": []})
    assert (nm.gates1, nm.gates2) == (("rx", "h"), ())
    assert NoiseModel(gates2=["rzz"]) == NoiseModel(gates2=("rzz",))


# -- fault-first statevector sampling ------------------------------------------

def _measure_all(c, n):
    for q in range(n):
        c.append("measure", (q,), clbits=(q,))
    return c


def _terminal_circuit():
    """4 qubits, non-Clifford, measured only at the end."""
    c = Circuit()
    c.add_qreg("q", 4)
    c.add_creg("c", 4)
    c.append("ry", (0,), (0.7,))
    c.append("h", (1,))
    c.append("t", (1,))
    c.append("cx", (0, 2))
    c.append("rzz", (1, 2), (0.9,))
    c.append("cx", (2, 3))
    c.append("rx", (3,), (1.3,))
    c.append("ryy", (0, 3), (0.4,))
    c.append("cz", (1, 3))
    c.append("swap", (0, 1))
    c.append("h", (0,))  # Z faults show in the readout of qubits 0 and 2
    c.append("h", (2,))
    return _measure_all(c, 4)


def _midcircuit_circuit():
    """A random mid-circuit measurement, then a random reset, then noisy
    gates: the shared noiseless prefix stops at the measurement."""
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_creg("m", 1)
    c.add_creg("c", 3)
    c.append("h", (0,))
    c.append("t", (0,))
    c.append("h", (0,))
    c.append("ry", (1,), (1.1,))
    c.append("measure", (0,), clbits=(0,))
    c.append("reset", (1,))
    c.append("cx", (0, 1))
    c.append("rx", (1,), (0.8,))
    c.append("cx", (1, 2))
    c.append("ry", (2,), (0.5,))
    c.append("h", (1,))
    for q in range(3):
        c.append("measure", (q,), clbits=(1 + q,))
    return c


def _first_last_circuit():
    """Only the first instruction (rx) and the last noisy gate (cz) are
    noisy; the h after cz shows its Z faults in the readout."""
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_creg("c", 3)
    c.append("rx", (0,), (0.9,))
    c.append("h", (1,))
    c.append("t", (1,))
    c.append("cx", (0, 1))
    c.append("ry", (2,), (0.3,))
    c.append("cx", (1, 2))
    c.append("cz", (0, 2))
    c.append("h", (2,))
    return _measure_all(c, 3)


def _clifford_terminal_circuit():
    """4 qubits, Clifford (named gates and Clifford-angle rotations),
    measured only at the end.  Qubits 0 and 2 read a random, equal bit;
    qubits 1 and 3 read fixed bits (0 and 1), so faults that flip them
    show: Z and Y faults on qubit 1 through the swap and the h on qubit 3,
    and Z faults on the target of the last cx through its control."""
    c = Circuit()
    c.add_qreg("q", 4)
    c.add_creg("c", 4)
    c.append("h", (0,))
    c.append("cx", (0, 2))
    c.append("y", (1,))
    c.append("rx", (1,), (math.pi / 2,))
    c.append("sdg", (1,))
    c.append("swap", (1, 3))
    c.append("h", (3,))
    c.append("cz", (0, 1))
    c.append("rzz", (2, 3), (math.pi,))
    c.append("ryy", (1, 3), (3 * math.pi / 2,))
    c.append("cx", (3, 1))
    c.append("sdg", (3,))
    c.append("h", (3,))
    return _measure_all(c, 4)


def _clifford_midcircuit_circuit():
    """A random mid-circuit measurement whose qubit is rotated by h and
    measured again, and a reset of a qubit in |+> that then controls a cx."""
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_creg("m", 2)
    c.add_creg("c", 3)
    c.append("h", (0,))
    c.append("measure", (0,), clbits=(0,))
    c.append("h", (0,))
    c.append("measure", (0,), clbits=(1,))
    c.append("h", (1,))
    c.append("reset", (1,))
    c.append("cx", (1, 2))
    c.append("cx", (0, 2))
    c.append("s", (2,))
    c.append("h", (2,))
    for q in range(3):
        c.append("measure", (q,), clbits=(2 + q,))
    return c


def _iceberg_qaoa_circuit():
    """The 6-qubit, 2-layer ring QAOA compiled with 2 Iceberg cycles: 10
    qubits, mid-circuit measurements and resets, rzz and rxx at generic
    angles."""
    from qedc.pipeline import compile_circuit

    c = Circuit()
    c.add_qreg("q", 6)
    c.add_creg("c", 6)
    for q in range(6):
        c.append("h", (q,))
    for gamma, beta in ((0.7, 0.3), (0.4, 0.6)):
        for q in range(6):
            c.append("rzz", (q, (q + 1) % 6), (gamma,))
        for q in range(6):
            c.append("rx", (q,), (2 * beta,))
    return compile_circuit(_measure_all(c, 6), code="iceberg", checks=2)[0]


def _split_circuit():
    """q1 reads 0 at its mid-circuit measurement, since the two rzz cancel,
    unless a fault on q0 between them negates the second rzz.  Then the
    outcome is random and entangled with q0, and the cx carries it on."""
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("m", 1)
    c.add_creg("c", 2)
    c.append("ry", (0,), (0.8,))
    c.append("h", (1,))
    c.append("rzz", (0, 1), (0.7,))
    c.append("rz", (0,), (0.4,))
    c.append("rzz", (0, 1), (-0.7,))
    c.append("h", (1,))
    c.append("measure", (1,), clbits=(0,))
    c.append("cx", (1, 0))
    c.append("ry", (1,), (0.5,))
    c.append("measure", (0,), clbits=(1,))
    c.append("measure", (1,), clbits=(2,))
    return c


def _ancilla_reuse_circuit():
    """An ancilla on the top qubit, entangled with the data qubits 0 and 1,
    measured (a random outcome) and reset, twice: between its reset and its
    next use it is left out of the rows, which split at its measurements."""
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_creg("m", 2)
    c.add_creg("c", 2)
    c.append("ry", (0,), (0.8,))
    c.append("rzz", (0, 1), (0.6,))
    for r in range(2):
        c.append("h", (2,))
        c.append("rzz", (2, r), (0.9,))
        c.append("rx", (2,), (0.5,))
        c.append("measure", (2,), clbits=(r,))
        c.append("reset", (2,))
        c.append("rx", (1,), (0.7,))
        c.append("rzz", (0, 1), (1.1,))
    c.append("measure", (0,), clbits=(2,))
    c.append("measure", (1,), clbits=(3,))
    return c


def _assert_matches(counts, dist, shots):
    assert sum(counts.values()) == shots
    for key in set(counts) | set(dist):
        p = dist.get(key, 0.0)
        sigma = math.sqrt(shots * p * (1 - p))
        assert abs(counts.get(key, 0) - shots * p) < 5 * sigma + 1, key


@pytest.mark.parametrize("circ, noise", [
    (_terminal_circuit(), NoiseModel(p1=0.1, p2=0.05)),
    (_midcircuit_circuit(), NoiseModel(p1=0.02, p2=0.05)),
    (_first_last_circuit(), NoiseModel(p1=0.5, p2=0.5, gates1=("rx",), gates2=("cz",))),
    (_clifford_terminal_circuit(), NoiseModel(p1=0.1, p2=0.05)),
    (_clifford_midcircuit_circuit(), NoiseModel(p1=0.05, p2=0.05)),
    (_split_circuit(), NoiseModel(p1=0.2, p2=0.1, gates1=("rz",), gates2=("cx",))),
    (_ancilla_reuse_circuit(), NoiseModel(p1=0.05, p2=0.05)),
], ids=["terminal", "midcircuit", "first-last", "clifford-terminal", "clifford-midcircuit",
        "split", "ancilla-reuse"])
def test_sampling_matches_noisy_density_matrix_5sigma(circ, noise):
    shots = 100000
    _assert_matches(sample(circ, noise=noise, shots=shots, seed=11),
                    noisy_distribution(circ, noise), shots)


@pytest.mark.parametrize("name", sorted(PAULI_AXES))
def test_frames_pass_rotations_with_the_sign_rule(name):
    """gate(theta) F = phase F gate(±theta) for every Pauli F on the gate's
    qubits, with - where _signatures marks F, a fault on the gate before,
    as anticommuting with the rotation's Pauli; and _Batch.apply with
    `flip` runs gate(-theta)."""
    from qedc.circuit import Instruction

    from oracles import FAULT_XZ, pauli_matrix

    k = 2 if name in ("rzz", "rxx", "ryy") else 1
    params = () if name in ("t", "tdg") else (0.7,)
    negated = gate_matrix({"t": "tdg", "tdg": "t"}.get(name, name), tuple(-p for p in params))
    gate = gate_matrix(name, params)
    # every depolarizing Pauli, as a fault after a Clifford on the same qubits
    c = Circuit()
    c.add_qreg("q", k)
    c.append("cz" if k == 2 else "z", tuple(range(k)))
    c.append(name, tuple(range(k)), params)
    codes = np.arange(4 ** k - 1)
    table, _ = simulator._signatures(c.instructions, k, 0, [True, False], [1])
    anti = table[0, codes, 0] & 1
    for code in codes:
        label = "".join("IZXY"[x * 2 + z] for x, z in FAULT_XZ[k][code])
        f = pauli_matrix(label)
        lhs, rhs = gate @ f, f @ (negated if anti[code] else gate)
        phase = np.vdot(rhs, lhs) / np.vdot(rhs, rhs)
        assert abs(abs(phase) - 1) < 1e-12 and np.allclose(lhs, phase * rhs), (label, anti[code])

    # qubits listed high bit first, so the matrix basis is the state basis
    qubits = tuple(reversed(range(k)))
    insts = [Instruction(name, qubits, params)]
    batch = simulator._Batch(2, k)
    rng = np.random.default_rng(1)
    batch.psi[:] = rng.normal(size=(2, 2 ** k)) + 1j * rng.normal(size=(2, 2 ** k))
    want = [gate @ batch.psi[0], negated @ batch.psi[1]]
    (op,) = simulator._program(insts, k)
    batch.apply(op.kernels, 2, np.array([False, True]))
    assert np.allclose(batch.psi, want)


@pytest.mark.parametrize("n, nc, length", [(2, 2, 12), (3, 3, 30), (4, 3, 40), (5, 40, 260)])
def test_signatures_match_the_forward_frame_stepper(n, nc, length):
    """Each shot's flips, the XOR of its faults' and its Z draws'
    signatures, are exactly the X bits of the clbits' last measurements and
    the sign pattern that stepping the frames forward gives."""
    from oracles import step_frames
    from test_errorprop import _random_circuit

    rng = random.Random(n * 1000 + length)
    shots, kinds = 300, set()
    for trial in range(6):
        insts = [i for i in _random_circuit(rng, n, length, nc).instructions if i.name != "barrier"]
        rotations = [i for i, inst in enumerate(insts)
                     if inst.name in PAULI_AXES and not is_clifford(inst)]
        if n == 5:
            assert nc + len(rotations) > 64  # signatures span more than one word
        errors = [(0.0, 1) if inst.name in ("measure", "reset")
                  else (rng.choice([0.0, 0.05, 0.3]), len(inst.qubits)) for inst in insts]
        gen = np.random.default_rng(trial)
        faults = simulator._draw_faults(errors, shots, gen)
        kinds.update(len(insts[i].qubits) for i in faults.op)
        draws = gen.integers(2, size=(n + sum(i.name in ("measure", "reset") for i in insts), shots),
                             dtype=bool)
        want_bits, want_negated = step_frames(insts, n, nc, (faults.op, faults.shot, faults.code), draws)

        table, zsigs = simulator._signatures(insts, n, nc, [p > 0 for p, _ in errors], rotations)
        assert len(zsigs) == len(draws)
        faulty, words = simulator._fault_flips(table, faults)
        keys = np.zeros((shots, table.shape[2]), dtype="<u8")
        keys[faulty] = words
        for row, sig in zip(draws, zsigs):
            keys[row] ^= sig
        bits = np.unpackbits(keys.view(np.uint8), axis=1, count=nc + len(rotations), bitorder="little")
        assert np.array_equal(bits[:, :nc].T, want_bits)
        assert list(want_negated) == rotations
        for r, anti in enumerate(want_negated.values()):
            assert np.array_equal(bits[:, nc + r], anti)
    assert kinds == {1, 2}  # 1q and 2q faults


def _random_ops(circ):
    """The ops before the trailing measurements that _may_be_random flags."""
    compacted = simulator._compact(circ)
    insts = [i for i in compacted.instructions if i.name != "barrier"]
    ops = simulator._program(insts, compacted.num_qubits)
    tail = terminal_start(ops)
    flags = simulator._may_be_random(insts[:tail], ops, compacted.num_qubits)
    return [(i, insts[i].name) for i, flag in enumerate(flags) if flag]


def test_may_be_random_flags_what_a_sign_pattern_can_randomise():
    # the Iceberg syndrome measurements and resets commute with the logical
    # rotations, so no sign pattern makes them random
    assert _random_ops(_iceberg_qaoa_circuit()) == []
    # negating the second rzz leaves q1 off the Z axis at its measurement
    assert _random_ops(_split_circuit()) == [(6, "measure")]
    # random even without a fault
    assert _random_ops(_midcircuit_circuit()) == [(4, "measure"), (5, "reset")]


# sha256 of the sorted counts of sample(circ, noise, shots=2000, seed=2024):
# counts are byte-identical per (circuit, noise, shots, seed), so a change to
# the order of the depolarizing Paulis or of the random draws fails here
_PINNED_COUNTS = {
    "terminal": "be5f2215bb2b92c4348ec9c6a0241640319143ac80f4fc7261f6a74704c432eb",
    "midcircuit": "4c48ea2cbec92ae2736897a7ae8d4a3ec3d6fc6ba6d3a02c31def3b5e53badb7",
    "first-last": "ed50a32a5f6d76dd03c7e8804dae796e5d574a99e6241fcfc17c0a8dd15fd2bd",
    "clifford-terminal": "1332746e7fcb65886d1f11bcffb0ec71380162a93d063eab70e81e1a2f6c1d3a",
    "clifford-midcircuit": "b161c71cf651454cc3fe940a36174aefca1a11d678c0bc0abcf2b5cf218eaf2a",
    "iceberg-qaoa": "f744f29cfff879ca5d22907749afff630e8391baac30eefd7d96ae017c590953",
    "split": "d69d1eaf6192340f5aa5954ba04adde8aeaf5798edd6181c8ea592d5f168f359",
}


@pytest.mark.parametrize("name, circ, noise", [
    ("terminal", _terminal_circuit(), NoiseModel(p1=0.1, p2=0.05)),
    ("midcircuit", _midcircuit_circuit(), NoiseModel(p1=0.02, p2=0.05)),
    ("first-last", _first_last_circuit(),
     NoiseModel(p1=0.5, p2=0.5, gates1=("rx",), gates2=("cz",))),
    ("clifford-terminal", _clifford_terminal_circuit(), NoiseModel(p1=0.1, p2=0.05)),
    ("clifford-midcircuit", _clifford_midcircuit_circuit(), NoiseModel(p1=0.05, p2=0.05)),
    ("iceberg-qaoa", _iceberg_qaoa_circuit(), NoiseModel(p1=1e-3, p2=2e-2)),
    ("split", _split_circuit(), NoiseModel(p1=0.2, p2=0.1, gates1=("rz",), gates2=("cx",))),
], ids=list(_PINNED_COUNTS))
def test_counts_are_pinned(name, circ, noise):
    counts = sample(circ, noise=noise, shots=2000, seed=2024)
    digest = hashlib.sha256(json.dumps(sorted(counts.items())).encode()).hexdigest()
    assert digest == _PINNED_COUNTS[name]


def _long_rotation_circuit():
    """3 qubits in |+>, then 23 rounds of rz, rzz and rx at generic angles:
    69 non-Clifford rotations, so a sign pattern needs more than one 64-bit
    word, in diagonal rz, rzz runs that each rx breaks; measured at the end."""
    rng = random.Random(22)
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_creg("c", 3)
    for q in range(3):
        c.append("h", (q,))
    for _ in range(23):
        a, b = rng.sample(range(3), 2)
        c.append("rz", (a,), (rng.uniform(0.1, 1.4),))
        c.append("rzz", (a, b), (rng.uniform(1.7, 3.0),))
        c.append("rx", (b,), (rng.uniform(0.1, 1.4),))
    return _measure_all(c, 3)


@pytest.mark.parametrize("clifford", [True, False], ids=["pauli-frame", "statevector"])
def test_sample_decomposes_and_rates_each_instruction_once(monkeypatch, caplog, clifford):
    rng = random.Random(12)
    c = Circuit()
    c.add_qreg("q", 4)
    c.add_creg("c", 4)
    for _ in range(30):
        if rng.random() < 0.4:
            c.append(rng.choice(["cx", "cz"]), tuple(rng.sample(range(4), 2)))
        elif clifford:
            c.append(rng.choice(["h", "s", "x"]), (rng.randrange(4),))
        else:
            c.append(rng.choice(["rz", "rx"]), (rng.randrange(4),), (rng.uniform(0.1, 1.4),))
    c.append("barrier", (0, 1, 2, 3))
    c.append("measure", (2,), clbits=(0,))
    c.append("reset", (2,))
    c = _measure_all(c, 4)
    calls = {"sequence": 0, "rate": 0}

    def counted(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    sequence = counted(qedc.clifford.clifford_gate_sequence, "sequence")
    monkeypatch.setattr(qedc.clifford, "clifford_gate_sequence", sequence)
    monkeypatch.setattr(simulator, "clifford_gate_sequence", sequence)
    monkeypatch.setattr(NoiseModel, "gate_error", counted(NoiseModel.gate_error, "rate"))
    _, stats = _logged_sample(caplog, c, NoiseModel(0.01, 0.02), 300)
    assert stats["backend"] == ("pauli-frame" if clifford else "statevector")
    instructions = len(c.instructions) - 1  # the barrier is neither decomposed nor rated
    assert calls == {"sequence": instructions, "rate": instructions}


def test_sign_patterns_wider_than_a_word_match_the_density_matrix():
    # only the rz and rzz are noisy, so each fault lands inside a diagonal
    # run and negates the rotations after it on its qubits
    circ = _long_rotation_circuit()
    noise = NoiseModel(p1=0.004, p2=0.01, gates1=("rz",), gates2=("rzz",))
    ops = simulator._program(circ.instructions, 3)
    assert sum(op.rotation >= 0 for op in ops) == 69
    shots = 20000
    _assert_matches(sample(circ, noise=noise, shots=shots, seed=5), noisy_distribution(circ, noise), shots)


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
def test_unique_rows_is_numpy_unique_over_rows(width):
    rng = np.random.default_rng(width)
    for density in (0.02, 0.5):
        flips = rng.random((300, width)) < density
        flips[:4] = False  # the empty pattern, as in sample()
        flips[4:8] = flips[8:12]  # repeated rows
        want, which = np.unique(flips, axis=0, return_inverse=True)
        got, members = simulator._unique_rows(flips)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(members, which.ravel())


def test_prob_one_on_the_real_view_is_the_one_half_norm():
    # summed over real and imaginary parts in another order than |a|**2
    # per amplitude, so equal up to rounding
    rng = np.random.default_rng(8)
    psi = rng.normal(size=(6, 32)) + 1j * rng.normal(size=(6, 32))
    for q in range(5):
        want = (np.abs(simulator._halves(psi, q)[:, :, 1]) ** 2).sum(axis=(1, 2))
        assert np.allclose(simulator._prob_one(psi, q), want, rtol=1e-14, atol=0)


def test_reset_after_reading_zero_only_zeroes_the_one_half():
    """A reset where every row reads 0 with probability 1 leaves psi equal,
    to the bit, to the general collapse: the kept half scaled by
    1 / sqrt(1 - p1) = 1 and the other half zeroed.  After a reading of 1
    it still moves the |1> half down, and a |1> half of amplitudes whose
    squares underflow to 0 is still zeroed."""
    rng = np.random.default_rng(3)
    q = 2
    psi = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    measure, reset = simulator._Op("measure", (q,), 0), simulator._Op("reset", (q,))
    p1 = simulator._prob_one(psi, q)
    simulator._settle(psi, measure, p1, np.zeros(5, dtype=bool))  # every row read 0
    p1 = simulator._prob_one(psi, q)
    assert not p1.any()
    want = psi.copy()
    view = simulator._halves(want, q)
    view[:, :, 0] *= (1.0 / np.sqrt(np.maximum(1.0 - p1, 1e-300))).astype(complex)[:, None, None]
    view[:, :, 1] = 0
    simulator._settle(psi, reset, p1, p1 >= 0.5)
    assert psi.tobytes() == want.tobytes()

    # read 1: the reset moves the |1> half to |0>
    ones = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    simulator._halves(ones, q)[:, :, 0] = 0
    ones /= np.linalg.norm(ones, axis=1, keepdims=True)
    want = np.zeros_like(ones)
    simulator._halves(want, q)[:, :, 0] = simulator._halves(ones, q)[:, :, 1]
    p1 = simulator._prob_one(ones, q)
    simulator._settle(ones, reset, p1, p1 >= 0.5)
    assert np.allclose(ones, want, rtol=0, atol=1e-15)

    # a |1> half too small to register in p1 is zeroed all the same
    tiny = np.zeros((2, 16), dtype=complex)
    simulator._halves(tiny, q)[:, :, 0] = 0.5
    simulator._halves(tiny, q)[:, :, 1] = 1e-170
    p1 = simulator._prob_one(tiny, q)
    assert not p1.any()
    simulator._settle(tiny, reset, p1, p1 >= 0.5)
    assert not simulator._halves(tiny, q)[:, :, 1].any() and (simulator._halves(tiny, q)[:, :, 0] == 0.5).all()


def test_compact_copies_instructions_with_their_qubits_remapped():
    rng = random.Random(4)
    c = Circuit()
    c.add_qreg("q", 40)
    c.add_creg("c", 3)
    used = sorted(rng.sample(range(40), 5))
    for _ in range(30):
        g, k, p = rng.choice([("h", 1, ()), ("rz", 1, (0.3,)), ("cx", 2, ()), ("rzz", 2, (0.7,))])
        c.append(g, tuple(rng.sample(used, k)), p)
    for i, q in enumerate(used[:3]):
        c.append("measure", (q,), clbits=(i,))
    index = {q: i for i, q in enumerate(sorted({q for inst in c.instructions for q in inst.qubits}))}
    want = Circuit([Register("q", len(index), 0)], list(c.cregs),
                   [Instruction(i.name, tuple(index[q] for q in i.qubits), i.params, i.clbits)
                    for i in c.instructions])
    got = simulator._compact(c)
    assert got == want and got.num_qubits == len(index)
    assert all(type(inst) is Instruction for inst in got.instructions)
    assert [i.qubits for i in c.instructions] != [i.qubits for i in got.instructions]
    assert simulator._compact(got) is got  # already compact


class _ShortDraws:
    """A generator whose geometric draws stop after three values, so that
    _bernoulli_hits has to draw again, many times, to cover its field."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def geometric(self, p, size):
        return self.rng.geometric(p, min(size, 3))

    def integers(self, high):
        return self.rng.integers(high)


@pytest.mark.parametrize("make_rng", [np.random.default_rng, _ShortDraws],
                         ids=["generator", "short-draws"])
def test_draw_faults_is_an_independent_draw_per_cell(make_rng):
    # (p, qubits) per op: gates at p1 and p2, and measure and reset at 0
    errors = [(0.01, 1), (0.05, 2), (0.0, 1), (0.01, 1), (0.2, 2), (0.0, 1), (0.05, 2)]
    shots, seeds = 500, 200
    hits = np.zeros(len(errors))
    codes = {1: np.zeros(3), 2: np.zeros(15)}
    for seed in range(seeds):
        faults = simulator._draw_faults(errors, shots, make_rng(seed))
        assert faults.noisy_instructions == 5
        assert np.all(np.diff(faults.op) >= 0)
        cells = faults.op * shots + faults.shot
        assert len(np.unique(cells)) == len(cells)
        assert np.all((faults.shot >= 0) & (faults.shot < shots))
        hits += np.bincount(faults.op, minlength=len(errors))
        for k, freq in codes.items():
            mine = np.array([errors[i][1] == k for i in faults.op], dtype=bool)
            freq += np.bincount(faults.code[mine], minlength=len(freq))
    for (p, _), n in zip(errors, hits):
        cells = shots * seeds
        assert abs(n - p * cells) <= 5 * math.sqrt(cells * p * (1 - p))  # 0 when p = 0
    for freq in codes.values():
        total, share = freq.sum(), 1 / len(freq)
        assert np.all(np.abs(freq - total * share) < 5 * math.sqrt(total * share * (1 - share)))


def test_draw_faults_at_probability_one_and_near_zero():
    errors = [(1.0, 2), (0.0, 1), (1.0, 1), (0.3, 2)]
    faults = simulator._draw_faults(errors, 100, np.random.default_rng(3))
    for op in (0, 2):
        assert np.array_equal(faults.shot[faults.op == op], np.arange(100))
    assert not np.any(faults.op == 1)
    # a gap that runs past the end of the field hits nothing
    for seed in range(20):
        rng = np.random.default_rng(seed)
        assert len(simulator._draw_faults([(1e-12, 1)] * 3, 100, rng).op) == 0


def test_draw_faults_memory_grows_with_the_faults():
    import tracemalloc

    # 100 ops x 20,000 shots at p = 0.05: about 100,000 faults in a field of
    # 2,000,000 cells.  Any array over the field, even of bools, costs at
    # least 20 bytes per fault, and a float or int64 draw over it 160
    shots, ops, p = 20000, 100, 0.05
    tracemalloc.start()
    try:
        faults = simulator._draw_faults([(p, 2)] * ops, shots, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = ops * shots * p
    assert abs(len(faults.op) - expected) < 5 * math.sqrt(expected)
    # the three int64 fault arrays are 24 bytes per fault
    assert peak < 80 * expected


def test_fault_first_determinism():
    circ, noise = _terminal_circuit(), NoiseModel(p1=0.01, p2=0.05)
    a = sample(circ, noise=noise, shots=3000, seed=42)
    assert a == sample(circ, noise=noise, shots=3000, seed=42)
    assert a != sample(circ, noise=noise, shots=3000, seed=43)


def test_counts_sum_to_shots_across_batches(monkeypatch):
    # rows of 4 to 16 amplitudes: at 64 a few rows per batch; at 8 at most
    # one beside the noiseless row, so rows that could split past it are
    # cut, the empty pattern after the random measurement too
    noise = NoiseModel(p1=0.02, p2=0.05)
    for amplitudes in (64, 8):
        monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", amplitudes)
        for circ in (_terminal_circuit(), _split_circuit(), _midcircuit_circuit()):
            counts = sample(circ, noise=noise, shots=3000, seed=5)
            assert sum(counts.values()) == 3000
        _assert_matches(counts, noisy_distribution(circ, noise), 3000)


def test_counts_sum_to_shots_without_faults():
    counts = sample(_terminal_circuit(), noise=NoiseModel(p1=1e-15, p2=1e-15),
                    shots=5000, seed=2)
    assert sum(counts.values()) == 5000


def test_shot_count_validation():
    with pytest.raises(ValueError):
        sample(bell(), shots=-5)
    assert sample(bell(), shots=0) == {}
    assert sample(_terminal_circuit(), noise=NoiseModel(p2=0.01), shots=0) == {}


def test_circuit_without_clbits_counts_the_empty_key():
    bell_only = Circuit()
    bell_only.add_qreg("q", 2)
    bell_only.append("h", (0,))
    bell_only.append("cx", (0, 1))
    rotated = bell_only.copy()
    rotated.append("rx", (1,), (0.3,))
    noise = NoiseModel(p1=0.1, p2=0.1)
    assert ideal_distribution(bell_only) == {"": pytest.approx(1.0)}
    # noiseless statevector, noisy statevector, Pauli frames
    for circ, nm in [(bell_only, None), (rotated, noise), (bell_only, noise)]:
        assert sample(circ, noise=nm, shots=10, seed=1) == {"": 10}


# -- Pauli-frame sampling of Clifford circuits ---------------------------------

def test_pauli_frame_determinism_and_shot_sum():
    circ, noise = _clifford_midcircuit_circuit(), NoiseModel(p1=0.01, p2=0.05)
    a = sample(circ, noise=noise, shots=3000, seed=42)
    assert sum(a.values()) == 3000
    assert a == sample(circ, noise=noise, shots=3000, seed=42)
    assert a != sample(circ, noise=noise, shots=3000, seed=43)


def _bell_round(c: Circuit, first: int) -> None:
    c.append("h", (0,))
    c.append("cx", (0, 1))
    c.append("measure", (0,), clbits=(first,))
    c.append("measure", (1,), clbits=(first + 1,))
    c.append("reset", (0,))
    c.append("reset", (1,))


def test_pauli_frames_with_wide_keys_and_many_random_z_match_the_oracle():
    # 35 Bell rounds: 70 clbits, two words a key, and 35 Z draws that reach
    # a record, five bytes of them a shot; each round matches one on its own
    rounds, noise, shots = 35, NoiseModel(p1=0.05, p2=0.05), 20000
    wide, one = Circuit(), Circuit()
    for c, k in ((wide, rounds), (one, 1)):
        c.add_qreg("q", 2)
        c.add_creg("c", 2 * k)
        for r in range(k):
            _bell_round(c, 2 * r)
    counts = sample(wide, noise=noise, shots=shots, seed=5)
    dist = noisy_distribution(one, noise)
    for r in range(rounds):
        marginal = {}
        for key, cnt in counts.items():
            bits = key[::-1][2 * r:2 * r + 2][::-1]
            marginal[bits] = marginal.get(bits, 0) + cnt
        _assert_matches(marginal, dist, shots)


def _logged_sample(caplog, circ, noise, shots):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qedc.simulator"):
        counts = sample(circ, noise=noise, shots=shots, seed=7)
    (record,) = [r for r in caplog.records if r.name == "qedc.simulator"]
    return counts, json.loads(record.getMessage())


@pytest.mark.parametrize("circ, noise, backend, noisy", [
    (_clifford_terminal_circuit(), NoiseModel(p1=1.0, gates1=("h",)), "pauli-frame", 3),
    (_terminal_circuit(), NoiseModel(p1=1.0, gates1=("t",)), "statevector", 1),
    (_terminal_circuit(), None, "noiseless", 0),
], ids=["clifford", "statevector", "noiseless"])
def test_sample_logs_one_debug_record(caplog, circ, noise, backend, noisy):
    shots = 2000
    quiet = sample(circ, noise=noise, shots=shots, seed=7)
    assert not [r for r in caplog.records if r.name == "qedc.simulator"]
    counts, stats = _logged_sample(caplog, circ, noise, shots)
    assert counts == quiet
    # every listed gate fails with probability 1, so every shot is faulty.
    # As Pauli frames every shot is simulated; on statevectors one row per
    # sign pattern is: the t's X and Y faults negate the rzz after it, and
    # its Z faults negate nothing
    simulated = {"pauli-frame": shots, "statevector": 1, "noiseless": 0}[backend]
    # the circuit's 12 gates run as 13 kernels: each h is an ry and an X,
    # and the X of the h after the swap joins the cz-swap run while the other
    # two are runs of their own.  The one sign pattern's row joins row 0 at
    # the rzz, so the kernels from there run once for both
    passes = {"pauli-frame": 0, "statevector": 13, "noiseless": 13}[backend]
    # qubits 0 to 3 come into use one by one, so a row's kernels run over 2
    # (the ry), 4 (the h and t), 8 (the cx and rzz) and then 16 amplitudes:
    # 142 for row 0, and the 120 from the rzz once more for the other row
    amplitudes = {"pauli-frame": 0, "statevector": 262, "noiseless": 142}[backend]
    assert stats == {"backend": backend, "shots": shots,
                     "faulty_shots": shots if noisy else 0,
                     "simulated_shots": simulated, "statevector_passes": passes,
                     "statevector_amplitudes": amplitudes, "noisy_instructions": noisy}


def test_sample_logs_faulty_shot_count(caplog):
    circ, noise = _clifford_terminal_circuit(), NoiseModel(p2=0.05, gates2=("swap",))
    shots = 20000
    _, stats = _logged_sample(caplog, circ, noise, shots)
    assert stats["backend"] == "pauli-frame" and stats["noisy_instructions"] == 1
    sigma = math.sqrt(shots * 0.05 * 0.95)
    assert abs(stats["faulty_shots"] - shots * 0.05) < 5 * sigma


def test_sample_logs_simulated_shots(caplog):
    shots, noise = 4000, NoiseModel(p1=0.01, p2=0.02)
    # measured only at the end: one row per non-empty sign pattern over the
    # circuit's 5 rotations, far fewer than the faulty shots
    _, stats = _logged_sample(caplog, _terminal_circuit(), noise, shots)
    assert stats["backend"] == "statevector"
    assert 2 ** 5 < stats["faulty_shots"] < shots
    assert 0 < stats["simulated_shots"] < 2 ** 5
    # the first mid-circuit measurement is random: every shot joins a row
    # there, and a row splits at most in four over that measurement and
    # the random reset after it; there are 4 rotations
    _, stats = _logged_sample(caplog, _midcircuit_circuit(), noise, shots)
    assert 0 < stats["faulty_shots"] < shots
    assert 4 <= stats["simulated_shots"] <= 4 * 2 ** 4
    # as Pauli frames every shot is simulated
    _, stats = _logged_sample(caplog, _clifford_midcircuit_circuit(), noise, shots)
    assert stats["faulty_shots"] < shots
    assert stats["simulated_shots"] == shots


@pytest.mark.parametrize("width", [1, 13, 64, 65, 70])
def test_counts_match_a_row_by_row_tally(width):
    from collections import Counter

    from qedc.circuit import Register, counts_key

    rng = np.random.default_rng(width)
    records = (rng.random((3000, width)) < 0.02).astype(np.uint8)
    cregs = [Register("a", width // 2, 0), Register("b", width - width // 2, width // 2)]
    want = Counter(counts_key(row, cregs) for row in records.tolist())
    assert simulator._counts(simulator._pack(records), width, cregs) == dict(want)
