import math
import random

import pytest

import qedc.clifford
from qedc.circuit import Circuit, Instruction
from qedc.pauli import PauliString
from qedc.stabilizer import StabilizerState, stabilizer_run

from oracles import pauli_stabilizer_run

_NAMED_1Q = ["h", "s", "sdg", "x", "y", "z"]
_NAMED_2Q = ["cx", "cz", "swap"]


def random_circuit(rng, n, depth):
    """Clifford gates, rotations at multiples of pi/2, and mid-circuit
    measurements and resets."""
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", n)
    for _ in range(depth):
        kind = rng.random()
        if kind < 0.4 or n == 1:
            c.append(rng.choice(_NAMED_1Q), (rng.randrange(n),))
        elif kind < 0.6:
            c.append(rng.choice(_NAMED_2Q), tuple(rng.sample(range(n), 2)))
        elif kind < 0.7:
            c.append(rng.choice(["rz", "rx", "ry"]), (rng.randrange(n),),
                     (rng.randrange(4) * math.pi / 2,))
        elif kind < 0.78:
            c.append(rng.choice(["rzz", "rxx", "ryy"]), tuple(rng.sample(range(n), 2)),
                     (rng.randrange(4) * math.pi / 2,))
        elif kind < 0.93:
            c.append("measure", (rng.randrange(n),), clbits=(rng.randrange(n),))
        else:
            c.append("reset", (rng.randrange(n),))
    return c


def random_pauli(rng, n):
    return PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.choice((0, 2)))


def test_row_kernel_matches_pauli_string_chp():
    rng = random.Random(2718)
    for trial in range(300):
        n = rng.randrange(1, 7)
        circ = random_circuit(rng, n, rng.randrange(1, 30))
        seed = rng.randrange(1000)
        injected = at = None
        if trial % 2:
            injected, at = random_pauli(rng, n), rng.randrange(len(circ.instructions) + 1)
        records, state = stabilizer_run(circ, injected, at, seed)
        want, ref = pauli_stabilizer_run(circ, injected, at, seed)
        assert [(r.instruction_index, r.qubit, r.clbit, r.outcome, r.deterministic)
                for r in records] == want
        for _ in range(10):
            p = random_pauli(rng, n)
            assert state.expectation(p) == ref.expectation(p), p.to_label()
        # the reference's stabilizers, with their signs, stabilize the state
        assert all(state.expectation(s) == 1 for s in ref.stab)


def test_a_run_given_its_sequences_decomposes_nothing(monkeypatch):
    # the sequences leave barriers out, as sample() hands them over
    rng = random.Random(31)
    cases = []
    for _ in range(40):
        n = rng.randrange(2, 5)
        circ = random_circuit(rng, n, 20)
        circ.instructions.insert(rng.randrange(len(circ.instructions) + 1),
                                 Instruction("barrier", tuple(range(n))))
        sequences = [qedc.clifford.clifford_gate_sequence(i)
                     for i in circ.instructions if i.name != "barrier"]
        cases.append((circ, sequences, stabilizer_run(circ, seed=3)))

    def decompose(inst):
        raise AssertionError(f"{inst.name} decomposed again")

    monkeypatch.setattr(qedc.clifford, "clifford_gate_sequence", decompose)
    for circ, sequences, (want_records, want) in cases:
        records, state = stabilizer_run(circ, seed=3, sequences=sequences)
        assert records == want_records
        assert (state.x, state.z, state.r) == (want.x, want.z, want.r)


def test_measurement_outcomes_and_draws():
    state = StabilizerState(2)
    state.apply_named("h", (0,))
    state.apply_named("cx", (0, 1))
    assert state.expectation(PauliString.from_label("ZZ")) == 1
    assert state.expectation(PauliString.from_label("-YY")) == 1
    assert state.expectation(PauliString.from_label("ZI")) is None
    assert state.measure_z(0) == (0, False)  # no rng: outcome 0
    assert state.measure_z(1) == (0, True)
    state.apply_pauli(PauliString.from_label("XI"))
    assert state.measure_z(1) == (1, True)
    state.reset(1)
    assert state.measure_z(1) == (0, True)


@pytest.mark.parametrize("before", [-1, 3, None])
def test_injection_outside_the_circuit_is_an_error(before):
    circ = Circuit()
    circ.add_qreg("q", 1)
    circ.add_creg("c", 1)
    circ.append("h", (0,))
    circ.append("measure", (0,), clbits=(0,))
    with pytest.raises(ValueError, match="inject_before"):
        stabilizer_run(circ, injected=PauliString.from_label("Z"), inject_before=before)
    for ok in (0, 2):
        stabilizer_run(circ, injected=PauliString.from_label("Z"), inject_before=ok)
