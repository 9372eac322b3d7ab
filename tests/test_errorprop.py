import math
import random

import pytest

from oracles import forward_iceberg_estimate, forward_propagate_flips, tableau_pcs_estimate
from qedc.circuit import Circuit
from qedc.errorprop import propagate_flips
from qedc.layout import CouplingGraph
from qedc.pauli import PauliString
from qedc.pipeline import compile_circuit
from qedc.postprocess import estimate_overhead
from qedc.simulator import NoiseModel, sample
from test_iceberg import logical_circuit

_ONE_QUBIT = ["h", "s", "sdg", "x", "y", "z", "t", "tdg", "rz", "rx", "ry"]
_TWO_QUBIT = ["cx", "cz", "swap", "rzz", "rxx", "ryy"]


def _random_circuit(rng: random.Random, n: int, length: int, nc: int = 3) -> Circuit:
    """Every gate kind the sweep handles, rotations at Clifford and generic
    angles, and mid-circuit measurements (several into one clbit) and resets."""
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", nc)
    for _ in range(length):
        roll = rng.random()
        if roll < 0.12:
            c.append("measure", (rng.randrange(n),), clbits=(rng.randrange(nc),))
        elif roll < 0.18:
            c.append("reset", (rng.randrange(n),))
        elif roll < 0.22:
            c.append("barrier", tuple(range(n)))
        else:
            name = rng.choice(_ONE_QUBIT + _TWO_QUBIT)
            qubits = tuple(rng.sample(range(n), 2 if name in _TWO_QUBIT else 1))
            params = ()
            if name[0] == "r":
                angle = rng.choice([1, 2, 3, 0.37]) * math.pi / 2
                params = (angle,)
            c.append(name, qubits, params)
    return c


def test_propagate_flips_matches_forward_walk_on_random_circuits():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 5)
        circ = _random_circuit(rng, n, rng.randrange(5, 30))
        for start in range(len(circ.instructions) + 1):
            err = PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n))
            want = forward_propagate_flips(circ.instructions, start, err)
            assert propagate_flips(circ.instructions, start, err) == want


def test_propagate_flips_reads_a_clbits_last_measurement_as_sample_does():
    # x; measure q[0] -> c[0]; measure q[0] -> c[0]: an X or Y fault after
    # the x flips both measurements, and c[0] keeps the second
    c = Circuit()
    c.add_qreg("q", 1)
    c.add_creg("c", 1)
    c.append("x", (0,))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (0,), clbits=(0,))
    assert propagate_flips(c.instructions, 1, PauliString(1, 1, 0)) == {0}
    assert propagate_flips(c.instructions, 1, PauliString(1, 1, 1)) == {0}
    assert propagate_flips(c.instructions, 1, PauliString(1, 0, 1)) == set()
    shots = 4000
    counts = sample(c, NoiseModel(p1=1.0, gates1=("x",)), shots=shots, seed=3)
    assert abs(counts.get("0", 0) - shots * 2 / 3) < 5 * math.sqrt(shots * 2 / 9)
    # h; measure; h; measure: Z on the collapsed qubit is only a phase
    c = Circuit()
    c.add_qreg("q", 1)
    c.add_creg("c", 2)
    for clbit in (0, 1):
        c.append("h", (0,))
        c.append("measure", (0,), clbits=(clbit,))
    assert propagate_flips(c.instructions, 1, PauliString(1, 0, 1)) == set()
    assert propagate_flips(c.instructions, 1, PauliString(1, 1, 0)) == {0}
    assert propagate_flips(c.instructions, 2, PauliString(1, 0, 1)) == {1}


@pytest.mark.parametrize("cycles", [0, 1, 2, 3])
@pytest.mark.parametrize("routed", [False, True])
def test_estimate_matches_forward_walk_oracle(cycles, routed):
    noise = NoiseModel(p1=0.01, p2=0.05)
    for seed in range(2):
        rng = random.Random(100 * cycles + seed)
        k = 2 if cycles > 1 else rng.choice([2, 4])
        logical = logical_circuit(rng, k, rng.randrange(2, 6))
        coupling = None
        if routed:
            coupling = CouplingGraph(k + 4, [(i, i + 1) for i in range(k + 3)])
        enc, meta = compile_circuit(logical, code="iceberg", checks=cycles,
                                    coupling=coupling)
        assert routed == (meta.swap_count > 0)
        est = estimate_overhead(enc, meta, noise)
        keep, fractions = forward_iceberg_estimate(enc, meta.code_meta, noise)
        assert abs(est.keep_rate - keep) < 1e-12
        assert est.detectable_fraction_by_gate == fractions


def _pcs_input(rng: random.Random, n: int) -> Circuit:
    """A Clifford stretch between non-Clifford gates, then measurements, so
    the payload sits inside the circuit and noisy gates lie outside it."""
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", n)
    c.append("rx", (rng.randrange(n),), (0.37,))
    for _ in range(rng.randrange(3, 14)):
        name = rng.choice(["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap", "rzz", "ry"])
        two = name in ("cx", "cz", "swap", "rzz")
        params = (rng.choice([1, 2, 3]) * math.pi / 2,) if name[0] == "r" else ()
        c.append(name, tuple(rng.sample(range(n), 2 if two else 1)), params)
    c.append("t", (rng.randrange(n),))
    for q in range(n):
        c.append("measure", (q,), clbits=(q,))
    return c


def test_pcs_estimate_matches_suffix_tableau_oracle():
    noise = NoiseModel(p1=0.01, p2=0.05)
    rng = random.Random(4099)
    for _ in range(40):
        circ = _pcs_input(rng, rng.randrange(2, 6))
        sand, meta = compile_circuit(circ, code="pcs", checks=rng.randrange(1, 4))
        est = estimate_overhead(sand, meta, noise)
        keep, fractions = tableau_pcs_estimate(sand, meta.code_meta, noise)
        assert abs(est.keep_rate - keep) < 1e-12
        assert est.detectable_fraction_by_gate == fractions


@pytest.mark.parametrize("noise", [NoiseModel(p1=1.0, p2=1.0), NoiseModel(p1=0.75, p2=0.05)],
                         ids=["p-1", "p1-0.75"])
def test_estimate_matches_the_oracles_where_a_walsh_factor_is_not_positive(noise):
    # 1 - lam is -1/3 (one qubit) and -1/15 (two) at p = 1, and 0 for one qubit
    # at p1 = 0.75: the sum must take its products as they are, not in logs
    rng = random.Random(61)
    for cycles in (0, 1, 2, 3):
        logical = logical_circuit(rng, rng.choice([2, 4]) if cycles < 2 else 2, rng.randrange(2, 6))
        enc, meta = compile_circuit(logical, code="iceberg", checks=cycles)
        est = estimate_overhead(enc, meta, noise)
        keep, fractions = forward_iceberg_estimate(enc, meta.code_meta, noise)
        assert abs(est.keep_rate - keep) < 1e-12
        assert est.detectable_fraction_by_gate == fractions
    for _ in range(10):
        circ = _pcs_input(rng, rng.randrange(2, 5))
        sand, meta = compile_circuit(circ, code="pcs", checks=rng.randrange(1, 4))
        est = estimate_overhead(sand, meta, noise)
        keep, fractions = tableau_pcs_estimate(sand, meta.code_meta, noise)
        assert abs(est.keep_rate - keep) < 1e-12
        assert est.detectable_fraction_by_gate == fractions
