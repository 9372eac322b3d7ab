import hashlib
import json
import logging
import math
import random

import numpy as np
import pytest

import qedc.simulator as simulator
from qedc.circuit import Circuit
from qedc.simulator import (
    MAX_STATEVECTOR_QUBITS,
    NoiseModel,
    SimulationError,
    deterministic_distribution,
    ideal_distribution,
    sample,
    statevector,
)
from qedc.stabilizer import stabilizer_run
from oracles import circuit_unitary, noisy_distribution

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
        overlap = abs(np.vdot(got, want))
        assert overlap > 1 - 1e-10


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
], ids=["terminal", "midcircuit", "first-last", "clifford-terminal", "clifford-midcircuit"])
def test_sampling_matches_noisy_density_matrix_5sigma(circ, noise):
    shots = 100000
    _assert_matches(sample(circ, noise=noise, shots=shots, seed=11),
                    noisy_distribution(circ, noise), shots)


# sha256 of the sorted counts of sample(circ, noise, shots=2000, seed=2024):
# counts are byte-identical per (circuit, noise, shots, seed), so a change to
# the order of the depolarizing Paulis or of the random draws fails here
_PINNED_COUNTS = {
    "terminal": "5ea4f37f5f7c86688547f3f316878951123576bebea1bedf5a713bbacf5ae0fe",
    "midcircuit": "c0ac5e70f7c6283a251b18a02562a911912c6b20edd902532ee51d84544bec04",
    "first-last": "cbe291aec11aca811cdeaefaee509c28316f0aa54bb7ae81f5de07d47391b932",
    "clifford-terminal": "58d382338f667565d01969a809371a0446497d546d365248d1bcb066cd3c84c9",
    "clifford-midcircuit": "fc595bc267d1ec6427e3069188aece5a344376296f65b405f744f1a38c0d8fd2",
    "iceberg-qaoa": "17890e0bb5d22edbcfdeae749715c8d032cfe47765b04abff184a837a65c4e93",
}


@pytest.mark.parametrize("name, circ, noise", [
    ("terminal", _terminal_circuit(), NoiseModel(p1=0.1, p2=0.05)),
    ("midcircuit", _midcircuit_circuit(), NoiseModel(p1=0.02, p2=0.05)),
    ("first-last", _first_last_circuit(),
     NoiseModel(p1=0.5, p2=0.5, gates1=("rx",), gates2=("cz",))),
    ("clifford-terminal", _clifford_terminal_circuit(), NoiseModel(p1=0.1, p2=0.05)),
    ("clifford-midcircuit", _clifford_midcircuit_circuit(), NoiseModel(p1=0.05, p2=0.05)),
    ("iceberg-qaoa", _iceberg_qaoa_circuit(), NoiseModel(p1=1e-3, p2=2e-2)),
], ids=list(_PINNED_COUNTS))
def test_counts_are_pinned(name, circ, noise):
    counts = sample(circ, noise=noise, shots=2000, seed=2024)
    digest = hashlib.sha256(json.dumps(sorted(counts.items())).encode()).hexdigest()
    assert digest == _PINNED_COUNTS[name]


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
    # 4 rows of 16 amplitudes per batch: hundreds of batches
    monkeypatch.setattr(simulator, "_BATCH_AMPLITUDES", 64)
    noise = NoiseModel(p1=0.02, p2=0.05)
    for circ in (_terminal_circuit(), _midcircuit_circuit()):
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


def test_pauli_frame_blocks_match_the_oracle(monkeypatch):
    # many blocks of shots, the last one short, all on one reference run
    monkeypatch.setattr(simulator, "_FRAME_SHOTS", 997)
    for circ in (_clifford_terminal_circuit(), _clifford_midcircuit_circuit()):
        noise, shots = NoiseModel(p1=0.05, p2=0.05), 30000
        _assert_matches(sample(circ, noise=noise, shots=shots, seed=5),
                        noisy_distribution(circ, noise), shots)


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
    # every listed gate fails with probability 1, so every shot is faulty
    # and simulated
    assert stats == {"backend": backend, "shots": shots,
                     "faulty_shots": shots if noisy else 0,
                     "simulated_shots": shots if noisy else 0, "noisy_instructions": noisy}


def test_sample_logs_faulty_shot_count(caplog):
    circ, noise = _clifford_terminal_circuit(), NoiseModel(p2=0.05, gates2=("swap",))
    shots = 20000
    _, stats = _logged_sample(caplog, circ, noise, shots)
    assert stats["backend"] == "pauli-frame" and stats["noisy_instructions"] == 1
    sigma = math.sqrt(shots * 0.05 * 0.95)
    assert abs(stats["faulty_shots"] - shots * 0.05) < 5 * sigma


def test_sample_logs_simulated_shots(caplog):
    shots, noise = 4000, NoiseModel(p1=0.01, p2=0.02)
    # measured only at the end: exactly the faulty shots are simulated
    _, stats = _logged_sample(caplog, _terminal_circuit(), noise, shots)
    assert stats["backend"] == "statevector"
    assert 0 < stats["faulty_shots"] < shots
    assert stats["simulated_shots"] == stats["faulty_shots"]
    # the first mid-circuit measurement is random: every shot is simulated
    for circ in (_midcircuit_circuit(), _clifford_midcircuit_circuit()):
        _, stats = _logged_sample(caplog, circ, noise, shots)
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
    assert simulator._counts(records, cregs) == dict(want)
