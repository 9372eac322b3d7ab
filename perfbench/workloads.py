"""The benchmark's three workloads and the seeded generator of their inputs.

Each workload is one OpenQASM 2 text plus the settings a user passes to the
pipeline.  The text is written here without calling qedc, so qedc receives
only the generated QASM.  The seed of a run picks the sampling seed; the
circuits do not depend on it (`pcs_wide`'s is one fixed random draw).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    code: str          # detection code `compile_circuit(code="auto")` must pick
    checks: int        # PCS check pairs, or Iceberg syndrome cycles
    shots: int         # shots sampled per pass
    heavy_hex: bool    # route onto the 127-node heavy-hex device
    qasm: Callable[[], str]


def _header(qubits: int) -> list[str]:
    return ['OPENQASM 2.0;', 'include "qelib1.inc";',
            f"qreg q[{qubits}];", f"creg c[{qubits}];"]


def _measure_all(qubits: int) -> list[str]:
    return [f"measure q[{q}] -> c[{q}];" for q in range(qubits)]


def qaoa_ring_6() -> str:
    """The 6-qubit, 2-layer ring QAOA of acceptance criterion 5."""
    lines = _header(6) + [f"h q[{q}];" for q in range(6)]
    for gamma, beta in ((0.7, 0.3), (0.4, 0.6)):
        lines += [f"rzz({gamma!r}) q[{q}],q[{(q + 1) % 6}];" for q in range(6)]
        lines += [f"rx({2 * beta!r}) q[{q}];" for q in range(6)]
    return "\n".join(lines + _measure_all(6)) + "\n"


def clifford_case_study_4() -> str:
    """The 4-qubit Clifford circuit of acceptance criterion 4."""
    gates = [("h", (0,)), ("cx", (0, 1)), ("s", (1,)), ("cx", (1, 2)),
             ("h", (3,)), ("cx", (2, 3)), ("cz", (0, 3)), ("sdg", (2,)),
             ("cx", (3, 0)), ("h", (2,))]
    lines = _header(4)
    lines += [f"{g} " + ",".join(f"q[{q}]" for q in qs) + ";" for g, qs in gates]
    return "\n".join(lines + _measure_all(4)) + "\n"


# the seed of pcs_wide's random circuit, and its number of gate layers
PCS_WIDE_CIRCUIT_SEED = "pcs_wide"
PCS_WIDE_LAYERS = 4


def random_clifford_16() -> str:
    """32 gates from {h, s, sdg, cx, cz} on 16 qubits, then measurements.

    The gates come in PCS_WIDE_LAYERS layers of 3 two-qubit and 5 one-qubit
    gates on 11 distinct random qubits, drawn with PCS_WIDE_CIRCUIT_SEED.  The circuit
    is the same in every run: the checks PCS picks, and so the compiled size
    and the cost of sampling it, changed by up to 15% between draws.
    """
    rng = random.Random(PCS_WIDE_CIRCUIT_SEED)
    lines = _header(16)
    for _ in range(PCS_WIDE_LAYERS):
        qs = rng.sample(range(16), 11)
        for i in range(3):
            lines.append(f"{rng.choice(('cx', 'cz'))} q[{qs[2 * i]}],q[{qs[2 * i + 1]}];")
        lines += [f"{rng.choice(('h', 's', 'sdg'))} q[{q}];" for q in qs[6:]]
    return "\n".join(lines + _measure_all(16)) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("iceberg_qaoa", "iceberg", 2, 500, False, qaoa_ring_6),
        Workload("pcs_heavyhex", "pcs", 2, 5000, True, clifford_case_study_4),
        Workload("pcs_wide", "pcs", 4, 800, False, random_clifford_16),
    )
}


@dataclass(frozen=True)
class Inputs:
    qasm: str
    sample_seed: int


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    return Inputs(workload.qasm(), rng.randrange(2 ** 31))
