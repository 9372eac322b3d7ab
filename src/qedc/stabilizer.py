"""Stabilizer (CHP-style) simulator for Clifford circuits.

Tracks n stabilizer and n destabilizer generators as signed Pauli strings.
Used as the verification backend for error-detection properties: it reports
whether each measurement outcome is deterministic and can evaluate the
expectation of an arbitrary Pauli without collapsing it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Instruction
from .clifford import _conj_named, clifford_gate_sequence, is_clifford
from .pauli import PauliString, pauli_mul, single_qubit_pauli


@dataclass
class MeasurementRecord:
    instruction_index: int
    qubit: int
    clbit: int | None
    outcome: int
    deterministic: bool


class StabilizerState:
    def __init__(self, n: int):
        self.n = n
        self.destab = [PauliString(n, 1 << q, 0, 0) for q in range(n)]
        self.stab = [PauliString(n, 0, 1 << q, 0) for q in range(n)]

    def apply_named(self, name: str, qubits: tuple[int, ...]) -> None:
        # a generator with no support on the gate's qubits is left as it is
        mask = sum(1 << q for q in qubits)
        self.destab = [_conj_named(p, name, qubits) if (p.x | p.z) & mask else p
                       for p in self.destab]
        self.stab = [_conj_named(p, name, qubits) if (p.x | p.z) & mask else p
                     for p in self.stab]

    def apply_instruction(self, inst: Instruction) -> None:
        if not is_clifford(inst):
            raise ValueError(f"non-Clifford instruction: {inst.name}")
        for name, qubits in clifford_gate_sequence(inst):
            self.apply_named(name, qubits)

    def apply_pauli(self, p: PauliString) -> None:
        """Conjugate the generators by a Pauli error (sign flips only)."""
        self.destab = [
            row if row.commutes_with(p) else PauliString(row.n, row.x, row.z, (row.phase + 2) % 4)
            for row in self.destab
        ]
        self.stab = [
            row if row.commutes_with(p) else PauliString(row.n, row.x, row.z, (row.phase + 2) % 4)
            for row in self.stab
        ]

    def measure_z(self, q: int, rng=None) -> tuple[int, bool]:
        """Measure Z on qubit q; returns (outcome, deterministic)."""
        zq = single_qubit_pauli(self.n, q, "Z")
        anti = [i for i in range(self.n) if not self.stab[i].commutes_with(zq)]
        if anti:
            p = anti[0]
            pivot = self.stab[p]
            for i in anti[1:]:
                self.stab[i] = pauli_mul(self.stab[i], pivot)
            self.destab = [
                row if row.commutes_with(zq) else pauli_mul(row, pivot)
                for row in self.destab
            ]
            self.destab[p] = pivot
            outcome = int(rng.integers(2)) if rng is not None else 0
            self.stab[p] = PauliString(self.n, 0, 1 << q, 0 if outcome == 0 else 2)
            return outcome, False
        sign = self.expectation(zq)
        assert sign is not None
        return (0 if sign > 0 else 1), True

    def reset(self, q: int, rng=None) -> None:
        outcome, _ = self.measure_z(q, rng=rng)
        if outcome:
            self.apply_named("x", (q,))

    def expectation(self, p: PauliString) -> int | None:
        """+1/-1 if ±p stabilizes the state, None if the outcome is random."""
        if any(not s.commutes_with(p) for s in self.stab):
            return None
        acc = PauliString(self.n, 0, 0, 0)
        for i in range(self.n):
            if not self.destab[i].commutes_with(p):
                acc = pauli_mul(acc, self.stab[i])
        if acc.x != p.x or acc.z != p.z:
            raise AssertionError("Pauli commutes with the group but is not in it")
        diff = (acc.phase - p.phase) % 4
        return 1 if diff == 0 else -1


def stabilizer_run(
    circ: Circuit,
    injected: PauliString | None = None,
    inject_before: int | None = None,
    seed: int | None = None,
) -> tuple[list[MeasurementRecord], StabilizerState]:
    """Run a Clifford circuit, optionally injecting a Pauli before instruction
    `inject_before` (len(instructions) injects at the very end).

    Random measurement outcomes are drawn from `seed` (0 when omitted).
    """
    n = circ.num_qubits
    state = StabilizerState(n)
    rng = np.random.default_rng(0 if seed is None else seed)
    records: list[MeasurementRecord] = []
    total = len(circ.instructions)
    for i, inst in enumerate(circ.instructions):
        if injected is not None and inject_before == i:
            state.apply_pauli(injected)
        if inst.name == "barrier":
            continue
        if inst.name == "measure":
            outcome, det = state.measure_z(inst.qubits[0], rng=rng)
            records.append(MeasurementRecord(i, inst.qubits[0], inst.clbits[0], outcome, det))
        elif inst.name == "reset":
            state.reset(inst.qubits[0], rng=rng)
        else:
            state.apply_instruction(inst)
    if injected is not None and inject_before == total:
        state.apply_pauli(injected)
    return records, state
