"""Stabilizer (CHP) simulator for Clifford circuits (Aaronson and Gottesman,
"Improved simulation of stabilizer circuits", quant-ph/0406196).

The state extends `clifford.CliffordTableau`: its n destabilizers and n
stabilizers are the tableau's per-qubit int rows and sign row,
destabilizers g < n first, then stabilizers n + i.  A gate is a few int
operations (`clifford.step_signed`), and a measurement works on whole rows
at once.  It gives the Pauli-frame sampler its reference outcomes, reports
whether each outcome is deterministic, and can evaluate the expectation of
an arbitrary Pauli without collapsing it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .clifford import CliffordTableau
from .pauli import PauliString


@dataclass
class MeasurementRecord:
    instruction_index: int
    qubit: int
    clbit: int | None
    outcome: int
    deterministic: bool


class StabilizerState(CliffordTableau):
    """The CHP state U|0...0> of the Clifford U applied so far: its
    destabilizers and stabilizers are the rows of U's tableau."""

    def _anticommuting(self, p: PauliString) -> int:
        """Bit g set iff generator g anticommutes with p."""
        if p.n != self.n:
            raise ValueError(f"dimension mismatch: {p.n} vs {self.n}")
        anti = 0
        for q in range(self.n):
            if p.x >> q & 1:
                anti ^= self.z[q]
            if p.z >> q & 1:
                anti ^= self.x[q]
        return anti

    def apply_pauli(self, p: PauliString) -> None:
        """Conjugate the generators by a Pauli error (sign flips only)."""
        self.r ^= self._anticommuting(p)

    def measure_z(self, q: int, rng=None) -> tuple[int, bool]:
        """Measure Z on qubit q; returns (outcome, deterministic)."""
        n, x, z = self.n, self.x, self.z
        stabs = x[q] >> n
        if not stabs:
            px, pz, phase = self._product(x[q] << n)
            assert (px, pz) == (0, 1 << q)
            return (0 if phase == 0 else 1), True
        # the pivot is the lowest anticommuting stabilizer, generator n + p;
        # it is multiplied into every other anticommuting generator, except
        # destabilizer p, which becomes the pivot
        p = (stabs & -stabs).bit_length() - 1
        pivot = n + p
        keep = ~(1 << pivot | 1 << p)
        hit = x[q] & keep
        # per hit row, a 2-bit count of the qubits where it anticommutes with
        # the pivot (the count is even) and the parity of those whose product
        # is -i (the row's Pauli, then the pivot's: YX, XZ and ZY)
        c0 = c1 = neg = 0
        for j in range(n):
            xj, zj = x[j], z[j]
            xp, zp = xj >> pivot & 1, zj >> pivot & 1
            if xp:
                if zp:
                    anti, minus = xj ^ zj, zj & ~xj
                    zj ^= hit
                else:
                    anti, minus = zj, xj & zj
                xj ^= hit
            elif zp:
                anti, minus = xj, xj & ~zj
                zj ^= hit
            else:
                anti = minus = 0
            c1 ^= c0 & anti
            c0 ^= anti
            neg ^= minus
            x[j] = xj & keep | xp << p
            z[j] = zj & keep | zp << p
        z[q] |= 1 << pivot
        r = self.r
        sign = r >> pivot & 1
        r ^= (c1 ^ neg) & hit
        if sign:
            r ^= hit
        outcome = int(rng.integers(2)) if rng is not None else 0
        self.r = r & keep | sign << p | outcome << pivot
        return outcome, False

    def reset(self, q: int, rng=None) -> None:
        outcome, _ = self.measure_z(q, rng=rng)
        if outcome:
            self.apply_named("x", (q,))

    def expectation(self, p: PauliString) -> int | None:
        """+1/-1 if ±p stabilizes the state, None if the outcome is random."""
        anti = self._anticommuting(p)
        if anti >> self.n:
            return None
        px, pz, phase = self._product(anti << self.n)
        if (px, pz) != (p.x, p.z):
            raise AssertionError("Pauli commutes with the group but is not in it")
        return 1 if (phase - p.phase) % 4 == 0 else -1


def stabilizer_run(
    circ: Circuit,
    injected: PauliString | None = None,
    inject_before: int | None = None,
    seed: int | None = None,
    sequences=None,
) -> tuple[list[MeasurementRecord], StabilizerState]:
    """Run a Clifford circuit, optionally injecting a Pauli before instruction
    `inject_before` (len(instructions) injects at the very end).

    Random measurement outcomes are drawn from `seed` (0 when omitted).
    `sequences`, if given, holds each instruction's `clifford_gate_sequence`,
    barriers left out, so a caller that has them decomposes nothing twice.
    """
    n = circ.num_qubits
    total = len(circ.instructions)
    if injected is not None and not (inject_before is not None and 0 <= inject_before <= total):
        raise ValueError(f"inject_before must lie in [0, {total}], got {inject_before}")
    state = StabilizerState(n)
    rng = np.random.default_rng(0 if seed is None else seed)
    records: list[MeasurementRecord] = []
    steps = iter(sequences or ())
    for i, inst in enumerate(circ.instructions):
        if injected is not None and inject_before == i:
            state.apply_pauli(injected)
        if inst.name == "barrier":
            continue
        sequence = next(steps, None)
        if inst.name == "measure":
            outcome, det = state.measure_z(inst.qubits[0], rng=rng)
            records.append(MeasurementRecord(i, inst.qubits[0], inst.clbits[0], outcome, det))
        elif inst.name == "reset":
            state.reset(inst.qubits[0], rng=rng)
        else:
            state.apply_instruction(inst, sequence)
    if injected is not None and inject_before == total:
        state.apply_pauli(injected)
    return records, state
