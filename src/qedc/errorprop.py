"""Detection signatures of Pauli faults, from one backward sweep of detector
observables: the detector-error-model construction of Gidney, "Stim: a fast
stabilizer circuit simulator" (arXiv:2103.02202).

A detector is a set of clbits; a fault flips it iff the fault anticommutes
with the detector's observable at the fault's position.  The observables are
held as per-qubit int rows, one bit per detector: bit d of x[q] (z[q]) is
set iff detector d's observable has X (Z) at qubit q.  They are walked from
the end of the circuit to the start, starting from the identity or from a
Pauli check measured after the circuit (a PCS right check): measuring qubit
q clears x[q], since Z_q on the collapsed state is only a phase, and XORs
Z_q into detector d if the measurement is the last one into a clbit of d (a
later measurement overwrites the clbit); a reset of q clears both of q's
rows, and a Clifford gate steps the rows with `clifford.step_xz`
over its named gates in reverse (every named gate's symplectic map is an
involution, so g and g† move the x/z bits alike).  The other rotations of
`clifford.PAULI_AXES` (generic angles, t and tdg) pass through, which is
exact whenever the generator cannot itself flip a detector: Iceberg logical
generators commute with both stabilizers and touch syndrome ancillas an
even number of times.
One sweep gives the signatures of X_q and Z_q, whose XORs are every
Pauli's, at every instruction in a few integer XORs per gate, where walking
each fault forward is quadratic.
"""
from __future__ import annotations

from functools import reduce
from itertools import product
from operator import xor
from typing import Iterator, Sequence

from .circuit import Instruction
from .clifford import PAULI_AXES, clifford_gate_sequence, step_xz
from .pauli import PauliString


def detector_sweep(instructions: Sequence[Instruction], x: Sequence[int], z: Sequence[int],
                   detectors: Sequence[Sequence[int]], sequences: Sequence | None = None
                   ) -> Iterator[tuple[int, list[int], list[int]]]:
    """Walk the detectors' observables from the last instruction to the first.

    `x` and `z` are the observables' rows (see the module docstring) after
    the last instruction: zero in detector d's bit for a detector of clbits
    measured inside `instructions`, a check's bits for one measured after
    them; both need a row for every qubit the instructions use.  `detectors`
    are disjoint sets of clbits.  Yields (i, x, z) for
    i = len(instructions) - 1 down to -1, where the rows hold the
    observables just after instruction i (i = -1: before the first
    instruction).  The same two lists are updated in place between yields;
    a caller that XORs a Pauli's bits into them adds it as an observable at
    that point.  `sequences`, if given, holds each instruction's
    `clifford_gate_sequence`, so a caller that has them decomposes nothing
    twice.
    """
    of_clbit = {cb: d for d, clbits in enumerate(detectors) for cb in clbits}
    x, z = list(x), list(z)
    for i in range(len(instructions) - 1, -1, -1):
        yield i, x, z
        inst = instructions[i]
        name = inst.name
        if name == "measure":
            q, d = inst.qubits[0], of_clbit.pop(inst.clbits[0], None)
            x[q] = 0
            if d is not None:
                z[q] ^= 1 << d
        elif name == "reset":
            x[inst.qubits[0]] = z[inst.qubits[0]] = 0
        elif (sequence := clifford_gate_sequence(inst) if sequences is None else sequences[i]) is not None:
            for gname, qubits in reversed(sequence):
                step_xz(x, z, gname, qubits)
        elif name not in PAULI_AXES and name != "barrier":
            raise ValueError(f"cannot propagate an error through gate {name!r}")
    yield -1, x, z


def depolarizing_signatures(xz: Sequence[tuple[int, int]]) -> list[int]:
    """Signatures of the 3 or 15 depolarizing Paulis on one or two qubits,
    from each qubit's (signature of X_q, signature of Z_q): signatures add
    under XOR.  This fixes the order of the depolarizing Paulis everywhere:
    I, X, Y, Z per qubit, the first qubit slowest, identity left out."""
    per_qubit = [(0, sx, sx ^ sz, sz) for sx, sz in xz]
    return [reduce(xor, combo) for combo in product(*per_qubit)][1:]


def propagate_flips(instructions: list[Instruction], start: int, error: PauliString) -> set[int]:
    """Clbits whose recorded outcome flips when `error` strikes just before
    instruction index `start`."""
    tail = instructions[start:]
    clbits = sorted({cb for inst in tail if inst.name == "measure" for cb in inst.clbits})
    for _, x, z in detector_sweep(tail, [0] * error.n, [0] * error.n, [(cb,) for cb in clbits]):
        pass
    flips = 0
    for q in range(error.n):
        if error.x >> q & 1:
            flips ^= z[q]
        if error.z >> q & 1:
            flips ^= x[q]
    return {cb for d, cb in enumerate(clbits) if flips >> d & 1}
