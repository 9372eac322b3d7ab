"""Detection signatures of Pauli faults, from one backward sweep of detector
observables: the detector-error-model construction of Gidney, "Stim: a fast
stabilizer circuit simulator" (arXiv:2103.02202).

A detector is a set of clbits; a fault flips it iff the fault anticommutes
with the detector's observable at the fault's position.  The observable is
walked from the end of the circuit to the start, starting from the identity
or from a Pauli check measured after the circuit (a PCS right check):
measuring qubit q into one of its clbits multiplies in Z_q, a reset of q
clears q, and a Clifford gate conjugates it (every named gate's symplectic
map is an involution, so g and g† move the x/z bits alike).  Pauli
rotations at generic angles and t/tdg pass through, which is exact whenever
the generator cannot itself flip a detector: Iceberg logical generators
commute with both stabilizers and touch syndrome ancillas an even number of
times.  One sweep gives every fault's signature at every instruction, linear
in circuit length times detector count, where walking each fault forward is
quadratic.
"""
from __future__ import annotations

from functools import reduce
from itertools import product
from operator import xor
from typing import Iterator, Sequence

from .circuit import Instruction
from .clifford import _conj_named, clifford_gate_sequence, is_clifford
from .pauli import PauliString

_ROTATION_LIKE = frozenset(("rz", "rx", "ry", "rzz", "rxx", "ryy", "t", "tdg"))


def detector_sweep(instructions: Sequence[Instruction], observables: Sequence[PauliString],
                   detectors: Sequence[Sequence[int]]) -> Iterator[tuple[int, list[PauliString]]]:
    """Walk the detectors' observables from the last instruction to the first.

    `observables[d]` is detector d's observable after the last instruction:
    the identity for a detector of clbits measured inside `instructions`, a
    check for one measured after them.  `detectors` are disjoint sets of
    clbits.  Yields (i, observables) for i = len(instructions) - 1 down to -1,
    where observables[d] is detector d's observable just after instruction i
    (i = -1: before the first instruction).  The same list is updated in
    place between yields.
    """
    of_clbit = {cb: d for d, clbits in enumerate(detectors) for cb in clbits}
    obs = list(observables)
    for i in range(len(instructions) - 1, -1, -1):
        yield i, obs
        inst = instructions[i]
        name = inst.name
        if name == "measure":
            d = of_clbit.get(inst.clbits[0])
            if d is not None:
                o = obs[d]
                obs[d] = PauliString(o.n, o.x, o.z ^ (1 << inst.qubits[0]))
        elif name == "reset":
            keep = ~(1 << inst.qubits[0])
            obs[:] = [PauliString(o.n, o.x & keep, o.z & keep) for o in obs]
        elif is_clifford(inst):
            support = sum(1 << q for q in inst.qubits)
            gates = clifford_gate_sequence(inst)[::-1]
            for d, o in enumerate(obs):
                if (o.x | o.z) & support:
                    for gname, qubits in gates:
                        o = _conj_named(o, gname, qubits)
                    obs[d] = o
        elif name not in _ROTATION_LIKE and name != "barrier":
            raise ValueError(f"cannot propagate an error through gate {name!r}")
    yield -1, obs


def depolarizing_signatures(xz: Sequence[tuple[int, int]]) -> list[int]:
    """Signatures of the 3 or 15 depolarizing Paulis on one or two qubits,
    from each qubit's (signature of X_q, signature of Z_q): signatures add
    under XOR.  This fixes the order of the depolarizing Paulis everywhere:
    I, X, Y, Z per qubit, the first qubit slowest, identity left out."""
    per_qubit = [(0, sx, sx ^ sz, sz) for sx, sz in xz]
    return [reduce(xor, combo) for combo in product(*per_qubit)][1:]


def fault_signatures(observables: Sequence[PauliString], qubits: tuple[int, ...]) -> list[int]:
    """Signature of each depolarizing Pauli on `qubits`, given the detector
    observables at the fault: bit d is set iff the fault flips detector d."""
    return depolarizing_signatures([
        (sum(1 << d for d, o in enumerate(observables) if o.z >> q & 1),
         sum(1 << d for d, o in enumerate(observables) if o.x >> q & 1))
        for q in qubits
    ])


def propagate_flips(instructions: list[Instruction], start: int, error: PauliString) -> set[int]:
    """Clbits whose recorded outcome flips when `error` strikes just before
    instruction index `start`."""
    tail = instructions[start:]
    clbits = sorted({cb for inst in tail if inst.name == "measure" for cb in inst.clbits})
    for _, obs in detector_sweep(tail, [PauliString(error.n)] * len(clbits),
                                 [(cb,) for cb in clbits]):
        pass
    return {cb for cb, o in zip(clbits, obs) if not o.commutes_with(error)}
