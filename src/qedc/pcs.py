"""Pauli check sandwiching: synthesize left/right check pairs for a Clifford
payload and rewrite the circuit into the sandwiched form.

For a payload unitary U and a left check L, the right check is R = U L U†
with its ±1 sign split out, so that R·U·L = sign·U and a noiseless X-basis
ancilla measures the expected bit (0 for +1, 1 for -1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Region
from .circuit import Circuit, Instruction, Register, registers
from .clifford import clifford_gate_sequence, step_signed
from .pauli import PauliString

ANCILLA_QREG = "anc_q"
ANCILLA_CREG = "anc"


class PcsError(Exception):
    pass


@dataclass
class CheckPair:
    left: PauliString   # over payload-local qubits, phase +1
    right: PauliString  # over payload-local qubits, phase +1
    sign: int           # ±1, split out of the conjugated right check
    ancilla: int = -1   # global qubit index, assigned at insertion

    @property
    def expected_bit(self) -> int:
        return 0 if self.sign == 1 else 1

    def to_dict(self) -> dict:
        return {
            "left": self.left.to_label(),
            "right": self.right.to_label(),
            "sign": self.sign,
            "ancilla": self.ancilla,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckPair":
        return cls(
            PauliString.from_label(d["left"]),
            PauliString.from_label(d["right"]),
            int(d["sign"]),
            int(d["ancilla"]),
        )


@dataclass
class PcsMeta:
    ancilla_register: str
    check_pairs: list[CheckPair]
    expected_ancilla_bits: str  # counts-key format: leftmost = highest check index
    payload_region: tuple[int, int]       # region in the input circuit
    payload_qubits: tuple[int, ...]       # global indices, ascending; local i = payload_qubits[i]
    payload_span: tuple[int, int] = (0, 0)  # payload position in the output circuit
    creg_sizes: tuple[tuple[str, int], ...] = ()  # the output circuit's, in declaration order

    @property
    def num_checks(self) -> int:
        return len(self.check_pairs)

    def cregs(self) -> list[Register] | None:
        """The output circuit's classical registers; None for metadata
        written before they were recorded."""
        return registers(list(self.creg_sizes)) if self.creg_sizes else None

    def to_dict(self) -> dict:
        return {
            "code": "pcs",
            "ancilla_register": self.ancilla_register,
            "checks": [c.to_dict() for c in self.check_pairs],
            "expected_ancilla_bits": self.expected_ancilla_bits,
            "payload": list(self.payload_region),
            "payload_qubits": list(self.payload_qubits),
            "payload_span": list(self.payload_span),
            "cregs": [list(reg) for reg in self.creg_sizes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PcsMeta":
        checks = [CheckPair.from_dict(c) for c in d["checks"]]
        bits = d["expected_ancilla_bits"]
        if not (isinstance(bits, str) and len(bits) == len(checks) and set(bits) <= {"0", "1"}):
            raise ValueError(f"expected_ancilla_bits must be {len(checks)} characters 0 or 1, got {bits!r}")
        cregs = tuple((name, size) for name, size in d.get("cregs", ()))
        if not all(isinstance(name, str) and type(size) is int and size > 0 for name, size in cregs):
            raise ValueError(f"cregs must be [name, positive size] pairs, got {d['cregs']!r}")
        return cls(
            d["ancilla_register"],
            checks,
            bits,
            tuple(d["payload"]),
            tuple(d["payload_qubits"]),
            tuple(d.get("payload_span", (0, 0))),
            cregs,
        )


# -- synthesis ----------------------------------------------------------------

def _localize(instructions: list[Instruction], payload_qubits: tuple[int, ...]):
    remap = {g: i for i, g in enumerate(payload_qubits)}
    return [
        Instruction(inst.name, tuple(remap[q] for q in inst.qubits), inst.params, inst.clbits)
        for inst in instructions
        if inst.name != "barrier"
    ]


def _candidate_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Z bits of every weight-1 and weight-2 Pauli over k qubits, as
    (k, C) bool arrays with column j for candidate j, in label order."""
    a, b = np.triu_indices(k, 1)
    rank = np.zeros((3 * k + 9 * len(a), k), dtype=np.uint8)  # per qubit I, X, Y, Z = 0..3
    one = np.arange(3 * k)
    rank[one, one // 3] = one % 3 + 1
    two = np.arange(9 * len(a))
    rank[3 * k + two, a[two // 9]] = two // 3 % 3 + 1
    rank[3 * k + two, b[two // 9]] = two % 3 + 1
    # a label starts at the highest qubit, and np.lexsort's last key is its
    # primary one
    rank = rank[np.lexsort(rank.T)].T
    return (rank == 1) | (rank == 2), rank >= 2


def _column(rows, j: int) -> int:
    """Bit q set iff row q holds True in column j."""
    return sum(1 << q for q, row in enumerate(rows) if row[j])


def synthesize_checks(payload: list[Instruction], payload_qubits, num_checks: int) -> list[CheckPair]:
    """Pick `num_checks` check pairs for a Clifford payload by greedy coverage.

    A candidate left L scores by how many (fault location, single-qubit
    Pauli) pairs inside the payload propagate to an error that anticommutes
    with its right check R = U L U†.  Swept backward to just after
    instruction f, R equals L swept forward through instructions 0..f, so
    one forward pass of every candidate (`step_signed` on bool rows, one
    column per candidate) gives them all: X_q after f is covered iff that
    observable has Z at q, Z_q iff it has X at q, Y_q iff exactly one.
    Coverage is a (3k·F, C) bool matrix over (f, fault kind, q) and
    candidates, for k payload qubits, F instructions and C candidates.
    Pairs are chosen by marginal coverage with lexicographic tie-breaks on
    the left's label.  The same pass steps a sign row with `step_signed`,
    so after the last instruction each column is a candidate's right check
    R = U L U† with its sign.
    """
    payload_qubits = tuple(sorted(payload_qubits))
    k = len(payload_qubits)
    if k == 0:
        raise PcsError("payload touches no qubits")
    if num_checks < 1:
        raise PcsError("num_checks must be >= 1")
    sequences = []
    for inst in _localize(list(payload), payload_qubits):
        if inst.name in ("measure", "reset"):
            raise PcsError("payload may not contain measurements or resets")
        sequences.append(clifford_gate_sequence(inst))
        if sequences[-1] is None:
            raise PcsError(f"payload instruction {inst.name!r} is not Clifford")

    lefts = _candidate_rows(k)
    count = lefts[0].shape[1]
    if num_checks > count:
        raise PcsError(f"num_checks={num_checks} exceeds {count} candidates")

    x, z = list(lefts[0].copy()), list(lefts[1].copy())
    sign = np.zeros(count, dtype=bool)
    coverage = np.empty((len(sequences), 3, k, count), dtype=bool)
    for f, sequence in enumerate(sequences):
        for name, qubits in sequence:
            sign = step_signed(x, z, sign, name, qubits)
        coverage[f, 0] = z
        coverage[f, 2] = x
    # two of X_q, Y_q and Z_q are covered where the observable acts on q; the
    # Y rows hold x | z for that count, then x != z
    np.logical_or(coverage[:, 0], coverage[:, 2], out=coverage[:, 1])
    gain = 2 * coverage[:, 1].sum(axis=(0, 1), dtype=np.int32)
    np.not_equal(coverage[:, 0], coverage[:, 2], out=coverage[:, 1])
    coverage = coverage.reshape(-1, count)

    # candidates are in label order, so argmax breaks ties as the label does
    covered = np.zeros(len(coverage), dtype=bool)
    chosen = []
    for _ in range(num_checks):
        best = int(np.argmax(gain))
        newly = coverage[:, best] & ~covered
        covered |= newly
        gain -= coverage[newly].sum(axis=0, dtype=np.int32)
        gain[best] = -1  # below every unchosen candidate, even one with no gain left
        left = PauliString(k, _column(lefts[0], best), _column(lefts[1], best))
        right = PauliString(k, _column(x, best), _column(z, best))
        chosen.append(CheckPair(left, right, -1 if sign[best] else 1))
    return chosen


# -- insertion ----------------------------------------------------------------

def _controlled_pauli(ancilla: int, p: PauliString, payload_qubits) -> list[tuple[str, tuple[int, ...]]]:
    """Controlled-P as one controlled factor per non-identity tensor position.

    Z factors render as cz, X as cx, Y as cx conjugated into the Y basis on
    the target.
    """
    ops: list[tuple[str, tuple[int, ...]]] = []
    for q in range(p.n):
        code = p.code_at(q)
        gq = payload_qubits[q]
        if code == 0:
            continue
        if code == 1:  # X
            ops.append(("cx", (ancilla, gq)))
        elif code == 2:  # Z
            ops.append(("cz", (ancilla, gq)))
        else:  # Y
            ops.append(("sdg", (gq,)))
            ops.append(("cx", (ancilla, gq)))
            ops.append(("s", (gq,)))
    return ops


def insert_pcs(circ: Circuit, region: Region, checks: list[CheckPair]) -> tuple[Circuit, PcsMeta]:
    """Rewrite into the sandwich L_m..L_1 U R_1..R_m with measured ancillas."""
    m = len(checks)
    if m == 0:
        raise PcsError("no checks to insert")
    for inst in circ.instructions[region.start:region.end]:
        if inst.name in ("measure", "reset"):
            raise PcsError("payload region overlaps measurements")
    payload_qubits = tuple(sorted(region.qubits))
    for c in checks:
        if c.left.n != len(payload_qubits):
            raise PcsError("check width does not match payload qubit count")

    out = Circuit(list(circ.qregs), list(circ.cregs), [])
    anc_qreg = out.add_qreg(ANCILLA_QREG, m)
    anc_creg = out.add_creg(ANCILLA_CREG, m)
    ancillas = tuple(anc_qreg.start + i for i in range(m))
    placed = [CheckPair(c.left, c.right, c.sign, ancillas[i]) for i, c in enumerate(checks)]

    body = out.instructions
    body.extend(circ.instructions[: region.start])
    for i in range(m):
        body.append(Instruction("h", (ancillas[i],)))
    for i in range(m - 1, -1, -1):  # nesting order L_m .. L_1
        for name, qubits in _controlled_pauli(ancillas[i], placed[i].left, payload_qubits):
            body.append(Instruction(name, qubits))
    payload_start = len(body)
    body.extend(circ.instructions[region.start:region.end])
    payload_end = len(body)
    for i in range(m):  # R_1 .. R_m
        for name, qubits in _controlled_pauli(ancillas[i], placed[i].right, payload_qubits):
            body.append(Instruction(name, qubits))
    for i in range(m):
        body.append(Instruction("h", (ancillas[i],)))
    body.extend(circ.instructions[region.end:])
    for i in range(m):
        body.append(Instruction("measure", (ancillas[i],), clbits=(anc_creg.start + i,)))

    expected = "".join(str(placed[i].expected_bit) for i in range(m - 1, -1, -1))
    meta = PcsMeta(
        ancilla_register=ANCILLA_CREG,
        check_pairs=placed,
        expected_ancilla_bits=expected,
        payload_region=(region.start, region.end),
        payload_qubits=payload_qubits,
        payload_span=(payload_start, payload_end),
        creg_sizes=tuple((reg.name, reg.size) for reg in out.cregs),
    )
    return out, meta

