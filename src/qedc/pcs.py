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
        sign = d["sign"]
        if not (type(sign) is int and sign in (1, -1)):
            raise ValueError(f"a check's sign must be 1 or -1, got {sign!r}")
        return cls(
            PauliString.from_label(d["left"]),
            PauliString.from_label(d["right"]),
            sign,
            int(d["ancilla"]),
        )


@dataclass
class PcsMeta:
    check_pairs: list[CheckPair]
    payload_region: tuple[int, int]       # region in the input circuit
    payload_qubits: tuple[int, ...]       # global indices, ascending; local i = payload_qubits[i]
    payload_span: tuple[int, int] = (0, 0)  # payload position in the output circuit
    creg_sizes: tuple[tuple[str, int], ...] = ()  # the output circuit's, in declaration order

    @property
    def num_checks(self) -> int:
        return len(self.check_pairs)

    @property
    def ancilla_register(self) -> str:
        """The check ancillas' classical register, `ANCILLA_CREG` (the
        benchmark's reference check reads it here)."""
        return ANCILLA_CREG

    @property
    def expected_ancilla_bits(self) -> str:
        """The checks' expected bits in counts-key format: leftmost = highest check index."""
        return "".join(str(c.expected_bit) for c in reversed(self.check_pairs))

    def cregs(self) -> list[Register] | None:
        """The output circuit's classical registers; None for metadata
        written before they were recorded."""
        return registers(list(self.creg_sizes)) if self.creg_sizes else None

    def to_dict(self) -> dict:
        return {
            "code": "pcs",
            "checks": [c.to_dict() for c in self.check_pairs],
            "payload": list(self.payload_region),
            "payload_qubits": list(self.payload_qubits),
            "payload_span": list(self.payload_span),
            "cregs": [list(reg) for reg in self.creg_sizes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PcsMeta":
        """The record of `d`.  Of the keys older files carry, the ancilla
        register (always `ANCILLA_CREG`) is ignored, and expected ancilla
        bits must equal the ones the checks' signs give."""
        cregs = tuple((name, size) for name, size in d.get("cregs", ()))
        if not all(isinstance(name, str) and type(size) is int and size > 0 for name, size in cregs):
            raise ValueError(f"cregs must be [name, positive size] pairs, got {d['cregs']!r}")
        meta = cls(
            [CheckPair.from_dict(c) for c in d["checks"]],
            tuple(d["payload"]),
            tuple(d["payload_qubits"]),
            tuple(d.get("payload_span", (0, 0))),
            cregs,
        )
        bits = d.get("expected_ancilla_bits", meta.expected_ancilla_bits)
        if bits != meta.expected_ancilla_bits:
            raise ValueError(f"expected_ancilla_bits {bits!r} disagree with the checks' signs, "
                             f"which give {meta.expected_ancilla_bits!r}")
        return meta


# -- synthesis ----------------------------------------------------------------

# Below this total weight every partial sum of integer weights is exact in
# float32, whatever order the matrix product adds them in
FLOAT32_EXACT_WEIGHT = 1 << 24


def _candidate_rows(k: int) -> tuple[list[int], list[int], int]:
    """X and Z rows of every weight-1 and weight-2 Pauli over k qubits, in
    label order, and their count: bit j of x[q] (z[q]) is candidate j's X
    (Z) bit at q.

    A label starts at the highest qubit, so the candidates run by top qubit
    t, then P_t in X, Y, Z, then P_t alone, then P_t Q_s for s < t and Q in
    X, Y, Z: one block of 1 + 3t candidates per (t, P_t), from bit
    start[t] + (P_t's index)·(1 + 3t).  Qubit q holds P_q in every candidate
    of its own three blocks, and Q_q at 1 + 3q in every block above them,
    where its X and Y (Y and Z) set bits 0b011 (0b110).
    """
    start = [3 * t + 9 * t * (t - 1) // 2 for t in range(k + 1)]
    blocks = sum(1 << start[t] + p * (1 + 3 * t) for t in range(k) for p in range(3))
    x, z = [], []
    for q in range(k):
        size = 1 + 3 * q
        above = blocks >> start[q + 1] << start[q + 1] + size
        own = (1 << 2 * size) - 1 << start[q]  # the X and Y blocks of t = q
        x.append(own | above * 0b011)
        z.append(own << size | above * 0b110)
    return x, z, start[k]


def _column(rows: list[int], j: int) -> int:
    """Bit q set iff bit j of row q is."""
    bit = 1 << j
    return sum(1 << q for q, row in enumerate(rows) if row & bit)


def synthesize_checks(payload: list[Instruction], payload_qubits, num_checks: int) -> list[CheckPair]:
    """Pick `num_checks` check pairs for a Clifford payload by greedy coverage.

    A candidate left L scores by how many (fault location, single-qubit
    Pauli) pairs inside the payload propagate to an error that anticommutes
    with its right check R = U L U†.  Swept backward to just after
    instruction f, R equals L swept forward through instructions 0..f, so
    one forward pass of every candidate (`step_signed` on int rows, one bit
    per candidate) gives them all: X_q after f is covered iff that
    observable has Z at q, Z_q iff it has X at q, Y_q iff exactly one.
    Qubit q's rows change only at an instruction on q, so the pass records
    them once per segment, a run of instructions that leave q alone, with
    the segment's length as its weight, and merges equal rows by summing
    their weights: the coverage matrix has one row per distinct row, at most
    3 per segment, not 3k per instruction.  Pairs are chosen by weighted
    marginal coverage with lexicographic tie-breaks on the left's label,
    scored in float32 while the total weight is below
    `FLOAT32_EXACT_WEIGHT`, where every sum of integer weights is exact,
    and in float64 otherwise.  The rows are kept by global qubit, so the
    payload is decomposed as it stands; barriers are skipped.  The sign
    row of the same pass makes each column, after the last instruction, a
    candidate's right check R = U L U† with its sign.
    """
    payload_qubits = tuple(sorted(payload_qubits))
    k = len(payload_qubits)
    if k == 0:
        raise PcsError("payload touches no qubits")
    if num_checks < 1:
        raise PcsError("num_checks must be >= 1")
    payload = [inst for inst in payload if inst.name != "barrier"]
    outside = {q for inst in payload for q in inst.qubits}.difference(payload_qubits)
    if outside:
        raise PcsError(f"payload acts on qubits {sorted(outside)} outside payload_qubits")
    steps = []
    for inst in payload:
        if inst.name in ("measure", "reset"):
            raise PcsError("payload may not contain measurements or resets")
        sequence = clifford_gate_sequence(inst)
        if sequence is None:
            raise PcsError(f"payload instruction {inst.name!r} is not Clifford")
        steps.append((inst.qubits, sequence))

    left_x, left_z, count = _candidate_rows(k)
    if num_checks > count:
        raise PcsError(f"num_checks={num_checks} exceeds {count} candidates")

    # rows keyed by global qubit; a qubit's segment ends where an instruction
    # on it starts, and the step after the last instruction ends every segment
    x, z, sign = dict(zip(payload_qubits, left_x)), dict(zip(payload_qubits, left_z)), 0
    since = dict.fromkeys(payload_qubits, 0)
    weights = {}  # coverage row -> summed length of the segments that have it
    for f, (qubits, sequence) in enumerate(steps + [(payload_qubits, ())]):
        for q in qubits:
            length = f - since[q]
            if length:  # the candidates covering X_q, Y_q and Z_q there
                for row in (z[q], x[q] ^ z[q], x[q]):
                    weights[row] = weights.get(row, 0) + length
            since[q] = f
        for name, gate_qubits in sequence:
            sign = step_signed(x, z, sign, name, gate_qubits)
    width = (count + 7) // 8
    dtype = np.float32 if sum(weights.values()) < FLOAT32_EXACT_WEIGHT else np.float64
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in weights), np.uint8)
    coverage = np.unpackbits(packed.reshape(len(weights), width), axis=1, count=count,
                             bitorder="little").astype(dtype)
    weight = np.fromiter(weights.values(), dtype, len(weights))

    # candidates are in label order, so argmax breaks ties as the label does
    chosen = []
    for _ in range(num_checks):
        gain = weight @ coverage
        gain[chosen] = -1  # below every unchosen candidate, even one with no gain left
        best = int(np.argmax(gain))
        weight *= 1 - coverage[:, best]  # a covered fault scores no more
        chosen.append(best)
    x, z = [x[q] for q in payload_qubits], [z[q] for q in payload_qubits]
    return [CheckPair(PauliString(k, _column(left_x, j), _column(left_z, j)),
                      PauliString(k, _column(x, j), _column(z, j)), -1 if sign >> j & 1 else 1)
            for j in chosen]


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

    meta = PcsMeta(
        check_pairs=placed,
        payload_region=(region.start, region.end),
        payload_qubits=payload_qubits,
        payload_span=(payload_start, payload_end),
        creg_sizes=tuple((reg.name, reg.size) for reg in out.cregs),
    )
    return out, meta

