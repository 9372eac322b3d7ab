"""Desk-scale execution backend: dense statevector simulation, and
Monte-Carlo depolarizing noise pushed through circuits as Pauli frames.

Basis convention: bit q of a computational-basis index is qubit q
(little-endian), so amplitude index 0b01 on two qubits means qubit 0 in |1>.
"""
from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (GATE_SPECS, ONE_QUBIT_GATES, TWO_QUBIT_GATES, Circuit, Instruction, Register, counts_key,
                      terminal_start)
from .clifford import PAULI_AXES, clifford_gate_sequence, step_xz
from .errorprop import depolarizing_signatures, detector_sweep
from .stabilizer import stabilizer_run

MAX_STATEVECTOR_QUBITS = 14

_SQ2 = 1 / math.sqrt(2)

DEFAULT_GATES_1Q = tuple(g for g in GATE_SPECS if g in ONE_QUBIT_GATES)
DEFAULT_GATES_2Q = tuple(g for g in GATE_SPECS if g in TWO_QUBIT_GATES)


@dataclass
class NoiseModel:
    """Depolarizing noise attached after each listed gate."""

    p1: float = 0.0
    p2: float = 0.0
    gates1: tuple[str, ...] = DEFAULT_GATES_1Q
    gates2: tuple[str, ...] = DEFAULT_GATES_2Q

    def __post_init__(self):
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValueError("depolarizing probabilities must lie in [0, 1]")
        for field, unitary in (("gates1", ONE_QUBIT_GATES), ("gates2", TWO_QUBIT_GATES)):
            names = getattr(self, field)
            if not (isinstance(names, (list, tuple))
                    and all(isinstance(g, str) and g in unitary for g in names)):
                raise ValueError(f"{field} must be a list of gates from {sorted(unitary)}, got {names!r}")
            setattr(self, field, tuple(names))

    def gate_error(self, inst) -> float:
        if len(inst.qubits) == 1 and inst.name in self.gates1:
            return self.p1
        if len(inst.qubits) == 2 and inst.name in self.gates2:
            return self.p2
        return 0.0

    def to_dict(self) -> dict:
        return {"p1": self.p1, "gates1": list(self.gates1),
                "p2": self.p2, "gates2": list(self.gates2)}

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        return cls(
            p1=float(d.get("p1", 0.0)),
            p2=float(d.get("p2", 0.0)),
            gates1=d.get("gates1", DEFAULT_GATES_1Q),
            gates2=d.get("gates2", DEFAULT_GATES_2Q),
        )


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Unitary of a gate; for two-qubit gates the first listed qubit is the
    most significant bit of the 4x4 basis."""
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "z":
        return np.diag([1, -1]).astype(complex)
    if name == "h":
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
    if name == "s":
        return np.diag([1, 1j]).astype(complex)
    if name == "sdg":
        return np.diag([1, -1j]).astype(complex)
    if name == "t":
        return np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
    if name == "tdg":
        return np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex)
    if name in ("rz", "rx", "ry"):
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        if name == "rz":
            return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(complex)
        if name == "rx":
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if name in ("rzz", "rxx", "ryy"):
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        if name == "rzz":
            e0, e1 = np.exp(-0.5j * theta), np.exp(0.5j * theta)
            return np.diag([e0, e1, e1, e0]).astype(complex)
        pp = gate_matrix("x") if name == "rxx" else gate_matrix("y")
        return (c * np.eye(4) - 1j * s * np.kron(pp, pp)).astype(complex)
    raise ValueError(f"no unitary for gate {name!r}")


class SimulationError(Exception):
    pass


def _compact(circ: Circuit) -> Circuit:
    """Restrict a circuit to the qubits its instructions touch (itself if they are all of them)."""
    used = sorted({q for inst in circ.instructions for q in inst.qubits})
    if len(used) == circ.num_qubits:
        return circ
    index = {q: i for i, q in enumerate(used)}.__getitem__
    remapped = {qubits: tuple(map(index, qubits)) for qubits in {inst.qubits for inst in circ.instructions}}
    out = [Instruction(inst.name, remapped[inst.qubits], inst.params, inst.clbits) for inst in circ.instructions]
    return Circuit([Register("q", len(used), 0)], list(circ.cregs), out)


class _Permutation(NamedTuple):
    """A run of Clifford gates with one nonzero entry per matrix row (cx, cz,
    swap, x, y, z, s, sdg, and rotations such as rz(pi/2)) as one kernel:
    out[:, j] = phase[j] * psi[:, perm[j]]."""

    perm: np.ndarray | None  # None for the identity
    phase: np.ndarray | None  # None for all ones


class _Rotation(NamedTuple):
    """exp(-i theta P / 2) for a Pauli P with bits xmask and zmask over the
    basis index (t and tdg are diagonal ones up to a phase).  By coef[f, p],
    f 1 in a row that runs it at -theta and p the parity of j & zmask, a
    diagonal P scales state j (row 1 is the conjugate of row 0); any other
    gives c psi[j] + coef[f, p] psi[j ^ xmask] (row 1 is minus row 0)."""

    coef: np.ndarray  # (2, 2) complex
    parity: np.ndarray | None  # parity of j & zmask, or None if zmask is 0
    perm: np.ndarray | None  # j ^ xmask, or None if P is diagonal
    c: float = 0.0  # cos(theta / 2)


class _Batch:
    """A batch of states, one state per row (bit q of a column index is
    qubit q), with the spare arrays kernels run through, never zeroed, so
    their memory is not handed back and faulted in again between kernels.
    Rows are contiguous, of 2**width amplitudes in buffers sized for 2**n:
    qubits from `width` up are |0>.  `passes` counts the kernels run, and
    `amplitudes` the rows times 2**width they ran over."""

    def __init__(self, rows: int, n: int):
        self.psi, self._out, self._scale = (make(rows << n, dtype=complex).reshape(rows, -1)
                                            for make in (np.zeros, np.empty, np.empty))
        self._coef = np.empty(2 << n, dtype=complex)
        self.width, self.passes, self.amplitudes = n, 0, 0

    def fit(self, width: int, active: int) -> None:
        """Lay the first `active` rows out at 2**width amplitudes, filling a
        new top half with zeros or dropping a top half that must be zero."""
        if width != self.width:
            rows, keep = len(self.psi), 1 << min(width, self.width)
            psi, out, scale = (a.base[:rows << width].reshape(rows, -1) for a in (self._out, self.psi, self._scale))
            psi[:active, :keep] = self.psi[:active, :keep]
            psi[:active, keep:] = 0
            self.psi, self._out, self._scale, self.width = psi, out, scale, width

    def apply(self, kernels, active: int, flip: np.ndarray | None = None) -> None:
        """Run the kernels on the first `active` rows; `flip` marks the rows
        that run a rotation at -theta.  A kernel that moves amplitudes reads
        whole rows, so its inner loops run over contiguous memory whichever
        qubits it acts on.  A kernel on qubits below `width` maps the first
        2**width states onto themselves, so it runs on them alone."""
        f = None if flip is None else flip.astype(np.intp)
        m = 1 << self.width
        for kernel in kernels:
            self.passes += 1
            self.amplitudes += active * m
            psi, out = self.psi[:active], self._out[:active]
            if isinstance(kernel, _Permutation):
                scale = None if kernel.phase is None else kernel.phase[:m]
            elif kernel.parity is None:  # one coefficient for every state
                scale = kernel.coef[0, 0] if f is None else kernel.coef[f, :1]
            else:  # a coefficient per state, then a row of them per batch row
                # indices 0 or 1 on axes of length 2: "clip" gives what "raise"
                # would, without the buffer (see below)
                coef = self._coef[:2 * m].reshape(2, m)
                np.take(kernel.coef, kernel.parity[:m], axis=1, out=coef, mode="clip")
                scale = coef[0] if f is None else np.take(coef, f, axis=0, out=self._scale[:active],
                                                          mode="clip")
            if kernel.perm is None:  # diagonal: scale in place
                if scale is not None:
                    psi *= scale
                continue
            # mode="clip" writes straight into out; "raise" buffers
            np.take(psi, kernel.perm[:m], axis=1, out=out, mode="clip")
            if scale is not None:
                out *= scale
            if isinstance(kernel, _Rotation):
                psi *= kernel.c
                out += psi
            self.psi, self._out = self._out, self.psi


class _Op(NamedTuple):
    """A non-barrier instruction, ready to run on a batch of states."""

    name: str
    qubits: tuple[int, ...]
    clbit: int = -1
    kernels: tuple | None = None  # None for measure and reset
    error: float = 0.0  # depolarizing probability after the gate
    width: int = 0  # qubits from this one up are |0> while the op runs
    rotation: int = -1  # a non-Clifford rotation's column in the sign patterns
    sequence: list | None = None  # its clifford_gate_sequence


def _monomial(name: str, params: tuple[float, ...]):
    """A gate with one nonzero entry per matrix row as its entries (None if
    all are 1) and, for each bit a (from the first listed qubit, the high
    bit) of the entry's column that differs from the row's, (a, the row's
    bits to XOR, a constant): a Clifford's column is affine in its row."""
    if PAULI_AXES.get(name, (0,))[0] and math.cos(params[0] / 2) and math.sin(params[0] / 2):
        return None  # cos I - i sin P, P off the diagonal: two entries a row
    mat = gate_matrix(name, params)
    if ((mat != 0).sum(axis=1) != 1).any():
        return None
    k, cols, entries = len(mat).bit_length() - 1, (mat != 0).argmax(axis=1), mat.sum(axis=1)
    bit = [[(int(c) >> (k - 1 - a)) & 1 for a in range(k)] for c in cols]
    maps = [(a, [s for s in range(k) if bit[1 << (k - 1 - s)][a] ^ bit[0][a]], bit[0][a])
            for a in range(k)]
    return None if (entries == 1).all() else entries, [m for m in maps if m[1:] != ([m[0]], 0)]


def _fuse(run, bits: list[np.ndarray]) -> _Permutation:
    """A run of (qubits, _monomial) as one kernel, from bits[q], bit q of
    every basis state j: stepping each j back through the gates, last first,
    gives the state perm[j] it reads and the product of the entries it meets."""
    start, bits, phase = bits, list(bits), None
    for qubits, (entries, maps) in reversed(run):
        if entries is not None:
            row = bits[qubits[0]] if len(qubits) == 1 else 2 * bits[qubits[0]] + bits[qubits[1]]
            phase = entries[row] if phase is None else phase * entries[row]
        old = [bits[q] for q in qubits]
        for a, sources, const in maps:
            bits[qubits[a]] = functools.reduce(np.bitwise_xor, [old[s] for s in sources] + [1] * const)
    moved = any(b is not b0 for b, b0 in zip(bits, start))
    return _Permutation(sum(b << q for q, b in enumerate(bits)) if moved else None, phase)


def _program(insts, n: int, errors=None, sequences=None) -> list[_Op]:
    """An op per instruction but barriers, each gate as kernels.  A Clifford
    with one nonzero entry per matrix row joins the open run, and h, which is
    X ry(pi/2) and ry(-pi/2) X, puts its X into one; any other gate is one
    _Rotation.  A run is one _Permutation on the op where it starts (the
    other ops of the run have none), and it stops at every op where a batch
    of sample() can start or stop: rotations, measurements and resets.  An
    op's width is 1 + its highest qubit touched since that qubit's last
    reset, and every op of a run takes the run's width, its last op's.
    `errors`: each instruction's NoiseModel.gate_error (0.0 when omitted),
    and `sequences` its clifford_gate_sequence, barriers left out."""
    if sequences is None:
        insts = [i for i in insts if i.name != "barrier"]
        sequences = [clifford_gate_sequence(i) for i in insts]
    index = np.arange(1 << n)
    bits = list(index >> np.arange(n)[:, None] & 1)
    monomial = functools.cache(_monomial)
    parity = functools.cache(lambda mask: functools.reduce(np.bitwise_xor, [bits[q] for q in range(n)
                                                                            if mask >> q & 1]))
    moved = functools.cache(lambda mask: index ^ mask)
    kernels, run, start = [[] for _ in insts], [], 0  # run: the open run's (qubits, _monomial)
    widths, columns, counter, live = [], [-1] * len(insts), itertools.count(), 0

    def close():
        if run:
            kernels[start].append(_fuse(run, bits))
            widths[start:start + len(run)] = [widths[start + len(run) - 1]] * len(run)
            run.clear()

    def rotation(i, qubits, mask, pauli, a, b):  # a, b: P's phases if it is diagonal, else cos, sin
        close()
        px, pz = pauli
        if px:  # (-i s P psi)[j] = -i s i**y (-1)**|(j ^ xmask) & zmask| psi[j ^ xmask],
            # y = |xmask & zmask|, and that sign is (-1)**y (-1)**|j & zmask|
            v = complex(0, -b) * (-1j) ** (pz * len(qubits))
            coef = [[v, -v], [-v, v]]
        else:
            coef, a = [[a, b], [a.conjugate(), b.conjugate()]], 0.0
        kernels[i].append(_Rotation(np.array(coef), parity(mask) if pz else None,
                                    moved(mask) if px else None, a))

    for i, (inst, sequence) in enumerate(zip(insts, sequences)):
        name, qubits = inst.name, inst.qubits
        mask = 1 << qubits[0] | 1 << qubits[-1]  # every op acts on one or two qubits
        widths.append((live | mask).bit_length())
        live = live & ~mask if name == "reset" else live | mask
        if name in ("measure", "reset"):
            close()
        elif name == "h" and run:
            run.append((qubits, monomial("x", ())))
            rotation(i, qubits, mask, (1, 1), _SQ2, -_SQ2)
        elif name == "h":
            rotation(i, qubits, mask, (1, 1), _SQ2, _SQ2)
            run[:], start = [(qubits, monomial("x", ()))], i
        elif (clifford := sequence is not None) and (mono := monomial(name, inst.params)) is not None:
            start = start if run else i
            run.append((qubits, mono))
        elif PAULI_AXES[name][0]:
            half, columns[i] = inst.params[0] / 2, -1 if clifford else next(counter)
            rotation(i, qubits, mask, PAULI_AXES[name], math.cos(half), math.sin(half))
        else:
            mat, columns[i] = gate_matrix(name, inst.params), -1 if clifford else next(counter)
            rotation(i, qubits, mask, PAULI_AXES[name], mat[0, 0], mat[1, 1])
    close()
    return [_Op(inst.name, inst.qubits, inst.clbits[0] if inst.clbits else -1,
                None if inst.name in ("measure", "reset") else tuple(ks),
                error, width, column, sequence)
            for inst, ks, error, width, column, sequence
            in zip(insts, kernels, errors or itertools.repeat(0.0), widths, columns, sequences)]


def _halves(psi: np.ndarray, q: int) -> np.ndarray:
    """(B, high bits, 2, low bits) view of a batch; axis 2 is qubit q."""
    return psi.reshape(psi.shape[0], -1, 2, 1 << q)


def _prob_one(psi: np.ndarray, q: int) -> np.ndarray:
    """Probability per row that qubit q reads 1, on the rows' real view."""
    ones = _halves(psi.view(float), q + 1)[:, :, 1]
    return np.einsum("abc,abc->a", ones, ones)


def _settle(psi: np.ndarray, op: _Op, p1: np.ndarray, outcomes: np.ndarray) -> None:
    """Collapse each row of a measurement or reset onto its outcome and
    renormalise, in place; a reset then returns its qubit to |0>.  A
    broadcast over the halves multiplies the kept one by 1 / scale and the
    other by 0, which is how numpy divides a complex number by a real one.
    Where every row reads 0 with p1 exactly 0 (Iceberg syndromes), the kept
    half would be scaled by exactly 1 / sqrt(1.0), so it is left alone."""
    view = _halves(psi, op.qubits[0])
    if not (p1.any() or outcomes.any()):
        view[:, :, 1] = 0
        return
    # complex, so the broadcasts cast nothing
    inverse = (1.0 / np.sqrt(np.maximum(np.where(outcomes, p1, 1.0 - p1), 1e-300))).astype(complex)
    if op.name == "reset":
        kept = np.where(outcomes[:, None, None], view[:, :, 1], view[:, :, 0])
        np.multiply(kept, inverse[:, None, None], out=view[:, :, 0])
        view[:, :, 1] = 0
    else:
        view *= np.where(outcomes[:, None] == np.arange(2), inverse[:, None], 0)[:, None, :, None]


def statevector(circ: Circuit) -> np.ndarray:
    """Noiseless final state; trailing measurements/barriers are ignored.

    Raises SimulationError on a reset or a mid-circuit measurement, which no
    single state describes.
    """
    n = circ.num_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise SimulationError(f"{n} qubits exceeds the statevector limit of {MAX_STATEVECTOR_QUBITS}")
    ops = _program(circ.instructions, n)
    tail = terminal_start(ops)
    if any(op.name == "reset" for op in ops):
        raise SimulationError("reset is not supported by statevector()")
    if any(op.kernels is None for op in ops[:tail]):
        raise SimulationError("mid-circuit measurement is not supported by statevector()")
    run = _NoiselessRun(ops, n, 0, _RANDOM_TOL)
    run.advance(tail)
    run.batch.fit(n, 1)
    return run.psi[0]


def ideal_distribution(circ: Circuit) -> dict[str, float]:
    """Exact noiseless outcome distribution over the circuit's counts keys.

    Measurements map qubits to clbits; unmeasured clbits read 0.  This is
    `deterministic_distribution`: resets and deterministic mid-circuit
    measurements are followed, a random reset down both outcomes, and a
    random mid-circuit measurement raises SimulationError.
    """
    return deterministic_distribution(circ)


class _NoiselessRun:
    """One noiseless state stepped through the ops from |0...0> on demand.

    It stops before the first measurement or reset whose outcome is random
    (one-outcome probability farther than `tol` from 0 and 1), and then
    `random` is set; `index` is the op it stands before and `record` the
    deterministic outcomes so far, one byte per clbit.
    """

    def __init__(self, ops: list[_Op], n: int, clbits: int, tol: float):
        self.ops, self.n, self.tol = ops, n, tol
        self.batch = _Batch(1, n)  # |0...0>
        self.batch.psi[0, 0] = 1.0
        self.index = 0
        self.record = np.zeros(clbits, dtype=np.uint8)
        self.random = False

    @property
    def psi(self) -> np.ndarray:
        return self.batch.psi

    def advance(self, end: int) -> None:
        """Step to the state before ops[end], or before a random outcome."""
        while self.index < end and not self.random:
            op = self.ops[self.index]
            if op.kernels == ():  # a fused run's op: the run's kernel ran at its start
                self.index += 1
                continue
            self.batch.fit(op.width, 1)
            if op.kernels is not None:
                self.batch.apply(op.kernels, 1)
                self.index += 1
                continue
            p1 = _prob_one(self.psi, op.qubits[0])
            self.random = self.tol < p1[0] < 1.0 - self.tol
            if not self.random:
                self._take(p1, p1 >= 0.5)

    def _take(self, p1: np.ndarray, outcome: np.ndarray) -> None:
        """Step past the measurement or reset with the given outcome."""
        op = self.ops[self.index]
        _settle(self.psi, op, p1, outcome)
        if op.name == "measure":
            self.record[op.clbit] = outcome[0]
        self.index += 1

    def rejoin(self, index: int, psi: np.ndarray, record: np.ndarray, random: bool = False) -> None:
        """Take over the noiseless state before ops[index], stepped there
        elsewhere, with its outcomes so far."""
        self.batch.fit(len(psi).bit_length() - 1, 0)
        self.psi[0] = psi
        self.index, self.record, self.random = index, record.copy(), random

    def fork(self) -> list[tuple[float, "_NoiselessRun"]]:
        """Each outcome of the random op the run stands before: its
        probability and a copy of the run stepped past it."""
        p1 = _prob_one(self.psi, self.ops[self.index].qubits[0])
        forks = []
        for bit, p in ((0, 1.0 - p1[0]), (1, p1[0])):
            run = _NoiselessRun(self.ops, self.n, len(self.record), self.tol)
            run.rejoin(self.index, self.psi[0], self.record)
            run._take(p1, np.array([bit], dtype=bool))
            forks.append((float(p), run))
        return forks


def deterministic_distribution(circ: Circuit) -> dict[str, float]:
    """Exact outcome distribution for circuits whose mid-circuit measurements
    are all deterministic (as in noiseless verification/syndrome cycles).

    A reset with a random outcome is followed down both outcomes, each
    weighted by its probability.  Raises SimulationError if a mid-circuit
    measurement has a genuinely random outcome.  Trailing measurements are
    enumerated exactly.
    """
    compacted = _compact(circ)
    n = compacted.num_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise SimulationError(f"{n} active qubits exceeds the statevector limit of {MAX_STATEVECTOR_QUBITS}")

    # a reset after which its qubit sees only resets changes no recorded bit
    live, kept = set(), []
    for inst in reversed([i for i in compacted.instructions if i.name != "barrier"]):
        if inst.name != "reset" or inst.qubits[0] in live:
            kept.append(inst)
            live.update(inst.qubits)
    ops = _program(kept[::-1], n)
    tail = terminal_start(ops)
    measures = [(op.qubits[0], op.clbit) for op in ops[tail:]]
    dist: dict[str, float] = {}
    runs = [(1.0, _NoiselessRun(ops, n, compacted.num_clbits, _FORK_TOL))]
    while runs:
        weight, run = runs.pop()
        run.advance(tail)
        if run.index < tail:
            op = ops[run.index]
            if op.name == "measure":
                q = op.qubits[0]
                raise SimulationError(
                    f"mid-circuit measurement on qubit {q} is not deterministic "
                    f"(p1={_prob_one(run.psi, q)[0]:.3g})"
                )
            runs.extend((weight * p, fork) for p, fork in run.fork())
            continue
        probs = np.abs(run.psi[0]) ** 2
        for idx, p in enumerate(probs):
            if p < 1e-18:
                continue
            vals = run.record.tolist()
            for q, c in measures:
                vals[c] = (idx >> q) & 1
            key = counts_key(vals, compacted.cregs)
            dist[key] = dist.get(key, 0.0) + weight * float(p)
    return dist


# Amplitudes one batch of statevector rows may hold: sample() splits its
# rows into batches of at most this many amplitudes, so its memory does not
# grow with the shot count.
_BATCH_AMPLITUDES = 1 << 14

# a mid-circuit measurement or reset whose one-outcome probability lies
# farther than this from 0 and 1 is random: the noiseless run stops there,
# and a batch row draws one outcome per shot
_RANDOM_TOL = 1e-12
# the same bound for deterministic_distribution, which forks at a random reset
_FORK_TOL = 1e-9


def _words(values, width: int) -> np.ndarray:
    """Python ints as rows of `width` little-endian uint64 words."""
    if width == 1:  # about five times faster than joining bytes
        return np.array(values, dtype="<u8").reshape(-1, 1)
    data = b"".join(v.to_bytes(8 * width, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(-1, width)


def _signatures(insts, n: int, nc: int, noisy, rotations=(), sequences=None):
    """Flip signatures from one backward `detector_sweep` with a detector
    per clbit, as rows of W = ceil(bits / 64) little-endian uint64 words:
    bit c flips clbit c's record, and bit nc + r marks anticommuting with
    the Pauli of the rotation at op rotations[r], XORed into the rows there
    after that op's faults are read.  Returns the (ops, 15, W) table of the
    noisy ops' `depolarizing_signatures` by fault code, and the signatures
    of a Z on each qubit at the start and after each measurement and reset
    of its qubit, in circuit order: such a Z flips x[q] there.  `sequences`: see _program."""
    width = max(1, -(-(nc + len(rotations)) // 64))
    bit = {i: 1 << nc + r for r, i in enumerate(rotations)}
    rows, where, draws = [], [], []
    for i, x, z in detector_sweep(insts, [0] * n, [0] * n, [(c,) for c in range(nc)], sequences):
        if i < 0:
            draws += reversed(x)  # reversed again below
            break
        name, qubits = insts[i].name, insts[i].qubits
        if name in ("measure", "reset"):
            draws.append(x[qubits[0]])
            continue
        if noisy[i]:  # a 1q op as the second of two, so its codes come first
            b = qubits[-1]
            rows += (z[qubits[0]], x[qubits[0]], z[b], x[b]) if len(qubits) == 2 else (0, 0, z[b], x[b])
            where.append(i)
        if i in bit:
            px, pz = PAULI_AXES[name]
            for q in qubits:
                x[q] ^= bit[i] * px
                z[q] ^= bit[i] * pz
    words = _words(rows + draws[::-1], width)
    basis = words[:len(rows)].reshape(-1, 4, width)
    table = np.zeros((len(insts), 15, width), dtype="<u8")
    per_qubit = [basis[:, :2].swapaxes(0, 1), basis[:, 2:].swapaxes(0, 1)]
    table[where] = np.stack(depolarizing_signatures(per_qubit), axis=1)
    return table, words[len(rows):]


def _fault_flips(table: np.ndarray, faults) -> tuple[np.ndarray, np.ndarray]:
    """The faulty shots, ascending, and each one's XOR of the signatures of
    its faults: one gather from `table` and one reduceat over the faults
    sorted by shot."""
    order = np.argsort(faults.shot, kind="stable")
    shot = faults.shot[order]
    starts = np.flatnonzero(np.diff(shot, prepend=-1))
    sigs = table[faults.op[order], faults.code[order]]
    return shot[starts], np.bitwise_xor.reduceat(sigs, starts, axis=0)


# the widest Clifford circuit sample() runs as Pauli frames
MAX_STABILIZER_QUBITS = 64

logger = logging.getLogger(__name__)


def sample(circ: Circuit, noise: NoiseModel | None = None, shots: int = 1024,
           seed: int = 0) -> dict[str, int]:
    """Monte-Carlo shot sampling under depolarizing noise.

    Every random draw comes from one ``np.random.default_rng(seed)``, so the
    same (circuit, noise, shots, seed) gives byte-identical counts.  Every
    shot's faults are drawn up front, and its Pauli frame (Gidney,
    arXiv:2103.02202) is read as the XOR of their flip signatures, from one
    backward sweep (_signatures).  Clifford circuits run as frames alone.
    In other circuits every gate is a Clifford or a Pauli rotation
    exp(-i theta P / 2), and a frame passes through a rotation with theta
    negated where it anticommutes with P.  So a noisy shot is its frame
    applied to the noiseless circuit with some rotations negated (its sign
    pattern), and its outcomes are that circuit's XOR the frame's X bits.
    Shots with the empty pattern read the shared noiseless final state;
    each other pattern is one statevector row, simulated from its first
    negated rotation, and a row splits where its outcome is random.

    With the ``qedc.simulator`` logger at DEBUG, each call logs one JSON
    object: the backend ("noiseless", "statevector" or "pauli-frame"), the
    shots, the shots with at least one fault, the shots simulated (on the
    statevector backends, the rows simulated rather than read from the
    shared noiseless state: one per sign pattern and outcome branch; every
    shot as Pauli frames), the kernels run on statevector batches (the
    noiseless run's too; 0 as Pauli frames), the amplitudes they ran over
    (rows times 2**width per kernel, see _program) and the noisy instructions.
    """
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    if shots == 0:
        return {}
    if noise is None:
        noise = NoiseModel()
    compacted = _compact(circ)
    n = compacted.num_qubits
    # one decomposition and error rate of each instruction, which every walk
    # below reads
    insts = [i for i in compacted.instructions if i.name != "barrier"]
    sequences = [clifford_gate_sequence(i) for i in insts]
    errors = [noise.gate_error(i) for i in insts]
    noisy = any(p > 0 for p in errors)
    rng = np.random.default_rng(seed)

    # Pauli-frame sampling is exact for Clifford circuits and much cheaper
    # than statevector trajectories
    frames = (noisy or n > MAX_STATEVECTOR_QUBITS) and all(
        sequence is not None or inst.name in ("measure", "reset") for inst, sequence in zip(insts, sequences))
    if frames and n > MAX_STABILIZER_QUBITS:
        raise SimulationError(
            f"{n} active qubits exceeds the Pauli-frame limit of {MAX_STABILIZER_QUBITS}"
        )
    if not frames and n > MAX_STATEVECTOR_QUBITS:
        raise SimulationError(
            f"{n} active qubits exceeds the statevector limit of {MAX_STATEVECTOR_QUBITS}"
        )
    run = _frame_records if frames else _sample_records
    keys, faults, simulated, passes, amplitudes = run(compacted, insts, sequences, errors, shots, rng)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(json.dumps({
            "backend": "pauli-frame" if frames else "statevector" if noisy else "noiseless",
            "shots": shots,
            "faulty_shots": len(np.unique(faults.shot)),
            "simulated_shots": simulated,
            "statevector_passes": passes,
            "statevector_amplitudes": amplitudes,
            "noisy_instructions": faults.noisy_instructions,
        }))
    return _counts(keys, compacted.num_clbits, compacted.cregs)


def _counts(keys: np.ndarray, nc: int, cregs: list[Register]) -> dict[str, int]:
    """Counts of the keys, one row of little-endian uint64 words per shot
    with bit c for clbit c, so the tally is a 1-D np.unique.  One word is
    read as a uint64: np.unique sorts those about ten times faster than raw
    bytes (on pcs_heavyhex raw-byte keys cost 12% of shots_per_s).  The
    distinct rows are then written out as counts_key characters, a space
    between register groups, and decoded in one pass."""
    shots, width = keys.shape
    if nc == 0:
        return {counts_key([], cregs): shots}
    uniq, freq = np.unique(keys.view(np.uint64 if width == 1 else np.dtype((np.void, 8 * width))).ravel(),
                           return_counts=True)
    rows = np.unpackbits(uniq.view(np.uint8).reshape(len(uniq), -1), axis=1,
                         count=nc, bitorder="little")
    # counts_key's column order: registers last-declared first, high bit
    # first, and a space (column -1) between groups
    columns = []
    for g, reg in enumerate(reversed(cregs)):
        columns += [-1] * (g > 0) + list(range(reg.start + reg.size - 1, reg.start - 1, -1))
    columns = np.array(columns, dtype=np.intp)
    chars = np.where(columns >= 0, rows[:, columns] + ord("0"), ord(" ")).astype(np.uint8)
    text = chars.tobytes().decode("ascii")
    counts: dict[str, int] = {}
    for i, c in enumerate(freq.tolist()):
        key = text[i * len(columns):(i + 1) * len(columns)]
        counts[key] = counts.get(key, 0) + c
    return counts


class _Faults(NamedTuple):
    """Every shot's depolarizing faults, one entry per fault, sorted by op."""

    op: np.ndarray  # index of the op the fault follows
    shot: np.ndarray
    code: np.ndarray  # the fault Pauli, in the order of depolarizing_signatures
    noisy_instructions: int


def _draw_faults(errors: list[tuple[float, int]], shots: int, rng) -> _Faults:
    """Draw every shot's faults from (depolarizing probability, qubit count)
    per op.  The (op, shot) cells of all ops with the same probability are
    one field of independent trials, drawn by _bernoulli_hits; then one draw
    gives every fault its Pauli code.  Exact for any sampler, because
    depolarizing faults do not depend on the state."""
    rates = np.array([p for p, _ in errors], dtype=float)
    cells = [np.zeros(0, dtype=np.int64)]
    for p in sorted({p for p, _ in errors if p > 0}):
        ops = np.nonzero(rates == p)[0]
        row, shot = np.divmod(_bernoulli_hits(len(ops) * shots, p, rng), shots)
        cells.append(ops[row] * shots + shot)
    op, shot = np.divmod(np.sort(np.concatenate(cells), kind="stable"), shots)
    paulis = np.array([4 ** k - 1 for _, k in errors])
    return _Faults(op, shot, rng.integers(paulis[op]), int(np.count_nonzero(rates)))


def _bernoulli_hits(cells: int, p: float, rng) -> np.ndarray:
    """Sorted indices of the hits among `cells` independent Bernoulli(p)
    trials, drawn as the geometric gaps between hits, so memory grows with
    the hits, not the cells."""
    found, last = [], -1
    while last < cells - 1:
        mean = (cells - 1 - last) * p
        hits = rng.geometric(p, int(mean + 5 * math.sqrt(mean)) + 16)
        # a gap past the end ends the field; capping it keeps the sum in range
        np.minimum(hits, cells + 1, out=hits)
        np.cumsum(hits, out=hits)
        hits += last
        found.append(hits)
        last = int(hits[-1])
    hits = np.concatenate(found)
    return hits[:np.searchsorted(hits, cells)]


def _sample_records(circ: Circuit, insts, sequences, errors, shots: int, rng):
    """Count keys (see _counts) of statevector trajectories with Pauli
    frames through Pauli rotations, the faults drawn for them, the number
    of batch rows simulated, of kernels run and of amplitudes they ran over.

    A shot's state is F |phi>: F is its Pauli frame, its faults carried to
    the current op, and phi the noiseless circuit with the rotations F
    anticommutes with negated, the shot's sign pattern.  A measurement of
    F |phi> reads phi's outcome XOR the frame's X bit, and leaves F on the
    collapsed phi.  The XOR of its faults' _signatures gives both.
    """
    n, nc = circ.num_qubits, circ.num_clbits
    ops = _program(insts, n, errors, sequences)
    tail = terminal_start(ops)

    # 1. every shot's faults; the faulty shots' signatures give the
    # rotations each one negates, and the X bit each of its records reads
    faults = _draw_faults([(op.error, len(op.qubits)) for op in ops], shots, rng)
    rotations = [i for i, op in enumerate(ops) if op.rotation >= 0]
    table = (_signatures(insts, n, nc, [op.error > 0 for op in ops], rotations, sequences)[0] if len(faults.op)
             else np.zeros((len(ops), 15, 1), dtype="<u8"))  # no sweep without a fault
    faulty, words = _fault_flips(table, faults)
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=nc + len(rotations), bitorder="little")

    # 2. the distinct sign patterns; the empty one, which every fault-free
    # shot has, is row 0 of np.unique's sorted output
    flips = np.vstack([np.zeros((1, len(rotations)), dtype=bool), bits[:, nc:].astype(bool)])
    patterns, which = _unique_rows(flips)
    pattern_of = np.zeros(shots, dtype=np.intp)
    pattern_of[faulty] = which[1:]
    members = np.split(np.argsort(pattern_of, kind="stable"),
                       np.cumsum(np.bincount(pattern_of, minlength=len(patterns)))[:-1])
    # each pattern's first negated op; the tail for the empty pattern
    ends = np.column_stack([patterns, np.ones(len(patterns), dtype=bool)])
    first = np.append(np.array(rotations, dtype=int), tail)[ends.argmax(axis=1)]
    pending = [(int(first[u]), patterns[u], members[u])
               for u in np.argsort(first, kind="stable") if len(members[u])]

    # 3. the patterns run as batch rows, in order of their first negated op;
    # one noiseless run, carried on as row 0 of each batch, hands each row
    # its state
    records = np.zeros((shots, nc), dtype=np.uint8)
    random = _may_be_random(insts[:tail], ops, n)
    plan = _Plan(ops, tail, np.cumsum([0] + random[::-1])[::-1].tolist(),
                 np.array([(op.qubits[0], op.clbit) for op in ops[tail:]], dtype=np.intp).reshape(-1, 2).T)
    run = _NoiselessRun(ops, n, nc, _RANDOM_TOL)
    size = min(max(1, _BATCH_AMPLITUDES >> n), shots)
    work = _Batch(1 + size, n)
    simulated = 0
    while pending:
        run.advance(pending[0][0])
        if run.index == tail:
            break  # only the empty pattern is left
        rows = [row for row in pending[:size] if run.random or row[0] < tail]
        rest = pending[len(rows):]
        resume = rest[0][0] if rest else tail
        ran, back = _run_rows(plan, rows, resume, run, work, records, rng)
        simulated += ran
        pending = back + rest

    # 4. the empty pattern reads the final noiseless state; then every
    # faulty shot's outcomes take its frame's X bits
    if pending:
        ((_, _, free),) = pending
        records[free] = run.record
        cum = np.cumsum(np.abs(run.psi[0]) ** 2)
        idx = np.searchsorted(cum, rng.random(len(free)) * cum[-1], side="right")
        _read_out(records, free, np.minimum(idx, len(cum) - 1), plan.measures)
    records[faulty] ^= bits[:, :nc]
    return (_pack(records), faults, simulated, run.batch.passes + work.passes,
            run.batch.amplitudes + work.amplitudes)


def _unique_rows(flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(flips, axis=0, return_inverse=True) of a bool matrix, in the same order, from
    big-endian row keys: one uint64 where it holds a row, else packed bytes (see _counts)."""
    width = flips.shape[1]
    keys = (flips @ (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)) if width <= 64
            else np.packbits(flips, axis=1).view(np.dtype((np.void, -(-width // 8)))).ravel())
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return flips[first], which


def _pack(records: np.ndarray) -> np.ndarray:
    """Records, one byte per clbit per shot, as count keys (see _counts)."""
    shots, nc = records.shape
    keys = np.zeros((shots, max(1, -(-nc // 64)) * 8), dtype=np.uint8)
    keys[:, :-(-nc // 8)] = np.packbits(records, axis=1, bitorder="little")
    return keys.view("<u8")


def _may_be_random(insts, ops: list[_Op], n: int) -> list[bool]:
    """Per instruction, whether it is a measurement or reset whose outcome
    some sign pattern over the rotations of `ops` could make random.

    One backward sweep of the measured Z_q, one bit per measurement or
    reset in per-qubit int rows, proves the others deterministic in every
    pattern: an observable passes a Clifford by `step_xz` and a rotation it
    commutes with, loses its part on a measured or reset qubit there (an
    eigenstate stays one), and must be free of X at the start, |0...0>.
    It is lost where it anticommutes with a rotation or has X on a measured
    or reset qubit."""
    x, z = [0] * n, [0] * n
    lost, bit = 0, {}
    for i in range(len(insts) - 1, -1, -1):
        inst = insts[i]
        if inst.name in ("measure", "reset"):
            q = inst.qubits[0]
            lost |= x[q]
            bit[i] = 1 << len(bit)
            x[q], z[q] = 0, bit[i]
        elif ops[i].rotation >= 0:  # the rows of the Paulis anticommuting with its Pauli
            px, pz = PAULI_AXES[inst.name]
            lost |= functools.reduce(operator.xor, [x[q] * pz ^ z[q] * px for q in inst.qubits])
        else:
            for name, qs in reversed(ops[i].sequence):
                step_xz(x, z, name, qs)
    for row in x:
        lost |= row
    return [i in bit and bool(bit[i] & lost) for i in range(len(insts))]


def _read_out(records: np.ndarray, rows: np.ndarray, idx: np.ndarray, measures) -> None:
    """Write the trailing measurements' bits of basis states `idx` into the
    given rows of the records, in one assignment (see _Plan.measures)."""
    records[rows[:, None], measures[1]] = (idx[:, None] >> measures[0]) & 1


class _Plan(NamedTuple):
    """What the batches of _sample_records share."""

    ops: list[_Op]
    tail: int  # the first of the trailing measurements
    splits: list[int]  # per op, the possibly random outcomes from it to the tail
    measures: np.ndarray  # (qubits, clbits) of the trailing ones, a (2, k) index array


def _run_rows(plan: _Plan, rows, resume, run, work, records, rng):
    """Simulate sign patterns as rows of the _Batch `work`, from the op
    `run` stands before through the tail, and write their shots' records.

    `rows` holds (first negated op, negations per rotation, shots), sorted
    by first op.  Row 0 carries the noiseless state on from `run`, and a row
    joins at its first op as a copy of it; if the run stands before a
    random outcome, every row joins there.  A row of s shots can split into
    at most min(s, 2**k) rows over the k outcomes ahead that _may_be_random,
    and a row joins only while there is room for that many for every row.
    Where a row's outcome is random, each of its shots draws one and the
    row splits by outcome.  Row 0 goes back to `run` at the first op where a
    row finds no room, where its own outcome is random, or at `resume`,
    where the next batch starts; rows not joined by then are handed back.
    Returns the rows simulated and the rows handed back.
    """
    members = np.concatenate([shots for _, _, shots in rows])
    owner = np.empty(len(members), dtype=np.intp)  # row of each member
    signs = np.zeros((len(work.psi), len(rows[0][1])), dtype=bool)
    any_negated = np.any([pattern for _, pattern, _ in rows], axis=0)
    start, record = run.index, run.record.copy()
    if run.random:
        rows = [(start, pattern, shots) for _, pattern, shots in rows]
    noiseless = not run.random  # row 0 is the noiseless state, not yet handed back
    work.fit(run.batch.width, 0)
    work.psi[0] = run.psi[0]
    sizes = []  # shots per row, from row 1
    active, joined, nxt = 1, 0, 0
    back = []
    for i in range(start, plan.tail):
        op = plan.ops[i]
        if op.kernels == ():  # a fused run's op, where no row joins
            continue
        most, held = 1 << min(plan.splits[i], 62), None
        while nxt < len(rows) and rows[nxt][0] <= i:
            first, pattern, shots = rows[nxt]
            if held is None:  # the room the rows hold at this op, summed once
                held = sum(min(s, most) for s in sizes)
            room = len(work.psi) - 1 - held
            if min(len(shots), most) > room:
                if sizes:
                    rows, back = rows[:nxt], rows[nxt:]
                    break
                # wider than a whole batch: its first shots join alone
                rows[nxt:nxt + 1] = [(first, pattern, shots[:room]), (first, pattern, shots[room:])]
                shots = shots[:room]
            work.psi[active], signs[active] = work.psi[0], pattern
            owner[joined:joined + len(shots)] = active
            records[shots] = record
            sizes.append(len(shots))
            held += min(len(shots), most)
            active, joined, nxt = active + 1, joined + len(shots), nxt + 1
        if noiseless and (back or i == resume):
            run.rejoin(i, work.psi[0], record)
            noiseless = False
        work.fit(op.width, active)
        if op.kernels is not None:
            k = op.rotation
            work.apply(op.kernels, active, signs[:active, k] if k >= 0 and any_negated[k] else None)
            continue
        p1 = _prob_one(work.psi[:active], op.qubits[0])
        outcomes = p1 >= 0.5
        random = (p1 > _RANDOM_TOL) & (p1 < 1.0 - _RANDOM_TOL)
        if noiseless and random[0]:
            run.rejoin(i, work.psi[0], record, random=True)
            noiseless = False
            rows, back = rows[:nxt], rows[nxt:]
        for r in np.nonzero(random[1:])[0] + 1:
            mine = np.nonzero(owner[:joined] == r)[0]
            ones = rng.random(len(mine)) < p1[r]
            outcomes[r] = ones.all()
            if ones.any() and not ones.all():
                # the shots that read 1 move to a copy of the row
                work.psi[active], signs[active] = work.psi[r], signs[r]
                owner[mine[ones]] = active
                moved = int(ones.sum())
                sizes[r - 1] -= moved
                sizes.append(moved)
                outcomes, p1 = np.append(outcomes, True), np.append(p1, p1[r])
                active += 1
        _settle(work.psi[:active], op, p1, outcomes)
        if op.name == "measure":
            record[op.clbit] = outcomes[0]
            records[members[:joined], op.clbit] = outcomes[owner[:joined]]
    if noiseless:
        run.rejoin(plan.tail, work.psi[0], record)

    # one search for every shot's basis state: row r's cumulative
    # probabilities, which end near 1, are shifted up by 2r
    cum = np.abs(work.psi[:active])
    cum *= cum
    np.cumsum(cum, axis=1, out=cum)
    owner = owner[:joined]
    u = rng.random(joined) * cum[owner, -1]
    cum += 2 * np.arange(active)[:, None]
    width = cum.shape[1]
    idx = np.searchsorted(cum.ravel(), u + 2 * owner, side="right") - owner * width
    _read_out(records, members[:joined], np.minimum(idx, width - 1), plan.measures)
    return active - 1, back


def _frame_records(circ: Circuit, insts, sequences, errors, shots: int, rng):
    """Count keys (see _counts) of a Clifford circuit sampled with Pauli
    frames (Gidney, "Stim: a fast stabilizer circuit simulator",
    arXiv:2103.02202), the faults drawn for them and the number of shots
    simulated, which is all of them, and 0 statevector kernels and amplitudes.

    One noiseless CHP run gives a reference outcome for every measurement.
    Each shot's frame is its difference from that run, and a record reads
    the reference outcome flipped by the frame's X bit at the clbit's last
    measurement.  Z starts random and is random again after each
    measurement and reset: such a Z stabilizes the reference state there,
    so it changes no deterministic outcome, and it makes a random outcome
    come out random.  A shot's key is the reference XOR the _signatures of
    its faults and Z draws.  Only the Z draws that flip some record are
    made, as random bytes, 8 to a byte, each byte XORed in through a
    256-entry table of the XORs of its draws' signatures.
    """
    n, nc = circ.num_qubits, circ.num_clbits
    faults = _draw_faults([(p, len(i.qubits)) for p, i in zip(errors, insts)], shots, rng)
    table, draws = _signatures(insts, n, nc, [p > 0 for p in errors], (), sequences)
    width = table.shape[2]
    last = {record.clbit: record.outcome for record in stabilizer_run(circ, sequences=sequences)[0]}
    keys = np.repeat(_words([sum(bit << c for c, bit in last.items())], width), shots, axis=0)
    faulty, flips = _fault_flips(table, faults)
    keys[faulty] ^= flips

    live = draws[draws.any(axis=1)]
    rows = np.vstack([live, np.zeros((-len(live) % 8, width), dtype="<u8")])
    per_byte = np.zeros((len(rows) // 8, 256, width), dtype="<u8")
    for j in range(8):
        per_byte[:, 1 << j:2 << j] = per_byte[:, :1 << j] ^ rows[j::8, None]
    for lookup, coins in zip(per_byte, rng.integers(256, size=(len(per_byte), shots), dtype=np.uint8)):
        keys ^= lookup[coins]
    return keys, faults, shots, 0, 0
