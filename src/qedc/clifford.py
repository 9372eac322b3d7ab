"""Clifford gate recognition, `step_xz` (the one table of named-gate
symplectic maps, which moves Pauli X/Z rows for the frame sampler, the
detector sweep and check scoring), `step_signed` (the same step plus a sign
row, for the CHP state and the signed right checks), and a symplectic
tableau for U P U†.

The tableau stores the signed images of the X_q and Z_q generators under a
Clifford unitary built gate-by-gate from a circuit slice.  Rotation gates at
exact multiples of pi/2 are canonicalized to named Clifford gates first, which
enlarges the detectable Clifford regions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Instruction
from .pauli import PauliString, pauli_mul

CLIFFORD_NAMED = frozenset(("x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap"))
_ROTATIONS = frozenset(("rz", "rx", "ry"))
_ROTATIONS_2Q = frozenset(("rzz", "rxx", "ryy"))

_HALF_PI_TOL = 1e-9


def _half_pi_steps(angle: float) -> int | None:
    """Number of pi/2 steps (mod 4) if `angle` is an exact multiple, else None."""
    k = angle / (math.pi / 2)
    rounded = round(k)
    if abs(k - rounded) < _HALF_PI_TOL:
        return rounded % 4
    return None


def is_clifford(inst: Instruction) -> bool:
    name = inst.name
    if name in CLIFFORD_NAMED:
        return True
    if name in _ROTATIONS or name in _ROTATIONS_2Q:
        return _half_pi_steps(inst.params[0]) is not None
    return False


_RZ_STEPS = {0: [], 1: ["s"], 2: ["z"], 3: ["sdg"]}


def clifford_gate_sequence(inst: Instruction) -> list[tuple[str, tuple[int, ...]]]:
    """Rewrite a Clifford instruction into named Clifford gates.

    rz(k*pi/2) maps onto {I, s, z, sdg}; rx and ry are obtained by basis
    conjugation (rx = h rz h, ry = sdg-side conjugation of rx).
    """
    name = inst.name
    if name in CLIFFORD_NAMED:
        return [(name, inst.qubits)]
    if name not in _ROTATIONS and name not in _ROTATIONS_2Q:
        raise ValueError(f"non-Clifford instruction: {name}")
    steps = _half_pi_steps(inst.params[0])
    if steps is None:
        raise ValueError(f"non-Clifford rotation angle: {inst.params[0]}")
    if name in _ROTATIONS_2Q:
        a, b = inst.qubits
        # rzz(pi/2) = CZ (S x S) up to global phase; rzz(pi) = Z x Z
        core = {
            0: [],
            1: [("s", (a,)), ("s", (b,)), ("cz", (a, b))],
            2: [("z", (a,)), ("z", (b,))],
            3: [("cz", (a, b)), ("sdg", (a,)), ("sdg", (b,))],
        }[steps]
        if name == "rzz":
            return core
        if name == "rxx":
            wrap = [("h", (a,)), ("h", (b,))]
            return wrap + core + wrap
        pre = [("sdg", (a,)), ("sdg", (b,)), ("h", (a,)), ("h", (b,))]
        post = [("h", (a,)), ("h", (b,)), ("s", (a,)), ("s", (b,))]
        return pre + core + post
    q = inst.qubits
    core = [(g, q) for g in _RZ_STEPS[steps]]
    if name == "rz":
        return core
    if name == "rx":
        return [("h", q)] + core + [("h", q)]
    # ry(theta) = s . rx(theta) . sdg  (circuit order sdg first)
    return [("sdg", q), ("h", q)] + core + [("h", q), ("s", q)]


def step_xz(x: list, z: list, name: str, qubits: tuple[int, ...]) -> None:
    """Apply a named Clifford gate's symplectic map, signs ignored, to the
    per-qubit rows x[q] and z[q] in place: bit (or column) j of x[q] is the X
    bit at q of the j-th Pauli.  A row is a Python int, one bit per Pauli, or
    a numpy bool array, one column per Pauli; `x[t] ^= x[c]` and the row
    swaps store back correctly for both, as long as x and z are lists of
    rows (a 2-D array copies on row assignment, which breaks the swaps).
    Every map here is an involution, so g and g† move the bits alike and a
    backward sweep runs the same kernel over the gates in reverse order."""
    if name == "h":
        (q,) = qubits
        x[q], z[q] = z[q], x[q]
    elif name in ("s", "sdg"):
        (q,) = qubits
        z[q] ^= x[q]
    elif name == "cx":
        c, t = qubits
        x[t] ^= x[c]
        z[c] ^= z[t]
    elif name == "cz":
        a, b = qubits
        z[a] ^= x[b]
        z[b] ^= x[a]
    elif name == "swap":
        a, b = qubits
        x[a], x[b] = x[b], x[a]
        z[a], z[b] = z[b], z[a]
    elif name not in ("x", "y", "z"):  # Paulis change only signs
        raise ValueError(f"unknown Clifford gate {name!r}")


def step_signed(x: list, z: list, r, name: str, qubits: tuple[int, ...]):
    """`step_xz` with signs: move the rows as `step_xz` does and return the
    sign row `r` (bit or column j set iff Pauli j has sign -1) with the sign
    of g P g† folded in.  The flips follow Aaronson and Gottesman's rules
    (quant-ph/0406196), read from the rows before the step; a Y is +Y when
    its sign bit is clear, as in `PauliString`."""
    if name in ("h", "s"):
        (q,) = qubits
        r = r ^ (x[q] & z[q])
    elif name == "sdg":
        (q,) = qubits
        r = r ^ (x[q] & ~z[q])
    elif name == "x":
        r = r ^ z[qubits[0]]
    elif name == "y":
        (q,) = qubits
        r = r ^ x[q] ^ z[q]
    elif name == "z":
        r = r ^ x[qubits[0]]
    elif name == "cx":
        c, t = qubits
        r = r ^ (x[c] & z[t] & ~(x[t] ^ z[c]))
    elif name == "cz":
        a, b = qubits
        r = r ^ (x[a] & x[b] & (z[a] ^ z[b]))
    step_xz(x, z, name, qubits)
    return r


def _conj_named(p: PauliString, name: str, qubits: tuple[int, ...]) -> PauliString:
    """g p g† for a named Clifford gate g, with its sign."""
    x, z, phase = p.x, p.z, p.phase
    if name == "h":
        (q,) = qubits
        b = 1 << q
        if x & b and z & b:
            phase = (phase + 2) % 4
        xq, zq = x & b, z & b
        x = (x & ~b) | (b if zq else 0)
        z = (z & ~b) | (b if xq else 0)
    elif name == "s":
        (q,) = qubits
        b = 1 << q
        if x & b and z & b:
            phase = (phase + 2) % 4
        if x & b:
            z ^= b
    elif name == "sdg":
        (q,) = qubits
        b = 1 << q
        if x & b and not z & b:
            phase = (phase + 2) % 4
        if x & b:
            z ^= b
    elif name == "x":
        (q,) = qubits
        if z & (1 << q):
            phase = (phase + 2) % 4
    elif name == "y":
        (q,) = qubits
        b = 1 << q
        if bool(x & b) != bool(z & b):
            phase = (phase + 2) % 4
    elif name == "z":
        (q,) = qubits
        if x & (1 << q):
            phase = (phase + 2) % 4
    elif name == "cx":
        c, t = qubits
        bc, bt = 1 << c, 1 << t
        if (x & bc) and (z & bt) and (bool(x & bt) == bool(z & bc)):
            phase = (phase + 2) % 4
        if x & bc:
            x ^= bt
        if z & bt:
            z ^= bc
    elif name == "cz":
        p2 = _conj_named(PauliString(p.n, x, z, phase), "h", (qubits[1],))
        p2 = _conj_named(p2, "cx", qubits)
        return _conj_named(p2, "h", (qubits[1],))
    elif name == "swap":
        a, b = qubits
        ba, bb = 1 << a, 1 << b
        xa, xb = bool(x & ba), bool(x & bb)
        za, zb = bool(z & ba), bool(z & bb)
        x = (x & ~(ba | bb)) | (ba if xb else 0) | (bb if xa else 0)
        z = (z & ~(ba | bb)) | (ba if zb else 0) | (bb if za else 0)
    else:
        raise ValueError(f"unknown Clifford gate {name!r}")
    return PauliString(p.n, x, z, phase)


@dataclass
class CliffordTableau:
    """Signed images of X_q (rows x_images[q]) and Z_q (z_images[q]) under U."""

    n: int
    x_images: list[PauliString]
    z_images: list[PauliString]

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls(
            n,
            [PauliString(n, 1 << q, 0, 0) for q in range(n)],
            [PauliString(n, 0, 1 << q, 0) for q in range(n)],
        )

    def apply_gate(self, name: str, qubits: tuple[int, ...]) -> None:
        self.x_images = [_conj_named(row, name, qubits) for row in self.x_images]
        self.z_images = [_conj_named(row, name, qubits) for row in self.z_images]

    def conjugate(self, p: PauliString) -> PauliString:
        """R = U p U†, phase folded into the result."""
        if p.n != self.n:
            raise ValueError(f"dimension mismatch: {p.n} vs {self.n}")
        out = PauliString(self.n, 0, 0, p.phase)
        for q in range(self.n):
            code = p.code_at(q)
            if code == 0:
                continue
            if code == 1:  # X
                out = pauli_mul(out, self.x_images[q])
            elif code == 2:  # Z
                out = pauli_mul(out, self.z_images[q])
            else:  # Y = i X Z
                out = pauli_mul(out, pauli_mul(self.x_images[q], self.z_images[q]))
                out = PauliString(out.n, out.x, out.z, (out.phase + 1) % 4)
        return out

    def is_symplectic(self) -> bool:
        for q in range(self.n):
            if self.x_images[q].commutes_with(self.z_images[q]):
                return False
            for r in range(self.n):
                if r == q:
                    continue
                if not self.x_images[q].commutes_with(self.x_images[r]):
                    return False
                if not self.x_images[q].commutes_with(self.z_images[r]):
                    return False
                if not self.z_images[q].commutes_with(self.z_images[r]):
                    return False
        return True


def tableau_from_circuit(circ_or_instructions, n: int | None = None) -> CliffordTableau:
    """Tableau of a Clifford instruction sequence, in instruction order."""
    if isinstance(circ_or_instructions, Circuit):
        instructions = circ_or_instructions.instructions
        n = circ_or_instructions.num_qubits
    else:
        instructions = list(circ_or_instructions)
        if n is None:
            raise ValueError("qubit count required for a bare instruction list")
    tab = CliffordTableau.identity(n)
    for inst in instructions:
        if inst.name == "barrier":
            continue
        if not is_clifford(inst):
            raise ValueError(f"non-Clifford instruction: {inst.name}")
        for name, qubits in clifford_gate_sequence(inst):
            tab.apply_gate(name, qubits)
    return tab


def conjugate(tab: CliffordTableau, l: PauliString) -> PauliString:
    """R = U L U† with sign; module-level convenience over the method."""
    if l.phase % 2 != 0:
        raise ValueError("expected a Hermitian Pauli (phase ±1)")
    r = tab.conjugate(l)
    if r.phase % 2 != 0:
        raise AssertionError("Hermitian input conjugated to non-Hermitian output")
    return r
