"""`PAULI_AXES` (the one table of rotation axes) and the Clifford gate
sequences derived from it, `step_xz` (the one table of named-gate
symplectic maps, which moves Pauli X/Z int rows for the detector sweep, the
samplers, check scoring and the tableau), `step_signed` (the same step plus
a sign row, the one table of signed conjugation), and the tableau of a
Clifford U for U P U†.

The tableau holds the signed images of X_q and Z_q under U as CHP generator
rows stepped by `step_signed`; `stabilizer.StabilizerState` extends it with
measurement.  Rotation gates at exact multiples of pi/2 are canonicalized to
named Clifford gates first, which enlarges the detectable Clifford regions.
"""
from __future__ import annotations

import math

from .circuit import Circuit, Instruction
from .pauli import PauliString

CLIFFORD_NAMED = frozenset(("x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap"))
# the one table of rotation axes: the Pauli P of each rotation
# exp(-i theta P / 2), as its (x, z) bits on each of the gate's qubits; t and
# tdg are rz(pi/4) and rz(-pi/4) up to a global phase
PAULI_AXES = {"rz": (0, 1), "t": (0, 1), "tdg": (0, 1), "rzz": (0, 1),
              "rx": (1, 0), "rxx": (1, 0), "ry": (1, 1), "ryy": (1, 1)}
# the named gates, in circuit order, before and after rz or rzz that turn its
# Z into each axis: rx = h rz h, ry = s rx sdg; the one table of basis
# changes, which transpilation reads too
BASIS_CHANGE = {(0, 1): ((), ()), (1, 0): (("h",), ("h",)), (1, 1): (("sdg", "h"), ("h", "s"))}
_RZ_STEPS = {0: (), 1: ("s",), 2: ("z",), 3: ("sdg",)}

_HALF_PI_TOL = 1e-9


def _half_pi_steps(angle: float) -> int | None:
    """Number of pi/2 steps (mod 4) if `angle` is an exact multiple, else None."""
    k = angle / (math.pi / 2)
    rounded = round(k)
    if abs(k - rounded) < _HALF_PI_TOL:
        return rounded % 4
    return None


def is_clifford(inst: Instruction) -> bool:
    return clifford_gate_sequence(inst) is not None


def clifford_gate_sequence(inst: Instruction) -> list[tuple[str, tuple[int, ...]]] | None:
    """A Clifford instruction as named Clifford gates in circuit order, or
    None for any other instruction.

    A rotation about `PAULI_AXES` at k*pi/2 is rz or rzz at that angle,
    {I, s, z, sdg} on each qubit plus a cz for odd k on two (rzz(pi/2) =
    cz (s x s) up to a global phase), conjugated by its axis' basis change.
    """
    name, qubits = inst.name, inst.qubits
    if name in CLIFFORD_NAMED:
        return [(name, qubits)]
    if name not in PAULI_AXES or not inst.params:
        return None
    steps = _half_pi_steps(inst.params[0])
    if steps is None:
        return None
    core = [(g, (q,)) for g in _RZ_STEPS[steps] for q in qubits]
    if len(qubits) == 2 and steps % 2:
        core = core + [("cz", qubits)] if steps == 1 else [("cz", qubits)] + core
    pre, post = BASIS_CHANGE[PAULI_AXES[name]]
    return [(g, (q,)) for g in pre for q in qubits] + core + [(g, (q,)) for g in post for q in qubits]


def step_xz(x: list, z: list, name: str, qubits: tuple[int, ...]) -> None:
    """Apply a named Clifford gate's symplectic map, signs ignored, to the
    per-qubit rows x[q] and z[q] in place: bit (or column) j of x[q] is the X
    bit at q of the j-th Pauli.  Every caller in the package passes Python
    int rows, one bit per Pauli; numpy bool arrays, one column per Pauli,
    work too (the tests hold both), since `x[t] ^= x[c]` and the row swaps
    store back correctly as long as x and z are lists of rows (a 2-D array
    copies on row assignment, which breaks the swaps).
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


class CliffordTableau:
    """A Clifford U as the CHP tableau of U|0...0> (Aaronson and Gottesman,
    quant-ph/0406196): generator q < n is U X_q U† (a destabilizer) and
    generator n + q is U Z_q U† (a stabilizer).  They are held as per-qubit
    int rows, the layout of `step_xz`: bit g of x[q] (z[q]) is the X (Z) bit
    at qubit q of generator g, and bit g of the sign row r is set iff
    generator g has sign -1."""

    def __init__(self, n: int):
        self.n = n
        self.x = [1 << q for q in range(n)]
        self.z = [1 << (n + q) for q in range(n)]
        self.r = 0

    def apply_named(self, name: str, qubits: tuple[int, ...]) -> None:
        self.r = step_signed(self.x, self.z, self.r, name, qubits)

    def apply_instruction(self, inst: Instruction, sequence=None) -> None:
        """`sequence`: the instruction's clifford_gate_sequence, if the caller
        has it."""
        if sequence is None:
            sequence = clifford_gate_sequence(inst)
        if sequence is None:
            raise ValueError(f"non-Clifford instruction: {inst.name}")
        for name, qubits in sequence:
            self.apply_named(name, qubits)

    def _product(self, chosen: int) -> tuple[int, int, int]:
        """(x, z, phase exponent) of the product of the generators g whose
        bit g of `chosen` is set, in index order.  Writing each as
        (-1)**r i**(x·z) X**x Z**z and moving every X left of every Z gives
        the phase from three counts: the Y positions, the -1 signs, and the
        pairs g < g' with Z at a qubit where g' has X, which a strict prefix
        parity of each qubit's row finds in O(log n) shifts."""
        width = chosen.bit_length()
        px = pz = ys = pairs = 0
        for q in range(self.n):
            xs = self.x[q] & chosen
            zs = self.z[q] & chosen
            px |= (xs.bit_count() & 1) << q
            pz |= (zs.bit_count() & 1) << q
            if not (xs and zs):
                continue
            ys += (xs & zs).bit_count()
            below = zs << 1  # bit g: parity of zs's bits under g
            shift = 1
            while shift < width:
                below ^= below << shift
                shift <<= 1
            pairs += (below & xs).bit_count()
        minus = (self.r & chosen).bit_count()
        return px, pz, (ys + 2 * (pairs + minus) - (px & pz).bit_count()) % 4

    def conjugate(self, p: PauliString) -> PauliString:
        """R = U p U†, phase folded into the result: the product of the X_q
        and Z_q images that p selects, times i per Y of p (Y = i X Z)."""
        if p.n != self.n:
            raise ValueError(f"dimension mismatch: {p.n} vs {self.n}")
        px, pz, phase = self._product(p.x | p.z << self.n)
        return PauliString(self.n, px, pz, phase + p.phase + (p.x & p.z).bit_count())


def tableau_from_circuit(circ_or_instructions, n: int | None = None) -> CliffordTableau:
    """Tableau of a Clifford instruction sequence, in instruction order."""
    if isinstance(circ_or_instructions, Circuit):
        instructions = circ_or_instructions.instructions
        n = circ_or_instructions.num_qubits
    else:
        instructions = list(circ_or_instructions)
        if n is None:
            raise ValueError("qubit count required for a bare instruction list")
    tab = CliffordTableau(n)
    for inst in instructions:
        if inst.name != "barrier":
            tab.apply_instruction(inst)
    return tab


def conjugate(tab: CliffordTableau, l: PauliString) -> PauliString:
    """R = U L U† with sign; module-level convenience over the method."""
    if l.phase % 2 != 0:
        raise ValueError("expected a Hermitian Pauli (phase ±1)")
    r = tab.conjugate(l)
    if r.phase % 2 != 0:
        raise AssertionError("Hermitian input conjugated to non-Hermitian output")
    return r
