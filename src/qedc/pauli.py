"""Signed n-qubit Pauli strings in symplectic (x-bits, z-bits, phase) form.

Bit q of the x/z masks carries qubit q: (x, z) = (0,0)/(1,0)/(0,1)/(1,1)
encodes I/X/Z/Y.  The phase is stored as an exponent e with overall phase
i**e, so Hermitian operators have e in {0, 2}.
"""
from __future__ import annotations

from dataclasses import dataclass

_CODE_TO_CHAR = "IXZY"
_CHAR_TO_CODE = {"I": 0, "X": 1, "Z": 2, "Y": 3}
_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    n: int
    x: int = 0
    z: int = 0
    phase: int = 0  # exponent of i

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside qubit range")
        if not 0 <= self.phase < 4:
            object.__setattr__(self, "phase", self.phase % 4)

    # -- queries --------------------------------------------------------------

    def code_at(self, q: int) -> int:
        return ((self.x >> q) & 1) | (((self.z >> q) & 1) << 1)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1; only meaningful for Hermitian strings."""
        if not self.is_hermitian:
            raise ValueError("sign undefined for non-Hermitian phase")
        return 1 if self.phase == 0 else -1

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def bare(self) -> "PauliString":
        """Same operator content with phase reset to +1."""
        return PauliString(self.n, self.x, self.z, 0)

    # -- algebra --------------------------------------------------------------

    def __mul__(self, other):
        return pauli_mul(self, other)

    # -- text form ------------------------------------------------------------

    def to_label(self) -> str:
        """Sign prefix then I/X/Y/Z characters, leftmost = highest qubit index."""
        chars = "".join(_CODE_TO_CHAR[self.code_at(q)] for q in range(self.n - 1, -1, -1))
        return _PHASE_STR[self.phase] + chars

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        s = label.strip()
        phase = 0
        for prefix, e in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
            if s.startswith(prefix):
                phase = e
                s = s[len(prefix):]
                break
        x = z = 0
        n = len(s)
        for pos, ch in enumerate(s):
            q = n - 1 - pos
            if ch not in _CHAR_TO_CODE:
                raise ValueError(f"invalid Pauli character {ch!r}")
            code = _CHAR_TO_CODE[ch]
            x |= (code & 1) << q
            z |= ((code >> 1) & 1) << q
        return cls(n, x, z, phase)

    def __str__(self):
        return self.to_label()


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Group product pq with the correct global phase.

    With each factor written i^|x&z| X^x Z^z (Y = iXZ), moving q's X^x past
    p's Z^z costs (-1)^|p.z&q.x|, and the product's own Y count is taken back
    out of the phase."""
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    x, z = p.x ^ q.x, p.z ^ q.z
    phase = (p.phase + q.phase + (p.x & p.z).bit_count() + (q.x & q.z).bit_count()
             - (x & z).bit_count() + 2 * (p.z & q.x).bit_count())
    return PauliString(p.n, x, z, phase % 4)


def single_qubit_pauli(n: int, q: int, kind: str) -> PauliString:
    """X/Y/Z on qubit q of an n-qubit register."""
    code = _CHAR_TO_CODE[kind]
    return PauliString(n, (code & 1) << q, ((code >> 1) & 1) << q, 0)
