"""Circuit intermediate representation shared by every compiler pass.

Qubit and classical-bit indices are global (flattened across registers in
declaration order).  Register names are kept only for QASM emission and for
formatting measurement-count keys.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from itertools import accumulate

# name -> (num_qubits, num_params, num_clbits); None means variable arity
GATE_SPECS: dict[str, tuple[int | None, int, int]] = {
    "x": (1, 0, 0),
    "y": (1, 0, 0),
    "z": (1, 0, 0),
    "h": (1, 0, 0),
    "s": (1, 0, 0),
    "sdg": (1, 0, 0),
    "t": (1, 0, 0),
    "tdg": (1, 0, 0),
    "rz": (1, 1, 0),
    "rx": (1, 1, 0),
    "ry": (1, 1, 0),
    "cx": (2, 0, 0),
    "cz": (2, 0, 0),
    "swap": (2, 0, 0),
    "rzz": (2, 1, 0),
    "rxx": (2, 1, 0),
    "ryy": (2, 1, 0),
    "measure": (1, 0, 1),
    "reset": (1, 0, 0),
    "barrier": (None, 0, 0),
}

ONE_QUBIT_GATES = frozenset(
    n for n, (q, _, _) in GATE_SPECS.items() if q == 1 and n not in ("measure", "reset")
)
TWO_QUBIT_GATES = frozenset(n for n, (q, _, _) in GATE_SPECS.items() if q == 2)


@dataclass(frozen=True, slots=True)
class Instruction:
    """A gate kind applied to qubits, with its real parameters (radians) and
    the clbits it writes."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbits: tuple[int, ...] = ()

    def __init__(self, name, qubits, params=(), clbits=()):  # dataclasses.replace calls it too
        spec = GATE_SPECS.get(name)
        if spec is None:
            raise ValueError(f"unknown gate kind: {name!r}")
        if len(params) != spec[1]:
            raise ValueError(f"gate {name!r} takes {spec[1]} parameter(s), got {len(params)}")
        _set_name(self, name)
        _set_qubits(self, qubits)
        _set_params(self, params)
        _set_clbits(self, clbits)


# the slots' own setters, which the frozen __setattr__ does not guard
_set_name, _set_qubits, _set_params, _set_clbits = (getattr(Instruction, f).__set__ for f in Instruction.__slots__)


# Python 3.11's generated guards call super() through the class that slots
# replace, so a name that is not a field raises TypeError; refuse every name
# with FrozenInstanceError instead, as Python 3.12 does
def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Instruction.__setattr__ = _refuse_assignment
Instruction.__delattr__ = _refuse_deletion


@dataclass(frozen=True)
class Register:
    name: str
    size: int
    start: int  # first global index


@dataclass
class Diagnostic:
    code: str
    message: str
    instruction_index: int | None = None

    def __str__(self):
        loc = "" if self.instruction_index is None else f" (instruction {self.instruction_index})"
        return f"[{self.code}] {self.message}{loc}"


@dataclass
class Circuit:
    """Ordered instruction list over named quantum/classical registers."""

    qregs: list[Register] = field(default_factory=list)
    cregs: list[Register] = field(default_factory=list)
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def num_qubits(self) -> int:
        return sum(r.size for r in self.qregs)

    @property
    def num_clbits(self) -> int:
        return sum(r.size for r in self.cregs)

    # -- construction helpers -------------------------------------------------

    def add_qreg(self, name: str, size: int) -> Register:
        if any(r.name == name for r in self.qregs):
            raise ValueError(f"duplicate quantum register {name!r}")
        reg = Register(name, size, self.num_qubits)
        self.qregs.append(reg)
        return reg

    def add_creg(self, name: str, size: int) -> Register:
        if any(r.name == name for r in self.cregs):
            raise ValueError(f"duplicate classical register {name!r}")
        reg = Register(name, size, self.num_clbits)
        self.cregs.append(reg)
        return reg

    def append(self, name: str, qubits, params=(), clbits=()) -> None:
        self.instructions.append(Instruction(name, tuple(qubits), tuple(map(float, params)), tuple(clbits)))

    def copy_empty(self) -> "Circuit":
        """A circuit with the same registers and no instructions."""
        return Circuit(list(self.qregs), list(self.cregs), [])

    def copy(self) -> "Circuit":
        return Circuit(list(self.qregs), list(self.cregs), list(self.instructions))

    # -- lookup ---------------------------------------------------------------

    def creg_by_name(self, name: str) -> Register:
        for r in self.cregs:
            if r.name == name:
                return r
        raise KeyError(f"no classical register {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.qregs == other.qregs
            and self.cregs == other.cregs
            and self.instructions == other.instructions
        )


def validate(circ: Circuit) -> list[Diagnostic]:
    """Check every type invariant; returns one diagnostic per violation."""
    diags: list[Diagnostic] = []
    nq, nc = circ.num_qubits, circ.num_clbits

    pos = 0
    for r in circ.qregs:
        if r.start != pos:
            diags.append(Diagnostic("register-layout", f"qreg {r.name} starts at {r.start}, expected {pos}"))
        pos += r.size
    pos = 0
    for r in circ.cregs:
        if r.start != pos:
            diags.append(Diagnostic("register-layout", f"creg {r.name} starts at {r.start}, expected {pos}"))
        pos += r.size

    for i, inst in enumerate(circ.instructions):
        nqubits, _, nclbits = GATE_SPECS[inst.name]
        if nqubits is not None and len(inst.qubits) != nqubits:
            diags.append(Diagnostic("arity", f"{inst.name} expects {nqubits} qubit(s), got {len(inst.qubits)}", i))
        if len(inst.clbits) != nclbits:
            diags.append(Diagnostic("arity", f"{inst.name} expects {nclbits} clbit(s), got {len(inst.clbits)}", i))
        if len(set(inst.qubits)) != len(inst.qubits):
            diags.append(Diagnostic("duplicate-qubit", f"{inst.name} repeats a qubit", i))
        for q in inst.qubits:
            if not 0 <= q < nq:
                diags.append(Diagnostic("out-of-bounds", f"qubit index {q} outside [0, {nq})", i))
        for c in inst.clbits:
            if not 0 <= c < nc:
                diags.append(Diagnostic("out-of-bounds", f"clbit index {c} outside [0, {nc})", i))
    return diags


def terminal_start(instructions) -> int:
    """Index of the first of the trailing measures and barriers."""
    i = len(instructions)
    while i and instructions[i - 1].name in ("measure", "barrier"):
        i -= 1
    return i


def counts_key(clbit_values, cregs: list[Register]) -> str:
    """Format classical-bit values as a counts key.

    Groups appear in reverse register declaration order, separated by spaces;
    within a group the leftmost character is the highest bit index.
    """
    groups = []
    for reg in reversed(cregs):
        bits = "".join(str(clbit_values[reg.start + i]) for i in range(reg.size - 1, -1, -1))
        groups.append(bits)
    return " ".join(groups)


def registers(sizes: list[tuple[str, int]]) -> list[Register]:
    """Classical registers of these names and sizes, declared in this order."""
    starts = accumulate((size for _, size in sizes), initial=0)
    return [Register(name, size, start) for (name, size), start in zip(sizes, starts)]


def key_positions(cregs: list[Register]) -> dict[int, int]:
    """Index of each classical bit's character within a counts key."""
    key = [c for reg in reversed(cregs) for c in (*range(reg.start, reg.start + reg.size)[::-1], " ")]
    return {c: i for i, c in enumerate(key) if c != " "}


def key_group_index(cregs: list[Register], name: str) -> int:
    """Position of register `name`'s group within a counts key."""
    for pos, reg in enumerate(reversed(cregs)):
        if reg.name == name:
            return pos
    raise KeyError(f"no classical register {name!r}")
