"""Logical-level program analysis: gate-set transpilation, Clifford region
detection, interaction graphs, and automatic detection-code selection."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import Circuit, Instruction, terminal_start
from .clifford import BASIS_CHANGE, PAULI_AXES, is_clifford

GATESETS = {
    "pcs-default": frozenset(
        ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "rz", "rx", "ry", "cx", "cz", "swap")
    ),
    "iceberg-logical": frozenset(("rz", "rx", "rzz", "rxx")),
}

_PI = math.pi

# the least Clifford fraction for which select_code picks PCS
CLIFFORD_MIN = 0.5


class TranspileError(Exception):
    pass


@dataclass
class Region:
    """A contiguous run of instructions [start, end)."""

    start: int
    end: int
    qubits: frozenset[int]
    two_qubit_count: int
    is_clifford: bool

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class CodeChoice:
    code: str  # "PCS" | "ICEBERG" | "NONE"
    clifford_fraction: float
    rotation_fraction: float
    qubit_overhead: dict[str, int] = field(default_factory=dict)
    region: Region | None = None  # the largest Clifford region, if any

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "rationale": {
                "clifford_fraction": self.clifford_fraction,
                "two_qubit_pauli_rotation_fraction": self.rotation_fraction,
                "qubit_overhead_estimate": self.qubit_overhead,
            },
        }


# -- transpilation ------------------------------------------------------------

def _h_seq(q):
    return [("rz", (q,), (_PI / 2,)), ("rx", (q,), (_PI / 2,)), ("rz", (q,), (_PI / 2,))]


def _rot_1q(q, name, theta):
    """A 1q gate other than rz and rx as an rz/rx sequence (up to global phase)."""
    if name == "ry":
        return [("rz", (q,), (-_PI / 2,)), ("rx", (q,), (theta,)), ("rz", (q,), (_PI / 2,))]
    fixed = {
        "x": [("rx", (q,), (_PI,))],
        "y": [("rx", (q,), (_PI,)), ("rz", (q,), (_PI,))],
        "z": [("rz", (q,), (_PI,))],
        "s": [("rz", (q,), (_PI / 2,))],
        "sdg": [("rz", (q,), (-_PI / 2,))],
        "t": [("rz", (q,), (_PI / 4,))],
        "tdg": [("rz", (q,), (-_PI / 4,))],
        "h": _h_seq(q),
    }
    return fixed[name]


def _on_axis(inst: Instruction, core: list, named) -> list:
    """`core`, a rotation about Z on each of inst's qubits, turned onto inst's
    axis by the named gates of `BASIS_CHANGE`, qubit by qubit, each written
    out by `named(qubit, gate)`."""
    pre, post = BASIS_CHANGE[PAULI_AXES[inst.name]]
    def side(gates):
        return [step for q in inst.qubits for g in gates for step in named(q, g)]
    return side(pre) + core + side(post)


def _cz_iceberg(c, t):
    # CZ = e^{i pi/4} Rzz(-pi/2) (Rz(pi/2) ⊗ Rz(pi/2))
    return [("rz", (c,), (_PI / 2,)), ("rz", (t,), (_PI / 2,)), ("rzz", (c, t), (-_PI / 2,))]


def _cx_iceberg(c, t):
    return _h_seq(t) + _cz_iceberg(c, t) + _h_seq(t)


def _expand_iceberg(inst: Instruction) -> list[tuple[str, tuple[int, ...], tuple[float, ...]]]:
    """A gate outside iceberg-logical, other than measure, reset and barrier,
    as iceberg-logical gates."""
    name = inst.name
    q = inst.qubits
    if name == "cx":
        return _cx_iceberg(*q)
    if name == "cz":
        return _cz_iceberg(*q)
    if name == "swap":
        a, b = q
        return _cx_iceberg(a, b) + _cx_iceberg(b, a) + _cx_iceberg(a, b)
    if name == "ryy":
        return _on_axis(inst, [("rzz", q, inst.params)], lambda qq, g: _rot_1q(qq, g, 0.0))
    theta = inst.params[0] if inst.params else 0.0
    return _rot_1q(q[0], name, theta)


def _expand_pcs(inst: Instruction) -> list[tuple[str, tuple[int, ...], tuple[float, ...]]]:
    """rzz, rxx or ryy, the gates outside pcs-default, as pcs-default gates."""
    (theta,) = inst.params
    a, b = inst.qubits
    core = [("cx", (a, b), ()), ("rz", (b,), (theta,)), ("cx", (a, b), ())]
    return _on_axis(inst, core, lambda q, g: [(g, (q,), ())])


def _midcircuit_obstacle(circ: Circuit, tail: int) -> str | None:
    """The first reset or measurement before instruction `tail`, as the
    reason iceberg-logical cannot take `circ`."""
    for idx, inst in enumerate(circ.instructions[:tail]):
        if inst.name == "measure":
            return f"mid-circuit measure at instruction {idx} is unsupported for iceberg-logical"
        if inst.name == "reset":
            return f"reset at instruction {idx} is unsupported for iceberg-logical"
    return None


def transpile_to_gateset(circ: Circuit, target: str) -> Circuit:
    """Rewrite onto a target gate set, preserving the unitary up to global phase."""
    if target not in GATESETS:
        raise ValueError(f"unknown gate set {target!r}")
    if target == "iceberg-logical":
        why = _midcircuit_obstacle(circ, terminal_start(circ.instructions))
        if why:
            raise TranspileError(why)
    # iceberg-logical drops barriers
    kept = GATESETS[target] | {"measure", "reset"} | ({"barrier"} if target == "pcs-default" else set())
    expand = _expand_iceberg if target == "iceberg-logical" else _expand_pcs
    out = circ.copy_empty()
    for inst in circ.instructions:
        if inst.name in kept:
            out.instructions.append(inst)
        elif inst.name != "barrier":
            for gname, qubits, params in expand(inst):
                out.append(gname, qubits, params)
    return out


# -- region analysis ----------------------------------------------------------

def _clifford_region(circ: Circuit, start: int, end: int) -> Region:
    """The region of a run whose instructions are all Clifford."""
    insts = circ.instructions[start:end]
    qubits = frozenset(q for inst in insts for q in inst.qubits)
    two_q = sum(1 for inst in insts if len(inst.qubits) == 2)
    return Region(start, end, qubits, two_q, True)


def find_clifford_regions(circ: Circuit) -> list[Region]:
    """Maximal runs of consecutive Clifford instructions, in order."""
    regions: list[Region] = []
    start = None
    for i, inst in enumerate(circ.instructions):
        if is_clifford(inst):
            if start is None:
                start = i
        else:
            if start is not None:
                regions.append(_clifford_region(circ, start, i))
                start = None
    if start is not None:
        regions.append(_clifford_region(circ, start, len(circ.instructions)))
    return regions


class NoProtectableRegionError(Exception):
    pass


def largest_clifford_region(circ: Circuit) -> Region:
    """Region with most two-qubit gates; ties by gate count, then start index."""
    regions = find_clifford_regions(circ)
    if not regions:
        raise NoProtectableRegionError("circuit contains no Clifford region to protect")
    return max(regions, key=lambda r: (r.two_qubit_count, r.size, -r.start))


def interaction_graph(circ: Circuit) -> dict[tuple[int, int], int]:
    """Edge (a, b) with a < b -> number of two-qubit instructions on {a, b}."""
    edges: dict[tuple[int, int], int] = {}
    for inst in circ.instructions:
        if len(inst.qubits) == 2 and inst.name != "barrier":
            a, b = sorted(inst.qubits)
            edges[(a, b)] = edges.get((a, b), 0) + 1
    return edges


# -- code selection -----------------------------------------------------------

def iceberg_obstacle(circ: Circuit) -> tuple[str, str] | None:
    """Why the Iceberg code cannot encode `circ`, as (message, CLI reason
    code), or None.  It needs an even number k >= 2 of logical qubits
    (`odd-qubit-count`), and (`compile`) no reset, no measurement before the
    trailing block, and a readout it can decode logical bits into: each
    qubit q measured once into clbit q of a single k-bit register."""
    k = circ.num_qubits
    if k < 2 or k % 2:
        return f"logical qubit count must be even and >= 2, got {k}", "odd-qubit-count"
    tail = terminal_start(circ.instructions)
    why = _midcircuit_obstacle(circ, tail)
    if why:
        return why, "compile"
    measured = sorted((i.qubits[0], i.clbits[0]) for i in circ.instructions[tail:] if i.name == "measure")
    if len(circ.cregs) == 1 and circ.num_clbits == k and measured == [(q, q) for q in range(k)]:
        return None
    return f"the Iceberg readout needs each qubit q measured once into clbit q of one {k}-bit register", "compile"


def select_code(circ: Circuit) -> CodeChoice:
    gates = [i for i in circ.instructions if i.name not in ("measure", "barrier")]
    total = len(gates)
    if total == 0:
        return CodeChoice("NONE", 0.0, 0.0, {})

    try:
        best = largest_clifford_region(circ)
        in_region = best.size
    except NoProtectableRegionError:
        best, in_region = None, 0
    clifford_fraction = in_region / total
    rotation_fraction = sum(1 for g in gates if g.name in PAULI_AXES and len(g.qubits) == 2) / total

    overhead = {"pcs": 2, "iceberg": 4}  # ancillas for a typical 2-check / 2-cycle setup
    if clifford_fraction >= CLIFFORD_MIN:
        code = "PCS"
    else:
        code = "NONE" if iceberg_obstacle(circ) else "ICEBERG"
    return CodeChoice(code, clifford_fraction, rotation_fraction, overhead, best)
