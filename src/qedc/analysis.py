"""Logical-level program analysis: gate-set transpilation, Clifford region
detection, interaction graphs, and automatic detection-code selection."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import Circuit, Instruction
from .clifford import PAULI_AXES, is_clifford

GATESETS = {
    "pcs-default": frozenset(
        ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "rz", "rx", "ry", "cx", "cz", "swap")
    ),
    "iceberg-logical": frozenset(("rz", "rx", "rzz", "rxx")),
}

_PI = math.pi


class TranspileError(Exception):
    def __init__(self, message: str, instruction_index: int | None = None):
        super().__init__(message)
        self.instruction_index = instruction_index


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
    """Any named/rotation 1q gate as an rz/rx sequence (up to global phase)."""
    if name == "rz":
        return [("rz", (q,), (theta,))]
    if name == "rx":
        return [("rx", (q,), (theta,))]
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


def _cz_iceberg(c, t):
    # CZ = e^{i pi/4} Rzz(-pi/2) (Rz(pi/2) ⊗ Rz(pi/2))
    return [("rz", (c,), (_PI / 2,)), ("rz", (t,), (_PI / 2,)), ("rzz", (c, t), (-_PI / 2,))]


def _cx_iceberg(c, t):
    return _h_seq(t) + _cz_iceberg(c, t) + _h_seq(t)


def _expand_iceberg(inst: Instruction) -> list[tuple[str, tuple[int, ...], tuple[float, ...]]]:
    name = inst.name
    q = inst.qubits
    if name in ("rz", "rx", "rzz", "rxx"):
        return [(name, q, inst.params)]
    if name in ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "ry"):
        theta = inst.params[0] if inst.params else 0.0
        return _rot_1q(q[0], name, theta)
    if name == "cx":
        return _cx_iceberg(*q)
    if name == "cz":
        return _cz_iceberg(*q)
    if name == "swap":
        a, b = q
        return _cx_iceberg(a, b) + _cx_iceberg(b, a) + _cx_iceberg(a, b)
    if name == "ryy":
        # conjugate rzz by V = S·H on both qubits (V Z V† = Y)
        (theta,) = inst.params
        a, b = q
        pre = []
        post = []
        for qq in (a, b):
            pre += _rot_1q(qq, "sdg", 0.0) + _h_seq(qq)
            post += _h_seq(qq) + _rot_1q(qq, "s", 0.0)
        return pre + [("rzz", (a, b), (theta,))] + post
    raise TranspileError(f"gate {name!r} cannot be transpiled to iceberg-logical")


def _expand_pcs(inst: Instruction) -> list[tuple[str, tuple[int, ...], tuple[float, ...]]]:
    name = inst.name
    if name in GATESETS["pcs-default"]:
        return [(name, inst.qubits, inst.params)]
    (theta,) = inst.params
    a, b = inst.qubits
    if name == "rzz":
        return [("cx", (a, b), ()), ("rz", (b,), (theta,)), ("cx", (a, b), ())]
    if name == "rxx":
        return (
            [("h", (a,), ()), ("h", (b,), ())]
            + [("cx", (a, b), ()), ("rz", (b,), (theta,)), ("cx", (a, b), ())]
            + [("h", (a,), ()), ("h", (b,), ())]
        )
    if name == "ryy":
        pre = [("sdg", (a,), ()), ("h", (a,), ()), ("sdg", (b,), ()), ("h", (b,), ())]
        post = [("h", (a,), ()), ("s", (a,), ()), ("h", (b,), ()), ("s", (b,), ())]
        return pre + [("cx", (a, b), ()), ("rz", (b,), (theta,)), ("cx", (a, b), ())] + post
    raise TranspileError(f"gate {name!r} cannot be transpiled to pcs-default")


def transpile_to_gateset(circ: Circuit, target: str) -> Circuit:
    """Rewrite onto a target gate set, preserving the unitary up to global phase."""
    if target not in GATESETS:
        raise ValueError(f"unknown gate set {target!r}")
    out = circ.copy_empty()
    # find where the trailing measure/barrier block starts
    i = len(circ.instructions)
    while i > 0 and circ.instructions[i - 1].name in ("measure", "barrier"):
        i -= 1
    trailing_start = i

    for idx, inst in enumerate(circ.instructions):
        name = inst.name
        if name == "measure":
            if target == "iceberg-logical" and idx < trailing_start:
                raise TranspileError(
                    f"mid-circuit measure at instruction {idx} is unsupported for {target}", idx
                )
            out.instructions.append(inst)
            continue
        if name == "barrier":
            if target == "pcs-default":
                out.instructions.append(inst)
            continue
        if name == "reset":
            if target == "iceberg-logical":
                raise TranspileError(f"reset at instruction {idx} is unsupported for {target}", idx)
            out.instructions.append(inst)
            continue
        if name in GATESETS[target]:
            out.instructions.append(inst)
            continue
        expand = _expand_iceberg if target == "iceberg-logical" else _expand_pcs
        try:
            for gname, qubits, params in expand(inst):
                out.append(gname, qubits, params)
        except TranspileError:
            raise TranspileError(
                f"gate {name!r} at instruction {idx} cannot be transpiled to {target}", idx
            )
    return out


# -- region analysis ----------------------------------------------------------

def _make_region(circ: Circuit, start: int, end: int) -> Region:
    insts = circ.instructions[start:end]
    qubits = frozenset(q for inst in insts for q in inst.qubits)
    two_q = sum(1 for inst in insts if len(inst.qubits) == 2)
    cliff = all(is_clifford(inst) for inst in insts)
    return Region(start, end, qubits, two_q, cliff)


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
                regions.append(_make_region(circ, start, i))
                start = None
    if start is not None:
        regions.append(_make_region(circ, start, len(circ.instructions)))
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

@dataclass
class SelectionConfig:
    clifford_min: float = 0.5


def select_code(circ: Circuit, cfg: SelectionConfig | None = None) -> CodeChoice:
    if cfg is None:
        cfg = SelectionConfig()
    gates = [i for i in circ.instructions if i.name not in ("measure", "barrier")]
    total = len(gates)
    if total == 0:
        return CodeChoice("NONE", 0.0, 0.0, {})

    try:
        best = largest_clifford_region(circ)
        region = circ.instructions[best.start:best.end]
    except NoProtectableRegionError:
        region = []
    in_region = sum(1 for i in region if i.name not in ("measure", "barrier"))
    clifford_fraction = in_region / total
    rotation_fraction = sum(1 for g in gates if g.name in PAULI_AXES and len(g.qubits) == 2) / total

    overhead = {"pcs": 2, "iceberg": 4}  # ancillas for a typical 2-check / 2-cycle setup
    if clifford_fraction >= cfg.clifford_min:
        return CodeChoice("PCS", clifford_fraction, rotation_fraction, overhead)
    if circ.num_qubits % 2 == 0 and circ.num_qubits >= 2:
        try:
            transpile_to_gateset(circ, "iceberg-logical")
        except TranspileError:
            return CodeChoice("NONE", clifford_fraction, rotation_fraction, overhead)
        return CodeChoice("ICEBERG", clifford_fraction, rotation_fraction, overhead)
    return CodeChoice("NONE", clifford_fraction, rotation_fraction, overhead)
