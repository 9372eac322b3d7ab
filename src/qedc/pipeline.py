"""End-to-end compilation: code selection, check or syndrome insertion,
layout, detection-aware routing, and scheduling, with one metadata record
carried across stages."""
from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .analysis import (
    NoProtectableRegionError,
    largest_clifford_region,
    interaction_graph,
    select_code,
)
from .circuit import Circuit
from .iceberg import IcebergError, IcebergMeta, build_iceberg_circuit
from .layout import CouplingGraph, Layout, LayoutError, fallback_layout, route, schedule, vf2_layouts
from .pcs import ANCILLA_CREG, ANCILLA_QREG, PcsError, PcsMeta, insert_pcs, synthesize_checks


class CompileError(Exception):
    def __init__(self, message: str, reason: str = "compile"):
        super().__init__(message)
        self.reason = reason


@dataclass
class CompilationMeta:
    code: str                       # "pcs" | "iceberg" | "none"
    code_meta: PcsMeta | IcebergMeta | None
    layout: Layout | None
    swap_count: int
    depth: int
    version: str = __version__

    def to_dict(self) -> dict:
        d = {
            "code": self.code,
            "meta": self.code_meta.to_dict() if self.code_meta else None,
            "layout": self.layout.to_dict() if self.layout else None,
            "swap_count": self.swap_count,
            "depth": self.depth,
            "version": self.version,
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CompilationMeta":
        code = d["code"]
        inner = d.get("meta")
        if code == "pcs":
            code_meta = PcsMeta.from_dict(inner)
        elif code == "iceberg":
            code_meta = IcebergMeta.from_dict(inner)
        else:
            code_meta = None
        layout = Layout.from_dict(d["layout"]) if d.get("layout") else None
        return cls(code, code_meta, layout, int(d.get("swap_count", 0)),
                   int(d.get("depth", 0)), d.get("version", __version__))


def protected_qubits(circ: Circuit, meta: CompilationMeta) -> set[int]:
    """Qubit indices carrying detection state (check or syndrome ancillas)."""
    if isinstance(meta.code_meta, PcsMeta):
        return {c.ancilla for c in meta.code_meta.check_pairs}
    if isinstance(meta.code_meta, IcebergMeta):
        return set(meta.code_meta.ancillas)
    return set()


def compile_circuit(
    circ: Circuit,
    code: str = "auto",
    checks: int = 2,
    coupling: CouplingGraph | None = None,
) -> tuple[Circuit, CompilationMeta]:
    """Run the full pipeline.  `checks` is the check-pair count for PCS and
    the syndrome-cycle count for Iceberg.  Without a coupling graph the
    circuit is left on logical qubits with no layout stage."""
    region = None
    if code == "auto":
        choice = select_code(circ)
        code, region = choice.code.lower(), choice.region

    if code == "pcs":
        taken = next((r.name for r in circ.qregs + circ.cregs if r.name in (ANCILLA_QREG, ANCILLA_CREG)), None)
        if taken:
            raise CompileError(f"register name {taken!r} is reserved for the PCS check ancillas")
        if region is None:
            try:
                region = largest_clifford_region(circ)
            except NoProtectableRegionError as exc:
                raise CompileError(str(exc), "no-protectable-region") from exc
        if checks < 1:
            raise CompileError("pcs needs at least one check", "bad-parameters")
        payload = circ.instructions[region.start:region.end]
        try:
            pairs = synthesize_checks(payload, region.qubits, checks)
            compiled, code_meta = insert_pcs(circ, region, pairs)
        except PcsError as exc:
            raise CompileError(str(exc), "bad-parameters") from exc
        meta = CompilationMeta("pcs", code_meta, None, 0, 0)
    elif code == "iceberg":
        if checks < 0:
            raise CompileError("cycle count must be >= 0", "bad-parameters")
        try:
            compiled, code_meta = build_iceberg_circuit(circ, cycles=checks)
        except IcebergError as exc:
            raise CompileError(str(exc), exc.reason) from exc
        meta = CompilationMeta("iceberg", code_meta, None, 0, 0)
    elif code == "none":
        compiled, meta = circ.copy(), CompilationMeta("none", None, None, 0, 0)
    else:
        raise CompileError(f"unknown code {code!r}", "bad-parameters")

    if coupling is not None:
        if compiled.num_qubits > coupling.num_nodes:
            raise CompileError(
                f"{compiled.num_qubits} qubits exceed the {coupling.num_nodes}-qubit device",
                "layout-infeasible",
            )
        ig = interaction_graph(compiled)
        found = vf2_layouts(ig, compiled.num_qubits, coupling, limit=1)
        try:
            lay = found[0] if found else fallback_layout(ig, compiled.num_qubits, coupling)
            routed = route(compiled, lay, coupling, protected_qubits(compiled, meta))
        except LayoutError as exc:
            raise CompileError(str(exc), "layout-infeasible") from exc
        compiled = routed.circuit
        meta.layout = lay
        meta.swap_count = routed.swap_count

    meta.depth = schedule(compiled).depth
    return compiled, meta
