"""qedc: a compiler that inserts quantum error detection (Pauli check
sandwiching and the Iceberg [[k+2, k, 2]] code) into arbitrary circuits,
maps them to hardware coupling graphs, simulates them under depolarizing
noise, and postprocesses counts via postselection and check extrapolation."""

__version__ = "0.1.0"

from .circuit import Circuit, Instruction, Register, validate
from .qasm import QasmError, emit_qasm, parse_qasm
from .pauli import PauliString, pauli_mul
from .clifford import CliffordTableau, conjugate, is_clifford, tableau_from_circuit
from .analysis import (
    CodeChoice,
    Region,
    find_clifford_regions,
    interaction_graph,
    largest_clifford_region,
    select_code,
    transpile_to_gateset,
)
from .simulator import NoiseModel, ideal_distribution, sample, statevector
from .stabilizer import StabilizerState, stabilizer_run
from .pcs import CheckPair, PcsMeta, insert_pcs, synthesize_checks
from .iceberg import IcebergMeta, build_iceberg_circuit, decode_readout
from .layout import (
    CouplingGraph,
    Layout,
    fallback_layout,
    heavy_hex_127,
    route,
    schedule,
    vf2_layouts,
)
from .errorprop import propagate_flips
from .postprocess import (
    ExtrapolationResult,
    PostselectionReport,
    estimate_overhead,
    extrapolate_checks,
    postselect_counts,
    postselect_counts_iceberg,
)
from .pipeline import CompilationMeta, CompileError, compile_circuit
