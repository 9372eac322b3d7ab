"""The [[k+2, k, 2]] Iceberg code: fault-detecting state preparation, logical
gate translation onto {rz, rx, rzz, rxx}, periodic two-ancilla syndrome
cycles, and destructive readout with parity decoding.

Data qubits are ordered [t, 1..k, b]; the stabilizers are X on all n = k+2
data qubits and Z on all n data qubits.  Logical operators: Zbar_i = Z_i Z_b
and Xbar_i = X_t X_i.
"""
from __future__ import annotations

from dataclasses import dataclass

from .analysis import iceberg_obstacle, transpile_to_gateset
from .circuit import Circuit, Instruction, Register, registers, terminal_start


class IcebergError(Exception):
    pass


@dataclass
class IcebergLayout:
    k: int
    data_qubits: tuple[int, ...]   # [t, logical 1..k, b]
    ancillas: tuple[int, int]      # reusable syndrome ancillas
    cycle_count: int

    @property
    def n(self) -> int:
        return self.k + 2

    @property
    def top(self) -> int:
        return self.data_qubits[0]

    @property
    def bottom(self) -> int:
        return self.data_qubits[-1]

    def logical(self, i: int) -> int:
        if not 0 <= i < self.k:
            raise IcebergError(f"logical qubit {i} out of range for k={self.k}")
        return self.data_qubits[1 + i]


@dataclass
class IcebergMeta:
    layout: IcebergLayout
    verify_register: str = "verify"
    cycle_register: str = "synd"
    readout_register: str = "meas"
    accept_rule: str = "cycles_zero_and_even_parity"

    @property
    def k(self) -> int:
        return self.layout.k

    def cregs(self) -> list[Register]:
        """The classical registers of the encoded circuit, in declaration
        order: the verification bit, two syndrome bits per cycle (no register
        without cycles) and the n readout bits."""
        sizes = [(self.verify_register, 1), (self.cycle_register, 2 * self.layout.cycle_count),
                 (self.readout_register, self.layout.n)]
        return registers([(name, size) for name, size in sizes if size])

    def to_dict(self) -> dict:
        return {
            "code": "iceberg",
            "k": self.layout.k,
            "data_qubits": list(self.layout.data_qubits),
            "ancillas": list(self.layout.ancillas),
            "cycles": self.layout.cycle_count,
            "registers": {
                "verify": self.verify_register,
                "cycle": self.cycle_register,
                "readout": self.readout_register,
            },
            "accept_rule": self.accept_rule,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IcebergMeta":
        layout = IcebergLayout(
            int(d["k"]),
            tuple(d["data_qubits"]),
            tuple(d["ancillas"]),
            int(d["cycles"]),
        )
        regs = d.get("registers", {})
        return cls(
            layout,
            regs.get("verify", "verify"),
            regs.get("cycle", "synd"),
            regs.get("readout", "meas"),
            d.get("accept_rule", "cycles_zero_and_even_parity"),
        )


def _inst(name, qubits, params=(), clbits=()):
    return Instruction(name, tuple(qubits), tuple(params), tuple(clbits))


def iceberg_encode_init(k: int) -> tuple[list[Instruction], IcebergLayout]:
    """Fragment preparing logical |0..0>, i.e. (|0^n> + |1^n>)/sqrt(2), plus
    one chain verification measured into the accept bit.

    Qubit indices follow the standard layout: data [0..n), ancillas n, n+1;
    the verification bit is written by the caller's register plumbing (the
    fragment uses clbit 0 for it).
    """
    if k < 2 or k % 2 != 0:
        raise IcebergError(f"k must be even and >= 2, got {k}")
    n = k + 2
    layout = IcebergLayout(k, tuple(range(n)), (n, n + 1), 0)
    t, b = layout.top, layout.bottom
    anc = layout.ancillas[0]
    frag = [_inst("h", (t,))]
    chain = list(layout.data_qubits)
    for a, bq in zip(chain, chain[1:]):
        frag.append(_inst("cx", (a, bq)))
    # verification: Z_t Z_b parity onto the ancilla, expected 0
    frag.append(_inst("cx", (t, anc)))
    frag.append(_inst("cx", (b, anc)))
    frag.append(_inst("measure", (anc,), clbits=(0,)))
    frag.append(_inst("reset", (anc,)))
    return frag, layout


def map_logical_gate(inst: Instruction, layout: IcebergLayout) -> list[Instruction]:
    """Translate a logical {rz, rx, rzz, rxx} gate to its physical realization."""
    name = inst.name
    if name == "rz":
        (i,) = inst.qubits
        return [_inst("rzz", (layout.logical(i), layout.bottom), inst.params)]
    if name == "rx":
        (i,) = inst.qubits
        return [_inst("rxx", (layout.top, layout.logical(i)), inst.params)]
    if name == "rzz":
        i, j = inst.qubits
        return [_inst("rzz", (layout.logical(i), layout.logical(j)), inst.params)]
    if name == "rxx":
        i, j = inst.qubits
        return [_inst("rxx", (layout.logical(i), layout.logical(j)), inst.params)]
    raise IcebergError(f"gate {name!r} is not in the logical gate set (transpile first)")


def syndrome_cycle(layout: IcebergLayout, clbits: tuple[int, int]) -> list[Instruction]:
    """Measure both stabilizers with the two reusable ancillas.

    Ancilla 0 collects Z-parity in |0>; ancilla 1 spreads X-parity from |+>;
    each data qubit is touched once per stabilizer, interleaved.  Both bits
    are 0 on the codespace; the ancillas are reset for reuse.
    """
    az, ax = layout.ancillas
    frag = [_inst("h", (ax,))]
    for d in layout.data_qubits:
        frag.append(_inst("cx", (d, az)))
        frag.append(_inst("cx", (ax, d)))
    frag.append(_inst("h", (ax,)))
    frag.append(_inst("measure", (az,), clbits=(clbits[0],)))
    frag.append(_inst("measure", (ax,), clbits=(clbits[1],)))
    frag.append(_inst("reset", (az,)))
    frag.append(_inst("reset", (ax,)))
    return frag


def _cycle_positions(num_gates: int, cycles: int) -> list[int]:
    """Instruction indices splitting the gate list into cycles+1 equal parts."""
    return [round(num_gates * (j + 1) / (cycles + 1)) for j in range(cycles)]


def build_iceberg_circuit(circ: Circuit, cycles: int = 0) -> tuple[Circuit, IcebergMeta]:
    """Encode a k-qubit logical circuit (even k) into the Iceberg code.

    Output structure: verified state preparation, translated logical gates
    with `cycles` syndrome cycles inserted at even splits, and a final
    destructive Z-basis readout of all n data qubits.  Raises IcebergError
    with `analysis.iceberg_obstacle`'s reason if the code cannot encode `circ`.
    """
    why = iceberg_obstacle(circ)
    if why:
        raise IcebergError(why)
    if cycles < 0:
        raise IcebergError("cycle count must be >= 0")
    k = circ.num_qubits
    logical = transpile_to_gateset(circ, "iceberg-logical").instructions

    frag, layout = iceberg_encode_init(k)
    meta = IcebergMeta(IcebergLayout(k, layout.data_qubits, layout.ancillas, cycles))
    layout = meta.layout
    out = Circuit(cregs=meta.cregs())
    out.add_qreg("d", layout.n)
    out.add_qreg("anc", 2)
    # the encode fragment writes its verify bit to clbit 0, the verify register
    out.instructions.extend(frag)
    regs = {r.name: r for r in out.cregs}
    synd = regs.get(meta.cycle_register)
    meas = regs[meta.readout_register]

    gates = logical[:terminal_start(logical)]  # the trailing measures left out
    bounds = [0] + _cycle_positions(len(gates), cycles) + [len(gates)]
    for j, (start, end) in enumerate(zip(bounds, bounds[1:])):
        for inst in gates[start:end]:
            out.instructions.extend(map_logical_gate(inst, layout))
        if j < cycles:
            bits = (synd.start + 2 * j, synd.start + 2 * j + 1)
            out.instructions.extend(syndrome_cycle(layout, bits))

    for i, d in enumerate(layout.data_qubits):
        out.instructions.append(_inst("measure", (d,), clbits=(meas.start + i,)))

    return out, meta


_FLIP = str.maketrans("01", "10")


def decode_readout(bits: str, meta: IcebergMeta) -> tuple[bool, str]:
    """Accept iff the n readout bits have even parity; logical bit i is
    bits_i XOR bits_b.

    `bits` is in counts-key order: leftmost = highest readout index (the
    bottom qubit b); the returned logical string likewise has logical k-1
    leftmost.
    """
    n = meta.layout.n
    if len(bits) != n or bits.strip("01"):
        raise IcebergError(f"expected {n} readout bits, got {bits!r}")
    logical = bits[1:-1]  # readout indices n-2 .. 1: logical k-1 .. 0
    if bits[0] == "1":  # the bottom qubit's bit flips every logical bit
        logical = logical.translate(_FLIP)
    return bits.count("1") % 2 == 0, logical
