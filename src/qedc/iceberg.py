"""The [[k+2, k, 2]] Iceberg code: fault-detecting state preparation, logical
gate translation onto {rz, rx, rzz, rxx}, periodic two-ancilla syndrome
cycles, and destructive readout with parity decoding.

Data qubits are ordered [t, 1..k, b]; the stabilizers are X on all n = k+2
data qubits and Z on all n data qubits.  Logical operators: Zbar_i = Z_i Z_b
and Xbar_i = X_t X_i.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .analysis import iceberg_obstacle, transpile_to_gateset
from .circuit import Circuit, Instruction, Register, registers, terminal_start

# the encoded circuit's registers: data and syndrome-ancilla qubits, then the
# verification bit, two syndrome bits per cycle and the n readout bits
DATA_QREG = "d"
ANCILLA_QREG = "anc"
VERIFY_CREG = "verify"
SYNDROME_CREG = "synd"
READOUT_CREG = "meas"


class IcebergError(Exception):
    def __init__(self, message: str, reason: str = "compile"):
        super().__init__(message)
        self.reason = reason  # the CLI error code


@dataclass(frozen=True)
class IcebergMeta:
    """What an Iceberg compile decides: k logical qubits and the number of
    syndrome cycles.  The data qubits are 0..k+1 as [t, 1..k, b] and the two
    reusable syndrome ancillas k+2 and k+3."""

    k: int
    cycles: int

    @property
    def n(self) -> int:
        return self.k + 2

    @cached_property  # map_logical_gate reads it once per gate
    def data_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def ancillas(self) -> tuple[int, int]:
        return self.n, self.n + 1

    def cregs(self) -> list[Register]:
        """The classical registers of the encoded circuit, in declaration
        order: the verification bit, two syndrome bits per cycle (no register
        without cycles) and the n readout bits."""
        sizes = [(VERIFY_CREG, 1), (SYNDROME_CREG, 2 * self.cycles), (READOUT_CREG, self.n)]
        return registers([(name, size) for name, size in sizes if size])

    def to_dict(self) -> dict:
        return {"code": "iceberg", "k": self.k, "cycles": self.cycles}

    @classmethod
    def from_dict(cls, d: dict) -> "IcebergMeta":
        """The record of `d`; the derived keys older files carry (data
        qubits, ancillas, register names, accept rule) are ignored."""
        k, cycles = d["k"], d["cycles"]
        if not (type(k) is int and k >= 2 and k % 2 == 0):
            raise ValueError(f"k must be an even integer >= 2, got {k!r}")
        if not (type(cycles) is int and cycles >= 0):
            raise ValueError(f"cycles must be an integer >= 0, got {cycles!r}")
        return cls(k, cycles)


def iceberg_encode_init(k: int) -> list[Instruction]:
    """Fragment preparing logical |0..0>, i.e. (|0^n> + |1^n>)/sqrt(2), plus
    one chain verification measured into the accept bit.

    Qubit indices follow `IcebergMeta`: data [0..n), ancillas n, n+1; the
    verification bit is written by the caller's register plumbing (the
    fragment uses clbit 0 for it).
    """
    if k < 2 or k % 2 != 0:
        raise IcebergError(f"k must be even and >= 2, got {k}")
    meta = IcebergMeta(k, 0)
    chain = meta.data_qubits
    t, b = chain[0], chain[-1]
    anc = meta.ancillas[0]
    frag = [Instruction("h", (t,))]
    for a, bq in zip(chain, chain[1:]):
        frag.append(Instruction("cx", (a, bq)))
    # verification: Z_t Z_b parity onto the ancilla, expected 0
    frag.append(Instruction("cx", (t, anc)))
    frag.append(Instruction("cx", (b, anc)))
    frag.append(Instruction("measure", (anc,), clbits=(0,)))
    frag.append(Instruction("reset", (anc,)))
    return frag


def map_logical_gate(inst: Instruction, meta: IcebergMeta) -> list[Instruction]:
    """Translate a logical {rz, rx, rzz, rxx} gate to its physical realization."""
    name = inst.name
    data = meta.data_qubits  # [t, logical 0..k-1, b]
    if name == "rz":
        (i,) = inst.qubits
        return [Instruction("rzz", (data[1 + i], data[-1]), inst.params)]
    if name == "rx":
        (i,) = inst.qubits
        return [Instruction("rxx", (data[0], data[1 + i]), inst.params)]
    if name in ("rzz", "rxx"):
        i, j = inst.qubits
        return [Instruction(name, (data[1 + i], data[1 + j]), inst.params)]
    raise IcebergError(f"gate {name!r} is not in the logical gate set (transpile first)")


def syndrome_cycle(meta: IcebergMeta, clbits: tuple[int, int]) -> list[Instruction]:
    """Measure both stabilizers with the two reusable ancillas.

    Ancilla 0 collects Z-parity in |0>; ancilla 1 spreads X-parity from |+>;
    each data qubit is touched once per stabilizer, interleaved.  Both bits
    are 0 on the codespace; the ancillas are reset for reuse.
    """
    az, ax = meta.ancillas
    frag = [Instruction("h", (ax,))]
    for d in meta.data_qubits:
        frag.append(Instruction("cx", (d, az)))
        frag.append(Instruction("cx", (ax, d)))
    frag.append(Instruction("h", (ax,)))
    frag.append(Instruction("measure", (az,), clbits=(clbits[0],)))
    frag.append(Instruction("measure", (ax,), clbits=(clbits[1],)))
    frag.append(Instruction("reset", (az,)))
    frag.append(Instruction("reset", (ax,)))
    return frag


def _cycle_positions(num_gates: int, cycles: int) -> list[int]:
    """Instruction indices splitting the gate list into cycles+1 equal parts."""
    return [round(num_gates * (j + 1) / (cycles + 1)) for j in range(cycles)]


def build_iceberg_circuit(circ: Circuit, cycles: int = 0) -> tuple[Circuit, IcebergMeta]:
    """Encode a k-qubit logical circuit (even k) into the Iceberg code.

    Output structure: verified state preparation, translated logical gates
    with `cycles` syndrome cycles inserted at even splits, and a final
    destructive Z-basis readout of all n data qubits.  Raises IcebergError
    with `analysis.iceberg_obstacle`'s message and reason code if the code
    cannot encode `circ`.
    """
    obstacle = iceberg_obstacle(circ)
    if obstacle:
        raise IcebergError(*obstacle)
    if cycles < 0:
        raise IcebergError("cycle count must be >= 0")
    meta = IcebergMeta(circ.num_qubits, cycles)
    logical = transpile_to_gateset(circ, "iceberg-logical").instructions

    out = Circuit(cregs=meta.cregs())
    out.add_qreg(DATA_QREG, meta.n)
    out.add_qreg(ANCILLA_QREG, 2)
    # the encode fragment writes its verify bit to clbit 0, the verify register
    out.instructions.extend(iceberg_encode_init(meta.k))
    regs = {r.name: r for r in out.cregs}
    synd = regs.get(SYNDROME_CREG)
    meas = regs[READOUT_CREG]

    gates = logical[:terminal_start(logical)]  # the trailing measures left out
    bounds = [0] + _cycle_positions(len(gates), cycles) + [len(gates)]
    for j, (start, end) in enumerate(zip(bounds, bounds[1:])):
        for inst in gates[start:end]:
            out.instructions.extend(map_logical_gate(inst, meta))
        if j < cycles:
            bits = (synd.start + 2 * j, synd.start + 2 * j + 1)
            out.instructions.extend(syndrome_cycle(meta, bits))

    for i, d in enumerate(meta.data_qubits):
        out.instructions.append(Instruction("measure", (d,), clbits=(meas.start + i,)))

    return out, meta


_FLIP = str.maketrans("01", "10")


def decode_readout(bits: str, meta: IcebergMeta) -> tuple[bool, str]:
    """Accept iff the n readout bits have even parity; logical bit i is
    bits_i XOR bits_b.

    `bits` is in counts-key order: leftmost = highest readout index (the
    bottom qubit b); the returned logical string likewise has logical k-1
    leftmost.
    """
    n = meta.n
    if len(bits) != n or bits.strip("01"):
        raise IcebergError(f"expected {n} readout bits, got {bits!r}")
    logical = bits[1:-1]  # readout indices n-2 .. 1: logical k-1 .. 0
    if bits[0] == "1":  # the bottom qubit's bit flips every logical bit
        logical = logical.translate(_FLIP)
    return bits.count("1") % 2 == 0, logical
