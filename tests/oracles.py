"""Independent dense-matrix oracles used to cross-check the fast engines.

Everything here is built from first principles with numpy kron products so
the package's own Pauli/Clifford/statevector code is never trusted to verify
itself.
"""
import dataclasses
import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}

GATE_MATS = {
    "x": PAULI_MATS["X"],
    "y": PAULI_MATS["Y"],
    "z": PAULI_MATS["Z"],
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def rot(name: str, theta: float) -> np.ndarray:
    if name == "rz":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(complex)
    if name == "rx":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name in ("rzz", "rxx", "ryy"):
        p = PAULI_MATS[name[1].upper()]
        pp = np.kron(p, p)
        return (math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * pp).astype(complex)
    raise KeyError(name)


def gate_mat(name: str, params=()) -> np.ndarray:
    if name in GATE_MATS:
        return GATE_MATS[name]
    return rot(name, params[0])


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label; leftmost character = highest qubit."""
    sign = 1
    body = label
    if body and body[0] in "+-":
        sign = -1 if body[0] == "-" else 1
        body = body[1:]
    mat = np.eye(1, dtype=complex)
    for ch in body:  # leftmost = highest qubit = leftmost kron factor
        mat = np.kron(mat, PAULI_MATS[ch])
    return sign * mat


def embed(mat: np.ndarray, qubits, n: int) -> np.ndarray:
    """Expand a k-qubit gate matrix (first listed qubit = most significant)
    onto n qubits with index bit q = qubit q."""
    k = len(qubits)
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for col in range(2 ** n):
        sub_in = 0
        for pos, q in enumerate(qubits):  # first listed = msb of sub index
            sub_in |= ((col >> q) & 1) << (k - 1 - pos)
        rest = col
        for q in qubits:
            rest &= ~(1 << q)
        for sub_out in range(2 ** k):
            amp = mat[sub_out, sub_in]
            if amp == 0:
                continue
            row = rest
            for pos, q in enumerate(qubits):
                if (sub_out >> (k - 1 - pos)) & 1:
                    row |= 1 << q
            full[row, col] += amp
    return full


def circuit_unitary(instructions, n: int) -> np.ndarray:
    """Dense unitary of a gate list (no measurements)."""
    u = np.eye(2 ** n, dtype=complex)
    for inst in instructions:
        if inst.name == "barrier":
            continue
        u = embed(gate_mat(inst.name, inst.params), inst.qubits, n) @ u
    return u


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    return abs(abs(np.vdot(a.reshape(-1), b.reshape(-1))) - norm) < tol * max(norm, 1.0)


def _depolarizing_paulis(qubits, n: int) -> list[np.ndarray]:
    """Dense matrices of the non-identity Paulis on `qubits` (3 or 15)."""
    factors = [PAULI_MATS[ch] for ch in "IXYZ"]
    mats = []
    for combo in itertools.product(range(4), repeat=len(qubits)):
        if any(combo):
            local = np.eye(1, dtype=complex)
            for c in combo:  # first listed qubit = leftmost kron factor
                local = np.kron(local, factors[c])
            mats.append(embed(local, qubits, n))
    return mats


def noisy_distribution(circ, noise) -> dict[str, float]:
    """Exact outcome distribution of `circ` under depolarizing `noise`.

    One unnormalised density matrix per classical record (its trace is the
    record's probability).  A noisy gate is followed by the depolarizing
    channel written out as its Pauli mixture; measurement and reset are
    projectors onto |0> and |1>.
    """
    from qedc.circuit import counts_key

    n, nc = circ.num_qubits, circ.num_clbits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    branches = {(0,) * nc: rho}
    for inst in circ.instructions:
        name, qubits = inst.name, inst.qubits
        if name == "barrier":
            continue
        if name in ("measure", "reset"):
            flip = embed(PAULI_MATS["X"], qubits, n)
            out = {}
            for bits, r in branches.items():
                for bit in (0, 1):
                    proj = embed(np.diag([1 - bit, bit]).astype(complex), qubits, n)
                    part = proj @ r @ proj
                    key = bits
                    if name == "measure":
                        key = bits[:inst.clbits[0]] + (bit,) + bits[inst.clbits[0] + 1:]
                    elif bit:
                        part = flip @ part @ flip
                    out[key] = out.get(key, 0) + part
            branches = out
            continue
        u = embed(gate_mat(name, inst.params), qubits, n)
        branches = {bits: u @ r @ u.conj().T for bits, r in branches.items()}
        if len(qubits) == 1 and name in noise.gates1:
            p = noise.p1
        elif len(qubits) == 2 and name in noise.gates2:
            p = noise.p2
        else:
            p = 0.0
        if p:
            paulis = _depolarizing_paulis(qubits, n)
            branches = {
                bits: (1 - p) * r + p / len(paulis) * sum(P @ r @ P for P in paulis)
                for bits, r in branches.items()
            }
    dist: dict[str, float] = {}
    for bits, r in branches.items():
        key = counts_key(list(bits), circ.cregs)
        dist[key] = dist.get(key, 0.0) + float(np.trace(r).real)
    return dist


def conj_named(p, name: str, qubits: tuple[int, ...]):
    """g p g† for a named Clifford gate g, with its sign, one Pauli at a time
    with a branch per gate.  Reference for `qedc.clifford.step_xz` and
    `step_signed`; `test_conj_named_matches_dense_conjugation` holds it to
    dense matrices."""
    from qedc.pauli import PauliString

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
        p2 = conj_named(PauliString(p.n, x, z, phase), "h", (qubits[1],))
        p2 = conj_named(p2, "cx", qubits)
        return conj_named(p2, "h", (qubits[1],))
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


def is_symplectic(tab) -> bool:
    """Whether the 2n generators of a `qedc.clifford.CliffordTableau` keep
    the commutation relations of X_q and Z_q: U X_q U† anticommutes with
    U Z_q U† and every other pair commutes."""
    from qedc.pauli import PauliString

    n = tab.n
    gens = [PauliString(n, sum((tab.x[q] >> g & 1) << q for q in range(n)),
                        sum((tab.z[q] >> g & 1) << q for q in range(n)))
            for g in range(2 * n)]
    return all(gens[g].commutes_with(gens[h]) == (h - g != n)
               for g in range(2 * n) for h in range(g + 1, 2 * n))


_ROTATION_LIKE = frozenset(("rz", "rx", "ry", "rzz", "rxx", "ryy", "t", "tdg"))


def forward_propagate_flips(instructions, start, error) -> set[int]:
    """Clbits flipped by `error` striking just before instruction `start`,
    by pushing the error forward through the rest of the circuit.

    Reference for the backward detector sweep in `qedc.errorprop`.  It
    conjugates gate by gate with `conj_named`; the walk direction and the
    flip bookkeeping are its own.
    """
    from qedc.clifford import clifford_gate_sequence, is_clifford
    from qedc.pauli import PauliString

    p = error
    flips: set[int] = set()
    for inst in instructions[start:]:
        name = inst.name
        if name == "barrier":
            continue
        if name == "measure":
            # the clbit keeps its last measurement, and Z on the collapsed
            # qubit is only a phase
            q = inst.qubits[0]
            if (p.x >> q) & 1:
                flips.update(inst.clbits)
            else:
                flips.difference_update(inst.clbits)
            p = PauliString(p.n, p.x, p.z & ~(1 << q), p.phase)
            continue
        if name == "reset":
            mask = ~(1 << inst.qubits[0])
            p = PauliString(p.n, p.x & mask, p.z & mask, p.phase)
            continue
        if is_clifford(inst):
            for gname, qubits in clifford_gate_sequence(inst):
                p = conj_named(p, gname, qubits)
            continue
        if name in _ROTATION_LIKE:
            continue
        raise ValueError(f"cannot propagate an error through gate {name!r}")
    return flips


def _fault_xz(k: int) -> np.ndarray:
    """(x, z) bits on each qubit of the fault code c that the samplers draw
    for a k-qubit op: c + 1 in base 4, the first qubit its high digit, each
    digit one of I, X, Y, Z."""
    digits = [[(c + 1) // 4 ** (k - 1 - j) % 4 for j in range(k)] for c in range(4 ** k - 1)]
    return np.array([[(d in (1, 2), d in (2, 3)) for d in row] for row in digits], dtype=bool)


FAULT_XZ = {k: _fault_xz(k) for k in (1, 2)}


def step_frames(insts, n: int, nc: int, faults, draws):
    """Pauli frames stepped forward through every instruction, the
    reference that the backward sweep of `qedc.simulator._signatures` is
    held to.

    One frame per column, held as per-qubit numpy bool rows x[q] and z[q]
    and stepped through each Clifford gate by `clifford.step_xz`.  `faults`
    holds (op index, column, fault code) arrays sorted by op; a fault
    strikes after its op.  `draws` is a bool array of Z rows, one per qubit
    at the start and then one after each measurement and reset, in circuit
    order.  A measurement writes its X bits into its clbit's row, and a
    reset clears X.  Returns the (nc, columns) rows of each clbit's last X
    bits and, per non-Clifford rotation's op index, the columns whose frame
    anticommutes with its Pauli just before it."""
    from qedc.clifford import PAULI_AXES, clifford_gate_sequence, is_clifford, step_xz

    fault_op, fault_col, fault_code = faults
    edges = np.searchsorted(fault_op, np.arange(len(insts) + 1))
    shots = draws.shape[1]
    bits = np.zeros((nc, shots), dtype=bool)
    draws = iter(draws.copy())
    # one array per qubit, so h and swap exchange rows without copying
    x = list(np.zeros((n, shots), dtype=bool))
    z = [next(draws) for _ in range(n)]
    negated = {}
    for i, inst in enumerate(insts):
        if inst.name in ("measure", "reset"):
            q = inst.qubits[0]
            if inst.name == "measure":
                bits[inst.clbits[0]] = x[q]
            else:
                x[q] = np.zeros(shots, dtype=bool)
            z[q] = next(draws)
            continue
        if inst.name in PAULI_AXES and not is_clifford(inst):
            px, pz = PAULI_AXES[inst.name]
            anti = np.zeros(shots, dtype=bool)
            for q in inst.qubits:
                anti = anti ^ (x[q] if pz else False) ^ (z[q] if px else False)
            negated[i] = anti
        else:
            for name, qs in clifford_gate_sequence(inst):
                step_xz(x, z, name, qs)
        a, b = edges[i], edges[i + 1]
        if a < b:
            hit = fault_col[a:b]
            xz = FAULT_XZ[len(inst.qubits)][fault_code[a:b]]
            for k, q in enumerate(inst.qubits):
                x[q][hit[xz[:, k, 0]]] ^= True
                z[q][hit[xz[:, k, 1]]] ^= True
    return bits, negated


def forward_iceberg_estimate(circ, meta, noise) -> tuple[float, list[float]]:
    """(keep rate, detectable fraction per instruction) of an Iceberg circuit:
    each of a noisy gate's 3 or 15 Paulis is walked forward with
    `forward_propagate_flips`, and the signatures are convolved into a
    dictionary distribution one gate at a time, in circuit order."""
    from qedc.iceberg import READOUT_CREG, SYNDROME_CREG, VERIFY_CREG
    from qedc.pauli import PauliString

    hard, parity = set(), set()
    for reg in circ.cregs:
        bits = set(range(reg.start, reg.start + reg.size))
        if reg.name in (VERIFY_CREG, SYNDROME_CREG):
            hard |= bits
        elif reg.name == READOUT_CREG:
            parity |= bits
    hard_index = {cb: i for i, cb in enumerate(sorted(hard))}
    n = circ.num_qubits
    dist = {0: 1.0}
    fractions = []
    for idx, inst in enumerate(circ.instructions):
        p = noise.gate_error(inst)
        if p == 0.0:
            fractions.append(0.0)
            continue
        sigs = []
        for combo in itertools.product(range(4), repeat=len(inst.qubits)):
            if not any(combo):
                continue
            x = z = 0
            for q, c in zip(inst.qubits, combo):  # c: 1=X, 2=Y, 3=Z
                x |= (c in (1, 2)) << q
                z |= (c in (2, 3)) << q
            flips = forward_propagate_flips(circ.instructions, idx + 1, PauliString(n, x, z))
            sig = sum(1 << hard_index[cb] for cb in flips & hard)
            sigs.append(sig | (len(flips & parity) % 2) << len(hard_index))
        fractions.append(sum(1 for s in sigs if s) / len(sigs))
        out = {s: q * (1.0 - p) for s, q in dist.items()}
        for s, q in dist.items():
            for sig in sigs:
                out[s ^ sig] = out.get(s ^ sig, 0.0) + q * p / len(sigs)
        dist = out
    return dist.get(0, 0.0), fractions


def _suffix_tableaux(instructions, k: int) -> list:
    """suffix[f] is the tableau of instructions[f:]."""
    from qedc.clifford import tableau_from_circuit

    return [tableau_from_circuit(instructions[f:], k) for f in range(len(instructions) + 1)]


def sorted_candidate_lefts(k: int) -> list:
    """All weight-1 and weight-2 Paulis over k qubits as `PauliString`s,
    sorted by label.  Reference for `qedc.pcs._candidate_rows`."""
    from qedc.pauli import PauliString, single_qubit_pauli

    cands = [single_qubit_pauli(k, q, kind) for q in range(k) for kind in "XYZ"]
    for a, b in itertools.combinations(range(k), 2):
        for ka, kb in itertools.product("XYZ", repeat=2):
            pa, pb = single_qubit_pauli(k, a, ka), single_qubit_pauli(k, b, kb)
            cands.append(PauliString(k, pa.x | pb.x, pa.z | pb.z, 0))
    return sorted(cands, key=lambda p: p.to_label())


def _localize(instructions, payload_qubits: tuple[int, ...]) -> list:
    """The non-barrier instructions with global qubit payload_qubits[i]
    renamed to i."""
    from qedc.circuit import Instruction

    remap = {g: i for i, g in enumerate(payload_qubits)}
    return [
        Instruction(inst.name, tuple(remap[q] for q in inst.qubits), inst.params, inst.clbits)
        for inst in instructions
        if inst.name != "barrier"
    ]


def tableau_check_choice(payload, payload_qubits, num_checks) -> list:
    """The greedy-coverage `CheckPair`s of a Clifford payload, scored with a
    suffix tableau per fault location.

    Reference for the row-pass scoring in `qedc.pcs.synthesize_checks`:
    every single-qubit Pauli after every payload instruction is conjugated
    through the tableau of the rest of the payload, and a candidate covers
    it when the result anticommutes with the candidate's right check.  The
    candidates are sorted `PauliString`s and each right check comes from
    the payload's tableau; the tableau conjugation is the package's, which
    criterion 8 checks against dense matrices.
    """
    from qedc.clifford import conjugate, tableau_from_circuit
    from qedc.pauli import single_qubit_pauli
    from qedc.pcs import CheckPair

    payload_qubits = tuple(sorted(payload_qubits))
    k = len(payload_qubits)
    local = _localize(list(payload), payload_qubits)
    tab = tableau_from_circuit(local, k)
    suffix = _suffix_tableaux(local, k)
    faults = [conjugate(suffix[f + 1], single_qubit_pauli(k, q, kind))
              for f in range(len(local)) for q in range(k) for kind in "XYZ"]
    scored = []
    for left in sorted_candidate_lefts(k):
        right = conjugate(tab, left)
        covered = frozenset(i for i, p in enumerate(faults) if not p.commutes_with(right))
        scored.append((left.to_label(), left, right, covered))
    chosen, used, covered_total = [], set(), set()
    for _ in range(num_checks):
        label, left, right, covered = min(
            (s for s in scored if s[0] not in used),
            key=lambda s: (-len(s[3] - covered_total), s[0]))
        used.add(label)
        covered_total |= covered
        chosen.append(CheckPair(left, right.bare(), right.sign))
    return chosen


def tableau_pcs_estimate(circ, meta, noise) -> tuple[float, list[float]]:
    """(keep rate, detectable fraction per instruction) of a PCS circuit:
    each noisy payload gate's 3 or 15 Paulis are conjugated through the
    tableau of the rest of the payload and tested against every right check,
    and the signatures are convolved into a dictionary distribution one gate
    at a time, in circuit order.  Gates outside the payload span count as
    undetectable.  Reference for the PCS branch of
    `qedc.postprocess.estimate_overhead`."""
    from qedc.clifford import conjugate
    from qedc.pauli import PauliString

    start, end = meta.payload_span
    k = len(meta.payload_qubits)
    local_of = {g: i for i, g in enumerate(meta.payload_qubits)}
    payload = [dataclasses.replace(inst, qubits=tuple(local_of[q] for q in inst.qubits))
               for inst in circ.instructions[start:end]]
    suffix = _suffix_tableaux(payload, k)
    rights = [c.right for c in meta.check_pairs]
    dist = {0: 1.0}
    fractions = [0.0] * len(circ.instructions)
    for i, inst in enumerate(payload):
        p = noise.gate_error(circ.instructions[start + i])
        if p == 0.0:
            continue
        sigs = []
        for combo in itertools.product(range(4), repeat=len(inst.qubits)):
            if not any(combo):
                continue
            x = z = 0
            for q, c in zip(inst.qubits, combo):  # c: 1=X, 2=Y, 3=Z
                x |= (c in (1, 2)) << q
                z |= (c in (2, 3)) << q
            fault = conjugate(suffix[i + 1], PauliString(k, x, z))
            sigs.append(sum(1 << d for d, r in enumerate(rights) if not fault.commutes_with(r)))
        fractions[start + i] = sum(1 for s in sigs if s) / len(sigs)
        out = {s: q * (1.0 - p) for s, q in dist.items()}
        for s, q in dist.items():
            for sig in sigs:
                out[s ^ sig] = out.get(s ^ sig, 0.0) + q * p / len(sigs)
        dist = out
    return dist.get(0, 0.0), fractions


class PauliStabilizerState:
    """CHP state with its n destabilizers and n stabilizers held as signed
    `PauliString`s, each conjugated gate by gate with `conj_named`.
    Reference for the row kernel in `qedc.stabilizer`: same pivot
    (lowest-index anticommuting stabilizer), same draws."""

    def __init__(self, n: int):
        from qedc.pauli import PauliString

        self.n = n
        self.destab = [PauliString(n, 1 << q, 0, 0) for q in range(n)]
        self.stab = [PauliString(n, 0, 1 << q, 0) for q in range(n)]

    def apply_named(self, name, qubits) -> None:
        self.destab = [conj_named(p, name, qubits) for p in self.destab]
        self.stab = [conj_named(p, name, qubits) for p in self.stab]

    def apply_pauli(self, p) -> None:
        from qedc.pauli import PauliString

        def flip(row):
            return row if row.commutes_with(p) else PauliString(row.n, row.x, row.z, row.phase + 2)

        self.destab = [flip(row) for row in self.destab]
        self.stab = [flip(row) for row in self.stab]

    def measure_z(self, q: int, rng=None) -> tuple[int, bool]:
        from qedc.pauli import PauliString, pauli_mul, single_qubit_pauli

        zq = single_qubit_pauli(self.n, q, "Z")
        anti = [i for i in range(self.n) if not self.stab[i].commutes_with(zq)]
        if anti:
            p = anti[0]
            pivot = self.stab[p]
            for i in anti[1:]:
                self.stab[i] = pauli_mul(self.stab[i], pivot)
            self.destab = [row if row.commutes_with(zq) else pauli_mul(row, pivot)
                           for row in self.destab]
            self.destab[p] = pivot
            outcome = int(rng.integers(2)) if rng is not None else 0
            self.stab[p] = PauliString(self.n, 0, 1 << q, 2 * outcome)
            return outcome, False
        return (0 if self.expectation(zq) > 0 else 1), True

    def expectation(self, p) -> int | None:
        from qedc.pauli import PauliString, pauli_mul

        if any(not s.commutes_with(p) for s in self.stab):
            return None
        acc = PauliString(self.n, 0, 0, 0)
        for i in range(self.n):
            if not self.destab[i].commutes_with(p):
                acc = pauli_mul(acc, self.stab[i])
        assert (acc.x, acc.z) == (p.x, p.z), "Pauli commutes with the group but is not in it"
        return 1 if (acc.phase - p.phase) % 4 == 0 else -1


def pauli_stabilizer_run(circ, injected=None, inject_before=None, seed=None):
    """`qedc.stabilizer.stabilizer_run` on a `PauliStabilizerState`:
    (records as (instruction index, qubit, clbit, outcome, deterministic)
    tuples, final state)."""
    from qedc.clifford import clifford_gate_sequence

    state = PauliStabilizerState(circ.num_qubits)
    rng = np.random.default_rng(0 if seed is None else seed)
    records = []
    for i, inst in enumerate(circ.instructions):
        if injected is not None and inject_before == i:
            state.apply_pauli(injected)
        if inst.name == "measure":
            outcome, det = state.measure_z(inst.qubits[0], rng)
            records.append((i, inst.qubits[0], inst.clbits[0], outcome, det))
        elif inst.name == "reset":
            if state.measure_z(inst.qubits[0], rng)[0]:
                state.apply_named("x", inst.qubits)
        elif inst.name != "barrier":
            for name, qubits in clifford_gate_sequence(inst):
                state.apply_named(name, qubits)
    if injected is not None and inject_before == len(circ.instructions):
        state.apply_pauli(injected)
    return records, state


# -- postselection -------------------------------------------------------------
# The postselect loops as they were written before `postprocess.detectors`:
# each code's rule spelled out by hand on the space-separated key groups.
# They are a reference for valid keys only; they do not check key shapes.

def reference_decode_readout(bits: str, meta) -> tuple[bool, str]:
    """Accept iff the n readout bits have even parity; logical bit i is
    bits_i XOR bits_b, leftmost logical k-1."""
    values = [int(c) for c in reversed(bits)]  # values[i] = readout index i
    zb = values[meta.n - 1]
    logical = "".join(str(values[1 + i] ^ zb) for i in range(meta.k - 1, -1, -1))
    return sum(values) % 2 == 0, logical


def reference_postselect_counts(counts, meta, cregs=None):
    """(total, kept, discarded, counts): shots whose ancilla group equals
    `expected_ancilla_bits`, with that group dropped from the key."""
    from qedc.circuit import key_group_index
    from qedc.pcs import ANCILLA_CREG

    group = key_group_index(cregs, ANCILLA_CREG) if cregs is not None else 0
    total = kept = 0
    out = {}
    for key, cnt in counts.items():
        total += cnt
        parts = key.split(" ")
        if parts[group] != meta.expected_ancilla_bits:
            continue
        kept += cnt
        rest = " ".join(parts[:group] + parts[group + 1:])
        out[rest] = out.get(rest, 0) + cnt
    return total, kept, total - kept, out


def reference_postselect_counts_iceberg(counts, meta, cregs):
    """(total, kept, discarded, counts): shots with verification bit 0, all
    syndrome bits 0 and even readout parity, keyed by the logical bits."""
    from qedc.circuit import key_group_index
    from qedc.iceberg import READOUT_CREG, SYNDROME_CREG, VERIFY_CREG

    g_meas = key_group_index(cregs, READOUT_CREG)
    g_verify = key_group_index(cregs, VERIFY_CREG)
    has_cycles = meta.cycles > 0
    g_synd = key_group_index(cregs, SYNDROME_CREG) if has_cycles else None
    total = kept = 0
    out = {}
    for key, cnt in counts.items():
        total += cnt
        parts = key.split(" ")
        if int(parts[g_verify], 2) != 0:
            continue
        if has_cycles and int(parts[g_synd], 2) != 0:
            continue
        accept, logical = reference_decode_readout(parts[g_meas], meta)
        if not accept:
            continue
        kept += cnt
        out[logical] = out.get(logical, 0) + cnt
    return total, kept, total - kept, out


def _reference_walk_cost(walk, phi, at, upcoming, dist) -> int:
    """Summed distances of the `upcoming` logical pairs after the occupant of
    walk[0] swaps along `walk` to walk[-2], read off the numpy matrix."""
    moved = {at[v]: u for u, v in zip(walk, walk[1:-1])}
    moved[at[walk[0]]] = walk[-2]
    return sum(int(dist[moved.get(x, phi[x]), moved.get(y, phi[y])]) for x, y in upcoming)


def reference_route(circ, layout, cg, protected=None):
    """`qedc.layout.route` as it was before it read paths off the hop table:
    every non-local gate runs the penalized search `_protected_path`, the
    walk costs read `cg.distances()`, and the output is built with
    `Circuit.append`.  Reference for `route`'s circuit, layouts and SWAP
    count; it does not check the layout's seats."""
    from qedc.circuit import Circuit, Instruction, Register
    from qedc.layout import LOOKAHEAD, LayoutError, RoutingResult, _protected_path

    protected = set(protected or ())
    if len(layout.map) < circ.num_qubits:
        raise LayoutError("layout does not cover all circuit qubits")
    phi = list(layout.map)
    at = [None] * cg.num_nodes
    for q, p in enumerate(phi):
        at[p] = q
    pairs = [inst.qubits for inst in circ.instructions
             if len(inst.qubits) == 2 and inst.name != "barrier"]
    out = Circuit([Register("q", cg.num_nodes, 0)], list(circ.cregs), [])
    swaps = k = 0
    for inst in circ.instructions:
        if len(inst.qubits) == 2 and inst.name != "barrier":
            a, b = inst.qubits
            k += 1
            if not cg.has_edge(phi[a], phi[b]):
                path = _protected_path(cg, phi[a], phi[b], {phi[q] for q in protected})
                upcoming, dist = pairs[k:k + LOOKAHEAD], cg.distances()
                if _reference_walk_cost(path[::-1], phi, at, upcoming, dist) < \
                        _reference_walk_cost(path, phi, at, upcoming, dist):
                    path.reverse()
                for u, v in zip(path, path[1:-1]):
                    out.append("swap", (u, v))
                    at[u], at[v] = at[v], at[u]
                    for p in (u, v):
                        if at[p] is not None:
                            phi[at[p]] = p
                if not cg.has_edge(phi[a], phi[b]):
                    raise LayoutError("routing failed to make the gate local")
                swaps += len(path) - 2
        out.instructions.append(
            Instruction(inst.name, tuple(phi[q] for q in inst.qubits), inst.params, inst.clbits)
        )
    return RoutingResult(out, list(layout.map), phi, swaps)


def reference_schedule(circ) -> list[int]:
    """ASAP steps with one dict of next free steps per wire kind: each
    instruction starts at the latest free step of its qubits and clbits.
    Reference for `qedc.layout.schedule`."""
    q_free, c_free, steps = {}, {}, []
    for inst in circ.instructions:
        start = max([q_free.get(q, 0) for q in inst.qubits]
                    + [c_free.get(c, 0) for c in inst.clbits], default=0)
        steps.append(start)
        for q in inst.qubits:
            q_free[q] = start + 1
        for c in inst.clbits:
            c_free[c] = start + 1
    return steps
