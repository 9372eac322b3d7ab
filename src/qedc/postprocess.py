"""Detection postprocessing: postselection on check and syndrome outcomes,
analytic keep-rate estimation under depolarizing noise, and extrapolation of
the error-mitigated estimate to the infinite-check limit."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .circuit import Circuit, Register, key_group_index, key_positions, registers
from .errorprop import detector_sweep
from .iceberg import READOUT_CREG, IcebergMeta, decode_readout
from .pcs import ANCILLA_CREG, PcsMeta
from .simulator import NoiseModel


class PostprocessError(Exception):
    pass


@dataclass
class PostselectionReport:
    total_shots: int
    kept_shots: int
    discarded_shots: int
    counts: dict[str, int]

    @property
    def keep_rate(self) -> float:
        return self.kept_shots / self.total_shots if self.total_shots else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total_shots,
            "kept": self.kept_shots,
            "discarded": self.discarded_shots,
            "keep_rate": self.keep_rate,
            "counts": dict(sorted(self.counts.items())),
        }


def _register(cregs: list[Register], name: str, size: int) -> Register:
    for reg in cregs:
        if reg.name == name and reg.size == size:
            return reg
    raise PostprocessError(f"the circuit has no {size}-bit classical register {name!r}")


def detectors(meta, cregs: list[Register]) -> list[tuple[tuple[int, ...], int]]:
    """What a detection code checks: (clbits, expected parity) pairs.

    PCS: each check-ancilla clbit reads its check's expected bit.  Iceberg:
    each verification and syndrome clbit reads 0, then the readout clbits
    read even parity.  A register missing from `cregs` or of the wrong width
    raises PostprocessError."""
    if isinstance(meta, PcsMeta):
        reg = _register(cregs, ANCILLA_CREG, meta.num_checks)
        return [((reg.start + i,), c.expected_bit) for i, c in enumerate(meta.check_pairs)]
    out = []
    for want in meta.cregs():
        reg = _register(cregs, want.name, want.size)
        bits = tuple(range(reg.start, reg.start + reg.size))
        out += [(bits, 0)] if want.name == READOUT_CREG else [((c,), 0) for c in bits]
    return out


def _postselect(counts: dict[str, int], cregs: list[Register], meta) -> PostselectionReport:
    """The shots whose key reads every detector's parity; keys are matched to the registers at once."""
    groups = " ".join(f"[01]{{{reg.size}}}" for reg in reversed(cregs))
    text = "\n".join(counts) + "\n"  # a key with a newline in it makes the text too long
    if counts and (re.fullmatch(f"(?:{groups}\n)*", text) is None
                   or len(text) != len(counts) * sum(reg.size + 1 for reg in cregs)):
        bad = next(key for key in counts if re.fullmatch(groups, key) is None)
        raise PostprocessError(f"key {bad!r} does not match register widths {[r.size for r in cregs][::-1]}")
    at = key_positions(cregs)
    dets = detectors(meta, cregs)
    # a one-clbit detector's parity is its bit, so those are read at once
    one = {at[bits[0]]: "01"[parity] for bits, parity in dets if len(bits) == 1}
    read, want = itemgetter(*one), itemgetter(*one)(one)
    many = [(itemgetter(*(at[c] for c in bits)), parity) for bits, parity in dets if len(bits) > 1]
    total = kept = 0
    out = {}
    for key, cnt in counts.items():
        total += cnt
        if read(key) == want and (not many or all(g(key).count("1") % 2 == p for g, p in many)):
            kept += cnt
            out[key] = cnt
    return PostselectionReport(total, kept, total - kept, out)


def postselect_counts(
    counts: dict[str, int],
    meta: PcsMeta,
    cregs: list[Register] | None = None,
) -> PostselectionReport:
    """Keep shots whose check-ancilla bits equal the expected pattern; the
    ancilla group is removed from the surviving keys.

    The ancilla register is declared last, hence appears as the first
    space-separated group unless `cregs` says otherwise; without `cregs`
    the other groups are as wide as in the first key.
    """
    if cregs is None:
        sizes = [("", len(g)) for g in next(iter(counts), "").split(" ")[:0:-1]]
        cregs = registers(sizes + [(ANCILLA_CREG, meta.num_checks)])
    report = _postselect(counts, cregs, meta)
    report.counts = marginalize_group(report.counts, key_group_index(cregs, ANCILLA_CREG))
    return report


def postselect_counts_iceberg(
    counts: dict[str, int],
    meta: IcebergMeta,
    cregs: list[Register],
) -> PostselectionReport:
    """Keep shots with verification bit 0, all syndrome bits 0, and even
    readout parity; surviving keys are the decoded logical bitstrings."""
    report = _postselect(counts, cregs, meta)
    kept, report.counts = report.counts, {}
    group = key_group_index(cregs, READOUT_CREG)
    for key, cnt in kept.items():
        logical = decode_readout(key.split(" ")[group], meta)[1]
        report.counts[logical] = report.counts.get(logical, 0) + cnt
    return report


# -- analytic keep-rate estimate ---------------------------------------------

@dataclass
class OverheadEstimate:
    keep_rate: float
    expected_shot_multiplier: float
    detectable_fraction_by_gate: list[float] = field(default_factory=list)


def estimate_overhead(circ: Circuit, meta, noise: NoiseModel) -> OverheadEstimate:
    """Analytic keep-rate under independent per-gate depolarizing faults.

    A fault on a k-qubit gate g of error rate p is a uniformly random Pauli,
    identity included, with probability lam_g = p * 4**k / (4**k - 1): its
    detector signature is uniform over V_g, the span of the signatures of
    X_q and Z_q on g's qubits, and these add under XOR.  So the keep rate is
    keep = 2**-D * sum_chi prod_{g : chi . V_g != 0} (1 - lam_g), a Walsh sum
    over detector patterns chi.  One backward sweep of the detectors'
    observables (`detector_sweep`) gives every gate's rows; gates with the
    same rows multiply their factors, so the sum costs about (distinct rows)
    x 2**D parity tests, for D <= 22.  2**(D - rank(V_g)) patterns are
    orthogonal to V_g, and all but 4**k / 2**rank(V_g) Paulis flip a
    detector: g detects (4**k - 4**k / 2**rank(V_g)) / (4**k - 1) of faults.
    Iceberg sweeps its `detectors` over the whole circuit.  PCS detectors are the
    check ancillas, swept from their right checks over the sandwiched
    payload only, where check conjugation is well defined; noise on gates
    outside the sandwich counts as undetectable, so the estimate is an upper
    bound on the keep rate there.  PCS metadata whose payload span acts on
    qubits outside its payload qubits (for example, taken from before
    routing), whose span or payload qubits lie outside the circuit, or whose
    ancilla register the circuit lacks at its width raises PostprocessError.
    """
    meta = getattr(meta, "code_meta", meta)
    n = circ.num_qubits
    x, z = [0] * n, [0] * n
    if isinstance(meta, IcebergMeta):
        offset, instructions = 0, circ.instructions
        sets = [bits for bits, _ in detectors(meta, circ.cregs)]
    elif isinstance(meta, PcsMeta):
        offset, end = meta.payload_span
        instructions = circ.instructions[offset:end]
        qubits = meta.payload_qubits
        stray = sorted({q for inst in instructions for q in inst.qubits}.difference(qubits))
        if stray:
            raise PostprocessError(
                f"payload span {offset}..{end} acts on qubits {stray} outside the payload "
                f"qubits {list(qubits)}: the PCS metadata does not describe this circuit")
        if not (0 <= offset <= end <= len(circ.instructions) and all(0 <= q < n for q in qubits)):
            raise PostprocessError(
                f"payload span {offset}..{end} or payload qubits {list(qubits)} lie outside the "
                f"circuit's {len(circ.instructions)} instructions and {n} qubits: the PCS metadata "
                "does not describe this circuit")
        _register(circ.cregs, ANCILLA_CREG, meta.num_checks)
        if any(c.right.n != len(qubits) for c in meta.check_pairs):
            raise PostprocessError(f"a right check does not span the {len(qubits)} payload qubits")
        for d, c in enumerate(meta.check_pairs):
            for i, q in enumerate(qubits):
                x[q] |= (c.right.x >> i & 1) << d
                z[q] |= (c.right.z >> i & 1) << d
        sets = [()] * len(meta.check_pairs)
    else:
        raise PostprocessError(f"unsupported metadata type {type(meta).__name__}")
    fractions = [0.0] * len(circ.instructions)
    if len(sets) > 22:  # the Walsh sum runs over 2**detectors patterns
        raise PostprocessError(f"{len(sets)} detectors: the keep-rate estimate takes at most 22")
    gates, factors = [], {}  # factors: rows -> the product of 1 - lam over the gates with them
    for idx, x, z in detector_sweep(instructions, x, z, sets):
        if idx < 0:
            break
        inst = instructions[idx]
        p = noise.gate_error(inst)
        if p == 0.0:
            continue
        paulis = 4 ** len(inst.qubits)
        rows = tuple([r for q in inst.qubits for r in (z[q], x[q])] + [0, 0] * (2 - len(inst.qubits)))
        factors[rows] = factors.get(rows, 1.0) * (1.0 - p * paulis / (paulis - 1))
        gates.append((offset + idx, paulis, rows))
    spans = list(factors)  # by their generating rows
    gens, f = np.array(spans, dtype=np.int64).reshape(-1, 4), np.array([factors[v] for v in spans])
    parity = np.zeros(1 << len(sets), dtype=bool)
    for b in range(len(sets)):
        parity[1 << b:2 << b] = ~parity[:1 << b]
    keep, orthogonal = 0.0, np.zeros(len(spans), dtype=np.int64)  # the chi orthogonal to each V
    step = max(1, (1 << 20) // max(1, len(spans)))  # chi per block, so memory stays bounded
    for lo in range(0, parity.size, step):
        chi = np.arange(lo, min(lo + step, parity.size))
        hit = np.logical_or.reduce([parity[chi & gens[:, j:j + 1]] for j in range(4)])
        keep += float(np.where(hit, f[:, None], 1.0).prod(axis=0).sum())  # a factor may be <= 0
        orthogonal += (~hit).sum(axis=1)
    keep /= parity.size
    blind = dict(zip(spans, orthogonal.tolist()))
    for i, paulis, rows in gates:
        fractions[i] = (paulis - (paulis * blind[rows] >> len(sets))) / (paulis - 1)
    return OverheadEstimate(keep, 1.0 / keep if keep > 0 else math.inf, fractions)


# -- distribution utilities ---------------------------------------------------

def normalize_counts(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        raise PostprocessError("empty counts")
    return {k: v / total for k, v in counts.items()}


def tvd(p: dict[str, float], q: dict[str, float]) -> float:
    keys = sorted(set(p) | set(q))  # a set's order follows PYTHONHASHSEED, and so would the sum
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def counts_tvd(a: dict[str, int], b: dict[str, int]) -> float:
    return tvd(normalize_counts(a), normalize_counts(b))


def marginalize_group(counts: dict[str, int], group: int) -> dict[str, int]:
    """Drop one space-separated key group, summing collided keys."""
    out: dict[str, int] = {}
    for key, cnt in counts.items():
        parts = key.split(" ", group + 1)  # the groups up to this one, then the rest
        del parts[group]
        rest = " ".join(parts)
        out[rest] = out.get(rest, 0) + cnt
    return out


# -- check-count extrapolation ------------------------------------------------

@dataclass
class ExtrapolationResult:
    value: float        # estimate at infinite checks
    amplitude: float
    rate: float
    residual: float
    points: list[tuple[int, float]]
    # the rate ended at or past the edge of the scanned rates, where amplitude
    # and rate trade off and the series does not pin the value down
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "amplitude": self.amplitude,
            "rate": self.rate,
            "residual": self.residual,
            "points": [[int(m), float(v)] for m, v in self.points],
            "degenerate": self.degenerate,
        }


def extrapolate_checks(series) -> ExtrapolationResult:
    """Fit v(m) = value + amplitude * rate**m by least squares and report the
    m -> infinity limit.

    Each point is (m, value) or (m, value, stderr); stderrs weight the fit by
    1/stderr**2.  Either every stderr is positive, or none is (0 or missing),
    and then the fit is unweighted.  The rate is scanned over a grid in
    [0.05, 0.95]; for each candidate the linear parameters solve in closed
    form, then Gauss-Newton refines the best seed.  A fit whose rate ends at
    or past the grid's edge is flagged `degenerate`.  A constant series
    returns (value, 0, 1) exactly.  A non-finite check count, value or
    stderr, a negative stderr, or a series that gives some points a positive
    stderr and others none raises `PostprocessError`.
    """
    series = [tuple(pt) for pt in series]
    if len(series) < 3 or len({pt[0] for pt in series}) < 3:
        raise PostprocessError("need at least 3 distinct check counts")
    ms = np.array([float(pt[0]) for pt in series])
    vs = np.array([float(pt[1]) for pt in series])
    errs = np.array([float(pt[2]) if len(pt) > 2 and pt[2] is not None else 0.0
                     for pt in series])
    if not np.isfinite(np.concatenate([ms, vs, errs])).all():
        raise PostprocessError("check counts, values and stderrs must be finite")
    if (errs < 0).any():
        raise PostprocessError("stderrs must not be negative")
    weighted = errs > 0
    if weighted.any() and not weighted.all():
        # any stand-in weight for these points would be arbitrary
        raise PostprocessError("a series with stderrs needs a positive stderr at every point")
    w = 1.0 / errs if weighted.all() else np.ones_like(errs)
    if np.allclose(vs, vs[0], rtol=0, atol=1e-15):
        return ExtrapolationResult(float(vs[0]), 0.0, 1.0, 0.0, [(int(m), float(v)) for m, v in zip(ms, vs)])

    def linfit(r: float):
        basis = np.vstack([np.ones_like(ms), r ** ms]).T
        coef, *_ = np.linalg.lstsq(basis * w[:, None], vs * w, rcond=None)
        resid = float(np.sum((w * (basis @ coef - vs)) ** 2))
        return coef, resid

    # r = 1 makes the basis collinear with the constant column, so the scan
    # and the refinement stay strictly inside (0, 1)
    grid = np.arange(0.05, 0.95 + 1e-12, 0.05)
    best = None
    for r in grid:
        coef, resid = linfit(float(r))
        if best is None or resid < best[2]:
            best = (float(r), coef, resid)
    r, (e_inf, amp), resid = best

    theta = np.array([e_inf, amp, r])
    for _ in range(100):
        e_inf, amp, r = theta
        rc = float(np.clip(r, 1e-9, 0.999))
        rpow = rc ** ms
        res = w * (vs - (e_inf + amp * rpow))
        jac = np.vstack([
            w,
            w * rpow,
            w * amp * ms * rc ** (ms - 1),
        ]).T
        try:
            step, *_ = np.linalg.lstsq(jac, res, rcond=None)
        except np.linalg.LinAlgError:
            break
        theta = theta + step
        theta[2] = float(np.clip(theta[2], 1e-9, 0.999))
        if float(np.max(np.abs(step))) < 1e-10:
            break
    e_inf, amp, r = (float(t) for t in theta)
    final = float(np.sum((w * (e_inf + amp * r ** ms - vs)) ** 2))
    if final > resid:  # keep the grid seed if refinement diverged
        e_inf, amp, r, final = float(best[1][0]), float(best[1][1]), best[0], resid
    degenerate = not grid[0] < r < grid[-1]
    return ExtrapolationResult(e_inf, amp, r, final, [(int(m), float(v)) for m, v in zip(ms, vs)],
                               degenerate)


def expectation_z(counts: dict[str, int], bit: int = 0) -> float:
    """<Z> on one readout bit of single-group keys."""
    total = sum(counts.values())
    if total == 0:
        raise PostprocessError("empty counts")
    acc = 0
    for key, cnt in counts.items():
        b = int(key.replace(" ", "")[::-1][bit])
        acc += cnt * (1 - 2 * b)
    return acc / total
