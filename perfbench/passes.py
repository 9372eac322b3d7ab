"""One pass of the user's pipeline, the checks on its outputs, and the exact
counts of work each layer is given, all through qedc's public functions.

A pass is: QASM text -> parse_qasm -> compile_circuit -> emit_qasm and
parse_qasm (the hand-off between the compile and run steps of the CLI) ->
estimate_overhead -> sample -> postselect_counts[_iceberg].
"""
from __future__ import annotations

import hashlib
import json
import math
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from qedc import (
    CompilationMeta,
    NoiseModel,
    compile_circuit,
    emit_qasm,
    estimate_overhead,
    ideal_distribution,
    is_clifford,
    parse_qasm,
    postselect_counts,
    postselect_counts_iceberg,
    sample,
    stabilizer_run,
)
from qedc.postprocess import normalize_counts, tvd
from qedc.simulator import (
    MAX_STABILIZER_QUBITS,
    MAX_STATEVECTOR_QUBITS,
    deterministic_distribution,
)
from speed import scale

# the paper's noise
NOISE = NoiseModel(p1=3e-5, p2=0.002)
# calls shorter than this are repeated, and their mean is their time
MIN_TIMING_S = 0.05
MAX_REPEATS = 2000
# observed keep rates this many binomial sigmas from the estimate fail
Z_LIMIT = 4.0


class Ledger:
    """Operations of a run and their outcomes.

    An operation is a call into qedc or a check on its output, named by what
    it does; a pass that repeats it repeats the same operation.  `attempted`
    counts the operations the run made and `failed` those that failed at
    least once, so neither depends on how many passes fit in the run.  How
    often each one was made and failed, and every failure's reason, are kept
    for the report."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.failures: Counter[str] = Counter()
        self.failed_checks = 0
        self.reasons: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def call(self, what: str, fn, *args, **kwargs):
        """Run one call; return (True, result), or (False, None) if it raised."""
        self.calls[what] += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a measured outcome
            self.failures[what] += 1
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.reasons.append(f"{what} raised {type(exc).__name__}: {exc} "
                                f"(in {where.name}, {Path(where.filename).name}:{where.lineno})")
            return False, None

    def check(self, what: str, ok: bool, detail: str) -> bool:
        what = f"check {what}"
        self.calls[what] += 1
        if not ok:
            self.failures[what] += 1
            self.failed_checks += 1
            self.reasons.append(f"{what} failed: {detail}")
        return ok


@dataclass
class PassResult:
    wall: float = 0.0
    times: dict[str, float] = field(default_factory=dict)
    circuit: object = None        # the parsed input
    compiled: object = None       # compile_circuit's output
    meta: CompilationMeta | None = None
    qasm: str | None = None       # emit_qasm(compiled)
    handed_off: object = None     # parse_qasm(qasm)
    estimate: object = None
    counts: dict[str, int] | None = None
    report: object = None
    # speed factor of the compile, estimate and sample steps (speed.py),
    # from gauge readings around each; only when run_pass is given a Scaler
    scales: dict[str, float] = field(default_factory=dict)


def library_compile(circ, workload, coupling):
    return compile_circuit(circ, code="auto", checks=workload.checks, coupling=coupling)


# steps timed between two gauge readings: step -> readings before and after
GAUGED_STEPS = {"compile": ("compile", "emit"), "estimate": ("emit", "sample"),
                "sample": ("sample", "postselect")}


def run_pass(workload, inputs, coupling, ledger: Ledger, tracer, compile_fn=library_compile,
             scaler=None) -> PassResult:
    """One pass; stops early only when a step the next one needs fails.

    With a Scaler the gauge is read before compile, emit, sample and
    postselect, and the time of the readings is left out of `wall`."""
    res = PassResult()
    readings: dict[str, float] = {}

    def step(key, span, fn, *args, **kwargs):
        if scaler is not None and any(key in ends for ends in GAUGED_STEPS.values()):
            readings[key] = scaler.read()
        t0 = perf_counter()
        with tracer.span(span):
            ok, out = ledger.call(span, fn, *args, **kwargs)
        res.times[key] = perf_counter() - t0
        return ok, out

    spent = scaler.spent if scaler is not None else 0.0
    t_pass = perf_counter()
    with tracer.span("pipeline.pass"):
        ok, res.circuit = step("parse", "qasm.parse_input", parse_qasm, inputs.qasm)
        if ok:
            ok, out = step("compile", "pipeline.compile_circuit", compile_fn,
                           res.circuit, workload, coupling)
        if ok:
            res.compiled, res.meta = out
            ok, res.qasm = step("emit", "qasm.emit_qasm", emit_qasm, res.compiled)
        if ok:
            ok, res.handed_off = step("handoff", "qasm.parse_compiled", parse_qasm, res.qasm)
        if ok:
            meta = CompilationMeta.from_dict(json.loads(json.dumps(res.meta.to_dict())))
            # a failed estimate is counted; the pass goes on without it
            _, res.estimate = step("estimate", "postprocess.estimate_overhead",
                                   estimate_overhead, res.handed_off, meta, NOISE)
            ok, res.counts = step("sample", "simulator.sample", sample, res.handed_off,
                                  noise=NOISE, shots=workload.shots, seed=inputs.sample_seed)
        if ok:
            if meta.code == "iceberg":
                _, res.report = step("postselect", "postprocess.postselect",
                                     postselect_counts_iceberg, res.counts, meta.code_meta,
                                     res.handed_off.cregs)
            else:
                _, res.report = step("postselect", "postprocess.postselect",
                                     postselect_counts, res.counts, meta.code_meta)
    res.wall = perf_counter() - t_pass
    if scaler is not None:
        res.wall -= scaler.spent - spent
        res.scales = {key: scale(readings[a], readings[b])
                      for key, (a, b) in GAUGED_STEPS.items()
                      if a in readings and b in readings}
    return res


def counts_digest(counts: dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


def keep_rate_z(report, estimate) -> float:
    """(observed - predicted) keep rate in binomial sigmas of the prediction."""
    p, total = estimate.keep_rate, report.total_shots
    sigma = math.sqrt(p * (1.0 - p) / total)
    diff = report.keep_rate - p
    if sigma == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / sigma


def check_pass(workload, res: PassResult, ledger: Ledger, digest: str | None) -> str | None:
    """Check one pass's outputs against the run's first counts digest, and
    return that digest (this pass's, if it is the first)."""
    if res.meta is not None:
        ledger.check("code", res.meta.code == workload.code,
                     f"compile chose {res.meta.code!r}, expected {workload.code!r}")
    if res.handed_off is not None:
        ledger.check("handoff", res.handed_off == res.compiled,
                     "parse_qasm(emit_qasm(compiled)) differs from compiled")
    if res.counts is None:
        return digest
    total = sum(res.counts.values())
    ledger.check("shots", total == workload.shots, f"counts sum to {total}, not {workload.shots}")
    got = counts_digest(res.counts)
    if digest is not None:
        ledger.check("digest", got == digest, "counts differ between passes with one seed")
    if res.report is not None and res.estimate is not None:
        z = keep_rate_z(res.report, res.estimate)
        # the PCS estimate ignores faults outside the sandwich, so it is an
        # upper bound on the keep rate and only the upper side is tested
        two_sided = res.meta.code == "iceberg"
        ok = abs(z) <= Z_LIMIT if two_sided else z <= Z_LIMIT
        ledger.check("keep-rate", ok,
                     f"observed {res.report.keep_rate:.4f} vs predicted "
                     f"{res.estimate.keep_rate:.4f}, z = {z:.2f}")
    return digest or got


def per_call_seconds(fn, first: float) -> float:
    """Time of one call: `first` if long enough, else the mean of repeats."""
    if first >= MIN_TIMING_S:
        return first
    reps = min(MAX_REPEATS, math.ceil(MIN_TIMING_S / max(first, 1e-6)))
    t0 = perf_counter()
    for _ in range(reps):
        try:
            fn()
        except Exception:  # the first call's failure is already in the ledger
            pass
    return (perf_counter() - t0) / reps


def reference_check(res: PassResult, ledger: Ledger, tracer) -> None:
    """Check the compiled circuit against references independent of the
    samplers and of estimate_overhead.

    PCS: a noiseless stabilizer run reads every check ancilla as its
    expected bit, deterministically.  Iceberg: the exact noiseless output,
    postselected, equals the input's ideal distribution and keeps every shot.
    """
    compiled, meta = res.compiled, res.meta
    if meta.code == "pcs":
        with tracer.span("stabilizer.stabilizer_run"):
            ok, out = ledger.call("stabilizer_run", stabilizer_run, compiled)
        if not ok:
            return
        anc = compiled.creg_by_name(meta.code_meta.ancilla_register)
        expected = {anc.start + i: c.expected_bit for i, c in enumerate(meta.code_meta.check_pairs)}
        got = {r.clbit: (r.outcome, r.deterministic) for r in out[0] if r.clbit in expected}
        ledger.check("reference", got == {c: (b, True) for c, b in expected.items()},
                     f"noiseless ancilla records {got}, expected {expected}")
    elif meta.code == "iceberg":
        with tracer.span("simulator.reference_distributions"):
            ok, dist = ledger.call("deterministic_distribution",
                                   deterministic_distribution, compiled)
            ok2, ideal = ledger.call("ideal_distribution", ideal_distribution, res.circuit)
        if not (ok and ok2):
            return
        kept = postselect_counts_iceberg(dist, meta.code_meta, compiled.cregs)
        gap = tvd(normalize_counts(kept.counts), ideal)
        ledger.check("reference", gap < 1e-9 and abs(kept.keep_rate - 1.0) < 1e-9,
                     f"noiseless keep rate {kept.keep_rate}, TVD to ideal {gap:.3g}")


# -- exact counts ---------------------------------------------------------------

def _has_midcircuit(circ) -> bool:
    seen = False
    for inst in circ.instructions:
        if inst.name in ("measure", "reset"):
            seen = True
        elif inst.name != "barrier" and seen:
            return True
    return False


# simulator.backend codes, following the selection rule in `sample`
BACKEND_NOISELESS_READOUT = 1
BACKEND_STATEVECTOR_TRAJECTORY = 2
BACKEND_CLIFFORD_TERMINAL = 3
BACKEND_STABILIZER_TRAJECTORY = 4


def sampler_profile(compiled) -> dict[str, float]:
    """Backend `sample` picks, and the fault statistics of its input."""
    active = {q for inst in compiled.instructions for q in inst.qubits}
    probs = [p for p in (NOISE.gate_error(i) for i in compiled.instructions) if p > 0]
    clifford = all(i.name in ("measure", "reset", "barrier") or is_clifford(i)
                   for i in compiled.instructions)
    n, mid = len(active), _has_midcircuit(compiled)
    if n <= MAX_STABILIZER_QUBITS and (probs or n > MAX_STATEVECTOR_QUBITS) and clifford:
        backend = BACKEND_STABILIZER_TRAJECTORY if mid else BACKEND_CLIFFORD_TERMINAL
    elif not probs and not mid:
        backend = BACKEND_NOISELESS_READOUT
    else:
        backend = BACKEND_STATEVECTOR_TRAJECTORY
    return {
        "simulator.backend": backend,
        "simulator.active_qubits": n,
        "simulator.noisy_instructions": len(probs),
        "simulator.fault_free_frac": math.prod(1.0 - p for p in probs),
        "simulator.expected_faults_per_shot": math.fsum(probs),
    }


def two_qubit_gates(circ) -> int:
    return sum(1 for i in circ.instructions if len(i.qubits) == 2 and i.name != "barrier")


def work_counts(res: PassResult) -> dict[str, float]:
    """Exact per-layer work counts of one compiled workload."""
    compiled, meta = res.compiled, res.meta
    out = sampler_profile(compiled)
    noisy = [(idx, len(i.qubits)) for idx, i in enumerate(compiled.instructions)
             if NOISE.gate_error(i) > 0]
    out.update({"pcs.payload_qubits": 0, "pcs.payload_gates": 0, "pcs.coverage_tests": 0,
                "iceberg.instructions": 0})
    if meta.code == "pcs":
        pm = meta.code_meta
        k = len(pm.payload_qubits)
        start, end = pm.payload_region
        gates = sum(1 for i in res.circuit.instructions[start:end] if i.name != "barrier")
        # synthesize_checks scores every weight-1 and weight-2 left check
        # against every single-qubit Pauli fault after every payload gate
        candidates = 3 * k + 9 * k * (k - 1) // 2
        out.update({"pcs.payload_qubits": k, "pcs.payload_gates": gates,
                    "pcs.coverage_tests": candidates * gates * 3 * k})
        lo, hi = pm.payload_span
        noisy = [(idx, w) for idx, w in noisy if lo <= idx < hi]
    else:
        out["iceberg.instructions"] = len(compiled.instructions)
    # estimate_overhead propagates 3 Paulis per noisy 1q gate, 15 per 2q gate
    out["postprocess.fault_paulis"] = sum(3 if w == 1 else 15 for _, w in noisy)
    out.update({"layout.swaps": meta.swap_count, "layout.depth": meta.depth,
                "qasm.instructions": len(compiled.instructions)})
    return out
