"""Iceberg-encoded QAOA, end to end.

Encodes a 6-qubit QAOA circuit into the [[8,6,2]] code with verified state
preparation and two mid-circuit syndrome cycles, runs it under depolarizing
noise, postselects on the detection bits, and compares the empirical keep
rate with the analytic prediction.  The QAOA's opening h on every qubit
costs no logical gates: the encoder prepares logical |+...+> directly, with
one physical h on each of the 8 data qubits after the verified preparation.

Run: python3 demos/iceberg_walkthrough.py
"""
from qedc.circuit import Circuit
from qedc.iceberg import READOUT_CREG, decode_readout
from qedc.pipeline import compile_circuit
from qedc.postprocess import (
    counts_tvd,
    estimate_overhead,
    postselect_counts_iceberg,
)
from qedc.simulator import NoiseModel, ideal_distribution, sample


def build_qaoa(n: int = 6) -> Circuit:
    circ = Circuit()
    circ.add_qreg("q", n)
    circ.add_creg("c", n)
    for q in range(n):
        circ.append("h", (q,))
    for gamma, beta in ((0.7, 0.3), (0.4, 0.6)):
        for q in range(n):
            circ.append("rzz", (q, (q + 1) % n), (gamma,))
        for q in range(n):
            circ.append("rx", (q,), (2 * beta,))
    for q in range(n):
        circ.append("measure", (q,), clbits=(q,))
    return circ


def main() -> None:
    circ = build_qaoa()

    print("== encoding ==")
    enc, meta = compile_circuit(circ, code="iceberg", checks=2)
    code = meta.code_meta
    print(f"  {code.k} logical qubits -> {code.n} data qubits "
          f"+ 2 reusable ancillas, {code.cycles} syndrome cycles")
    print(f"  classical registers: "
          + ", ".join(f"{r.name}[{r.size}]" for r in enc.cregs))

    print("== execution ==")
    noise = NoiseModel(p1=3e-5, p2=0.002)
    shots = 20000
    counts = sample(enc, shots=shots, noise=noise, seed=4)
    report = postselect_counts_iceberg(counts, meta.code_meta, enc.cregs)
    est = estimate_overhead(enc, meta, noise)
    print(f"  keep rate measured  {report.keep_rate:.4f}")
    print(f"  keep rate predicted {est.keep_rate:.4f}")
    print(f"  shot overhead       {est.expected_shot_multiplier:.3f}x")

    print("== fidelity ==")
    ideal = ideal_distribution(circ)
    group = [r.name for r in reversed(enc.cregs)].index(READOUT_CREG)
    raw = {}
    for key, c in counts.items():
        logical = decode_readout(key.split(" ")[group], meta.code_meta)[1]
        raw[logical] = raw.get(logical, 0) + c
    print(f"  TVD raw        {counts_tvd(raw, ideal):.4f}")
    print(f"  TVD postselect {counts_tvd(report.counts, ideal):.4f}")


if __name__ == "__main__":
    main()
