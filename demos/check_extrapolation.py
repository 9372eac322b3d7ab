"""Extrapolating an observable to the infinite-check limit.

Compiles and runs the same circuit with an increasing number of check pairs,
recording a postselected Z expectation for each.  Successive checks change
the estimate less and less; fitting v(m) = E_inf + A * r**m to the series
gives the value the protocol converges to without running larger sandwiches.

Run: python3 demos/check_extrapolation.py
"""
import math

from qedc.circuit import Circuit
from qedc.pipeline import compile_circuit
from qedc.postprocess import expectation_z, extrapolate_checks, postselect_counts
from qedc.simulator import NoiseModel, ideal_distribution, sample


def build_input() -> Circuit:
    circ = Circuit()
    circ.add_qreg("q", 3)
    circ.add_creg("c", 3)
    for gate, qubits in [("x", (0,)), ("cx", (0, 1)), ("s", (1,)),
                         ("cx", (1, 2)), ("cz", (0, 2)), ("h", (2,))]:
        circ.append(gate, qubits)
    for q in range(3):
        circ.append("measure", (q,), clbits=(q,))
    return circ


def main() -> None:
    circ = build_input()
    ideal = ideal_distribution(circ)
    target = sum(p * (1 - 2 * int(key[-1])) for key, p in ideal.items())
    print(f"ideal <Z_0> = {target:+.4f}")

    noise = NoiseModel(p1=1e-4, p2=0.008)
    shots = 60000
    series = []
    for m in (1, 2, 3, 4):
        sand, meta = compile_circuit(circ, code="pcs", checks=m)
        counts = sample(sand, shots=shots, noise=noise, seed=20 + m)
        report = postselect_counts(counts, meta.code_meta)
        value = expectation_z(report.counts, bit=0)
        stderr = math.sqrt(max(1e-12, 1 - value ** 2) / report.kept_shots)
        series.append((m, value, stderr))
        print(f"m={m}: keep {report.keep_rate:.4f}  <Z_0> = {value:+.4f} "
              f"+/- {stderr:.4f}")

    fit = extrapolate_checks(series)
    print(f"fit: v(m) = {fit.value:+.4f} + ({fit.amplitude:+.4f}) * "
          f"{fit.rate:.3f}**m")
    print(f"extrapolated <Z_0> at m -> inf: {fit.value:+.4f} "
          f"(residual {fit.residual:.2e})")
    if fit.degenerate:
        print("degenerate fit: the rate is at or past the edge of the scanned "
              "range [0.05, 0.95], so the series does not pin down the m -> inf value")


if __name__ == "__main__":
    main()
