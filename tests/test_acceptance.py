"""End-to-end acceptance suite.

Each test prints one pass/fail line (collected again in the terminal summary
by conftest) and asserts the stated tolerance.
"""
import itertools
import json
import math
import random
import time

import numpy as np

from qedc.circuit import Circuit
from qedc.clifford import conjugate, tableau_from_circuit
from qedc.errorprop import propagate_flips
from qedc.iceberg import build_iceberg_circuit, decode_readout
from qedc.layout import CouplingGraph, Layout, heavy_hex_127, route, vf2_layouts
from qedc.pauli import PauliString, single_qubit_pauli
from qedc.pipeline import compile_circuit
from qedc.postprocess import (
    counts_tvd,
    estimate_overhead,
    extrapolate_checks,
    marginalize_group,
    normalize_counts,
    postselect_counts,
    postselect_counts_iceberg,
    tvd,
)
from qedc.simulator import (
    NoiseModel,
    deterministic_distribution,
    ideal_distribution,
    sample,
    statevector,
)
from qedc.stabilizer import stabilizer_run

from oracles import circuit_unitary, pauli_matrix


def _random_mixed_circuit(rng, n, depth):
    """Random circuit with a guaranteed Clifford run and some non-Clifford gates."""
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", n)
    pool = ["h", "s", "sdg", "x", "z", "cx", "cz", "swap", "t", "rz"]
    for _ in range(depth):
        g = rng.choice(pool)
        if g in ("cx", "cz", "swap"):
            c.append(g, tuple(rng.sample(range(n), 2)))
        elif g == "rz":
            c.append(g, (rng.randrange(n),), (rng.uniform(0.1, 3),))
        else:
            c.append(g, (rng.randrange(n),))
    # guarantee a protectable Clifford region
    c.append("cx", (0, 1))
    c.append("h", (rng.randrange(n),))
    for q in range(n):
        c.append("measure", (q,), clbits=(q,))
    return c


def test_criterion_1_pcs_noiseless_soundness(criterion):
    t0 = time.time()
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(200):
        circ = _random_mixed_circuit(rng, 4, rng.randrange(3, 12))
        sand, meta = compile_circuit(circ, code="pcs", checks=rng.randrange(1, 3))
        ideal = ideal_distribution(circ)
        dist = deterministic_distribution(sand)
        kept = {}
        expected = meta.code_meta.expected_ancilla_bits
        kept_mass = 0.0
        for key, p in dist.items():
            anc, rest = key.split(" ", 1)
            if anc == expected:
                kept[rest] = kept.get(rest, 0.0) + p
                kept_mass += p
        assert kept_mass > 1 - 1e-9
        worst = max(worst, tvd({k: v / kept_mass for k, v in kept.items()}, ideal))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 120
    criterion(1, ok, f"200 random 4q PCS circuits, max postselected TVD "
                     f"{worst:.2e} (< 1e-9), {elapsed:.0f}s (< 120s)")


def test_criterion_2_pcs_sign_handling(criterion):
    circ = Circuit()
    circ.add_qreg("q", 1)
    circ.add_creg("c", 1)
    circ.append("s", (0,))
    circ.append("measure", (0,), clbits=(0,))
    from qedc.analysis import Region
    from qedc.pcs import CheckPair, insert_pcs

    y = PauliString.from_label("Y")
    tab = tableau_from_circuit([circ.instructions[0]], 1)
    r = conjugate(tab, y)
    sand, meta = insert_pcs(circ, Region(0, 1, frozenset({0}), 0, True),
                            [CheckPair(y, r.bare(), r.sign)])
    sign_ok = r.sign == -1 and r.bare() == PauliString.from_label("X").bare()
    bit_ok = meta.expected_ancilla_bits == "1"
    counts = sample(sand, shots=2000, seed=7)
    report = postselect_counts(counts, meta)
    ok = sign_ok and bit_ok and report.keep_rate == 1.0
    criterion(2, ok, f"S payload with L=Y conjugates to sign -1, expected "
                     f"ancilla bit 1, keep rate {report.keep_rate} (= 1.0)")


def _clifford_angle_logical(rng, k, depth):
    c = Circuit()
    c.add_qreg("q", k)
    c.add_creg("c", k)
    for _ in range(depth):
        g = rng.choice(["rz", "rx", "rzz", "rxx"])
        if g in ("rzz", "rxx"):
            c.append(g, tuple(rng.sample(range(k), 2)), (rng.uniform(0.1, 3),))
        else:
            c.append(g, (rng.randrange(k),), (rng.uniform(0.1, 3),))
    for q in range(k):
        c.append("measure", (q,), clbits=(q,))
    return c


def test_criterion_3_iceberg_distance_two(criterion):
    # Every single-qubit Pauli injected at every boundary must trip the
    # verification bit, a cycle bit, or the readout parity, except errors
    # that provably cannot affect any recorded outcome (pure Z-type flips
    # reaching only Z-basis readout, or the full readout flip of the X
    # stabilizer).  Logical rotations commute with both stabilizers, so the
    # detection machinery's response is evaluated on the Clifford skeleton
    # with stabilizer simulation.
    t0 = time.time()
    details = []
    ok = True
    for k, depth, seed in ((2, 6, 12), (4, 10, 13)):
        rng = random.Random(seed)
        enc, meta = build_iceberg_circuit(_clifford_angle_logical(rng, k, depth),
                                          cycles=2)
        skel = [i for i in enc.instructions if i.name not in ("rzz", "rxx")]
        skel_pos, cnt = [], 0
        for i in enc.instructions:
            skel_pos.append(cnt)
            if i.name not in ("rzz", "rxx"):
                cnt += 1
        skel_pos.append(cnt)
        n = enc.num_qubits
        readout_start = enc.creg_by_name("meas").start
        hard = set()
        for reg in enc.cregs:
            if reg.name in ("verify", "synd"):
                hard.update(range(reg.start, reg.start + reg.size))
        body = enc.copy_empty()
        body.instructions = [i for i in skel
                             if not (i.name == "measure"
                                     and i.clbits[0] >= readout_start)]
        parity_op = PauliString(
            n, 0, sum(1 << q for q in meta.data_qubits), 0)
        base_records, base_state = stabilizer_run(body, seed=0)
        assert all(r.outcome == 0 and r.deterministic
                   for r in base_records if r.clbit in hard)
        assert base_state.expectation(parity_op) == 1
        full = {readout_start + i for i in range(meta.n)}
        total = flagged = inert = missed = 0
        nbody = len(body.instructions)
        for b in range(len(enc.instructions) + 1):
            sb = min(skel_pos[b], nbody)
            for dq in meta.data_qubits:
                for kind in "XYZ":
                    total += 1
                    err = single_qubit_pauli(n, dq, kind)
                    records, state = stabilizer_run(
                        body, injected=err, inject_before=sb, seed=0)
                    det = {r.clbit: r.outcome for r in records if r.deterministic}
                    hit = any(det.get(cb, 0) == 1 for cb in hard)
                    hit = hit or state.expectation(parity_op) == -1
                    if hit:
                        flagged += 1
                        continue
                    flips = propagate_flips(skel, skel_pos[b], err)
                    rd = {f for f in flips if f >= readout_start}
                    if rd in (set(), full) and not (flips & hard):
                        inert += 1
                    else:
                        missed += 1
        ok = ok and missed == 0
        details.append(f"k={k}: {flagged}/{total} flagged, {inert} inert, "
                       f"{missed} missed")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    criterion(3, ok, "all harmful single-qubit injections detected; "
                     + "; ".join(details) + f"; {elapsed:.0f}s (< 300s)")


def _case_study_circuit_4q():
    circ = Circuit()
    circ.add_qreg("q", 4)
    circ.add_creg("c", 4)
    for g, qs in [("h", (0,)), ("cx", (0, 1)), ("s", (1,)), ("cx", (1, 2)),
                  ("h", (3,)), ("cx", (2, 3)), ("cz", (0, 3)), ("sdg", (2,)),
                  ("cx", (3, 0)), ("h", (2,))]:
        circ.append(g, qs)
    for q in range(4):
        circ.append("measure", (q,), clbits=(q,))
    return circ


def test_criterion_4_case_study_pcs_heavy_hex(criterion):
    t0 = time.time()
    circ = _case_study_circuit_4q()
    ideal = ideal_distribution(circ)
    sand, meta = compile_circuit(circ, code="pcs", checks=2,
                                 coupling=heavy_hex_127())
    noise = NoiseModel(p1=3e-5, p2=0.002)
    diffs, keeps = [], []
    for rep in range(10):
        counts = sample(sand, shots=10000, noise=noise, seed=100 + rep)
        report = postselect_counts(counts, meta.code_meta)
        raw = marginalize_group(counts, 0)
        diffs.append(counts_tvd(raw, ideal) - counts_tvd(report.counts, ideal))
        keeps.append(report.keep_rate)
    d = np.array(diffs)
    z = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
    elapsed = time.time() - t0
    keep_ok = all(0.0 < k < 1.0 for k in keeps)
    ok = keep_ok and z >= 5.0 and elapsed < 300
    criterion(4, ok, f"4q/2 checks/10000 shots on 127-node heavy-hex: keep "
                     f"{np.mean(keeps):.3f} in (0,1), TVD improvement z = "
                     f"{z:.1f} (>= 5), {elapsed:.0f}s (< 300s)")


def _qaoa6():
    circ = Circuit()
    circ.add_qreg("q", 6)
    circ.add_creg("c", 6)
    for q in range(6):
        circ.append("h", (q,))
    for gamma, beta in ((0.7, 0.3), (0.4, 0.6)):
        for q in range(6):
            circ.append("rzz", (q, (q + 1) % 6), (gamma,))
        for q in range(6):
            circ.append("rx", (q,), (2 * beta,))
    for q in range(6):
        circ.append("measure", (q,), clbits=(q,))
    return circ


def test_criterion_5_case_study_iceberg_qaoa(criterion):
    t0 = time.time()
    circ = _qaoa6()
    ideal = ideal_distribution(circ)
    enc, meta = compile_circuit(circ, code="iceberg", checks=2)
    noise = NoiseModel(p1=3e-5, p2=0.002)
    est = estimate_overhead(enc, meta, noise)
    group = [r.name for r in reversed(enc.cregs)].index("meas")
    diffs = []
    kept = total = 0
    for blk in range(10):
        counts = sample(enc, shots=10000, noise=noise, seed=300 + blk)
        report = postselect_counts_iceberg(counts, meta.code_meta, enc.cregs)
        kept += report.kept_shots
        total += report.total_shots
        raw = {}
        for key, c in counts.items():
            logical = decode_readout(key.split(" ")[group], meta.code_meta)[1]
            raw[logical] = raw.get(logical, 0) + c
        diffs.append(counts_tvd(raw, ideal) - counts_tvd(report.counts, ideal))
    d = np.array(diffs)
    z = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
    keep = kept / total
    sigma = math.sqrt(est.keep_rate * (1 - est.keep_rate) / total)
    keep_dev = abs(keep - est.keep_rate) / sigma
    elapsed = time.time() - t0
    ok = z >= 5.0 and keep_dev < 3.0 and elapsed < 900
    criterion(5, ok, f"6q QAOA/2 cycles/1e5 shots: TVD improvement z = {z:.1f} "
                     f"(>= 5), keep {keep:.4f} vs estimate {est.keep_rate:.4f} "
                     f"({keep_dev:.1f} sigma < 3), {elapsed:.0f}s (< 900s)")


def _brute_monomorphisms(ig_edges, k, cg):
    out = []
    for perm in itertools.permutations(range(cg.num_nodes), k):
        if all(cg.has_edge(perm[a], perm[b]) for a, b in ig_edges):
            out.append(list(perm))
    return out


def test_criterion_6_vf2_exact(criterion):
    rng = random.Random(2026)
    mismatches = 0
    for _ in range(50):
        k = rng.randrange(2, 7)
        n = rng.randrange(k, 9)
        cg_edges = set()
        for _ in range(rng.randrange(n, 2 * n + 1)):
            a, b = rng.sample(range(n), 2)
            cg_edges.add((min(a, b), max(a, b)))
        cg = CouplingGraph(n, sorted(cg_edges))
        ig_edges = set()
        for _ in range(rng.randrange(1, k + 2)):
            a, b = rng.sample(range(k), 2)
            ig_edges.add((min(a, b), max(a, b)))
        found = vf2_layouts({e: 1 for e in ig_edges}, k, cg, limit=10 ** 7)
        if sorted(l.map for l in found) != sorted(_brute_monomorphisms(ig_edges, k, cg)):
            mismatches += 1
    criterion(6, mismatches == 0,
              f"vf2 vs brute-force enumeration on 50 graph pairs, "
              f"{mismatches} mismatches (= 0)")


def _routed_overlap(circ, res, cg):
    sv = statevector(circ)
    sv_rt = statevector(res.circuit)
    n_log = circ.num_qubits
    full = np.zeros(2 ** cg.num_nodes, dtype=complex)
    for idx in range(2 ** n_log):
        tgt = 0
        for q in range(n_log):
            if (idx >> q) & 1:
                tgt |= 1 << res.final_layout[q]
        full[tgt] = sv[idx]
    return abs(np.vdot(full, sv_rt))


def test_criterion_7_routing_soundness(criterion):
    t0 = time.time()
    rng = random.Random(707)
    path5 = CouplingGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    grid6 = CouplingGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    min_overlap = 1.0
    for trial in range(100):
        cg = path5 if trial % 2 == 0 else grid6
        c = Circuit()
        c.add_qreg("q", 5)
        for _ in range(rng.randrange(4, 12)):
            g = rng.choice(["h", "s", "t", "rz", "cx", "cz"])
            if g in ("cx", "cz"):
                c.append(g, tuple(rng.sample(range(5), 2)))
            elif g == "rz":
                c.append(g, (rng.randrange(5),), (rng.uniform(0, 3),))
            else:
                c.append(g, (rng.randrange(5),))
        perm = rng.sample(range(cg.num_nodes), 5)
        res = route(c, Layout(perm, 0), cg)
        min_overlap = min(min_overlap, _routed_overlap(c, res, cg))
    # protected avoidance: the 2-hop path crosses the protected seat, a
    # 4-hop detour exists, so no swap may touch it
    detour = CouplingGraph(6, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 5), (5, 4)])
    protected_ok = True
    for _ in range(20):
        c = Circuit()
        c.add_qreg("q", 3)
        for _ in range(rng.randrange(1, 4)):
            c.append(rng.choice(["h", "s"]), (rng.randrange(3),))
            c.append("cx", (0, 2) if rng.random() < 0.5 else (2, 0))
        res = route(c, Layout([0, 1, 4], 0), detour, protected={1})
        for inst in res.circuit.instructions:
            if inst.name == "swap" and 1 in inst.qubits:
                protected_ok = False
        if _routed_overlap(c, res, detour) <= 1 - 1e-10:
            protected_ok = False
    elapsed = time.time() - t0
    ok = min_overlap > 1 - 1e-10 and protected_ok and elapsed < 180
    criterion(7, ok, f"100 routed 5q circuits, min overlap {min_overlap:.12f} "
                     f"(> 1-1e-10); protected seat untouched by swaps; "
                     f"{elapsed:.0f}s (< 180s)")


def test_criterion_8_clifford_oracle_equivalence(criterion):
    rng = random.Random(88)
    failures = 0
    for _ in range(1000):
        n = rng.randrange(1, 6)
        c = Circuit()
        c.add_qreg("q", n)
        pool = ["h", "s", "sdg", "x", "y", "z"]
        if n >= 2:
            pool += ["cx", "cz", "swap"]
        for _ in range(rng.randrange(1, 10)):
            g = rng.choice(pool)
            if g in ("cx", "cz", "swap"):
                c.append(g, tuple(rng.sample(range(n), 2)))
            else:
                c.append(g, (rng.randrange(n),))
        x = rng.getrandbits(n)
        z = rng.getrandbits(n)
        if x == 0 and z == 0:
            x = 1
        phase = rng.choice([0, 2])
        p = PauliString(n, x, z, phase)
        got = tableau_from_circuit(c).conjugate(p)
        u = circuit_unitary(c.instructions, n)
        want = u @ ((1j ** phase).real * pauli_matrix(
            PauliString(n, x, z, 0).to_label())) @ u.conj().T
        got_mat = (1j ** got.phase) * pauli_matrix(got.bare().to_label())
        if got.phase % 2 == 1 or not np.allclose(got_mat, want, atol=1e-9):
            failures += 1
    criterion(8, failures == 0,
              f"tableau vs dense conjugation incl. phase, 1000 cases <= 5 "
              f"qubits, {failures} failures (= 0)")


def test_criterion_9_extrapolation_recovery(criterion):
    exact_err = 0.0
    rng_vals = random.Random(99)
    for _ in range(20):
        e_inf = rng_vals.uniform(0.2, 0.8)
        a = rng_vals.uniform(0.05, 0.4)
        r = rng_vals.uniform(0.2, 0.9)
        series = [(m, e_inf + a * r ** m) for m in range(1, 6)]
        exact_err = max(exact_err, abs(extrapolate_checks(series).value - e_inf))
    rng = np.random.default_rng(909)
    errors = []
    for _ in range(100):
        series = [(m, 0.6 + 0.25 * 0.55 ** m + rng.normal(0, 0.01))
                  for m in range(1, 7)]
        errors.append(abs(extrapolate_checks(series).value - 0.6))
    med = float(np.median(errors))
    ok = exact_err < 1e-6 and med < 0.03
    criterion(9, ok, f"exact series recovered to {exact_err:.1e} (< 1e-6); "
                     f"noisy sigma=0.01 median error {med:.4f} (< 0.03) "
                     f"over 100 trials")


def test_criterion_10_cli_determinism(criterion, tmp_path):
    from qedc.cli import main as cli_main
    from qedc.qasm import emit_qasm

    src = tmp_path / "in.qasm"
    src.write_text(emit_qasm(_case_study_circuit_4q()))
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p1": 3e-5, "p2": 0.002}))
    series = tmp_path / "series.json"
    series.write_text(json.dumps(
        [{"m": m, "value": 0.5 + 0.2 * 0.6 ** m, "stderr": 0.001}
         for m in (1, 2, 3, 4)]))
    runs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        args = [
            ["analyze", str(src), "--out", str(d / "analysis.json")],
            ["compile", str(src), "--code", "pcs", "--checks", "2",
             "--out", str(d / "compiled.qasm"), "--meta-out", str(d / "meta.json")],
            ["run", str(d / "compiled.qasm"), "--noise", str(noise),
             "--shots", "2000", "--seed", "5", "--out", str(d / "counts.json")],
            ["postselect", "--counts", str(d / "counts.json"),
             "--meta", str(d / "meta.json"), "--out", str(d / "report.json")],
            ["extrapolate", "--series", str(series), "--out", str(d / "fit.json")],
        ]
        assert all(cli_main(a) == 0 for a in args)
        runs.append([(d / f).read_bytes() for f in
                     ("analysis.json", "compiled.qasm", "meta.json",
                      "counts.json", "report.json", "fit.json")])
    ok = runs[0] == runs[1]
    criterion(10, ok, "all five CLI stages byte-identical across re-runs with "
                      "fixed seeds (one seeded generator per sample call)")
