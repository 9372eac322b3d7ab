import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qedc.analysis import Region
from qedc.circuit import Circuit, Register, registers
from qedc.iceberg import READOUT_CREG, IcebergMeta, build_iceberg_circuit
from qedc.pcs import CheckPair, PcsMeta, insert_pcs
from qedc.pauli import PauliString
from qedc.layout import heavy_hex_127
from qedc.pipeline import CompilationMeta, compile_circuit
from qedc.postprocess import (
    PostprocessError,
    counts_tvd,
    detectors,
    estimate_overhead,
    expectation_z,
    extrapolate_checks,
    marginalize_group,
    normalize_counts,
    postselect_counts,
    postselect_counts_iceberg,
    tvd,
)
from qedc.simulator import NoiseModel, sample
from oracles import reference_postselect_counts, reference_postselect_counts_iceberg
from test_acceptance import _case_study_circuit_4q, _qaoa6


def signed_checks(expected):
    """Checks whose signs give the expected ancilla bits `expected`, in
    counts-key order: a 1 is a check of sign -1."""
    z = PauliString.from_label("Z")
    return [CheckPair(z, z, -1 if bit == "1" else 1, i) for i, bit in enumerate(reversed(expected))]


def simple_meta(expected="00"):
    return PcsMeta(signed_checks(expected), (0, 1), (0, 1))


def test_postselect_spec_example():
    counts = {"00 11": 60, "01 11": 40}
    report = postselect_counts(counts, simple_meta("00"))
    assert report.counts == {"11": 60}
    assert report.keep_rate == pytest.approx(0.6)
    assert report.kept_shots + report.discarded_shots == report.total_shots == 100


def test_postselect_all_pass_shortens_keys():
    report = postselect_counts({"00 01": 7, "00 10": 3}, simple_meta("00"))
    assert report.keep_rate == 1.0
    assert set(report.counts) == {"01", "10"}


def test_postselect_rejects_wrong_width():
    with pytest.raises(PostprocessError):
        postselect_counts({"000 11": 5}, simple_meta("00"))


def test_postselect_iceberg_rules():
    cregs = [Register("verify", 1, 0), Register("synd", 2, 1), Register("meas", 4, 3)]
    meta = IcebergMeta(2, 1)
    counts = {
        "0000 00 0": 50,   # accept -> logical 00
        "1111 00 0": 10,   # accept via X stabilizer -> logical 00
        "0001 00 0": 5,    # odd parity -> drop
        "0000 01 0": 4,    # cycle bit set -> drop
        "0000 00 1": 3,    # verification failed -> drop
        "0110 00 0": 8,    # accept -> logical 11
    }
    report = postselect_counts_iceberg(counts, meta, cregs)
    assert report.total_shots == 80
    assert report.kept_shots == 68
    assert report.counts == {"00": 60, "11": 8}


def test_detectors_state_each_codes_checks():
    pcs_cregs = [Register("c", 3, 0), Register("anc", 2, 3)]
    # expected bits in key order: check 1 reads 0, check 0 reads 1
    assert detectors(simple_meta("01"), pcs_cregs) == [((3,), 1), ((4,), 0)]
    assert detectors(IcebergMeta(2, 1), IcebergMeta(2, 1).cregs()) == [
        ((0,), 0), ((1,), 0), ((2,), 0), ((3, 4, 5, 6), 0)]
    assert detectors(IcebergMeta(2, 0), IcebergMeta(2, 0).cregs()) == [
        ((0,), 0), ((1, 2, 3, 4), 0)]


@pytest.mark.parametrize("meta, cregs", [
    (simple_meta(), [Register("c", 3, 0)]),
    (simple_meta(), [Register("c", 3, 0), Register("anc", 3, 3)]),
    (IcebergMeta(2, 1), IcebergMeta(2, 0).cregs()),
    (IcebergMeta(2, 1), registers([("verify", 1), ("synd", 2), ("meas", 3)])),
], ids=["pcs-no-ancilla", "pcs-ancilla-width", "iceberg-no-synd", "iceberg-readout-width"])
def test_detectors_reject_registers_that_do_not_match_the_code(meta, cregs):
    with pytest.raises(PostprocessError, match="no .*-bit classical register"):
        detectors(meta, cregs)


PCS_CREGS = [Register("c", 3, 0), Register("anc", 2, 3)]


@pytest.mark.parametrize("key", [
    "00 011 1", "00", "00011", " 00 011", "00  011",  # groups
    "000 011", "0 011", "00 0011", "00 01",           # widths
    "0x 011", "00 0_0", "00 01\n", "00 011\n00 011",   # characters
])
@pytest.mark.parametrize("with_cregs", [True, False])
def test_pcs_keys_that_do_not_match_the_registers_raise(key, with_cregs):
    counts = {"00 011": 4, key: 1}
    with pytest.raises(PostprocessError, match="does not match register widths"):
        postselect_counts(counts, simple_meta("00"), PCS_CREGS if with_cregs else None)


@pytest.mark.parametrize("key", [
    "0000 00 0 1", "0000 000", "0000000",   # groups
    "000 00 0", "00000 00 0",               # readout width
    "0000 000 0", "0000 0 0",               # syndrome width
    "0000 00 00", "0000 00 ",               # verification width
    "0000 0x 0", "0_00 00 0", "0000 00 -",  # characters
])
def test_iceberg_keys_that_do_not_match_the_registers_raise(key):
    meta = IcebergMeta(2, 1)
    with pytest.raises(PostprocessError, match="does not match register widths"):
        postselect_counts_iceberg({"0000 00 0": 4, key: 1}, meta, meta.cregs())


def test_empty_counts_give_the_all_zero_report():
    zero = {"total": 0, "kept": 0, "discarded": 0, "keep_rate": 0.0, "counts": {}}
    assert postselect_counts({}, simple_meta()).to_dict() == zero
    assert postselect_counts({}, simple_meta(), PCS_CREGS).to_dict() == zero
    for cycles in (0, 2):
        meta = IcebergMeta(2, cycles)
        assert postselect_counts_iceberg({}, meta, meta.cregs()).to_dict() == zero


@st.composite
def pcs_counts(draw):
    """(counts, meta, cregs or None): PCS keys of random registers, about
    half of them with the expected ancilla bits."""
    checks = draw(st.integers(1, 4))
    expected = draw(st.text("01", min_size=checks, max_size=checks))
    others = [(f"c{i}", draw(st.integers(1, 4))) for i in range(draw(st.integers(0, 2)))]
    with_cregs = draw(st.booleans())
    at = draw(st.integers(0, len(others))) if with_cregs else len(others)
    cregs = registers(others[:at] + [("anc", checks)] + others[at:])
    groups = [st.one_of(st.just(expected), bit_strings(checks)) if reg.name == "anc"
              else bit_strings(reg.size) for reg in reversed(cregs)]
    counts = draw(st.dictionaries(st.tuples(*groups).map(" ".join), weights(), max_size=24))
    return counts, PcsMeta(signed_checks(expected), (0, 0), ()), cregs if with_cregs else None


def bit_strings(width):
    return st.text("01", min_size=width, max_size=width)


def weights():
    """Shot counts, or the float weights of an exact distribution."""
    return st.one_of(st.integers(1, 50), st.floats(1e-6, 1.0))


@st.composite
def iceberg_counts(draw):
    """(counts, meta, cregs): Iceberg keys, about half of them with clear
    verification and syndrome bits."""
    meta = IcebergMeta(draw(st.sampled_from([2, 4])), draw(st.sampled_from([0, 2, 3])))
    groups = [bit_strings(reg.size) if reg.name == READOUT_CREG
              else st.one_of(st.just("0" * reg.size), bit_strings(reg.size))
              for reg in reversed(meta.cregs())]
    counts = draw(st.dictionaries(st.tuples(*groups).map(" ".join), weights(), max_size=24))
    return counts, meta, meta.cregs()


@settings(max_examples=150, deadline=None)
@given(st.one_of(pcs_counts(), iceberg_counts()))
def test_postselect_matches_the_hand_written_rules(case):
    counts, meta, cregs = case
    if isinstance(meta, PcsMeta):
        report = postselect_counts(counts, meta, cregs)
        want = reference_postselect_counts(counts, meta, cregs)
    else:
        report = postselect_counts_iceberg(counts, meta, cregs)
        want = reference_postselect_counts_iceberg(counts, meta, cregs)
    got = (report.total_shots, report.kept_shots, report.discarded_shots, report.counts)
    assert got == want
    assert list(report.counts) == list(want[3])


def test_tvd_and_normalize():
    assert tvd({"0": 1.0}, {"0": 1.0}) == 0.0
    assert tvd({"0": 1.0}, {"1": 1.0}) == 1.0
    assert counts_tvd({"0": 50, "1": 50}, {"0": 25, "1": 25}) == 0.0
    with pytest.raises(PostprocessError):
        normalize_counts({})


def test_marginalize_group():
    assert marginalize_group({"00 1": 5, "01 1": 3}, 0) == {"1": 8}


def test_expectation_z():
    assert expectation_z({"0": 75, "1": 25}) == pytest.approx(0.5)


def test_overhead_zero_noise_is_one():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("rx", (0,), (0.5,))
    c.append("rzz", (0, 1), (0.5,))
    for q in range(2):
        c.append("measure", (q,), clbits=(q,))
    enc, meta = build_iceberg_circuit(c, cycles=1)
    est = estimate_overhead(enc, meta, NoiseModel())
    assert est.keep_rate == 1.0


def test_overhead_single_cx_one_check():
    # one cx payload with check X(x)X: 8 of the 15 two-qubit Paulis
    # anticommute with the right check, so keep ~= 1 - p2 * 8/15
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("cx", (0, 1))
    for q in range(2):
        c.append("measure", (q,), clbits=(q,))
    region = Region(0, 1, frozenset({0, 1}), 1, True)
    from qedc.clifford import conjugate, tableau_from_circuit
    xx = PauliString.from_label("XX")
    tab = tableau_from_circuit([c.instructions[0]], 2)
    r = conjugate(tab, xx)
    checks = [CheckPair(xx, r.bare(), r.sign)]
    sand, meta = insert_pcs(c, region, checks)
    p2 = 0.002
    est = estimate_overhead(sand, meta, NoiseModel(p2=p2))
    # count anticommuting two-qubit Paulis directly
    anti = 0
    for a in "IXYZ":
        for b in "IXYZ":
            if (a, b) == ("I", "I"):
                continue
            if not PauliString.from_label(a + b).commutes_with(r.bare()):
                anti += 1
    assert anti == 8
    assert est.keep_rate == pytest.approx(1 - p2 * anti / 15)


def test_overhead_monotone_in_p2():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("rzz", (0, 1), (0.7,))
    c.append("rx", (0,), (0.5,))
    for q in range(2):
        c.append("measure", (q,), clbits=(q,))
    enc, meta = build_iceberg_circuit(c, cycles=2)
    rates = [estimate_overhead(enc, meta, NoiseModel(p2=p)).keep_rate
             for p in (0.0, 0.001, 0.005, 0.02)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == 1.0


def test_overhead_accepts_compilation_meta():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("rx", (0,), (0.5,))
    for q in range(2):
        c.append("measure", (q,), clbits=(q,))
    enc, imeta = build_iceberg_circuit(c, cycles=0)
    wrapped = CompilationMeta("iceberg", imeta, None, 0, 0)
    noise = NoiseModel(p1=1e-4, p2=0.002)
    assert estimate_overhead(enc, wrapped, noise).keep_rate == \
        estimate_overhead(enc, imeta, noise).keep_rate


def test_overhead_rejects_routed_pcs_metadata():
    # the payload span and qubits are still those before routing
    sand, meta = compile_circuit(_case_study_circuit_4q(), code="pcs", checks=2,
                                 coupling=heavy_hex_127())
    with pytest.raises(PostprocessError, match=r"qubits \[14, 15, 29\] outside"):
        estimate_overhead(sand, meta, NoiseModel(p1=3e-5, p2=0.002))


def test_overhead_rejects_hand_edited_pcs_metadata():
    sand, meta = compile_circuit(_case_study_circuit_4q(), code="pcs", checks=2)
    noise = NoiseModel(p1=3e-5, p2=0.002)
    assert 0 < estimate_overhead(sand, meta, noise).keep_rate < 1
    edited = PcsMeta.from_dict({**meta.code_meta.to_dict(), "payload_qubits": [0, 1, 2]})
    with pytest.raises(PostprocessError, match=r"qubits \[3\] outside"):
        estimate_overhead(sand, edited, noise)
    edited = meta.code_meta.to_dict()
    edited["checks"][0]["right"] = "XZ"
    with pytest.raises(PostprocessError, match="does not span the 4 payload qubits"):
        estimate_overhead(sand, PcsMeta.from_dict(edited), noise)


def _bell(n=2):
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", n)
    c.append("h", (0,))
    for q in range(n - 1):
        c.append("cx", (q, q + 1))
    for q in range(n):
        c.append("measure", (q,), clbits=(q,))
    return c


def test_overhead_rejects_pcs_metadata_of_another_circuit():
    noise = NoiseModel(p1=1e-3, p2=1e-2)
    bell = _bell()
    sand, meta = compile_circuit(bell, code="pcs", checks=1)
    assert meta.code_meta.payload_span == (3, 5)
    assert 0 < estimate_overhead(sand, meta, noise).keep_rate < 1
    # the input circuit has 4 instructions, and no ancilla register
    with pytest.raises(PostprocessError, match=r"span 3\.\.5 .* lie outside the circuit's 4 instructions"):
        estimate_overhead(bell, meta, noise)
    # a 4-qubit payload on the 3-qubit compiled Bell circuit
    _, wide = compile_circuit(_bell(4), code="pcs", checks=1)
    with pytest.raises(PostprocessError, match=r"qubits \[0, 1, 2, 3\] lie outside .* 3 qubits"):
        estimate_overhead(sand, wide, noise)
    # the compiled circuit with its ancilla register renamed
    renamed = Circuit(sand.qregs, [Register("checks" if r.name == "anc" else r.name, r.size, r.start)
                                   for r in sand.cregs], sand.instructions)
    with pytest.raises(PostprocessError, match="no 1-bit classical register 'anc'"):
        estimate_overhead(renamed, meta, noise)


@pytest.mark.parametrize("routed, want", [(False, 0.7941953484075503), (True, 0.3507503340638212)],
                         ids=["unrouted", "heavy-hex"])
def test_overhead_at_14_detectors_keeps_the_convolved_keep_rate(routed, want):
    # the wanted rates were computed by the estimate this one replaced, which
    # convolved a distribution over the 2**14 detector signatures gate by gate
    enc, meta = compile_circuit(_qaoa6(), code="iceberg", checks=6,
                                coupling=heavy_hex_127() if routed else None)
    assert len(detectors(meta.code_meta, enc.cregs)) == 14
    assert routed == (meta.swap_count > 0)
    assert abs(estimate_overhead(enc, meta, NoiseModel(p1=3e-5, p2=0.002)).keep_rate - want) < 1e-12


def test_overhead_takes_at_most_22_detectors():
    enc, meta = compile_circuit(_qaoa6(), code="iceberg", checks=11)
    with pytest.raises(PostprocessError, match="24 detectors: the keep-rate estimate takes at most 22"):
        estimate_overhead(enc, meta, NoiseModel(p2=0.002))


def test_iceberg_prediction_matches_simulation():
    rng = random.Random(5)
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    for _ in range(6):
        g = rng.choice(["rz", "rx", "rzz"])
        if g == "rzz":
            c.append(g, (0, 1), (rng.uniform(0, 3),))
        else:
            c.append(g, (rng.randrange(2),), (rng.uniform(0, 3),))
    for q in range(2):
        c.append("measure", (q,), clbits=(q,))
    enc, meta = build_iceberg_circuit(c, cycles=1)
    noise = NoiseModel(p1=3e-5, p2=0.002)
    shots = 30000
    counts = sample(enc, shots=shots, noise=noise, seed=2)
    report = postselect_counts_iceberg(counts, meta, enc.cregs)
    est = estimate_overhead(enc, meta, noise)
    sigma = math.sqrt(est.keep_rate * (1 - est.keep_rate) / shots)
    assert abs(report.keep_rate - est.keep_rate) < 4 * sigma + 1e-3


def test_extrapolate_constant_series():
    r = extrapolate_checks([(1, 0.8), (2, 0.8), (3, 0.8)])
    assert (r.value, r.amplitude, r.rate, r.degenerate) == (0.8, 0.0, 1.0, False)


def test_extrapolate_exact_exponential():
    series = [(m, 0.5 + 0.3 * 0.5 ** m) for m in range(1, 5)]
    r = extrapolate_checks(series)
    assert abs(r.value - 0.5) < 1e-6
    assert not r.degenerate


def test_extrapolate_flags_degenerate_fit():
    # <Z_0> not monotone in m: the best rate runs off the scanned grid
    series = [(1, -0.9874, 7e-4), (2, -0.9796, 8e-4), (3, -0.9775, 9e-4), (4, -0.9823, 8e-4)]
    r = extrapolate_checks(series)
    assert r.degenerate
    assert r.to_dict()["degenerate"] is True


def test_extrapolate_criterion_9_series_not_degenerate():
    rng_vals = random.Random(99)
    for _ in range(20):
        e_inf = rng_vals.uniform(0.2, 0.8)
        a = rng_vals.uniform(0.05, 0.4)
        r = rng_vals.uniform(0.2, 0.9)
        assert not extrapolate_checks([(m, e_inf + a * r ** m) for m in range(1, 6)]).degenerate
    rng = np.random.default_rng(909)
    for _ in range(100):
        series = [(m, 0.6 + 0.25 * 0.55 ** m + rng.normal(0, 0.01)) for m in range(1, 7)]
        assert not extrapolate_checks(series).degenerate


def test_extrapolate_rejects_non_finite_points():
    good = [(1, 0.6, 0.01), (2, 0.5, 0.01), (3, 0.45, 0.01), (4, 0.42, 0.01)]
    for i, field in itertools.product(range(4), range(3)):
        for bad in (math.nan, math.inf, -math.inf):
            series = [list(pt) for pt in good]
            series[i][field] = bad
            with pytest.raises(PostprocessError, match="finite"):
                extrapolate_checks(series)


# a series whose m = 4 point sits far off the others' curve, so its weight
# decides the fit
_OFF_CURVE = [(1, 0.6), (2, 0.5), (3, 0.45), (4, 0.30), (5, 0.42)]


@pytest.mark.parametrize("stderr", [0.0, None, "missing"])
def test_extrapolate_rejects_a_point_without_stderr_among_weighted_ones(stderr):
    series = [(m, v, 0.01) for m, v in _OFF_CURVE]
    series[3] = series[3][:2] if stderr == "missing" else (4, 0.30, stderr)
    with pytest.raises(PostprocessError, match="positive stderr at every point"):
        extrapolate_checks(series)


def test_extrapolate_rejects_a_negative_stderr():
    series = [(m, v, 0.01) for m, v in _OFF_CURVE]
    series[3] = (4, 0.30, -0.01)
    with pytest.raises(PostprocessError, match="negative"):
        extrapolate_checks(series)


def test_extrapolate_weights_every_point_by_its_stderr():
    # equal stderrs fit as no stderrs do
    even = extrapolate_checks([(m, v, 0.01) for m, v in _OFF_CURVE])
    assert even.value == pytest.approx(extrapolate_checks(_OFF_CURVE).value, abs=1e-12)
    # a precise m = 4 point pulls the fit onto itself
    precise = [(m, v, 1e-6 if m == 4 else 0.01) for m, v in _OFF_CURVE]
    r = extrapolate_checks(precise)
    assert abs(r.value + r.amplitude * r.rate ** 4 - 0.30) < 1e-4
    assert abs(even.value + even.amplitude * even.rate ** 4 - 0.30) > 0.01


def test_extrapolate_needs_three_points():
    with pytest.raises(PostprocessError):
        extrapolate_checks([(1, 0.5), (2, 0.4)])
    with pytest.raises(PostprocessError):
        extrapolate_checks([(1, 0.5), (1, 0.4), (1, 0.3)])


def test_extrapolate_noisy_recovery():
    rng = np.random.default_rng(10)
    errors = []
    for _ in range(100):
        series = [(m, 0.6 + 0.25 * 0.55 ** m + rng.normal(0, 0.01)) for m in range(1, 7)]
        r = extrapolate_checks(series)
        errors.append(abs(r.value - 0.6))
    assert float(np.median(errors)) < 0.03


def test_extrapolate_weights_downweight_noisy_points():
    base = [(m, 0.5 + 0.2 * 0.5 ** m, 0.001) for m in range(1, 6)]
    outlier = base + [(6, 0.9, 10.0)]  # huge stderr: should barely matter
    r = extrapolate_checks(outlier)
    assert abs(r.value - 0.5) < 5e-3
