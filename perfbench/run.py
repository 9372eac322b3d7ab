"""Benchmark of the qedc pipeline on one workload.

    python3 perfbench/run.py --workload iceberg_qaoa --seed 1 --seconds 30 --trace 0

Run from the root of a qedc checkout; qedc is imported from `src/`.  With
`--trace 0` it repeats timed passes of the pipeline (parse, compile, QASM
hand-off, estimate_overhead, sample, postselect) for `--seconds` seconds,
and at least three times, checks every pass's outputs and prints the
end-to-end metrics.  With `--trace 1` it alternates untraced passes with
traced ones, in which compile_circuit is split into the calls it makes, then
drives one pass through `qedc.cli.main`, and prints the per-layer metrics.
Spans of the traced run are written to `.perfbench_out/` when it ends.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# set-up is timed in this many fresh interpreters; the median is reported
SETUP_REPEATS = 7
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up in this process, print it and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup_probe(name: str, seed: int) -> float:
    """Seconds to import qedc, load the device graph and make the inputs,
    scaled to the reference speed (see speed.py)."""
    from speed import REFERENCE_S, gauge

    before = gauge()
    t0 = perf_counter()
    import qedc

    workload = WORKLOADS[name]
    if workload.heavy_hex:
        qedc.heavy_hex_127()
    make_inputs(workload, seed)
    elapsed = perf_counter() - t0
    return elapsed * REFERENCE_S / (0.5 * (before + gauge()))


def setup_seconds(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def timed_run(workload, inputs, coupling, seconds):
    """Untraced passes; returns the ledger, the end-to-end metric values,
    notes to print and whether any pass completed."""
    from passes import (MIN_TIMING_S, NOISE, Ledger, check_pass, library_compile,
                        per_call_seconds, reference_check, run_pass, two_qubit_gates)
    from qedc import estimate_overhead
    from speed import Scaler
    from tracing import Tracer

    ledger, off = Ledger(), Tracer(False)
    first, complete, raw_walls = None, 0, []
    m = {k: [] for k in ("pipeline_s", "compile_s", "estimate_s", "shots_per_s",
                         "kept_shots_per_s")}
    digest = None
    scaler = Scaler()

    def step_seconds(res, key, fn):
        """Scaled time of one call of a step: the step itself if it ran long
        enough, else the mean of repeats between their own gauge readings."""
        if res.times[key] >= MIN_TIMING_S:
            return res.times[key] * res.scales[key]
        return scaler.follow(lambda: per_call_seconds(fn, res.times[key]))

    start = perf_counter()
    while len(raw_walls) < MIN_PASSES or perf_counter() - start < seconds:
        res = run_pass(workload, inputs, coupling, ledger, off, scaler=scaler)
        pass_scale = scaler.next()
        digest = check_pass(workload, res, ledger, digest)
        first = first or res
        raw_walls.append(res.wall)
        # the gauged steps by their own readings, the rest of the pass by all
        gauged = sum(res.times[k] for k in res.scales)
        pass_s = (sum(res.times[k] * f for k, f in res.scales.items())
                  + (res.wall - gauged) * pass_scale)
        m["pipeline_s"].append(pass_s)
        if res.compiled is not None:
            m["compile_s"].append(step_seconds(
                res, "compile", lambda: library_compile(res.circuit, workload, coupling)))
        if "estimate" in res.times:
            m["estimate_s"].append(step_seconds(
                res, "estimate", lambda: estimate_overhead(res.handed_off, res.meta, NOISE)))
        if res.report is not None:
            complete += 1
            m["shots_per_s"].append(workload.shots / (res.times["sample"] * res.scales["sample"]))
            m["kept_shots_per_s"].append(res.report.kept_shots / pass_s)
    if first.compiled is not None:
        reference_check(first, ledger, off)
    values = {k: median_or_zero(v) for k, v in m.items()}
    values.update({
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        "compiled_2q_gates": two_qubit_gates(first.compiled) if first.compiled else 0,
        "compiled_depth": first.meta.depth if first.meta else 0,
    })
    notes = [f"passes {len(raw_walls)} ({complete} complete), shots per pass {workload.shots}, "
             f"raw median pass wall time {statistics.median(raw_walls):.4g} s"]
    return ledger, values, notes, complete > 0


def traced_run(workload, inputs, coupling, seconds, seed):
    """Untraced and traced passes in turn, then one CLI pass; returns the
    ledger, the per-layer metric values, notes to print and whether the
    warm-up pass completed."""
    from passes import (Ledger, check_pass, keep_rate_z, reference_check, run_pass,
                        work_counts)
    from traced import cli_pass, decomposed_compile, payload_tableau_seconds, same_compile
    from speed import Scaler
    from tracing import Tracer, layer_self_times, span_durations

    ledger, off, tracer = Ledger(), Tracer(False), Tracer(True)
    untraced, traced, scales, found = [], [], {}, []

    def split_compile(circ, wl, graph):
        return decomposed_compile(circ, wl, graph, tracer, found)

    # the first pass of a process runs slower; it is the library reference
    # for the CLI pass and is left out of the tracing overhead
    lib = run_pass(workload, inputs, coupling, ledger, off)
    digest = check_pass(workload, lib, ledger, None)
    scaler = Scaler()
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain = run_pass(workload, inputs, coupling, ledger, off)
        digest = check_pass(workload, plain, ledger, digest)
        untraced.append(plain.wall * scaler.next())
        tracer.pass_id += 1
        res = run_pass(workload, inputs, coupling, ledger, tracer, compile_fn=split_compile)
        digest = check_pass(workload, res, ledger, digest)
        if res.compiled is not None and lib.qasm is not None:
            ok, why = same_compile((res.compiled, res.meta), lib)
            ledger.check("decomposed-compile", ok, why)
        scales[tracer.pass_id] = scaler.next()
        traced.append(res.wall * scales[tracer.pass_id])

    complete = lib.report is not None
    values = {}
    ref = {}
    if complete:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.pass_id += 1
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            cli_times = cli_pass(workload, inputs, coupling, lib, ledger, tracer, workdir)
        scale = scaler.next()
        values.update({k: t * scale for k, t in cli_times.items()})
        tracer.pass_id += 1
        reference_check(lib, ledger, tracer)
        tableau_s = payload_tableau_seconds(lib)
        scale = scaler.next()
        ref = span_durations(tracer, {tracer.pass_id: scale})
        values["clifford.payload_tableau_s"] = tableau_s * scale
        values.update(work_counts(lib))

    dur = span_durations(tracer, scales)
    own = layer_self_times(tracer, scales)
    shots = workload.shots
    est, rep = lib.estimate, lib.report
    values.update({
        "simulator.sample_s": dur.get("simulator.sample", 0.0),
        "simulator.us_per_shot": dur.get("simulator.sample", 0.0) / shots * 1e6,
        "pcs.synthesize_checks_s": dur.get("pcs.synthesize_checks", 0.0),
        "pcs.insert_s": dur.get("pcs.insert_pcs", 0.0),
        "layout.vf2_s": dur.get("layout.vf2_layouts", 0.0),
        "layout.layouts_found": found[0] if found else 0,
        "layout.route_s": dur.get("layout.route", 0.0),
        "layout.schedule_s": dur.get("layout.schedule", 0.0),
        "iceberg.build_s": dur.get("iceberg.build_iceberg_circuit", 0.0),
        "analysis.select_code_s": dur.get("analysis.select_code", 0.0),
        "analysis.region_s": dur.get("analysis.largest_clifford_region", 0.0),
        "analysis.interaction_graph_s": dur.get("analysis.interaction_graph", 0.0),
        "postprocess.estimate_s": dur.get("postprocess.estimate_overhead", 0.0),
        "postprocess.predicted_keep_rate": est.keep_rate if est else 0.0,
        "postprocess.postselect_s": dur.get("postprocess.postselect", 0.0),
        "postprocess.observed_keep_rate": rep.keep_rate if rep else 0.0,
        "postprocess.keep_rate_z": keep_rate_z(rep, est) if est and rep else 0.0,
        "qasm.parse_s": dur.get("qasm.parse_input", 0.0) + dur.get("qasm.parse_compiled", 0.0),
        "qasm.emit_s": dur.get("qasm.emit_qasm", 0.0),
        "stabilizer.reference_run_s": ref.get("stabilizer.stabilizer_run", 0.0),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.spans": len(tracer.spans),
    })
    for layer in ("pipeline", "qasm", "analysis", "pcs", "iceberg", "layout",
                  "postprocess", "simulator"):
        values[f"self.{layer}_s"] = own.get(layer, 0.0)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(spans_path)
    notes = [f"traced passes {len(traced)}, untraced passes {len(untraced)} after one "
             f"warm-up pass, "
             f"spans written to {spans_path.relative_to(ROOT)}"]
    return ledger, values, notes, complete


def load_metric_specs(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qedc" / "__init__.py").is_file():
        print(f"error: no qedc sources at {SRC}; run from a qedc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    specs = load_metric_specs(args.trace)

    from qedc import heavy_hex_127

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    coupling = heavy_hex_127() if workload.heavy_hex else None
    if args.trace:
        ledger, values, notes, complete = traced_run(
            workload, inputs, coupling, args.seconds, args.seed)
    else:
        ledger, values, notes, complete = timed_run(workload, inputs, coupling, args.seconds)
        values["setup_s"] = setup_seconds(args.workload, args.seed)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not complete:  # no pass got through; what was not measured reads 0
        values = {s["name"]: values.get(s["name"], 0.0) for s in specs}
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} distinct operations)")
    for what, times in ledger.failures.items():
        print(f"  {what}: failed {times} of {ledger.calls[what]} times")
    for reason, times in Counter(ledger.reasons).items():
        print(f"  {times} x {reason}")
    print(json.dumps({
        "correct": complete and ledger.failed_checks == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
