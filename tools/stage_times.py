"""Time each public stage of one benchmark pass on its own.

    python3 tools/stage_times.py --workload iceberg_qaoa --seed 1 --repeats 7 --calls 20

The input is the workload's, made by the benchmark's own `workloads`
module, and the noise is the benchmark's.  One untimed pass runs the stages
in order: parse the input, `compile_circuit` (code "auto"), `emit_qasm`,
parse the emitted text (the hand-off), `estimate_overhead`, `sample` and
postselect.  Then each stage is timed alone on the outputs of the stages
before it: its time is the best, over `--repeats` repeats, of the mean of
`--calls` calls in a row.  The script prints one JSON line with the
workload, the seed, the repeats and calls, each stage's milliseconds (null
for a stage that raised, whose error is under `errors`: on pcs_heavyhex
`estimate_overhead` raises for a routed PCS compile) and the fields of the
record `sample` logs at DEBUG (backend, shots, faulty and simulated shots,
statevector passes and amplitudes, noisy instructions).

Under `compile_stages` it times, the same way, each public call that
`compile_circuit` makes, in its order: `select_code` and the
`largest_clifford_region` it runs; `synthesize_checks` and `insert_pcs`, or
`build_iceberg_circuit`; on a routed workload `interaction_graph`,
`vf2_layouts`, `fallback_layout` (only where VF2 finds no layout) and
`route`; and `schedule`.  Each is bound to the outputs of one untimed run of
those calls, whose circuit must be the one `compile_circuit` gives; if it is
not, or the compile raised, `compile_stages` is null and the reason is
under `errors`.  Under `route` it prints the record `route` logs at DEBUG
during one `compile_circuit` (non-local gates, SWAPs, and the paths read
off the hop table and searched), null where the compile routes nothing.
Under `compiled` it prints the size of the compiled circuit: instructions,
two-qubit gates (SWAPs included, barriers not, as the benchmark counts
them), depth, SWAPs and the instructions the benchmark's noise makes noisy;
null if the compile raised.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from passes import NOISE, two_qubit_gates  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

import qedc  # noqa: E402
from qedc import CompilationMeta  # noqa: E402
from qedc.pipeline import protected_qubits  # noqa: E402

STAGES = ("parse", "compile", "emit", "handoff", "estimate", "sample", "postselect")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--calls", type=int, default=20)
    args = ap.parse_args(argv)
    if args.repeats < 1 or args.calls < 1:
        ap.error("--repeats and --calls must be at least 1")
    return args


def stage_calls(workload, inputs, coupling):
    """Each stage's call, bound to the outputs of one untimed pass, or the
    error it raised; a stage whose input is missing gets that as its error."""
    out, calls, errors = {}, {}, {}

    def postselect():
        meta = out["meta"]
        if meta.code == "iceberg":
            return qedc.postselect_counts_iceberg(out["sample"], meta.code_meta, out["handoff"].cregs)
        return qedc.postselect_counts(out["sample"], meta.code_meta)

    steps = {
        "parse": (lambda: qedc.parse_qasm(inputs.qasm), ()),
        "compile": (lambda: qedc.compile_circuit(out["parse"], code="auto", checks=workload.checks,
                                                 coupling=coupling), ("parse",)),
        "emit": (lambda: qedc.emit_qasm(out["compile"][0]), ("compile",)),
        "handoff": (lambda: qedc.parse_qasm(out["emit"]), ("emit",)),
        "estimate": (lambda: qedc.estimate_overhead(out["handoff"], out["meta"], NOISE), ("handoff",)),
        "sample": (lambda: qedc.sample(out["handoff"], noise=NOISE, shots=workload.shots,
                                       seed=inputs.sample_seed), ("handoff",)),
        "postselect": (postselect, ("sample",)),
    }
    for name in STAGES:
        call, needs = steps[name]
        missing = [need for need in needs if need not in out]
        if missing:
            errors[name] = f"not run: {missing[0]} did not complete"
            continue
        try:
            out[name] = call()
        except Exception as exc:  # reported, like the benchmark's failed operations
            errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        calls[name] = call
        if name == "compile":  # the meta file's hand-off, as the CLI makes it
            out["meta"] = CompilationMeta.from_dict(json.loads(json.dumps(out["compile"][1].to_dict())))
    return calls, errors


def compile_calls(workload, circ, coupling):
    """Each public call of `compile_circuit(circ, code="auto")`, bound to the
    outputs of one untimed run of them, and the circuit that run compiles."""
    calls = {}

    def run(name, call):
        calls[name] = call
        return call()

    code = run("select_code", lambda: qedc.select_code(circ)).code.lower()
    region = run("largest_clifford_region", lambda: qedc.largest_clifford_region(circ))
    if code == "pcs":
        payload = circ.instructions[region.start:region.end]
        pairs = run("synthesize_checks", lambda: qedc.synthesize_checks(payload, region.qubits, workload.checks))
        encoded, code_meta = run("insert_pcs", lambda: qedc.insert_pcs(circ, region, pairs))
    else:
        encoded, code_meta = run("build_iceberg_circuit",
                                 lambda: qedc.build_iceberg_circuit(circ, cycles=workload.checks))
    compiled = encoded
    if coupling is not None:
        n = encoded.num_qubits
        graph = run("interaction_graph", lambda: qedc.interaction_graph(encoded))
        found = run("vf2_layouts", lambda: qedc.vf2_layouts(graph, n, coupling, limit=1))
        layout = found[0] if found else run("fallback_layout", lambda: qedc.fallback_layout(graph, n, coupling))
        protected = protected_qubits(encoded, CompilationMeta(code, code_meta, None, 0, 0))
        compiled = run("route", lambda: qedc.route(encoded, layout, coupling, protected)).circuit
    run("schedule", lambda: qedc.schedule(compiled))
    return calls, compiled


def compile_stage_ms(workload, calls, errors, coupling, repeats: int, count: int):
    """Milliseconds of each of `compile_calls`, or None with the reason under
    `errors["compile_stages"]`."""
    if "compile" not in calls:
        errors["compile_stages"] = "not run: compile did not complete"
        return None
    stages, compiled = compile_calls(workload, calls["parse"](), coupling)
    if qedc.emit_qasm(compiled) != qedc.emit_qasm(calls["compile"]()[0]):
        errors["compile_stages"] = "the stages compile another circuit than compile_circuit"
        return None
    return {name: round(best_ms(call, repeats, count), 4) for name, call in stages.items()}


def compiled_size(circ, meta) -> dict:
    """The size of a compiled circuit, as the benchmark counts it."""
    return {
        "instructions": len(circ.instructions),
        "two_qubit_gates": two_qubit_gates(circ),
        "depth": meta.depth,
        "swaps": meta.swap_count,
        "noisy_instructions": sum(1 for inst in circ.instructions if NOISE.gate_error(inst) > 0),
    }


def best_ms(call, repeats: int, calls: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (perf_counter() - t0) / calls)
    return best * 1e3


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def debug_record(name: str, call) -> dict | None:
    """The last JSON record that the `name` logger logs at DEBUG during one
    `call`, or None if it logs none."""
    logger = logging.getLogger(name)
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        call()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return json.loads(handler.messages[-1]) if handler.messages else None


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    coupling = qedc.heavy_hex_127() if workload.heavy_hex else None
    calls, errors = stage_calls(workload, inputs, coupling)
    compile_stages = compile_stage_ms(workload, calls, errors, coupling, args.repeats, args.calls)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "repeats": args.repeats,
        "calls": args.calls,
        "ms": {name: round(best_ms(calls[name], args.repeats, args.calls), 4) if name in calls else None
               for name in STAGES},
        "compile_stages": compile_stages,
        "compiled": compiled_size(*calls["compile"]()) if "compile" in calls else None,
        "route": debug_record("qedc.layout", calls["compile"]) if "compile" in calls else None,
        "errors": errors,
        "sample": debug_record("qedc.simulator", calls["sample"]) if "sample" in calls else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
