"""Pieces of the traced run: `compile_circuit` split into the public calls it
makes, and one pass driven through `qedc.cli.main`."""
from __future__ import annotations

import json
import os
from time import perf_counter

from qedc import (
    build_iceberg_circuit,
    emit_qasm,
    fallback_layout,
    insert_pcs,
    interaction_graph,
    largest_clifford_region,
    route,
    schedule,
    select_code,
    synthesize_checks,
    tableau_from_circuit,
    vf2_layouts,
)
from qedc import cli
from qedc.pipeline import CompilationMeta, protected_qubits

from passes import NOISE, per_call_seconds


def decomposed_compile(circ, workload, coupling, tracer, found_layouts: list):
    """`compile_circuit(circ, code="auto", checks=..., coupling=...)` as the
    calls `qedc.pipeline` makes, in its order, one span each.

    Appends the number of VF2 layouts found to `found_layouts`."""
    with tracer.span("analysis.select_code"):
        code = select_code(circ).code.lower()
    if code == "pcs":
        with tracer.span("analysis.largest_clifford_region"):
            region = largest_clifford_region(circ)
        payload = circ.instructions[region.start:region.end]
        with tracer.span("pcs.synthesize_checks"):
            pairs = synthesize_checks(payload, region.qubits, workload.checks)
        with tracer.span("pcs.insert_pcs"):
            compiled, code_meta = insert_pcs(circ, region, pairs)
    elif code == "iceberg":
        with tracer.span("iceberg.build_iceberg_circuit"):
            compiled, code_meta = build_iceberg_circuit(circ, cycles=workload.checks)
    else:
        raise ValueError(f"workload {workload.name} selected code {code!r}")
    meta = CompilationMeta(code, code_meta, None, 0, 0)

    if coupling is not None:
        with tracer.span("analysis.interaction_graph"):
            ig = interaction_graph(compiled)
        with tracer.span("layout.vf2_layouts"):
            found = vf2_layouts(ig, compiled.num_qubits, coupling, limit=10)
        found_layouts.append(len(found))
        if found:
            lay = found[0]
        else:
            with tracer.span("layout.fallback_layout"):
                lay = fallback_layout(ig, compiled.num_qubits, coupling)
        with tracer.span("layout.route"):
            routed = route(compiled, lay, coupling, protected_qubits(compiled, meta))
        compiled = routed.circuit
        meta.layout = lay
        meta.swap_count = routed.swap_count

    with tracer.span("layout.schedule"):
        meta.depth = schedule(compiled).depth
    return compiled, meta


def payload_tableau_seconds(res) -> float:
    """Time of `tableau_from_circuit` on the PCS payload; 0 on other codes."""
    if res.meta.code != "pcs":
        return 0.0
    start, end = res.meta.code_meta.payload_region
    payload, n = res.circuit.instructions[start:end], res.circuit.num_qubits
    t0 = perf_counter()
    tableau_from_circuit(payload, n)
    return per_call_seconds(lambda: tableau_from_circuit(payload, n), perf_counter() - t0)


def cli_pass(workload, inputs, coupling, library, ledger, tracer, workdir) -> dict[str, float]:
    """Drive analyze, compile, run and postselect through `qedc.cli.main` in
    `workdir`, time each, and check its files equal the library's output."""
    def path(name):
        return os.path.join(workdir, name)

    def write(name, text):
        with open(path(name), "w") as fh:
            fh.write(text)

    def read_json(name):
        with open(path(name)) as fh:
            return json.load(fh)

    write("input.qasm", inputs.qasm)
    write("noise.json", json.dumps(NOISE.to_dict()))
    compile_args = ["compile", path("input.qasm"), "--code", "auto",
                    "--checks", str(workload.checks),
                    "--out", path("compiled.qasm"), "--meta-out", path("meta.json")]
    if coupling is not None:
        write("coupling.json", json.dumps(coupling.to_dict()))
        compile_args += ["--coupling", path("coupling.json")]
    commands = [
        ("analyze", ["analyze", path("input.qasm"), "--out", path("analyze.json")]),
        ("compile", compile_args),
        ("run", ["run", path("compiled.qasm"), "--noise", path("noise.json"),
                 "--shots", str(workload.shots), "--seed", str(inputs.sample_seed),
                 "--out", path("counts.json")]),
        ("postselect", ["postselect", "--counts", path("counts.json"),
                        "--meta", path("meta.json"), "--out", path("report.json")]),
    ]
    times = {}
    for name, argv in commands:
        t0 = perf_counter()
        with tracer.span(f"cli.{name}"):
            ok, status = ledger.call(f"cli {name}", cli.main, argv)
        times[f"cli.{name}_s"] = perf_counter() - t0
        if not (ok and ledger.check(f"cli-{name}-exit", status == 0, f"exit code {status}")):
            return times

    with open(path("compiled.qasm")) as fh:
        ledger.check("cli-compiled", fh.read() == library.qasm,
                     "CLI compiled QASM differs from emit_qasm(compile_circuit(...))")
    ledger.check("cli-meta", read_json("meta.json") == json.loads(json.dumps(library.meta.to_dict())),
                 "CLI meta differs from the library's CompilationMeta")
    ledger.check("cli-counts", read_json("counts.json")["counts"] == library.counts,
                 "CLI counts differ from sample(...) with the same seed")
    if library.report is not None:
        ledger.check("cli-report",
                     read_json("report.json") == json.loads(json.dumps(library.report.to_dict())),
                     "CLI postselection report differs from the library's")
    return times


def same_compile(decomposed, library) -> tuple[bool, str]:
    """Whether the decomposed compile reproduced compile_circuit exactly."""
    if emit_qasm(decomposed[0]) != library.qasm:
        return False, "emitted QASM differs"
    if decomposed[1].to_dict() != library.meta.to_dict():
        return False, "metadata differs"
    return True, ""
