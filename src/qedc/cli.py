"""Command-line pipeline driver: analyze, compile, run, estimate,
postselect, extrapolate, exchanging OpenQASM and JSON files between stages."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .analysis import find_clifford_regions, interaction_graph, select_code
from .iceberg import IcebergMeta
from .layout import CouplingGraph
from .pcs import PcsMeta
from .pipeline import CompilationMeta, CompileError, compile_circuit
from .postprocess import (
    PostprocessError,
    estimate_overhead,
    extrapolate_checks,
    postselect_counts,
    postselect_counts_iceberg,
)
from .qasm import QasmError, emit_qasm, parse_qasm
from .simulator import NoiseModel, SimulationError, sample

EXIT_IO = 1
EXIT_PARSE = 2
EXIT_COMPILE = 3
EXIT_SIM = 4


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc}", EXIT_IO) from exc
    except UnicodeDecodeError as exc:
        raise CliError("parse", f"{path} is not UTF-8 text: {exc}", EXIT_PARSE) from exc


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError("parse", f"invalid JSON in {path}: {exc}", EXIT_PARSE) from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError("io", f"cannot write {path}: {exc}", EXIT_IO) from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_circuit(path: str):
    text = _read_text(path)
    try:
        return parse_qasm(text)
    except QasmError as exc:
        raise CliError(exc.code, str(exc), EXIT_PARSE) from exc


def _default_seed() -> int:
    value = os.environ.get("QED_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise CliError("parse", f"QED_SEED must be an integer, got {value!r}", EXIT_PARSE) from None


def cmd_analyze(args) -> int:
    circ = _parse_circuit(args.input)
    regions = [
        {
            "start": r.start,
            "end": r.end,
            "qubits": sorted(r.qubits),
            "two_qubit_count": r.two_qubit_count,
            "is_clifford": r.is_clifford,
        }
        for r in find_clifford_regions(circ)
    ]
    ig = interaction_graph(circ)
    out = {
        "num_qubits": circ.num_qubits,
        "regions": regions,
        "interaction_graph": {
            "nodes": circ.num_qubits,
            "edges": [[a, b, w] for (a, b), w in sorted(ig.items())],
        },
        "code_choice": select_code(circ).to_dict(),
    }
    _write_text(args.out, _dump_json(out))
    return 0


def cmd_compile(args) -> int:
    circ = _parse_circuit(args.input)
    coupling = None
    if args.coupling:
        try:
            coupling = CouplingGraph.from_dict(_read_json(args.coupling))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError("parse", f"bad coupling file: {exc}", EXIT_PARSE) from exc
    try:
        compiled, meta = compile_circuit(
            circ, code=args.code, checks=args.checks, coupling=coupling
        )
    except CompileError as exc:
        raise CliError(exc.reason, str(exc), EXIT_COMPILE) from exc
    _write_text(args.out, emit_qasm(compiled))
    _write_text(args.meta_out, _dump_json(meta.to_dict()))
    return 0


def _read_noise(path: str) -> NoiseModel:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise CliError("parse", "noise file must hold a noise model object", EXIT_PARSE)
    try:
        return NoiseModel.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError("parse", f"bad noise file: {exc}", EXIT_PARSE) from exc


def _read_meta(path: str) -> CompilationMeta:
    try:
        return CompilationMeta.from_dict(_read_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError("parse", f"bad meta file: {exc}", EXIT_PARSE) from exc


def cmd_run(args) -> int:
    circ = _parse_circuit(args.input)
    noise = _read_noise(args.noise) if args.noise else NoiseModel()
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        counts = sample(circ, shots=args.shots, noise=noise, seed=seed)
    except SimulationError as exc:
        raise CliError("simulation", str(exc), EXIT_SIM) from exc
    except ValueError as exc:
        raise CliError("bad-parameters", str(exc), EXIT_SIM) from exc
    out = {"shots": args.shots, "counts": dict(sorted(counts.items()))}
    _write_text(args.out, _dump_json(out))
    return 0


def cmd_estimate(args) -> int:
    circ = _parse_circuit(args.input)
    meta, noise = _read_meta(args.meta), _read_noise(args.noise)
    if meta.code_meta is None:
        raise CliError("no-detection-code", "meta carries no detection code", EXIT_COMPILE)
    try:
        est = estimate_overhead(circ, meta, noise)
    except (PostprocessError, ValueError, IndexError) as exc:
        raise CliError("mismatch", f"circuit does not match meta: {exc}", EXIT_COMPILE) from exc
    multiplier = est.expected_shot_multiplier
    out = {
        "keep_rate": est.keep_rate,
        "expected_shot_multiplier": multiplier if math.isfinite(multiplier) else None,
        "detectable_fraction_by_gate": est.detectable_fraction_by_gate,
    }
    if isinstance(meta.code_meta, PcsMeta):
        out["scope"] = "upper bound: faults outside the PCS payload count as undetected"
    _write_text(args.out, _dump_json(out))
    return 0


def cmd_postselect(args) -> int:
    data = _read_json(args.counts)
    counts = data.get("counts", data) if isinstance(data, dict) else None
    if not isinstance(counts, dict):
        raise CliError("parse", "counts file must hold a counts object", EXIT_PARSE)
    for key, cnt in counts.items():
        if type(cnt) is not int or cnt < 0:
            raise CliError("parse", f"count of {key!r} is {cnt!r}, not a non-negative integer",
                           EXIT_PARSE)
    meta = _read_meta(args.meta)
    try:
        if isinstance(meta.code_meta, PcsMeta):
            report = postselect_counts(counts, meta.code_meta, meta.code_meta.cregs())
        elif isinstance(meta.code_meta, IcebergMeta):
            report = postselect_counts_iceberg(counts, meta.code_meta, meta.code_meta.cregs())
        else:
            raise CliError("no-detection-code", "meta carries no detection code", EXIT_COMPILE)
    except (PostprocessError, ValueError, IndexError) as exc:
        raise CliError("mismatch", f"counts do not match meta: {exc}", EXIT_COMPILE) from exc
    _write_text(args.out, _dump_json(report.to_dict()))
    return 0


def cmd_extrapolate(args) -> int:
    data = _read_json(args.series)
    try:
        series = [
            (pt["m"], float(pt["value"]), float(pt.get("stderr", 0.0) or 0.0))
            for pt in data
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError("parse", f"bad series file: {exc}", EXIT_PARSE) from exc
    for m, _, _ in series:
        if type(m) is not int or m < 0:
            raise CliError("parse", f"check count m is {m!r}, not a non-negative integer",
                           EXIT_PARSE)
    try:
        result = extrapolate_checks(series)
    except PostprocessError as exc:
        raise CliError("bad-series", str(exc), EXIT_COMPILE) from exc
    out = {
        "model": "exponential",
        "estimate": result.value,
        "fitted_params": {
            "e_inf": result.value,
            "amplitude": result.amplitude,
            "rate": result.rate,
        },
        "residual": result.residual,
        "degenerate": result.degenerate,
    }
    _write_text(args.out, _dump_json(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qedc", description="error detection compiler pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="report Clifford regions and the code choice")
    a.add_argument("input")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("compile", help="insert detection circuitry and map to hardware")
    c.add_argument("input")
    c.add_argument("--code", choices=("auto", "pcs", "iceberg", "none"), default="auto")
    c.add_argument("--checks", type=int, default=2,
                   help="check pairs for pcs, syndrome cycles for iceberg")
    c.add_argument("--coupling", default=None, help="coupling graph JSON file")
    c.add_argument("--out", required=True)
    c.add_argument("--meta-out", required=True)
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("run", help="simulate with Monte-Carlo depolarizing noise")
    r.add_argument("input")
    r.add_argument("--noise", default=None, help="noise model JSON file")
    r.add_argument("--shots", type=int, default=10000)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run)

    m = sub.add_parser("estimate", help="predict the keep rate under depolarizing noise")
    m.add_argument("input")
    m.add_argument("--meta", required=True)
    m.add_argument("--noise", required=True, help="noise model JSON file")
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_estimate)

    s = sub.add_parser("postselect", help="filter counts on detection outcomes")
    s.add_argument("--counts", required=True)
    s.add_argument("--meta", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_postselect)

    e = sub.add_parser("extrapolate", help="fit the infinite-check limit")
    e.add_argument("--series", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_extrapolate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(_dump_json({"error": exc.code, "message": str(exc)}))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
