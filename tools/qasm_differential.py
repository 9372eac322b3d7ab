"""Differential test of `parse_qasm`: a parent revision against this checkout.

    python3 tools/qasm_differential.py --parent HEAD~1 --seeds 1 2 3 4 --mutations 5000

The parent side is the `--parent` revision, exported with `git archive` into
a temporary directory that is removed afterwards; the change side is this
checkout's `src/` as it is on disk.  Both sides parse the same texts:
- every string constant of `tests/*.py` that looks like QASM (see `texts_of_tests`);
- the benchmark's workload texts, each as input and as compiled by this
  checkout (see `workload_texts`);
- for each seed, `--mutations` programs, each one of those texts after 1 to 3
  random edits (see `mutate`).

Each side runs in its own interpreter, with its own `src/` first on the path,
and prints one outcome per text (see `outcome`): the circuit it gave, as an
instruction count and a digest, or the error's code, line and column.  A text
whose two outcomes differ is a mismatch.  The script prints the number of
texts, how many gave a circuit, an error or a crash on both sides, and then
every mismatch with its text; it exits 1 if there was any.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_revision

# characters an inserted or replacing character is drawn from
ALPHABET = "qc[]();,->/ \n\t0123456789.eE+-_hxszrmpi\"*"
# the kinds of edit `mutate` draws from
EDITS = ("delete", "insert", "replace", "delete token", "insert token", "replace token",
         "split", "join", "cut")
# the tokens a token edit works on
TOKEN = re.compile(r"[A-Za-z_]\w*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|->|//|\S")
# characters of a mismatched text that are printed
SHOWN = 400


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--mutations", type=int, default=5000, help="mutated programs per seed")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    ap.add_argument("--bases", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.mutations < 0:
        ap.error("--mutations must not be negative")
    return args


def mutate(text: str, rng: random.Random) -> str:
    """`text` after 1 to 3 random edits, each one of `EDITS`: a character or
    a token deleted, inserted or replaced (a token by another token of the
    text), a line split or joined, or the text cut short."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        tokens = [m.span() for m in TOKEN.finditer(text)]
        newlines = [i for i, ch in enumerate(text) if ch == "\n"]
        edit = rng.choice(EDITS)
        if edit in ("delete", "insert", "replace"):
            new = "" if edit == "delete" else rng.choice(ALPHABET)
            text = text[:pos] + new + text[pos + (edit != "insert"):]
        elif edit.endswith("token") and tokens:
            start, end = rng.choice(tokens)
            new = "" if edit == "delete token" else text[slice(*rng.choice(tokens))]
            text = text[:start] + new + text[start if edit == "insert token" else end:]
        elif edit == "split":
            text = text[:pos] + "\n" + text[pos:]
        elif edit == "join" and newlines:
            join = rng.choice(newlines)
            text = text[:join] + text[join + 1:]
        elif edit == "cut":
            text = text[:pos]
    return text


def programs(bases: list[str], seeds: list[int], mutations: int):
    """The bases, then for each seed `mutations` mutated programs, each of a
    base drawn with that seed."""
    yield from bases
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(mutations):
            yield mutate(rng.choice(bases), rng)


def outcome(text: str) -> str:
    """`circuit N DIGEST` for a text that parses to N instructions, `error
    CODE LINE:COL` for a QasmError and `crash TYPE` for any other exception.
    DIGEST hashes the repr of the registers and instructions, so it tells
    apart even a 0.0 and a -0.0 parameter."""
    from qedc.qasm import QasmError, parse_qasm

    try:
        circ = parse_qasm(text)
    except QasmError as exc:
        return f"error {exc.code} {exc.line}:{exc.col}"
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome to compare too
        return f"crash {type(exc).__name__}"
    body = repr((circ.qregs, circ.cregs, circ.instructions)).encode()
    return f"circuit {len(circ.instructions)} {hashlib.sha256(body).hexdigest()[:16]}"


def texts_of_tests(root: Path = ROOT) -> list[str]:
    """The string constants of `root/tests/*.py` that hold a `;` and `qreg`
    or `OPENQASM`, in file order."""
    texts = []
    for path in sorted((root / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if ";" in node.value and ("qreg" in node.value or "OPENQASM" in node.value):
                    texts.append(node.value)
    return texts


def workload_texts(root: Path = ROOT) -> list[str]:
    """Each benchmark workload's input text and the text `emit_qasm` writes
    for it after `compile_circuit`, with the benchmark's settings."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import WORKLOADS

    from qedc import compile_circuit, emit_qasm, heavy_hex_127, parse_qasm

    texts = []
    for workload in WORKLOADS.values():
        text = workload.qasm()
        coupling = heavy_hex_127() if workload.heavy_hex else None
        compiled, _ = compile_circuit(parse_qasm(text), code="auto", checks=workload.checks,
                                      coupling=coupling)
        texts += [text, emit_qasm(compiled)]
    return texts


def worker(args) -> int:
    """Prints the outcome of each program, one a line, parsed with the qedc
    of `args.worker`."""
    sys.path.insert(0, args.worker)
    bases = json.loads(args.bases.read_text())
    for text in programs(bases, args.seeds, args.mutations):
        print(outcome(text))
    return 0


def outcomes(src: Path, bases: Path, args) -> list[str]:
    """The outcome of each program, parsed by a worker with the qedc of `src`."""
    cmd = [sys.executable, __file__, "--worker", str(src), "--bases", str(bases),
           "--mutations", str(args.mutations), "--seeds", *map(str, args.seeds)]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    bases = texts_of_tests() + workload_texts()
    tmp = Path(tempfile.mkdtemp(prefix="qasm_differential_"))
    try:
        (tmp / "bases.json").write_text(json.dumps(bases))
        export_revision(ROOT, args.parent, tmp / "parent")
        parent = outcomes(tmp / "parent" / "src", tmp / "bases.json", args)
        change = outcomes(ROOT / "src", tmp / "bases.json", args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    mismatches = {i: (p, c) for i, (p, c) in enumerate(zip(parent, change)) if p != c}
    equal = [p.split()[0] for p, c in zip(parent, change) if p == c]
    total = len(bases) + len(args.seeds) * args.mutations
    print(f"parent {args.parent}: {total} texts ({len(bases)} bases, {len(args.seeds)} seeds x "
          f"{args.mutations} mutations); equal outcomes: "
          + ", ".join(f"{equal.count(kind)} {kind}" for kind in ("circuit", "error", "crash"))
          + f"; mismatches: {len(mismatches)}")
    for i, text in enumerate(programs(bases, args.seeds, args.mutations)):
        if i in mismatches:
            print(f"text {i}: parent {mismatches[i][0]}, change {mismatches[i][1]}\n"
                  f"  {text[:SHOWN]!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
