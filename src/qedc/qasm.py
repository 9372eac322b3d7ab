"""Parser and emitter for a textual OpenQASM 2 subset.

Supported statements: the version header, include lines (ignored), qreg/creg
declarations, the fixed gate vocabulary of `circuit.GATE_SPECS`, barrier,
reset, and `measure a -> b`.  u1/u2/u3 are accepted as sugar and immediately
rewritten into rz/rx/rz Euler form.

Single-qubit gates, reset, and measure broadcast over whole registers when
given a bare register name.

A statement written as `emit_qasm` writes it (`name(p,...) a[i];`,
`name a[i],b[j];` or `measure a[i] -> c[j];`, each parameter a plain number)
is read by one regex match and becomes an instruction at once, if it is
valid.  Anything else, including every statement that holds an error, falls
through to the general path at the same offset.  There each statement is read
by one regex match and each operand by another; only a gate's parameter list
is split into tokens.  An error's line and column are worked out from its
offset when it is raised.
"""
from __future__ import annotations

import math
import operator
import re

from .circuit import Circuit, GATE_SPECS, Instruction, Register

# Blanks: whitespace and // comments.  A comment must run to the end of its
# line, so that a failed match cannot backtrack into it and read code there.
_BLANK = r"(?:\s|//[^\n]*(?![^\n]))*"
_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_ID = r"[A-Za-z_][A-Za-z0-9_]*"


def _upto(*pieces: str) -> str:
    """The pieces in order after blanks, where a match may stop after any one:
    it then ends just after its last good token, where the syntax error is."""
    tail = ""
    for piece in reversed(pieces):
        tail = f"(?:{_BLANK}{piece}{tail})?"
    return tail


_SKIP_BLANKS = re.compile(_BLANK)
_HEADER = re.compile(rf"{_BLANK}OPENQASM\b" + _upto(_NUMBER, "(?P<end>;)"))
_STATEMENT = re.compile(
    rf"{_BLANK}(?:(?P<include>include)\b" + _upto('"[^"]*"', "(?P<included>;)")
    + r"|(?P<decl>[qc]reg)\b"
    + _upto(f"(?P<reg>{_ID})", r"\[", f"(?P<size>{_NUMBER})", r"\]", "(?P<declared>;)")
    + f"|(?P<name>{_ID})" + _upto(r"(?P<paren>\()") + r"|\Z)"
)
# a statement in emit_qasm's form: a gate on one or two indexed operands, or
# measure; `sep` is None for one operand
_EMITTED = re.compile(
    rf"\s*(?P<name>{_ID})(?:\((?P<params>-?{_NUMBER}(?:,-?{_NUMBER})*)\))? "
    rf"(?P<a>{_ID})\[(?P<i>\d+)\](?:(?P<sep>,| -> )(?P<b>{_ID})\[(?P<j>\d+)\])?;"
)
# `reg` or `reg[idx]`, then its separator; `close` is None when a bracket is left open
_OPERAND = re.compile(
    rf"{_BLANK}(?P<reg>{_ID})(?:{_BLANK}(?P<bracket>\[)"
    + _upto(f"(?P<idx>{_NUMBER})", r"(?P<close>\])") + ")?" + _upto("(?P<sep>[,;]|->)")
)
# `->` and `//` are single tokens, never a minus or a division
_PARAM_TOKEN = re.compile(
    rf"{_BLANK}(?:(?P<number>{_NUMBER})|(?P<name>{_ID})|(?P<symbol>[+*(),]|-(?!>)|/(?!/)))"
)
# the tokens of the language and the blanks between them, tried in lexer order
_LEXEMES = re.compile(rf"(?:\s+|//[^\n]*|{_NUMBER}|{_ID}|" + r'"[^"]*"|->|[\[\](){};,*/+-])*')

_U_SUGAR = {"u1": 1, "u2": 2, "u3": 3}


class QasmError(Exception):
    """Parse failure with a stable diagnostic code and source position."""

    def __init__(self, code: str, message: str, line: int, col: int):
        super().__init__(f"{code} at line {line}, col {col}: {message}")
        self.code = code
        self.message = message
        self.line = line
        self.col = col


def _error(text: str, code: str, message: str, at: int) -> QasmError:
    """The error at offset `at`, unless a character of the text starts no
    token: that one is reported, wherever it is, as by a lexer that reads the
    whole text before parsing."""
    bad = _LEXEMES.match(text).end()
    if bad < len(text):
        code = "syntax"
        message = f"unexpected character {text[bad]!r}"
        at = bad
    return QasmError(code, message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _unexpected(text: str, end: int) -> QasmError:
    """The syntax error for what follows `end`, the end of the last good
    token; at the end of the input it points at that token."""
    at = _SKIP_BLANKS.match(text, end).end()
    if at < len(text):
        return _error(text, "syntax", f"unexpected {text[at]!r}", at)
    # a string is the one token that may span lines: point at its start
    last = text.rfind('"', 0, end - 1) if text[end - 1] == '"' else end - 1
    return _error(text, "syntax", "unexpected end of input", last)


def _integer(text: str, m: re.Match, group: str) -> int:
    try:
        return int(m[group])
    except ValueError:
        raise _error(text, "syntax", f"expected an integer, got {m[group]!r}", m.start(group)) from None


def _token(text: str, pos: int) -> tuple[str | None, str, int]:
    """The kind and text of the parameter token after `pos`, and the offset
    after it; the kind is None where no such token starts."""
    m = _PARAM_TOKEN.match(text, pos)
    if m is None:
        return None, "", pos
    return m.lastgroup, m[m.lastgroup], m.end()


def _parameters(text: str, pos: int) -> tuple[list[float], int]:
    """The values of the parameter list whose '(' ends at `pos`, and the offset
    after its ')'."""
    values = []
    while True:
        value, pos = _expression(text, pos)
        values.append(value)
        _, tok, end = _token(text, pos)
        if tok == ")":
            return values, end
        if tok != ",":
            raise _unexpected(text, pos)
        pos = end


def _divide(a: float, b: float) -> float:
    return a / b if b else math.nan  # nan, which the caller rejects


# binding power and function of each binary operator
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul), "/": (2, _divide)}


def _expression(text: str, pos: int, bound: int = 0) -> tuple[float, int]:
    """The value of the expression at `pos` and the offset after it, reading
    only operators that bind tighter than `bound`; a unary sign binds as
    tightly as `*` and `/`, so it applies to one atom."""
    kind, tok, end = _token(text, pos)
    if tok in ("-", "+"):
        value, pos = _expression(text, end, 2)
        value = -value if tok == "-" else value
    elif tok == "(":
        value, pos = _expression(text, end)
        _, tok, end = _token(text, pos)
        if tok != ")":
            raise _unexpected(text, pos)
        pos = end
    elif kind == "number" or tok == "pi":
        value = float(tok) if kind == "number" else math.pi
        pos = end
    else:
        raise _unexpected(text, pos)
    while True:
        _, op, end = _token(text, pos)
        power, apply = _BINARY.get(op, (0, None))
        if power <= bound:
            return value, pos
        rhs, pos = _expression(text, end, power)
        value = apply(value, rhs)


class _Reader:
    """Reads the statements of one text into a Circuit."""

    def __init__(self, text: str):
        self.text = text
        self.circ = Circuit()
        self.qregs = {}
        self.cregs = {}
        # offset of the first gate with a parameter that is not finite; it is
        # raised once the whole text has parsed, so that any other error is
        # reported as it would be if the value were finite
        self.non_finite: int | None = None

    def parse(self) -> Circuit:
        text = self.text
        pos = 0
        m = _HEADER.match(text)
        if m:
            if m["end"] is None:
                raise _unexpected(text, m.end())
            pos = m.end()
        while True:
            f = _EMITTED.match(text, pos)
            if f is not None and self._emitted(f):
                pos = f.end()
                continue
            m = _STATEMENT.match(text, pos)
            if m is None:
                raise _unexpected(text, pos)
            if m["name"] is not None:
                pos = self._instruction(m)
                continue
            if m["include"] is None and m["decl"] is None:
                break  # only blanks are left
            if m["included"] is None and m["declared"] is None:
                raise _unexpected(text, m.end())
            pos = m.end()
            if m["decl"] is not None:
                self._declare(m)
        if self.non_finite is not None:
            raise _error(text, "bad-params", "parameter is not a finite number", self.non_finite)
        return self.circ

    def _declare(self, m: re.Match):
        size = _integer(self.text, m, "size")
        name = m["reg"]
        if name in self.qregs or name in self.cregs:
            raise _error(self.text, "duplicate-register", f"register {name!r} already declared",
                         m.start("reg"))
        if m["decl"] == "qreg":
            self.qregs[name] = self.circ.add_qreg(name, size)
        else:
            self.cregs[name] = self.circ.add_creg(name, size)

    def _emitted(self, f: re.Match) -> bool:
        """Appends the instruction that `f` reads and returns True, unless the
        general path would raise on it or read it otherwise: then False."""
        name, sep, params = f["name"], f["sep"], f["params"]
        measuring = name == "measure"
        a, b = self.qregs.get(f["a"]), (self.cregs if measuring else self.qregs).get(f["b"])
        values = tuple(map(float, params.split(","))) if params else ()  # each one `-?{_NUMBER}`
        try:
            i, j = int(f["i"]), int(f["j"] or 0)
            if (sep == " -> ") != measuring or a is None or i >= a.size or (
                    sep and (b is None or j >= b.size)):
                return False
            bits = (a.start + i,) if sep is None else (a.start + i, b.start + j)
            qubits, clbits = (bits[:1], bits[1:]) if measuring else (bits, ())
            inst = Instruction(name, qubits, values, clbits)  # checks the kind and parameter count
        except ValueError:  # from Instruction, or an index too long for int()
            return False
        if GATE_SPECS[name][0] == len(qubits) == len(set(qubits)) and all(map(math.isfinite, values)):
            self.circ.instructions.append(inst)
            return True
        return False

    def _instruction(self, m: re.Match) -> int:
        """Reads the gate, measure or barrier statement that `m` starts, and
        returns the offset after its ';'."""
        text = self.text
        name = m["name"]
        at = m.start("name")
        if name not in GATE_SPECS and name not in _U_SUGAR:
            raise _error(text, "unknown-gate", f"unknown gate {name!r}", at)
        params = []
        pos = m.end()
        if m["paren"] is not None:
            if name in ("measure", "barrier"):
                raise _error(text, "syntax", "unexpected '('", m.start("paren"))
            try:
                params, pos = _parameters(text, pos)
            except RecursionError:
                raise _error(text, "bad-params", "parameter nested too deeply", at) from None
            if self.non_finite is None and not all(map(math.isfinite, params)):
                self.non_finite = at
        measuring = name == "measure"
        operands = []  # (register, index or None, offset); measure's second is classical
        while True:
            o = _OPERAND.match(text, pos)
            if o is None:
                raise _unexpected(text, pos)
            reg = (self.cregs if measuring and operands else self.qregs).get(o["reg"])
            if reg is None:
                raise _error(text, "unknown-register", f"undeclared register {o['reg']!r}",
                             o.start("reg"))
            if o["bracket"] is not None and o["close"] is None:
                raise _unexpected(text, o.end("bracket" if o["idx"] is None else "idx"))
            idx = None if o["idx"] is None else _integer(text, o, "idx")
            if idx is not None and not 0 <= idx < reg.size:
                raise _error(text, "out-of-bounds",
                             f"index {idx} out of bounds for {reg.name}[{reg.size}]", o.start("idx"))
            sep = o["sep"]
            if sep is None:
                raise _unexpected(text, o.end())
            if measuring:  # `a -> b;`
                misplaced = sep != ("->" if not operands else ";")
            else:
                misplaced = sep == "->"
            if misplaced:
                raise _error(text, "syntax", f"unexpected {sep!r}", o.start("sep"))
            operands.append((reg, idx, o.start("reg")))
            pos = o.end()
            if sep == ";":
                break
        if measuring:
            (qreg, qidx, qat), (creg, cidx, cat) = operands
            if (qidx is None) != (cidx is None):
                raise _error(text, "syntax", "measure operands must both be indexed or both registers", qat)
            if qidx is None and qreg.size != creg.size:
                raise _error(text, "out-of-bounds", f"register sizes differ: "
                             f"{qreg.name}[{qreg.size}] vs {creg.name}[{creg.size}]", cat)
            for q, c in zip(_span(qreg, qidx), _span(creg, cidx)):
                self.circ.append("measure", (q,), clbits=(c,))
        elif name == "barrier":
            self.circ.append("barrier", tuple(q for reg, idx, _ in operands for q in _span(reg, idx)))
        else:
            self._gate(name, params, operands, at)
        return pos

    def _gate(self, name: str, params: list[float], operands, at: int):
        nparams = _U_SUGAR[name] if name in _U_SUGAR else GATE_SPECS[name][1]
        if len(params) != nparams:
            raise _error(self.text, "bad-params",
                         f"{name} takes {nparams} parameter(s), got {len(params)}", at)
        expansions = _expand_u(name, params) if name in _U_SUGAR else [(name, params)]
        for name, params in expansions:
            nqubits = GATE_SPECS[name][0]
            if nqubits == 1 and len(operands) == 1 and operands[0][1] is None:
                for q in _span(operands[0][0], None):
                    self.circ.append(name, (q,), params)
                continue
            if len(operands) != nqubits:
                raise _error(self.text, "bad-arity",
                             f"{name} expects {nqubits} operand(s), got {len(operands)}", at)
            if any(idx is None for _, idx, _ in operands):
                raise _error(self.text, "syntax", f"{name} operands must be indexed", at)
            qubits = tuple(reg.start + idx for reg, idx, _ in operands)
            if len(set(qubits)) != len(qubits):
                raise _error(self.text, "duplicate-qubit", f"{name} repeats a qubit", at)
            self.circ.append(name, qubits, params)


def _span(reg: Register, idx: int | None) -> range:
    """The global indices an operand names: one, or its whole register."""
    if idx is None:
        return range(reg.start, reg.start + reg.size)
    return range(reg.start + idx, reg.start + idx + 1)


def _expand_u(name: str, params: list[float]) -> list[tuple[str, list[float]]]:
    """Rewrite u1/u2/u3 into the canonical rz/rx/rz Euler form."""
    if name == "u1":
        (lam,) = params
        return [("rz", [lam])]
    if name == "u2":
        phi, lam = params
        theta = math.pi / 2
    else:
        theta, phi, lam = params
    return [
        ("rz", [lam - math.pi / 2]),
        ("rx", [theta]),
        ("rz", [phi + math.pi / 2]),
    ]


def parse_qasm(text: str) -> Circuit:
    """Parse QASM source text into a Circuit; raises QasmError on bad input."""
    return _Reader(text).parse()


def emit_qasm(circ: Circuit) -> str:
    """Deterministic textual form; parse_qasm(emit_qasm(c)) == c for valid c."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    qubits = [f"{r.name}[{i}]" for r in circ.qregs for i in range(r.size)]
    clbits = [f"{r.name}[{i}]" for r in circ.cregs for i in range(r.size)]
    for r in circ.qregs:
        lines.append(f"qreg {r.name}[{r.size}];")
    for r in circ.cregs:
        lines.append(f"creg {r.name}[{r.size}];")
    for inst in circ.instructions:
        name = inst.name
        if name == "measure":
            lines.append(f"measure {qubits[inst.qubits[0]]} -> {clbits[inst.clbits[0]]};")
            continue
        args = ",".join(qubits[q] for q in inst.qubits)
        if inst.params:
            params = ",".join(f"{p:.17g}" for p in inst.params)
            lines.append(f"{name}({params}) {args};")
        else:
            lines.append(f"{name} {args};")
    return "\n".join(lines) + "\n"
