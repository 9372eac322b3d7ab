"""Parser and emitter for a textual OpenQASM 2 subset.

Supported statements: the version header, include lines (ignored), qreg/creg
declarations, the fixed gate vocabulary of `circuit.GATE_SPECS`, barrier,
reset, and `measure a -> b`.  u1/u2/u3 are accepted as sugar and immediately
rewritten into rz/rx/rz Euler form.

Single-qubit gates, reset, and measure broadcast over whole registers when
given a bare register name.
"""
from __future__ import annotations

import math
import re

from .circuit import Circuit, GATE_SPECS

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"]*")
  | (?P<arrow>->)
  | (?P<sym>[\[\](){};,*/+-])
    """,
    re.VERBOSE,
)

_U_SUGAR = {"u1": 1, "u2": 2, "u3": 3}


class QasmError(Exception):
    """Parse failure with a stable diagnostic code and source position."""

    def __init__(self, code: str, message: str, line: int, col: int):
        super().__init__(f"{code} at line {line}, col {col}: {message}")
        self.code = code
        self.message = message
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError("syntax", f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group(0)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing -------------------------------------------------------

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("sym", "", 1, 1)
            raise QasmError("syntax", "unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if tok.text != text:
            raise QasmError("syntax", f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def _expect_kind(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise QasmError("syntax", f"expected {kind}, got {tok.text!r}", tok.line, tok.col)
        return tok

    # -- grammar --------------------------------------------------------------

    def parse(self) -> Circuit:
        circ = Circuit()
        self._header()
        while self._peek() is not None:
            self._statement(circ)
        return circ

    def _header(self):
        tok = self._peek()
        if tok is not None and tok.text == "OPENQASM":
            self._next()
            self._expect_kind("number")
            self._expect(";")

    def _statement(self, circ: Circuit):
        tok = self._peek()
        if tok.text == "include":
            self._next()
            self._expect_kind("string")
            self._expect(";")
        elif tok.text in ("qreg", "creg"):
            self._register_decl(circ)
        elif tok.text == "measure":
            self._measure(circ)
        elif tok.text == "barrier":
            self._barrier(circ)
        elif tok.kind == "id":
            self._gate(circ)
        else:
            raise QasmError("syntax", f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _register_decl(self, circ: Circuit):
        kind = self._next().text
        name_tok = self._expect_kind("id")
        self._expect("[")
        size_tok = self._expect_kind("number")
        self._expect("]")
        self._expect(";")
        try:
            size = int(size_tok.text)
        except ValueError:
            raise QasmError("syntax", f"register size must be an integer, got {size_tok.text!r}",
                            size_tok.line, size_tok.col)
        regs = circ.qregs if kind == "qreg" else circ.cregs
        if any(r.name == name_tok.text for r in circ.qregs + circ.cregs):
            raise QasmError("duplicate-register", f"register {name_tok.text!r} already declared",
                            name_tok.line, name_tok.col)
        if kind == "qreg":
            circ.add_qreg(name_tok.text, size)
        else:
            circ.add_creg(name_tok.text, size)

    def _operand(self, circ: Circuit, classical=False) -> tuple[str, int | None, _Token]:
        """Returns (register name, index or None for whole register, token)."""
        name_tok = self._expect_kind("id")
        regs = circ.cregs if classical else circ.qregs
        reg = next((r for r in regs if r.name == name_tok.text), None)
        if reg is None:
            raise QasmError("unknown-register", f"undeclared register {name_tok.text!r}",
                            name_tok.line, name_tok.col)
        idx = None
        if self._peek() is not None and self._peek().text == "[":
            self._next()
            idx_tok = self._expect_kind("number")
            self._expect("]")
            idx = int(idx_tok.text)
            if not 0 <= idx < reg.size:
                raise QasmError("out-of-bounds",
                                f"index {idx} out of bounds for {reg.name}[{reg.size}]",
                                idx_tok.line, idx_tok.col)
        return reg.name, idx, name_tok

    def _measure(self, circ: Circuit):
        self._next()
        qname, qidx, qtok = self._operand(circ)
        self._expect("->")
        cname, cidx, ctok = self._operand(circ, classical=True)
        self._expect(";")
        qreg = next(r for r in circ.qregs if r.name == qname)
        creg = next(r for r in circ.cregs if r.name == cname)
        if (qidx is None) != (cidx is None):
            raise QasmError("syntax", "measure operands must both be indexed or both registers",
                            qtok.line, qtok.col)
        if qidx is None:
            if qreg.size != creg.size:
                raise QasmError("out-of-bounds",
                                f"register sizes differ: {qname}[{qreg.size}] vs {cname}[{creg.size}]",
                                ctok.line, ctok.col)
            for i in range(qreg.size):
                circ.append("measure", (qreg.start + i,), clbits=(creg.start + i,))
        else:
            circ.append("measure", (qreg.start + qidx,), clbits=(creg.start + cidx,))

    def _barrier(self, circ: Circuit):
        self._next()
        qubits: list[int] = []
        while True:
            name, idx, _ = self._operand(circ)
            reg = next(r for r in circ.qregs if r.name == name)
            if idx is None:
                qubits.extend(range(reg.start, reg.start + reg.size))
            else:
                qubits.append(reg.start + idx)
            tok = self._next()
            if tok.text == ";":
                break
            if tok.text != ",":
                raise QasmError("syntax", f"expected ',' or ';', got {tok.text!r}", tok.line, tok.col)
        circ.append("barrier", tuple(qubits))

    def _gate(self, circ: Circuit):
        name_tok = self._next()
        name = name_tok.text
        if name not in GATE_SPECS and name not in _U_SUGAR:
            raise QasmError("unknown-gate", f"unknown gate {name!r}", name_tok.line, name_tok.col)
        params: list[float] = []
        if self._peek() is not None and self._peek().text == "(":
            self._next()
            while True:
                params.append(self._expression())
                tok = self._next()
                if tok.text == ")":
                    break
                if tok.text != ",":
                    raise QasmError("syntax", f"expected ',' or ')', got {tok.text!r}", tok.line, tok.col)
        operands: list[tuple[str, int | None]] = []
        while True:
            rname, idx, _ = self._operand(circ)
            operands.append((rname, idx))
            tok = self._next()
            if tok.text == ";":
                break
            if tok.text != ",":
                raise QasmError("syntax", f"expected ',' or ';', got {tok.text!r}", tok.line, tok.col)

        if name in _U_SUGAR:
            expansions = _expand_u(name, params, name_tok)
            for subname, subparams in expansions:
                self._emit_gate(circ, subname, subparams, operands, name_tok)
        else:
            self._emit_gate(circ, name, params, operands, name_tok)

    def _emit_gate(self, circ: Circuit, name: str, params, operands, tok):
        nqubits, nparams, _ = GATE_SPECS[name]
        if len(params) != nparams:
            raise QasmError("bad-params", f"{name} takes {nparams} parameter(s), got {len(params)}",
                            tok.line, tok.col)

        def resolve(op):
            rname, idx = op
            reg = next(r for r in circ.qregs if r.name == rname)
            return reg, idx

        if nqubits == 1 and len(operands) == 1 and operands[0][1] is None:
            reg, _ = resolve(operands[0])
            for i in range(reg.size):
                circ.append(name, (reg.start + i,), params)
            return
        if len(operands) != nqubits:
            raise QasmError("bad-arity", f"{name} expects {nqubits} operand(s), got {len(operands)}",
                            tok.line, tok.col)
        qubits = []
        for op in operands:
            reg, idx = resolve(op)
            if idx is None:
                raise QasmError("syntax", f"{name} operands must be indexed", tok.line, tok.col)
            qubits.append(reg.start + idx)
        if len(set(qubits)) != len(qubits):
            raise QasmError("duplicate-qubit", f"{name} repeats a qubit", tok.line, tok.col)
        circ.append(name, tuple(qubits), params)

    def _expression(self) -> float:
        # precedence-climbing over + - * / with unary minus, pi, and parentheses
        return self._add_expr()

    def _add_expr(self) -> float:
        value = self._mul_expr()
        while self._peek() is not None and self._peek().text in ("+", "-"):
            op = self._next().text
            rhs = self._mul_expr()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _mul_expr(self) -> float:
        value = self._atom()
        while self._peek() is not None and self._peek().text in ("*", "/"):
            op = self._next().text
            rhs = self._atom()
            value = value * rhs if op == "*" else value / rhs
        return value

    def _atom(self) -> float:
        tok = self._next()
        if tok.text == "-":
            return -self._atom()
        if tok.text == "+":
            return self._atom()
        if tok.text == "(":
            value = self._add_expr()
            self._expect(")")
            return value
        if tok.kind == "number":
            return float(tok.text)
        if tok.text == "pi":
            return math.pi
        raise QasmError("syntax", f"expected expression, got {tok.text!r}", tok.line, tok.col)


def _expand_u(name: str, params: list[float], tok) -> list[tuple[str, list[float]]]:
    """Rewrite u1/u2/u3 into the canonical rz/rx/rz Euler form."""
    if len(params) != _U_SUGAR[name]:
        raise QasmError("bad-params", f"{name} takes {_U_SUGAR[name]} parameter(s), got {len(params)}",
                        tok.line, tok.col)
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
    return _Parser(text).parse()


def emit_qasm(circ: Circuit) -> str:
    """Deterministic textual form; parse_qasm(emit_qasm(c)) == c for valid c."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    for r in circ.qregs:
        lines.append(f"qreg {r.name}[{r.size}];")
    for r in circ.cregs:
        lines.append(f"creg {r.name}[{r.size}];")
    for inst in circ.instructions:
        name = inst.name
        if name == "measure":
            lines.append(
                f"measure {circ.qubit_name(inst.qubits[0])} -> {circ.clbit_name(inst.clbits[0])};"
            )
            continue
        args = ",".join(circ.qubit_name(q) for q in inst.qubits)
        if inst.params:
            params = ",".join(f"{p:.17g}" for p in inst.params)
            lines.append(f"{name}({params}) {args};")
        else:
            lines.append(f"{name} {args};")
    return "\n".join(lines) + "\n"

