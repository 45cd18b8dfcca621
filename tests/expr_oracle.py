"""The recursive parser, lowering and printer that the iterative ones in
qfc.expr and qfc.lowering are checked against.

OracleParser is a recursive-descent parser of the grammar in qfc.expr's
docstring, one method per rule; oracle_lower lowers a tree by recursion,
once per occurrence of a shared subtree; oracle_unparse renders it by
recursion.  Each takes one Python frame or more per level of nesting, so
they serve shallow trees only.  Nodes are interned, so what they return
can be compared with the iterative code's results by identity.
"""
from __future__ import annotations

import math

from qfc.errors import ParseError
from qfc.expr import (
    Add,
    Conj,
    ConjVar,
    Div,
    Mul,
    Neg,
    Pow,
    QExpr,
    RealConst,
    Sub,
    UnitI,
    UnitJ,
    Var,
    _tokenize,
    is_zero,
)
from qfc.lowering import QFunction, conj_qf, inverse_qf, product_qf, sum_qf

_ZERO = RealConst(0.0)
_ONE = RealConst(1.0)


class OracleParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def accept_op(self, *ops: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text!r}" if tok.text else f"expected {op!r}", tok.pos)
        return tok

    def parse_expr(self) -> QExpr:
        node = self.parse_term()
        while True:
            tok = self.accept_op("+", "-")
            if tok is None:
                return node
            rhs = self.parse_term()
            node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)

    def parse_term(self) -> QExpr:
        node = self.parse_factor()
        while True:
            tok = self.accept_op("*", "/")
            if tok is None:
                return node
            rhs = self.parse_factor()
            node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)

    def parse_factor(self) -> QExpr:
        negate = self.accept_op("-") is not None
        node = self.parse_atom()
        if self.accept_op("^") is not None:
            node = Pow(node, self.parse_exponent())
        if negate:
            if isinstance(node, RealConst):
                return RealConst(-node.value)
            return Neg(node)
        return node

    def parse_exponent(self) -> int:
        tok = self.advance()
        if tok.kind != "number":
            raise ParseError("exponent must be a positive integer", tok.pos)
        try:
            value = int(tok.text)
        except ValueError:
            raise ParseError("exponent must be a positive integer", tok.pos) from None
        if value < 1:
            raise ParseError("exponent must be a positive integer", tok.pos)
        return value

    def parse_atom(self) -> QExpr:
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text} is not a finite float", tok.pos)
            return RealConst(value)
        if tok.kind == "name":
            if tok.text in ("z1", "z2"):
                return Var(tok.text)
            if tok.text == "i":
                return UnitI()
            if tok.text == "j":
                return UnitJ()
            if tok.text == "conj":
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                if isinstance(inner, Var):
                    return ConjVar(inner.name)
                return Conj(inner)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def oracle_parse(text: str) -> QExpr:
    parser = OracleParser(text)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected token {tail.text!r}", tail.pos)
    return node


def oracle_lower(e: QExpr) -> QFunction:
    match e:
        case Var() | ConjVar() | RealConst() | UnitI():
            return QFunction(e, _ZERO)
        case UnitJ():
            return QFunction(_ZERO, _ONE)
        case Add(l, r):
            return sum_qf(oracle_lower(l), oracle_lower(r))
        case Sub(l, r):
            a, b = oracle_lower(l), oracle_lower(r)
            return QFunction(a.f1 - b.f1, a.f2 - b.f2)
        case Neg(x):
            a = oracle_lower(x)
            return QFunction(-a.f1, -a.f2)
        case Conj(x):
            return conj_qf(oracle_lower(x))
        case Mul(l, r):
            return product_qf(oracle_lower(l), oracle_lower(r))
        case Div(l, r):
            return product_qf(oracle_lower(l), inverse_qf(oracle_lower(r)))
        case Pow(b, n):
            base = oracle_lower(b)
            if is_zero(base.f2):
                return QFunction(base.f1**n, _ZERO)
            out = base
            for _ in range(n - 1):
                out = product_qf(out, base)
            return out
    raise TypeError(f"not an expression node: {e!r}")


_LEVEL_ADD = 2
_LEVEL_MUL = 4
_LEVEL_NEG = 5
_LEVEL_POW = 6
_LEVEL_ATOM = 8


def _level(e: QExpr) -> int:
    match e:
        case Add() | Sub():
            return _LEVEL_ADD
        case Mul() | Div():
            return _LEVEL_MUL
        case Neg():
            return _LEVEL_NEG
        case RealConst(value):
            return _LEVEL_ATOM if math.copysign(1.0, value) > 0 else _LEVEL_NEG
        case Pow():
            return _LEVEL_POW
        case _:
            return _LEVEL_ATOM


def _render(e: QExpr, min_level: int) -> str:
    if _level(e) < min_level:
        return "(" + _render(e, 0) + ")"
    match e:
        case Var(name):
            return name
        case ConjVar(name):
            return f"conj({name})"
        case RealConst(value):
            return repr(value)
        case UnitI():
            return "i"
        case UnitJ():
            return "j"
        case Add(l, r):
            return f"{_render(l, _LEVEL_ADD)} + {_render(r, _LEVEL_ADD + 1)}"
        case Sub(l, r):
            return f"{_render(l, _LEVEL_ADD)} - {_render(r, _LEVEL_ADD + 1)}"
        case Mul(l, r):
            return f"{_render(l, _LEVEL_MUL)} * {_render(r, _LEVEL_MUL + 1)}"
        case Div(l, r):
            return f"{_render(l, _LEVEL_MUL)} / {_render(r, _LEVEL_MUL + 1)}"
        case Neg(x):
            if isinstance(x, RealConst):
                return f"-({_render(x, 0)})"
            return "-" + _render(x, _LEVEL_POW)
        case Pow(b, n):
            return f"{_render(b, _LEVEL_ATOM)}^{n}"
        case Conj(x):
            return f"conj({_render(x, 0)})"
    raise TypeError(f"not an expression node: {e!r}")


def oracle_unparse(e: QExpr) -> str:
    return _render(e, 0)


def oracle_repr(e: QExpr) -> str:
    """The repr of a node as the recursive QExpr.__repr__ built it."""
    fields = []
    for name in e.__match_args__:
        value = getattr(e, name)
        fields.append(f"{name}={oracle_repr(value) if isinstance(value, QExpr) else repr(value)}")
    return f"{type(e).__name__}({', '.join(fields)})"
