"""Expression trees for quaternion-valued functions of (z1, z2).

The surface language is parsed by a small recursive-descent parser:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' int]
    atom   := 'z1' | 'z2' | 'i' | 'j' | number | 'conj' '(' expr ')' | '(' expr ')'

Multiplication is quaternionic, so operand order is preserved everywhere,
and p/q means p * rinv(q).  Nodes are immutable and interned
(hash-consed: Filliatre and Conchon, "Type-safe modular hash-consing",
ML Workshop 2006), so equal structures are one object, trees share their
common subtrees, and == is identity.  The operator overloads build new
nodes with constant folding (real-constant arithmetic plus the 0/1
identities) and nothing more.  No fold hides a division or makes a
constant that is not finite: real constants fold only where the result
is finite, so never for a zero divisor, and 0 * e folds to 0 only when e
has no Div node.  So 0/0 or 0 * (1/z1) stays undefined where its divisor
vanishes, and 1e200 * 1e200 overflows where it is evaluated.

A tree containing no UnitJ node denotes a complex-valued function of
z1, conj(z1), z2, conj(z2); lowering produces pairs of such trees.
"""
from __future__ import annotations

import math
import numbers
import operator
import re
import weakref
from typing import NamedTuple

from .errors import ParseError

_VAR_NAMES = ("z1", "z2")
RESERVED_WORDS = frozenset({"z1", "z2", "i", "j", "conj"})


class QExpr:
    """Base node; every node is interned.

    A constructor returns the live node of the same type and fields when
    there is one, so each structure is one object and == and hash are
    identity, however deep the tree.  A field that is not a node is keyed
    on its repr: RealConst(-0.0), RealConst(0.0), RealConst(3) and
    RealConst(3.0) are four nodes.  The live nodes are held weakly, so a
    tree nobody holds is freed.  Each node records its child nodes (kids)
    and whether it has a UnitJ (has_j) or a Div (has_div) node below or at
    it, computed once from its children's flags.  Nodes are immutable.
    """

    __slots__ = ("kids", "has_j", "has_div", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *[f if isinstance(f, QExpr) else repr(f) for f in fields])
        node = _LIVE.get(key)
        if node is None:
            if len(fields) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes the fields {cls.__match_args__}")
            cls._check(*fields)
            node = object.__new__(cls)
            kids = tuple([f for f in fields if isinstance(f, QExpr)])
            init = object.__setattr__
            for name, value in zip(cls.__match_args__, fields):
                init(node, name, value)
            init(node, "kids", kids)
            init(node, "has_j", cls is UnitJ or any([k.has_j for k in kids]))
            init(node, "has_div", cls is Div or any([k.has_div for k in kids]))
            _LIVE[key] = node
        return node

    @staticmethod
    def _check(*fields) -> None:
        """Raise ValueError when the fields make no node."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, n: int):
        return _pow(self, n)

    def conj(self):
        return _conj(self)


# (type, fields) -> the live node; a field that is not a node as its repr
_LIVE: weakref.WeakValueDictionary[tuple, QExpr] = weakref.WeakValueDictionary()


def _check_name(name) -> None:
    if name not in _VAR_NAMES:
        raise ValueError(f"unknown variable {name!r}")


class Var(QExpr):
    __slots__ = __match_args__ = ("name",)
    _check = staticmethod(_check_name)


class ConjVar(QExpr):
    __slots__ = __match_args__ = ("name",)
    _check = staticmethod(_check_name)


class RealConst(QExpr):
    __slots__ = __match_args__ = ("value",)

    @staticmethod
    def _check(value) -> None:
        if not math.isfinite(value):
            raise ValueError("constants must be finite")


class UnitI(QExpr):
    __slots__ = ()


class UnitJ(QExpr):
    __slots__ = ()


class Add(QExpr):
    __slots__ = __match_args__ = ("left", "right")


class Sub(QExpr):
    __slots__ = __match_args__ = ("left", "right")


class Mul(QExpr):
    __slots__ = __match_args__ = ("left", "right")


class Div(QExpr):
    __slots__ = __match_args__ = ("left", "right")


class Neg(QExpr):
    __slots__ = __match_args__ = ("operand",)


class Pow(QExpr):
    __slots__ = __match_args__ = ("base", "exponent")

    @staticmethod
    def _check(base, exponent) -> None:
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError("exponent must be a positive integer")


class Conj(QExpr):
    __slots__ = __match_args__ = ("operand",)


def is_zero(e: QExpr) -> bool:
    return isinstance(e, RealConst) and e.value == 0.0


def _is_one(e: QExpr) -> bool:
    return isinstance(e, RealConst) and e.value == 1.0


def _coerce(v) -> QExpr:
    if isinstance(v, QExpr):
        return v
    if isinstance(v, numbers.Real):
        return RealConst(float(v))
    if isinstance(v, complex):
        return const(v)
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


def const(v: complex | float) -> QExpr:
    """Embed a numeric constant; complex values become re + im*i."""
    v = complex(v)
    if v.imag == 0.0:
        return RealConst(v.real)
    imag = _mul(RealConst(v.imag), UnitI())
    if v.real == 0.0:
        return imag
    return Add(RealConst(v.real), imag)


def _folded(op, a: QExpr, b) -> QExpr | None:
    """The real constant op(a, b) for real constants a and b (or exponent
    b), or None where it is undefined or not finite: then no fold is made."""
    if isinstance(b, RealConst):
        b = b.value
    if not isinstance(a, RealConst) or isinstance(b, QExpr):
        return None
    try:
        return RealConst(op(a.value, b))
    except (ArithmeticError, ValueError):  # RealConst refuses a value that is not finite
        return None


def _add(a: QExpr, b: QExpr) -> QExpr:
    if (folded := _folded(operator.add, a, b)) is not None:
        return folded
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return Add(a, b)


def _sub(a: QExpr, b: QExpr) -> QExpr:
    if (folded := _folded(operator.sub, a, b)) is not None:
        return folded
    if is_zero(b):
        return a
    if is_zero(a):
        return _neg(b)
    return Sub(a, b)


def _mul(a: QExpr, b: QExpr) -> QExpr:
    if (folded := _folded(operator.mul, a, b)) is not None:
        return folded
    if (is_zero(a) and not b.has_div) or (is_zero(b) and not a.has_div):
        return RealConst(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def _div(a: QExpr, b: QExpr) -> QExpr:
    if _is_one(b):
        return a
    if (folded := _folded(operator.truediv, a, b)) is not None:
        return folded
    return Div(a, b)


def _neg(a: QExpr) -> QExpr:
    if isinstance(a, RealConst):
        return RealConst(-a.value)
    return Neg(a)


def _pow(a: QExpr, n: int) -> QExpr:
    if not isinstance(n, int) or n < 1:
        raise ValueError("exponent must be a positive integer")
    if n == 1:
        return a
    if (folded := _folded(operator.pow, a, n)) is not None:
        return folded
    return Pow(a, n)


def _conj(a: QExpr) -> QExpr:
    if isinstance(a, RealConst):
        return a
    if isinstance(a, Var):
        return ConjVar(a.name)
    if isinstance(a, ConjVar):
        return Var(a.name)
    if isinstance(a, Conj):
        return a.operand
    if isinstance(a, (UnitI, UnitJ)):
        return Neg(a)
    return Conj(a)


# --------------------------------------------------------------------------
# tokenizer / parser


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def accept_op(self, *ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> _Token:
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
            if tok.text in _VAR_NAMES:
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


def parse(text: str) -> QExpr:
    """Parse an expression; raises ParseError with the failing position."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected token {tail.text!r}", tail.pos)
    return node


# --------------------------------------------------------------------------
# printer

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
            # copysign catches -0.0, whose repr also starts with a minus
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
            # a bare negative literal would re-parse as a folded constant
            if isinstance(x, RealConst):
                return f"-({_render(x, 0)})"
            return "-" + _render(x, _LEVEL_POW)
        case Pow(b, n):
            return f"{_render(b, _LEVEL_ATOM)}^{n}"
        case Conj(x):
            return f"conj({_render(x, 0)})"
    raise TypeError(f"not an expression node: {e!r}")


def unparse(e: QExpr) -> str:
    """Deterministic rendering; parse(unparse(e)) is structurally e."""
    return _render(e, 0)


# --------------------------------------------------------------------------
# definition files

_DEF_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")


def parse_definitions(text: str) -> dict[str, QExpr]:
    """Read `name = <expression>` lines; '#' starts a comment.

    Returns definitions in file order.  Names may not collide with the
    reserved words of the grammar or with each other.
    """
    defs: dict[str, QExpr] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DEF_RE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: expected `name = <expression>`")
        name, body = m.group(1), m.group(2)
        if name in RESERVED_WORDS:
            raise ParseError(f"line {lineno}: {name!r} is a reserved word")
        if name in defs:
            raise ParseError(f"line {lineno}: duplicate definition of {name!r}")
        try:
            defs[name] = parse(body)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.args[0]}") from None
    return defs
