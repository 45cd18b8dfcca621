"""Expression trees for quaternion-valued functions of (z1, z2).

The surface language is parsed by this grammar, run on an explicit stack:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' int]
    atom   := 'z1' | 'z2' | 'i' | 'j' | number | 'conj' '(' expr ')' | '(' expr ')'

Multiplication is quaternionic, so operand order is preserved everywhere,
and p/q means p times conj(q)/|q|^2.  Nodes are immutable and interned
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
        return _emit(self, _repr_pieces)

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
        try:
            float(exponent)  # the jets' power rule multiplies by it
        except OverflowError:
            raise ValueError("exponent is too large for a float") from None


class Conj(QExpr):
    __slots__ = __match_args__ = ("operand",)


def post_order(exprs: tuple[QExpr, ...]) -> list[QExpr]:
    """The distinct nodes of the trees, the trees in order and each node
    after its children, left before right; iterative, so deep trees walk."""
    done: dict[QExpr, None] = {}
    for root in exprs:
        stack = [root]
        while stack:
            e = stack[-1]
            if e in done:
                stack.pop()
                continue
            todo = [k for k in e.kids if k not in done]
            if todo:
                stack.extend(reversed(todo))
                continue
            done[stack.pop()] = None
    return list(done)


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


def _op(tok: _Token, ops: str) -> str | None:
    """The operator tok is, when it is one of the characters of ops."""
    return tok.text if tok.kind == "op" and tok.text in ops else None


def _expect(tok: _Token, op: str) -> None:
    if _op(tok, op) is None:
        raise ParseError(f"expected {op!r}, found {tok.text!r}" if tok.text else f"expected {op!r}", tok.pos)


def _exponent(tok: _Token) -> int:
    """The exponent that tok spells.  float(tok.text) rounds as float of
    the int does, and refuses one too large before int reads its digits."""
    if tok.kind != "number" or not tok.text.isdecimal() or float(tok.text) < 1:
        raise ParseError("exponent must be a positive integer", tok.pos)
    if math.isinf(float(tok.text)):
        raise ParseError("exponent is too large for a float", tok.pos)
    return int(tok.text)


def _atom(tok: _Token) -> QExpr:
    """The leaf that tok is; '(' and 'conj' are parse's own."""
    if tok.kind == "number":
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(f"number {tok.text} is not a finite float", tok.pos)
        return RealConst(value)
    if tok.kind == "name":
        if tok.text in _VAR_NAMES:
            return Var(tok.text)
        if tok.text in ("i", "j"):
            return UnitI() if tok.text == "i" else UnitJ()
        raise ParseError(f"unknown name {tok.text!r}", tok.pos)
    if tok.kind == "end":
        raise ParseError("unexpected end of input", tok.pos)
    raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


_SUM_OPS = {"+": Add, "-": Sub}
_PRODUCT_OPS = {"*": Mul, "/": Div}


def parse(text: str) -> QExpr:
    """Parse an expression; raises ParseError with the failing position.

    The grammar runs on an explicit stack: '(' and 'conj(' suspend the
    enclosing sum, product, pending operators and negation, and ')'
    resumes them, so nesting costs no Python frames.
    """
    tokens = _tokenize(text)
    idx = 0
    suspended: list[tuple] = []
    total = add = product = mul = None
    while True:
        # a factor starts at tokens[idx]
        negate = _op(tokens[idx], "-") is not None
        idx += negate
        tok = tokens[idx]
        idx += 1
        if _op(tok, "(") or (tok.kind == "name" and tok.text == "conj"):
            if tok.kind == "name":
                _expect(tokens[idx], "(")
                idx += 1
            suspended.append((total, add, product, mul, negate, tok.kind == "name"))
            total = add = product = mul = None
            continue
        node = _atom(tok)
        while True:
            # node is the factor's atom: finish the factor, then the term
            # and the sum it ends, and resume the enclosing factor at ')'
            if _op(tokens[idx], "^"):
                node = Pow(node, _exponent(tokens[idx + 1]))
                idx += 2
            if negate:
                node = RealConst(-node.value) if isinstance(node, RealConst) else Neg(node)
            product = node if mul is None else mul(product, node)
            tok = tokens[idx]
            if op := _op(tok, "*/"):
                mul = _PRODUCT_OPS[op]
                idx += 1
                break
            total = product if add is None else add(total, product)
            product = mul = None
            if op := _op(tok, "+-"):
                add = _SUM_OPS[op]
                idx += 1
                break
            if not suspended:
                if tok.kind != "end":
                    raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
                return total
            _expect(tok, ")")
            idx += 1
            node = total
            total, add, product, mul, negate, in_conj = suspended.pop()
            if in_conj:
                node = ConjVar(node.name) if isinstance(node, Var) else Conj(node)


# --------------------------------------------------------------------------
# printer

_LEVEL_ADD = 2
_LEVEL_MUL = 4
_LEVEL_NEG = 5
_LEVEL_POW = 6
_LEVEL_ATOM = 8

_LEVELS = {Add: _LEVEL_ADD, Sub: _LEVEL_ADD, Mul: _LEVEL_MUL, Div: _LEVEL_MUL, Neg: _LEVEL_NEG, Pow: _LEVEL_POW}
_BINARY = {Add: " + ", Sub: " - ", Mul: " * ", Div: " / "}


def _level(e: QExpr) -> int:
    # copysign catches -0.0, whose repr also starts with a minus
    if isinstance(e, RealConst) and math.copysign(1.0, e.value) < 0:
        return _LEVEL_NEG
    return _LEVELS.get(type(e), _LEVEL_ATOM)


def _emit(root: QExpr, pieces) -> str:
    """The text pieces(root, 0) spells: pieces(e, level) returns strings
    and (child, level) items, which are spelled in their place.  The walk
    keeps its own stack and joins the strings once, so its cost is linear
    in the text however deep the tree."""
    out: list[str] = []
    todo: list = [(root, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo.extend(reversed(pieces(*item)))
    return "".join(out)


def _repr_pieces(e: QExpr, level: int) -> list:
    out: list = [f"{type(e).__name__}("]
    for i, name in enumerate(e.__match_args__):
        value = getattr(e, name)
        out += [", " * (i > 0) + f"{name}=", (value, 0) if isinstance(value, QExpr) else repr(value)]
    return out + [")"]


def _unparse_pieces(e: QExpr, min_level: int) -> list:
    if _level(e) < min_level:
        return ["(", (e, 0), ")"]
    match e:
        case Var(name):
            return [name]
        case ConjVar(name):
            return [f"conj({name})"]
        case RealConst(value):
            return [repr(value)]
        case UnitI():
            return ["i"]
        case UnitJ():
            return ["j"]
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
            level = _LEVELS[type(e)]
            return [(l, level), _BINARY[type(e)], (r, level + 1)]
        case Neg(x):
            # -(c), not -c, shows the Neg node; both parse to the constant -c
            if isinstance(x, RealConst):
                return ["-(", (x, 0), ")"]
            return ["-", (x, _LEVEL_POW)]
        case Pow(b, n):
            return [(b, _LEVEL_ATOM), f"^{n}"]
        case Conj(x):
            return ["conj(", (x, 0), ")"]
    raise TypeError(f"not an expression node: {e!r}")


def unparse(e: QExpr) -> str:
    """Deterministic rendering.  parse(unparse(e)) is e for every tree
    that parse returns; a tree parse cannot return may print as another,
    as Neg(RealConst(2.0)) prints as -(2.0), which parses to RealConst(-2.0)."""
    return _emit(e, _unparse_pieces)


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
