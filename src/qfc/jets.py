"""Forward-mode Wirtinger differentiation of component trees.

A jet carries the value of a scalar expression at n points together with
its four first-order Wirtinger partials with respect to z1, conj(z1),
z2, conj(z2).  WirtingerJet holds them as a value and a stacked gradient,
CArrays of shapes (n,) and (2, 2, n), or (1,) and (2, 2, 1) for a value
all n points share, the gradient's axes being [unbarred, barred] x
[z1, z2].  Each jet_* rule then runs once on the gradient instead of once
per partial (vector forward mode: Griewank and Walther, Evaluating
Derivatives, 2nd ed., 2008, section 3.1); conjugation reverses the first
axis and conjugates, and the other rules are the usual bilinear ones.
Every partial still sees the rules' operations in their order (a
product's a.d * b.val + a.val * b.d, a quotient's (a.d - val * b.d) / den
after its value a.val / den), so each has, at each point, the bits the
rules give on that point's Python complex numbers.  These rules are the
only ones: grid_jets applies them to trees, and analysis to jets.

grid_jets is the one evaluator.  It takes a block of points as coordinate
columns and returns the roots' jets and the block's PointEvents: per
point, the first event at which evaluating that point alone would have
raised.  jets_at is its one-point form, whose events raise there instead.
Its value-only form, partials=False, gives every jet an empty gradient of
shape (0, n), on which the same rules compute nothing; the values and
events are those of the full walk, since the value steps that flag the
events are the same steps in the same order.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import MASK_REASONS, OVERFLOW, SINGULAR, SingularPointError
from .expr import (
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
    post_order,
)

# A divisor d vanishes, and its quotient is refused, where |d|^2 is below
# this.  jet_div reads it at each call, not as a default argument bound at
# import, so a patched value takes effect.
SINGULAR_SQ_TOL = 1e-12

# The x1, y1, x2, y2 coordinates of a block of points.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class Point4(NamedTuple):
    """A point of the two-complex-variable domain."""

    z1: complex
    z2: complex

    @classmethod
    def from_reals(cls, x1: float, y1: float, x2: float, y2: float) -> Point4:
        return cls(complex(x1, y1), complex(x2, y2))

    def reals(self) -> tuple[float, float, float, float]:
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)


def columns_of(z1: list[complex], z2: list[complex]) -> Columns:
    """The coordinate columns of the points (z1[i], z2[i])."""
    return (
        np.array([z.real for z in z1]),
        np.array([z.imag for z in z1]),
        np.array([z.real for z in z2]),
        np.array([z.imag for z in z2]),
    )


class PointEvents:
    """The first event at each of n grid points, as a reason code (0 for
    none yet).  Events outside the current scope do not count."""

    def __init__(self, n: int):
        self.code = np.zeros(n, dtype=np.int8)
        self.scope: np.ndarray | bool = True
        self.at: Point4 | None = None

    def flag(self, where: np.ndarray | bool, code: int) -> None:
        self.code[(self.code == 0) & where & self.scope] = code
        if self.at is not None:
            self.raise_at(self.at)

    def raise_at(self, p: Point4) -> None:
        """Make the events of a one-point block at p raise at its first
        event, as evaluating p alone does: at once if it has met one, else
        at each later flag that meets one.  The event is cleared as it
        raises, so the block's jets stay usable after a formula refuses.
        "singular" raises SingularPointError, "overflow" OverflowError."""
        self.at = p
        code = int(self.code[0])
        if code:
            self.code[0] = 0
            error = OverflowError if code == OVERFLOW else SingularPointError
            raise error(f"{MASK_REASONS[code]} near {p}")

    @contextmanager
    def only(self, where: np.ndarray) -> Iterator[None]:
        """Count events only where `where` holds: for a system the scalar
        path evaluates at those points alone."""
        outer = self.scope
        self.scope = outer & where
        try:
            yield
        finally:
            self.scope = outer


_NAN = float("nan")  # CPython's Py_NAN, a positive quiet NaN


def _parts(x) -> tuple:
    """Real and imaginary parts; a real operand is promoted to x + 0.0j, as
    CPython 3.11 promotes a float or int operand of a complex operation."""
    if isinstance(x, (CArray, complex)):
        return x.real, x.imag
    return x, 0.0


def _prod(ar, ai, br, bi) -> tuple:
    """_Py_c_prod."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi) -> tuple:
    """_Py_c_quot, Smith's method; also returns where the divisor is zero,
    where CPython raises ZeroDivisionError."""
    abs_br, abs_bi = np.abs(br), np.abs(bi)
    by_real = abs_br >= abs_bi
    by_imag = abs_bi > abs_br  # neither holds when a part is NaN
    ratio = bi / br
    denom = br + bi * ratio
    re = (ar + ai * ratio) / denom
    im = (ai - ar * ratio) / denom
    ratio = br / bi
    denom = br * ratio + bi
    re = np.where(by_real, re, np.where(by_imag, (ar * ratio + ai) / denom, _NAN))
    im = np.where(by_real, im, np.where(by_imag, (ai * ratio - ar) / denom, _NAN))
    zero = by_real & (abs_br == 0.0)
    return np.where(zero, 0.0, re), np.where(zero, 0.0, im), zero


def _powu(re, im, n: int) -> tuple:
    """c_powu: binary powering from 1 + 0j, for n >= 1."""
    rr, ri = 1.0, 0.0
    mask = 1
    while True:
        if n & mask:
            rr, ri = _prod(rr, ri, re, im)
        mask <<= 1
        if mask > n:
            return rr, ri
        re, im = _prod(re, im, re, im)


class CArray:
    """Complex values at many points, with CPython 3.11's complex
    arithmetic replayed bit for bit in separate float64 operations.

    numpy's complex128 ufuncs are not used: on 20,000 random pairs with
    standard-normal parts (numpy 2.4, an AVX-512 Xeon), array `*` differed
    from CPython in the last bit in 8,730 cases, `/` in 8,514 and np.abs
    in 6,982.  Here `*` is _Py_c_prod, `/` is _Py_c_quot, `** n` is c_powi
    (c_powu for 0 < n <= 100, CPython's own `**` per element above), and
    abs is np.hypot (0 differences), which gives inf for an infinite part
    as CPython does.  A real operand is promoted to complex(x, 0.0), so `2.0 * z` is a full
    product.  Where CPython raises, the point is flagged on `events`
    instead: "overflow" where abs or `**` overflows, "singular" where a
    divisor is zero.  A NaN part is NaN exactly where CPython's is, but its
    sign bit may differ, since numpy and CPython's build pass on different
    operands' NaNs; no result sees it, as a point with a NaN is masked.

    `real` and `imag` are float64 arrays of shape (n,), or (1,) for a value
    shared by all n points; they broadcast.
    """

    __slots__ = ("real", "imag", "events")
    __array_ufunc__ = None  # so float_array * CArray calls CArray.__rmul__

    def __init__(self, real: np.ndarray, imag: np.ndarray, events: PointEvents):
        self.real = real
        self.imag = imag
        self.events = events

    @classmethod
    def of(cls, values, events: PointEvents) -> CArray:
        return cls(
            np.array([z.real for z in values], dtype=float),
            np.array([z.imag for z in values], dtype=float),
            events,
        )

    def _new(self, parts: tuple) -> CArray:
        return CArray(parts[0], parts[1], self.events)

    def __add__(self, other) -> CArray:
        br, bi = _parts(other)
        return self._new((self.real + br, self.imag + bi))

    def __sub__(self, other) -> CArray:
        br, bi = _parts(other)
        return self._new((self.real - br, self.imag - bi))

    def __neg__(self) -> CArray:
        return self._new((-self.real, -self.imag))

    def __mul__(self, other) -> CArray:
        return self._new(_prod(self.real, self.imag, *_parts(other)))

    def __rmul__(self, other) -> CArray:
        return self._new(_prod(*_parts(other), self.real, self.imag))

    def __truediv__(self, other) -> CArray:
        re, im, zero = _quot(self.real, self.imag, *_parts(other))
        self.events.flag(zero, SINGULAR)
        return self._new((re, im))

    def __pow__(self, n: int) -> CArray:
        if n > 100:
            out = []
            for z in map(complex, self.real.tolist(), self.imag.tolist()):
                try:
                    out.append(z**n)
                except OverflowError:
                    out.append(complex(math.inf, math.inf))
            power = CArray.of(out, self.events)
        elif n == 0:  # c_powi: (1+0j) / c_powu(x, 0), which is 1+0j
            power = self._new((np.ones_like(self.real), np.zeros_like(self.imag)))
        else:
            power = self._new(_powu(self.real, self.imag, n))
        self.events.flag(np.isinf(power.real) | np.isinf(power.imag), OVERFLOW)
        return power

    def __abs__(self) -> np.ndarray:
        r = np.hypot(self.real, self.imag)
        self.events.flag(np.isfinite(self.real) & np.isfinite(self.imag) & np.isinf(r), OVERFLOW)
        return r

    def conjugate(self) -> CArray:
        return self._new((self.real, -self.imag))

    def isfinite(self) -> np.ndarray:
        return np.isfinite(self.real) & np.isfinite(self.imag)


# A decorator that runs a function under this error state, as the commands
# evaluate: CPython's complex arithmetic, which CArray replays, never warns.
# numpy keeps a decorated call's state per call, so one instance serves all.
quiet = np.errstate(all="ignore")


def maximum(*values: np.ndarray) -> np.ndarray:
    """Python's max elementwise: the first value unless a later one is
    strictly greater."""
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return out


def _partial(barred: int, var: int) -> property:
    """A read-only view of the partial at [barred, var] of a jet's gradient."""
    return property(lambda j: CArray(j.grad.real[barred, var], j.grad.imag[barred, var], j.grad.events))


@dataclass(frozen=True, slots=True)
class WirtingerJet:
    """A value at n points and its four first-order Wirtinger partials.

    val has shape (n,), grad stacks the partials as (2, 2, n) on axes
    [unbarred, barred] x [z1, z2]; (1,) and (2, 2, 1) hold what all n
    points share.  d_z1, d_z1bar, d_z2 and d_z2bar are views into grad.
    A value-only jet (grid_jets with partials=False) has an empty grad of
    shape (0, n) or (0, 1), and its partials and magnitude raise
    IndexError.
    """

    val: CArray
    grad: CArray

    d_z1 = _partial(0, 0)
    d_z1bar = _partial(1, 0)
    d_z2 = _partial(0, 1)
    d_z2bar = _partial(1, 1)

    @quiet
    def magnitude(self) -> np.ndarray:
        return maximum(
            abs(self.val),
            abs(self.d_z1),
            abs(self.d_z1bar),
            abs(self.d_z2),
            abs(self.d_z2bar),
        )


def jet_add(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(a.val + b.val, a.grad + b.grad)


def jet_sub(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(a.val - b.val, a.grad - b.grad)


def jet_neg(a: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(-a.val, -a.grad)


def jet_mul(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(a.val * b.val, a.grad * b.val + a.val * b.grad)


def jet_div(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    """Quotient jet.  First flags "singular" where the divisor vanishes,
    |b.val|^2 below SINGULAR_SQ_TOL, read at each call so that a patched
    value takes effect.  A value-only jet's empty gradient is returned
    as it is, for dividing it would only rerun the value's quotient."""
    den = b.val
    den.events.flag(den.real * den.real + den.imag * den.imag < SINGULAR_SQ_TOL, SINGULAR)
    val = a.val / den
    if not len(a.grad.real):
        return WirtingerJet(val, a.grad)
    return WirtingerJet(val, (a.grad - val * b.grad) / den)


def jet_pow(a: WirtingerJet, n: int) -> WirtingerJet:
    """The n - 1 power, the factor of the partials, is taken first."""
    factor = n * a.val ** (n - 1)
    return WirtingerJet(a.val**n, factor * a.grad)


def jet_conj(a: WirtingerJet) -> WirtingerJet:
    """Conjugation swaps the barred and unbarred partials and conjugates
    them: it reverses the gradient's first axis."""
    g = a.grad
    return WirtingerJet(a.val.conjugate(), CArray(g.real[::-1], -g.imag[::-1], g.events))


def grid_jets(
    exprs: tuple[QExpr, ...], z: Columns, *, partials: bool = True
) -> tuple[list[WirtingerJet], PointEvents]:
    """Jets of j-free trees at every point of a block at once, z holding
    the points' coordinate columns, and the first event evaluating them
    meets at each point.

    An iterative post-order walk, the trees in order and each node after
    its children, left before right: the order in which evaluating one
    point alone meets them, so each point keeps the event that evaluation
    would have raised first.  Each node's jet comes from its children's by
    the jet_* rule of its class.  A vanishing divisor is flagged
    "singular" on the returned events, an overflowing power "overflow";
    the jets' CArrays share those events, so a caller's further arithmetic
    on them flags there too.

    Each distinct node is evaluated once: nodes are interned, so equal
    subtrees are one node, and the walk plans over the nodes themselves
    without recursion, so deep trees evaluate too.  The memory held grows
    with the number of points times the number of jets awaiting a user,
    so callers evaluate large grids in blocks.

    With partials=False the leaves' gradients are empty, of shape (0, 1),
    so every jet's is (0, 1) or (0, n) and the rules compute values alone
    (forward mode with no tangent direction).  The events are the same,
    since the value steps that flag them still run, in the same order:
    jet_pow's n - 1 power before its n power, and jet_div's divisor test.
    Reading a partial of such a jet raises IndexError.
    """
    events = PointEvents(len(z[0]))
    z1, z2 = CArray(z[0], z[1], events), CArray(z[2], z[3], events)
    zero = np.zeros((2, 2, 1) if partials else (0, 1))
    no_grad = CArray(zero, zero, events)

    def const(c: complex) -> WirtingerJet:
        return WirtingerJet(CArray(np.array([c.real]), np.array([c.imag]), events), no_grad)

    def variable(val: CArray, barred: int, var: int) -> WirtingerJet:
        """val with the partial 1 at [barred, var] and 0 elsewhere, or
        with the empty gradient."""
        if not partials:
            return WirtingerJet(val, no_grad)
        real = np.zeros((2, 2, 1))
        real[barred, var] = 1.0
        return WirtingerJet(val, CArray(real, zero, events))

    def rule(e: QExpr, a: list[WirtingerJet]) -> WirtingerJet:
        match e:
            case Var("z1"):
                return variable(z1, 0, 0)
            case Var("z2"):
                return variable(z2, 0, 1)
            case ConjVar("z1"):
                return variable(z1.conjugate(), 1, 0)
            case ConjVar("z2"):
                return variable(z2.conjugate(), 1, 1)
            case RealConst(v):
                return const(complex(v))
            case UnitI():
                return const(1j)
            case UnitJ():
                raise ValueError("j has no scalar jet; lower the expression first")
            case Add():
                return jet_add(*a)
            case Sub():
                return jet_sub(*a)
            case Neg():
                return jet_neg(*a)
            case Mul():
                return jet_mul(*a)
            case Div():
                return jet_div(*a)
            case Pow(_, n):
                return jet_pow(*a, n)
            case Conj():
                return jet_conj(*a)
        raise TypeError(f"not an expression node: {e!r}")

    plan = post_order(exprs)
    # A jet is dropped once its last user is evaluated, so only the walk's
    # frontier is held, not every distinct node's jet.
    uses = dict.fromkeys(plan, 0)
    for node in (*exprs, *(k for e in plan for k in e.kids)):
        uses[node] += 1
    jets: dict[QExpr, WirtingerJet] = {}
    for e in plan:
        jets[e] = rule(e, [jets[k] for k in e.kids])
        for k in e.kids:
            uses[k] -= 1
            if not uses[k]:
                del jets[k]
    return [jets[e] for e in exprs], events


def jets_at(exprs: tuple[QExpr, ...], p: Point4) -> list[WirtingerJet]:
    """Jets of j-free trees at the one point p: grid_jets on a one-point
    block, its CArrays of shape (1,).  Its events raise at the first flag
    (see PointEvents.raise_at): here where evaluating the trees meets an
    event, or else where a formula on the jets does."""
    with np.errstate(all="ignore"):
        jets, events = grid_jets(exprs, columns_of([p.z1], [p.z2]))
    events.raise_at(p)
    return jets
