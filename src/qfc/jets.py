"""Forward-mode Wirtinger differentiation of component trees.

A jet carries the value of a scalar expression at a point together with
its four first-order Wirtinger partials with respect to z1, conj(z1),
z2, conj(z2).  Conjugation swaps the barred and unbarred slots and
conjugates them; all other rules are the usual bilinear ones.  The jet_*
helpers carry these rules for the jets-level formulas of analysis.

grid_jets is the one evaluator.  It takes a block of points as coordinate
columns and holds each node's jet as a value and a stacked gradient,
CArrays of shapes (n,) and (2, 2, n), or (1,) and (2, 2, 1) for a value
all n points share, the gradient's axes being [unbarred, barred] x
[z1, z2].  Each rule then runs once on the gradient instead of once per
slot (vector forward mode: Griewank and Walther, Evaluating Derivatives,
2nd ed., 2008, section 3.1), and conjugation reverses the first axis.
Every slot still sees the jet rules' operations in their order, so each
slot at each point has the bits the rules give on that point's Python
complex numbers.  grid_jets returns the roots' jets as
WirtingerJets of CArray rows, and the block's PointEvents: per point, the
first event at which evaluating that point alone would have raised.
jets_at is its one-point form, which raises there instead.
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
)

# A divisor d vanishes, and its quotient is refused, where |d|^2 is below
# this.  vanishes reads it at each call, not as a default argument bound at
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

    def flag(self, where: np.ndarray | bool, code: int) -> None:
        self.code[(self.code == 0) & where & self.scope] = code

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


def maximum(*values):
    """Python's max: the first value unless a later one is strictly
    greater, elementwise when the values are arrays."""
    if not isinstance(values[0], np.ndarray):
        return max(values)
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return out


def refuse(value, vanished, message: str) -> None:
    """Refuse where `vanished` holds: for a grid value, flag those points
    singular; for a scalar, raise SingularPointError."""
    if isinstance(value, CArray):
        value.events.flag(vanished, SINGULAR)
    elif vanished:
        raise SingularPointError(message)


@dataclass(frozen=True)
class WirtingerJet:
    val: complex
    d_z1: complex
    d_z1bar: complex
    d_z2: complex
    d_z2bar: complex

    def magnitude(self) -> float:
        return maximum(
            abs(self.val),
            abs(self.d_z1),
            abs(self.d_z1bar),
            abs(self.d_z2),
            abs(self.d_z2bar),
        )


# Where grid_jets' stacked gradient holds d_z1, d_z1bar, d_z2 and d_z2bar.
_SLOTS = ((0, 0), (1, 0), (0, 1), (1, 1))


def jet_add(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(
        a.val + b.val,
        a.d_z1 + b.d_z1,
        a.d_z1bar + b.d_z1bar,
        a.d_z2 + b.d_z2,
        a.d_z2bar + b.d_z2bar,
    )


def jet_neg(a: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(-a.val, -a.d_z1, -a.d_z1bar, -a.d_z2, -a.d_z2bar)


def jet_mul(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(
        a.val * b.val,
        a.d_z1 * b.val + a.val * b.d_z1,
        a.d_z1bar * b.val + a.val * b.d_z1bar,
        a.d_z2 * b.val + a.val * b.d_z2,
        a.d_z2bar * b.val + a.val * b.d_z2bar,
    )


def vanishes(den: complex) -> bool:
    """True when den is too close to zero to divide by: |den|^2 below
    SINGULAR_SQ_TOL."""
    return den.real * den.real + den.imag * den.imag < SINGULAR_SQ_TOL


def jet_div(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    """Quotient jet; the caller checks vanishes(b.val) first."""
    den = b.val
    val = a.val / den
    return WirtingerJet(
        val,
        (a.d_z1 - val * b.d_z1) / den,
        (a.d_z1bar - val * b.d_z1bar) / den,
        (a.d_z2 - val * b.d_z2) / den,
        (a.d_z2bar - val * b.d_z2bar) / den,
    )


def jet_conj(a: WirtingerJet) -> WirtingerJet:
    """Conjugation swaps the barred and unbarred slots."""
    return WirtingerJet(
        a.val.conjugate(),
        a.d_z1bar.conjugate(),
        a.d_z1.conjugate(),
        a.d_z2bar.conjugate(),
        a.d_z2.conjugate(),
    )


def grid_jets(exprs: tuple[QExpr, ...], z: Columns) -> tuple[list[WirtingerJet], PointEvents]:
    """Jets of j-free trees at every point of a block at once, z holding
    the points' coordinate columns, and the first event evaluating them
    meets at each point.

    An iterative post-order walk, the trees in order and each node after
    its children, left before right: the order in which evaluating one
    point alone meets them, so each point keeps the event that evaluation
    would have raised first.
    A vanishing divisor is flagged "singular" on the returned events, an
    overflowing power "overflow"; the jets' CArray slots share those
    events, so a caller's further arithmetic on them flags there too.

    A node's jet is a pair (value, gradient), the gradient stacking
    d_z1, d_z1bar, d_z2 and d_z2bar on axes [unbarred, barred] x [z1, z2].
    The rules keep the bits of the jet rules on one point's complex
    numbers: a product's slot is a.d * b.val + a.val *
    b.d, a quotient's (a.d - val * b.d) / den after its value a.val / den;
    a power's n - 1 power is taken before its n power, and both powers
    and quotients of values go through CArray, so flags and the n > 100
    path are CArray's.  Only the roots are unpacked into WirtingerJets.

    Each distinct node is evaluated once: nodes are interned, so equal
    subtrees are one node, and the walk plans over the nodes themselves
    without recursion, so deep trees evaluate too.  The memory held grows
    with the number of points times the number of jets awaiting a user,
    so callers evaluate large grids in blocks.
    """
    events = PointEvents(len(z[0]))
    z1, z2 = CArray(z[0], z[1], events), CArray(z[2], z[3], events)

    def const(c: complex) -> CArray:
        return CArray(np.array([c.real]), np.array([c.imag]), events)

    def unit(barred: int, var: int) -> CArray:
        """A variable's gradient: 1 at [barred, var], 0 elsewhere."""
        real = np.zeros((2, 2, 1))
        real[barred, var] = 1.0
        return CArray(real, np.zeros((2, 2, 1)), events)

    no_grad = CArray(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), events)

    def rule(e: QExpr, a: list[tuple[CArray, CArray]]) -> tuple[CArray, CArray]:
        match e:
            case Var("z1"):
                return z1, unit(0, 0)
            case Var("z2"):
                return z2, unit(0, 1)
            case ConjVar("z1"):
                return z1.conjugate(), unit(1, 0)
            case ConjVar("z2"):
                return z2.conjugate(), unit(1, 1)
            case RealConst(v):
                return const(complex(v)), no_grad
            case UnitI():
                return const(1j), no_grad
            case UnitJ():
                raise ValueError("j has no scalar jet; lower the expression first")
            case Add():
                (av, ag), (bv, bg) = a
                return av + bv, ag + bg
            case Sub():
                (av, ag), (bv, bg) = a
                return av - bv, ag - bg
            case Neg():
                ((av, ag),) = a
                return -av, -ag
            case Mul():
                (av, ag), (bv, bg) = a
                return av * bv, ag * bv + av * bg
            case Div():
                (av, ag), (bv, bg) = a
                events.flag(vanishes(bv), SINGULAR)
                val = av / bv
                return val, (ag - val * bg) / bv
            case Pow(_, n):
                ((av, ag),) = a
                factor = n * av ** (n - 1)
                return av**n, factor * ag
            case Conj():
                ((av, ag),) = a
                return av.conjugate(), CArray(ag.real[::-1], -ag.imag[::-1], events)
        raise TypeError(f"not an expression node: {e!r}")

    def unpack(val: CArray, grad: CArray) -> WirtingerJet:
        rows = [CArray(grad.real[i, k], grad.imag[i, k], events) for i, k in _SLOTS]
        return WirtingerJet(val, *rows)

    plan = _post_order(exprs)
    # A jet is dropped once its last user is evaluated, so only the walk's
    # frontier is held, not every distinct node's jet.
    uses = dict.fromkeys(plan, 0)
    for node in (*exprs, *(k for e in plan for k in e.kids)):
        uses[node] += 1
    jets: dict[QExpr, tuple[CArray, CArray]] = {}
    for e in plan:
        jets[e] = rule(e, [jets[k] for k in e.kids])
        for k in e.kids:
            uses[k] -= 1
            if not uses[k]:
                del jets[k]
    return [unpack(*jets[e]) for e in exprs], events


def _post_order(exprs: tuple[QExpr, ...]) -> list[QExpr]:
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


def jets_at(exprs: tuple[QExpr, ...], p: Point4) -> list[WirtingerJet]:
    """Jets of j-free trees at the one point p, with Python complex slots:
    grid_jets on a one-point block.  Raises SingularPointError where its
    first event is "singular" (a divisor vanishes) and OverflowError where
    it is "overflow"."""
    with np.errstate(all="ignore"):
        jets, events = grid_jets(exprs, columns_of([p.z1], [p.z2]))
    code = int(events.code[0])
    if code:
        error = OverflowError if code == OVERFLOW else SingularPointError
        raise error(f"{MASK_REASONS[code]} near {p}")
    return [WirtingerJet(*(complex(s.real[0], s.imag[0]) for s in vars(j).values())) for j in jets]
