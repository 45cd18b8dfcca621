"""Forward-mode Wirtinger differentiation of component trees.

A jet carries the value of a scalar expression at a point together with
its four first-order Wirtinger partials with respect to z1, conj(z1),
z2, conj(z2).  Conjugation swaps the barred and unbarred slots and
conjugates them; all other rules are the usual bilinear ones.  The jet_*
helpers carry these rules; eval_jet and the from-jets forms in analysis
share them, so a derived jet is bit-identical to evaluating its tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SingularPointError
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
from .lowering import QFunction
from .quaternion import UNIT_I, UNIT_J, Quaternion, quat_conj, quat_mul, rinv

DEFAULT_SINGULAR_SQ_TOL = 1e-12


class Point4(NamedTuple):
    """A point of the two-complex-variable domain."""

    z1: complex
    z2: complex

    @classmethod
    def from_reals(cls, x1: float, y1: float, x2: float, y2: float) -> Point4:
        return cls(complex(x1, y1), complex(x2, y2))

    def reals(self) -> tuple[float, float, float, float]:
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)


@dataclass(frozen=True)
class WirtingerJet:
    val: complex
    d_z1: complex
    d_z1bar: complex
    d_z2: complex
    d_z2bar: complex

    def magnitude(self) -> float:
        return max(
            abs(self.val),
            abs(self.d_z1),
            abs(self.d_z1bar),
            abs(self.d_z2),
            abs(self.d_z2bar),
        )


_ZERO_JET = (0j, 0j, 0j, 0j)


def jet_add(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(
        a.val + b.val,
        a.d_z1 + b.d_z1,
        a.d_z1bar + b.d_z1bar,
        a.d_z2 + b.d_z2,
        a.d_z2bar + b.d_z2bar,
    )


def jet_sub(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(
        a.val - b.val,
        a.d_z1 - b.d_z1,
        a.d_z1bar - b.d_z1bar,
        a.d_z2 - b.d_z2,
        a.d_z2bar - b.d_z2bar,
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


def vanishes(den: complex, singular_sq_tol: float) -> bool:
    """True when den is too close to zero to divide by."""
    return den.real * den.real + den.imag * den.imag < singular_sq_tol


def jet_div(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    """Quotient jet; the caller checks vanishes(b.val, ...) first."""
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


def eval_jet(
    e: QExpr, p: Point4, singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL
) -> WirtingerJet:
    """Value and Wirtinger partials of a j-free tree at p."""
    match e:
        case Var("z1"):
            return WirtingerJet(p.z1, 1 + 0j, 0j, 0j, 0j)
        case Var("z2"):
            return WirtingerJet(p.z2, 0j, 0j, 1 + 0j, 0j)
        case ConjVar("z1"):
            return WirtingerJet(p.z1.conjugate(), 0j, 1 + 0j, 0j, 0j)
        case ConjVar("z2"):
            return WirtingerJet(p.z2.conjugate(), 0j, 0j, 0j, 1 + 0j)
        case RealConst(v):
            return WirtingerJet(complex(v), *_ZERO_JET)
        case UnitI():
            return WirtingerJet(1j, *_ZERO_JET)
        case UnitJ():
            raise ValueError("j has no scalar jet; lower the expression first")
        case Add(l, r):
            return jet_add(eval_jet(l, p, singular_sq_tol), eval_jet(r, p, singular_sq_tol))
        case Sub(l, r):
            return jet_sub(eval_jet(l, p, singular_sq_tol), eval_jet(r, p, singular_sq_tol))
        case Neg(x):
            return jet_neg(eval_jet(x, p, singular_sq_tol))
        case Mul(l, r):
            return jet_mul(eval_jet(l, p, singular_sq_tol), eval_jet(r, p, singular_sq_tol))
        case Div(l, r):
            a = eval_jet(l, p, singular_sq_tol)
            b = eval_jet(r, p, singular_sq_tol)
            if vanishes(b.val, singular_sq_tol):
                raise SingularPointError(f"denominator vanishes near {p}")
            return jet_div(a, b)
        case Pow(b, n):
            a = eval_jet(b, p, singular_sq_tol)
            factor = n * a.val ** (n - 1)
            return WirtingerJet(
                a.val**n,
                factor * a.d_z1,
                factor * a.d_z1bar,
                factor * a.d_z2,
                factor * a.d_z2bar,
            )
        case Conj(x):
            return jet_conj(eval_jet(x, p, singular_sq_tol))
    raise TypeError(f"not an expression node: {e!r}")


def eval_value(
    e: QExpr, p: Point4, singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL
) -> complex:
    """Plain complex value of a j-free tree at p."""
    match e:
        case Var("z1"):
            return p.z1
        case Var("z2"):
            return p.z2
        case ConjVar("z1"):
            return p.z1.conjugate()
        case ConjVar("z2"):
            return p.z2.conjugate()
        case RealConst(v):
            return complex(v)
        case UnitI():
            return 1j
        case UnitJ():
            raise ValueError("j has no scalar value; lower the expression first")
        case Add(l, r):
            return eval_value(l, p, singular_sq_tol) + eval_value(r, p, singular_sq_tol)
        case Sub(l, r):
            return eval_value(l, p, singular_sq_tol) - eval_value(r, p, singular_sq_tol)
        case Neg(x):
            return -eval_value(x, p, singular_sq_tol)
        case Mul(l, r):
            return eval_value(l, p, singular_sq_tol) * eval_value(r, p, singular_sq_tol)
        case Div(l, r):
            den = eval_value(r, p, singular_sq_tol)
            if vanishes(den, singular_sq_tol):
                raise SingularPointError(f"denominator vanishes near {p}")
            return eval_value(l, p, singular_sq_tol) / den
        case Pow(b, n):
            return eval_value(b, p, singular_sq_tol) ** n
        case Conj(x):
            return eval_value(x, p, singular_sq_tol).conjugate()
    raise TypeError(f"not an expression node: {e!r}")


def eval_qexpr(
    e: QExpr, p: Point4, singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL
) -> Quaternion:
    """Quaternion value of an arbitrary (possibly j-bearing) tree at p.

    Independent of `lower`; used to check that lowering preserves values.
    """
    match e:
        case Var("z1"):
            return Quaternion(p.z1, 0j)
        case Var("z2"):
            return Quaternion(p.z2, 0j)
        case ConjVar("z1"):
            return Quaternion(p.z1.conjugate(), 0j)
        case ConjVar("z2"):
            return Quaternion(p.z2.conjugate(), 0j)
        case RealConst(v):
            return Quaternion(complex(v), 0j)
        case UnitI():
            return UNIT_I
        case UnitJ():
            return UNIT_J
        case Add(l, r):
            return eval_qexpr(l, p, singular_sq_tol) + eval_qexpr(r, p, singular_sq_tol)
        case Sub(l, r):
            return eval_qexpr(l, p, singular_sq_tol) - eval_qexpr(r, p, singular_sq_tol)
        case Neg(x):
            return -eval_qexpr(x, p, singular_sq_tol)
        case Mul(l, r):
            return quat_mul(
                eval_qexpr(l, p, singular_sq_tol), eval_qexpr(r, p, singular_sq_tol)
            )
        case Div(l, r):
            return quat_mul(
                eval_qexpr(l, p, singular_sq_tol),
                rinv(eval_qexpr(r, p, singular_sq_tol), singular_sq_tol),
            )
        case Pow(b, n):
            base = eval_qexpr(b, p, singular_sq_tol)
            out = base
            for _ in range(n - 1):
                out = quat_mul(out, base)
            return out
        case Conj(x):
            return quat_conj(eval_qexpr(x, p, singular_sq_tol))
    raise TypeError(f"not an expression node: {e!r}")


def eval_qfunction(
    f: QFunction, p: Point4, singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL
) -> Quaternion:
    return Quaternion(
        eval_value(f.f1, p, singular_sq_tol), eval_value(f.f2, p, singular_sq_tol)
    )


def fd_jet(
    e: QExpr,
    p: Point4,
    h: float = 1e-5,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> WirtingerJet:
    """Central-difference estimate of eval_jet, for cross-checking.

    Any stencil point that hits a near-singular denominator raises
    SingularPointError, same as the exact evaluator.
    """
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError("step size must be positive and finite")
    x1, y1, x2, y2 = p.reals()

    def at(a: float, b: float, c: float, d: float) -> complex:
        return eval_value(e, Point4.from_reals(a, b, c, d), singular_sq_tol)

    dx1 = (at(x1 + h, y1, x2, y2) - at(x1 - h, y1, x2, y2)) / (2 * h)
    dy1 = (at(x1, y1 + h, x2, y2) - at(x1, y1 - h, x2, y2)) / (2 * h)
    dx2 = (at(x1, y1, x2 + h, y2) - at(x1, y1, x2 - h, y2)) / (2 * h)
    dy2 = (at(x1, y1, x2, y2 + h) - at(x1, y1, x2, y2 - h)) / (2 * h)
    return WirtingerJet(
        at(x1, y1, x2, y2),
        0.5 * (dx1 - 1j * dy1),
        0.5 * (dx1 + 1j * dy1),
        0.5 * (dx2 - 1j * dy2),
        0.5 * (dx2 + 1j * dy2),
    )
