"""The per-point evaluator the array path is checked against.

eval_jet evaluates a j-free tree at one point by recursion over the tree,
with its own slotwise jet rules on Python complex numbers (ScalarJet,
jet_add, ..., vanishes), and raises where grid_jets flags an event.  It
shares no function with qfc.jets or qfc.analysis, only their types and
constants, so the batched-versus-per-point comparisons compare two
implementations.  With it come eval_qfunction, the finite-difference
cross-check fd_jet, the lattice as a list of points (grid_points), the
quaternion right inverse rinv, and the bridge to analysis's formulas:
jet_pair, a function's two component jets at a point as one-point jets,
and scalar, a formula's one-element results as Python numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from itertools import product

import numpy as np

import qfc.jets
from qfc.domain import Domain, grid_axes
from qfc.errors import SingularPointError
from qfc.expr import Add, Conj, ConjVar, Div, Mul, Neg, Pow, QExpr, RealConst, Sub, UnitI, UnitJ, Var
from qfc.jets import CArray, Point4, PointEvents, WirtingerJet
from qfc.lowering import QFunction
from qfc.quaternion import Quaternion, norm_sq, quat_conj

SLOTS = ("val", "d_z1", "d_z1bar", "d_z2", "d_z2bar")
_ZERO_JET = (0j, 0j, 0j, 0j)


@dataclass(frozen=True)
class ScalarJet:
    """A jet at one point, each slot a Python complex number."""

    val: complex
    d_z1: complex
    d_z1bar: complex
    d_z2: complex
    d_z2bar: complex

    def magnitude(self) -> float:
        return max(abs(getattr(self, s)) for s in SLOTS)


def jet_add(a: ScalarJet, b: ScalarJet) -> ScalarJet:
    return ScalarJet(
        a.val + b.val,
        a.d_z1 + b.d_z1,
        a.d_z1bar + b.d_z1bar,
        a.d_z2 + b.d_z2,
        a.d_z2bar + b.d_z2bar,
    )


def jet_sub(a: ScalarJet, b: ScalarJet) -> ScalarJet:
    return ScalarJet(
        a.val - b.val,
        a.d_z1 - b.d_z1,
        a.d_z1bar - b.d_z1bar,
        a.d_z2 - b.d_z2,
        a.d_z2bar - b.d_z2bar,
    )


def jet_neg(a: ScalarJet) -> ScalarJet:
    return ScalarJet(-a.val, -a.d_z1, -a.d_z1bar, -a.d_z2, -a.d_z2bar)


def jet_mul(a: ScalarJet, b: ScalarJet) -> ScalarJet:
    return ScalarJet(
        a.val * b.val,
        a.d_z1 * b.val + a.val * b.d_z1,
        a.d_z1bar * b.val + a.val * b.d_z1bar,
        a.d_z2 * b.val + a.val * b.d_z2,
        a.d_z2bar * b.val + a.val * b.d_z2bar,
    )


def vanishes(den: complex) -> bool:
    """True when den is too close to zero to divide by: |den|^2 below
    qfc.jets.SINGULAR_SQ_TOL, read at each call so that a patched value
    takes effect."""
    return den.real * den.real + den.imag * den.imag < qfc.jets.SINGULAR_SQ_TOL


def jet_div(a: ScalarJet, b: ScalarJet) -> ScalarJet:
    """Quotient jet; the caller checks vanishes(b.val) first."""
    den = b.val
    val = a.val / den
    return ScalarJet(
        val,
        (a.d_z1 - val * b.d_z1) / den,
        (a.d_z1bar - val * b.d_z1bar) / den,
        (a.d_z2 - val * b.d_z2) / den,
        (a.d_z2bar - val * b.d_z2bar) / den,
    )


def jet_pow(a: ScalarJet, n: int) -> ScalarJet:
    factor = n * a.val ** (n - 1)
    return ScalarJet(
        a.val**n,
        factor * a.d_z1,
        factor * a.d_z1bar,
        factor * a.d_z2,
        factor * a.d_z2bar,
    )


def jet_conj(a: ScalarJet) -> ScalarJet:
    """Conjugation swaps the barred and unbarred slots."""
    return ScalarJet(
        a.val.conjugate(),
        a.d_z1bar.conjugate(),
        a.d_z1.conjugate(),
        a.d_z2bar.conjugate(),
        a.d_z2.conjugate(),
    )


def eval_jet(e: QExpr, p: Point4) -> ScalarJet:
    """Value and Wirtinger partials of a j-free tree at p."""
    match e:
        case Var("z1"):
            return ScalarJet(p.z1, 1 + 0j, 0j, 0j, 0j)
        case Var("z2"):
            return ScalarJet(p.z2, 0j, 0j, 1 + 0j, 0j)
        case ConjVar("z1"):
            return ScalarJet(p.z1.conjugate(), 0j, 1 + 0j, 0j, 0j)
        case ConjVar("z2"):
            return ScalarJet(p.z2.conjugate(), 0j, 0j, 0j, 1 + 0j)
        case RealConst(v):
            return ScalarJet(complex(v), *_ZERO_JET)
        case UnitI():
            return ScalarJet(1j, *_ZERO_JET)
        case UnitJ():
            raise ValueError("j has no scalar jet; lower the expression first")
        case Add(l, r):
            return jet_add(eval_jet(l, p), eval_jet(r, p))
        case Sub(l, r):
            return jet_sub(eval_jet(l, p), eval_jet(r, p))
        case Neg(x):
            return jet_neg(eval_jet(x, p))
        case Mul(l, r):
            return jet_mul(eval_jet(l, p), eval_jet(r, p))
        case Div(l, r):
            a = eval_jet(l, p)
            b = eval_jet(r, p)
            if vanishes(b.val):
                raise SingularPointError(f"denominator vanishes near {p}")
            return jet_div(a, b)
        case Pow(b, n):
            return jet_pow(eval_jet(b, p), n)
        case Conj(x):
            return jet_conj(eval_jet(x, p))
    raise TypeError(f"not an expression node: {e!r}")


def one_point(jets: tuple[ScalarJet, ...], p: Point4) -> list[WirtingerJet]:
    """The jets as one-point WirtingerJets at p, as jets_at gives them:
    CArrays of shape (1,) whose events raise at the first flag."""
    events = PointEvents(1)
    events.raise_at(p)

    def carray(zs: list) -> CArray:
        return CArray(np.array([z.real for z in zs]), np.array([z.imag for z in zs]), events)

    def grad(j: ScalarJet) -> CArray:
        g = carray([j.d_z1, j.d_z2, j.d_z1bar, j.d_z2bar])
        return CArray(g.real.reshape(2, 2, 1), g.imag.reshape(2, 2, 1), events)

    return [WirtingerJet(carray([j.val]), grad(j)) for j in jets]


def jet_pair(f: QFunction, p: Point4) -> tuple[WirtingerJet, WirtingerJet]:
    """The jets of f's two components at p by eval_jet, as one-point jets,
    the form analysis's formulas take."""
    j1, j2 = one_point((eval_jet(f.f1, p), eval_jet(f.f2, p)), p)
    return j1, j2


def scalar(x):
    """x, a formula's result on one-point jets, with Python numbers for its
    one-element arrays: a float for an ndarray, a complex for a CArray, a
    ScalarJet for a WirtingerJet, and the same for each item of a tuple or
    list and each field of a dataclass."""
    if isinstance(x, np.ndarray):
        (v,) = x.tolist()
        return v
    if isinstance(x, CArray):
        return complex(scalar(x.real), scalar(x.imag))
    if isinstance(x, WirtingerJet):
        return ScalarJet(*(scalar(getattr(x, s)) for s in SLOTS))
    if isinstance(x, (tuple, list)):
        return type(x)(map(scalar, x))
    if is_dataclass(x):
        return type(x)(*(scalar(getattr(x, f.name)) for f in fields(x)))
    return x


def eval_qfunction(f: QFunction, p: Point4) -> Quaternion:
    return Quaternion(eval_jet(f.f1, p).val, eval_jet(f.f2, p).val)


def fd_jet(e: QExpr, p: Point4, h: float = 1e-5) -> ScalarJet:
    """Central-difference estimate of eval_jet, for cross-checking.

    Any stencil point that hits a near-singular denominator raises
    SingularPointError, same as the exact evaluator.
    """
    if not (h > 0.0) or not math.isfinite(h):
        raise ValueError("step size must be positive and finite")
    x1, y1, x2, y2 = p.reals()

    def at(a: float, b: float, c: float, d: float) -> complex:
        return eval_jet(e, Point4.from_reals(a, b, c, d)).val

    dx1 = (at(x1 + h, y1, x2, y2) - at(x1 - h, y1, x2, y2)) / (2 * h)
    dy1 = (at(x1, y1 + h, x2, y2) - at(x1, y1 - h, x2, y2)) / (2 * h)
    dx2 = (at(x1, y1, x2 + h, y2) - at(x1, y1, x2 - h, y2)) / (2 * h)
    dy2 = (at(x1, y1, x2, y2 + h) - at(x1, y1, x2, y2 - h)) / (2 * h)
    return ScalarJet(
        at(x1, y1, x2, y2),
        0.5 * (dx1 - 1j * dy1),
        0.5 * (dx1 + 1j * dy1),
        0.5 * (dx2 - 1j * dy2),
        0.5 * (dx2 + 1j * dy2),
    )


def grid_points(domain: Domain, grid_n: int) -> list[Point4]:
    """The grid_n**4 lattice of the box as points, in grid_blocks' order."""
    x1, y1, x2, y2 = grid_axes(domain, grid_n)
    # grid_n**2 distinct values per variable, shared by the points that use them
    z1s = [complex(x, y) for x, y in product(x1, y1)]
    z2s = [complex(x, y) for x, y in product(x2, y2)]
    return [Point4(z1, z2) for z1, z2 in product(z1s, z2s)]


def rinv(q: Quaternion, singular_sq_tol: float = 0.0) -> Quaternion:
    """Right inverse conj(q)/norm_sq(q); it is in fact two-sided.

    Raises SingularPointError when norm_sq(q) <= singular_sq_tol (so the
    default rejects exactly q = 0).
    """
    n = norm_sq(q)
    if n <= singular_sq_tol:
        raise SingularPointError(f"no inverse: norm_sq = {n}")
    c = quat_conj(q)
    return Quaternion(c.z1 / n, c.z2 / n)
