"""The per-point evaluator the array path is checked against.

eval_jet evaluates a j-free tree at one point by recursion over the tree,
with the jet_* rules, and raises where grid_jets flags an event.  It is
independent of grid_jets' iterative walk and stacked gradients, so the
batched-versus-per-point comparisons compare two evaluators.  With it
come eval_qfunction, the finite-difference cross-check fd_jet, the
lattice as a list of points (grid_points), the quaternion right inverse
rinv, and jet_pair, a function's two component jets at a point, which the
jets-level formulas of analysis take.
"""
from __future__ import annotations

import math
from itertools import product

from qfc.domain import Domain, grid_axes
from qfc.errors import SingularPointError
from qfc.expr import Add, Conj, ConjVar, Div, Mul, Neg, Pow, QExpr, RealConst, Sub, UnitI, UnitJ, Var
from qfc.jets import Point4, WirtingerJet, jet_add, jet_conj, jet_div, jet_mul, jet_neg, vanishes
from qfc.lowering import QFunction
from qfc.quaternion import Quaternion, norm_sq, quat_conj

_ZERO_JET = (0j, 0j, 0j, 0j)


def jet_sub(a: WirtingerJet, b: WirtingerJet) -> WirtingerJet:
    return WirtingerJet(
        a.val - b.val,
        a.d_z1 - b.d_z1,
        a.d_z1bar - b.d_z1bar,
        a.d_z2 - b.d_z2,
        a.d_z2bar - b.d_z2bar,
    )


def jet_pow(a: WirtingerJet, n: int) -> WirtingerJet:
    factor = n * a.val ** (n - 1)
    return WirtingerJet(
        a.val**n,
        factor * a.d_z1,
        factor * a.d_z1bar,
        factor * a.d_z2,
        factor * a.d_z2bar,
    )


def eval_jet(e: QExpr, p: Point4) -> WirtingerJet:
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


def jet_pair(f: QFunction, p: Point4) -> tuple[WirtingerJet, WirtingerJet]:
    """The jets of f's two components at p, as analysis's formulas take them."""
    return eval_jet(f.f1, p), eval_jet(f.f2, p)


def eval_qfunction(f: QFunction, p: Point4) -> Quaternion:
    return Quaternion(eval_jet(f.f1, p).val, eval_jet(f.f2, p).val)


def fd_jet(e: QExpr, p: Point4, h: float = 1e-5) -> WirtingerJet:
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
    return WirtingerJet(
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
