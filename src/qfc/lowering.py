"""Lowering quaternion-valued expression trees to component pairs.

Every expression e denotes a function with values f1 + f2*j where f1, f2
are complex-valued.  `lower` rewrites e into that canonical pair using
the commutation rule z*j = j*conj(z); the component trees contain no j
node, so they can be differentiated as ordinary functions of
z1, conj(z1), z2, conj(z2).
"""
from __future__ import annotations

from dataclasses import dataclass

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
    const,
    is_zero,
    post_order,
)
from .quaternion import Quaternion

_ZERO = RealConst(0.0)
_ONE = RealConst(1.0)


@dataclass(frozen=True)
class QFunction:
    """A function f = f1 + f2*j given by two complex-component trees."""

    f1: QExpr
    f2: QExpr

    def __post_init__(self):
        if self.f1.has_j or self.f2.has_j:
            raise ValueError("component expressions must not contain j")


def lower(e: QExpr) -> QFunction:
    """Rewrite e as an equivalent (f1, f2) component pair.  Each distinct
    node is lowered once, after its children, without recursion."""
    lowered: dict[QExpr, QFunction] = {}
    for node in post_order((e,)):
        lowered[node] = _lower_node(node, [lowered[k] for k in node.kids])
    return lowered[e]


def _lower_node(e: QExpr, parts: list[QFunction]) -> QFunction:
    """The pair of e, given the pairs of its children."""
    match e:
        case Var() | ConjVar() | RealConst() | UnitI():
            return QFunction(e, _ZERO)
        case UnitJ():
            return QFunction(_ZERO, _ONE)
        case Add():
            return sum_qf(*parts)
        case Sub():
            a, b = parts
            return QFunction(a.f1 - b.f1, a.f2 - b.f2)
        case Neg():
            (a,) = parts
            return QFunction(-a.f1, -a.f2)
        case Conj():
            return conj_qf(*parts)
        case Mul():
            return product_qf(*parts)
        case Div():
            a, b = parts
            return product_qf(a, inverse_qf(b))
        case Pow(_, n):
            (base,) = parts
            if is_zero(base.f2):
                return QFunction(base.f1**n, _ZERO)
            out = base
            for _ in range(n - 1):
                out = product_qf(out, base)
            return out
    raise TypeError(f"not an expression node: {e!r}")


def sum_qf(f: QFunction, g: QFunction) -> QFunction:
    return QFunction(f.f1 + g.f1, f.f2 + g.f2)


def product_qf(f: QFunction, g: QFunction) -> QFunction:
    """Componentwise quaternionic product, order preserved."""
    return QFunction(
        f.f1 * g.f1 - f.f2 * g.f2.conj(),
        f.f1 * g.f2 + f.f2 * g.f1.conj(),
    )


def conj_qf(f: QFunction) -> QFunction:
    return QFunction(f.f1.conj(), -f.f2)


def norm_sq_expr(f: QFunction) -> QExpr:
    """The real-valued tree f1*conj(f1) + f2*conj(f2)."""
    return f.f1 * f.f1.conj() + f.f2 * f.f2.conj()


def inverse_qf(f: QFunction) -> QFunction:
    """Right inverse conj(f)/norm_sq(f), kept symbolic.

    Defined almost everywhere; evaluation close to the zero set of f
    raises SingularPointError and is masked by grid drivers.
    """
    n = norm_sq_expr(f)
    return QFunction(f.f1.conj() / n, (-f.f2) / n)


def const_qf(q: Quaternion) -> QFunction:
    """The constant function with value q."""
    return QFunction(const(q.z1), const(q.z2))


def scale_right_qf(f: QFunction, lam: Quaternion) -> QFunction:
    """f * lam for a quaternion constant lam (scalars act on the right)."""
    return product_qf(f, const_qf(lam))
