"""The quaternion value of a surface tree, j and division included,
evaluated directly and independently of lowering: the oracle that
lowering and constant folding are checked against."""
from __future__ import annotations

from qfc.expr import Add, Conj, ConjVar, Div, Mul, Neg, Pow, QExpr, RealConst, Sub, UnitI, UnitJ, Var
from qfc.jets import SINGULAR_SQ_TOL, Point4
from qfc.quaternion import UNIT_I, UNIT_J, Quaternion, quat_conj, quat_mul

from jet_oracle import rinv


def eval_qexpr(e: QExpr, p: Point4, singular_sq_tol: float = SINGULAR_SQ_TOL) -> Quaternion:
    """Quaternion value of an arbitrary (possibly j-bearing) tree at p."""
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
