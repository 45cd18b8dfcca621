"""Seeded generators of expression trees and component pairs.

Everything draws from a caller-supplied numpy Generator so that runs
with the same seed produce identical functions, points, and constants.
"""
from __future__ import annotations

import numpy as np

from .expr import ConjVar, QExpr, RealConst, Var, const, parse
from .jets import Point4
from .lowering import QFunction, const_qf, lower, product_qf, scale_right_qf, sum_qf
from .quaternion import Quaternion

Z1 = Var("z1")
Z2 = Var("z2")
CZ1 = ConjVar("z1")
CZ2 = ConjVar("z2")

_ZERO = RealConst(0.0)


def random_point(rng: np.random.Generator, lo: float = -1.0, hi: float = 1.0) -> Point4:
    x = rng.uniform(lo, hi, size=4)
    return Point4.from_reals(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


def random_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    a = rng.uniform(-scale, scale, size=4)
    return Quaternion(complex(a[0], a[1]), complex(a[2], a[3]))


def _random_complex(rng: np.random.Generator, half_width: float) -> complex:
    return complex(rng.uniform(-half_width, half_width), rng.uniform(-half_width, half_width))


_MONOMIAL_GENS = (Z1, CZ1, Z2, CZ2)


def random_polynomial_component(
    rng: np.random.Generator, n_terms: int = 3, max_degree: int = 2
) -> QExpr:
    """Random polynomial in z1, conj(z1), z2, conj(z2) with small coeffs."""
    out: QExpr = _ZERO
    for _ in range(n_terms):
        term: QExpr = const(_random_complex(rng, 1.0))
        for _ in range(int(rng.integers(0, max_degree + 1))):
            term = term * _MONOMIAL_GENS[int(rng.integers(0, 4))]
        out = out + term
    return out


def random_polynomial_qf(rng: np.random.Generator) -> QFunction:
    return QFunction(
        random_polynomial_component(rng), random_polynomial_component(rng)
    )


_HOLO_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _holo_poly(
    rng: np.random.Generator, constant: float, half_width: float, n_terms: int = 5
) -> QExpr:
    out: QExpr = RealConst(constant)
    for _ in range(n_terms):
        a, b = _HOLO_EXPONENTS[int(rng.integers(0, len(_HOLO_EXPONENTS)))]
        term: QExpr = const(_random_complex(rng, half_width))
        if a:
            term = term * Z1**a
        if b:
            term = term * Z2**b
        out = out + term
    return out


def random_rational_meromorphic(rng: np.random.Generator) -> QFunction:
    """(P/Q, 0) with P, Q holomorphic and bounded away from zero on
    [-2, 2]^4, so evaluation never masks there."""
    p = _holo_poly(rng, 1.5, 0.02)
    q = _holo_poly(rng, 2.0, 0.01)
    return QFunction(p / q, _ZERO)


def example_pair(a: float = 0.0, b: float = 0.0) -> QFunction:
    """The linear pair with components 2(x1 + x2) + a and 2(x2 - x1) + b.

    Hyperholomorphic with hyperholomorphic right inverse for any real
    shifts a, b; its zero set for a = b = 0 is {x1 = 0, x2 = 0}.
    """
    f1 = parse("z1 + conj(z1) + z2 + conj(z2)")
    f2 = parse("-z1 - conj(z1) + z2 + conj(z2)")
    return QFunction(f1 + float(a), f2 + float(b))


def counterexample_pair() -> QFunction:
    """The antiholomorphic pair (conj(z1), conj(z2)).

    Satisfies the first-order system exactly, but its right inverse
    does not wherever z1 has nonzero imaginary part.
    """
    return lower(parse("conj(z1) + conj(z2)*j"))


def antiholomorphic_linear(c: complex, d: complex, e: complex) -> QFunction:
    """(c*conj(z1) + d, conj(c)*conj(z2) + e), always in the kernel."""
    return QFunction(
        const(c) * CZ1 + const(d), const(c.conjugate()) * CZ2 + const(e)
    )


def real_component_hyperholomorphic(
    coeffs: dict[tuple[int, int], complex]
) -> QFunction:
    """Real-component pair built from a holomorphic polynomial F(w, s).

    w = x1 + i*x2 and s = y1 - i*y2 as trees in z1, z2 and conjugates;
    the components are Re F and Im F.  Such pairs are hyperholomorphic
    and satisfy the real-component linear system.
    """
    w = const(0.5) * (Z1 + CZ1) + const(0.5j) * (Z2 + CZ2)
    s = const(-0.5j) * (Z1 - CZ1) - const(0.5) * (Z2 - CZ2)
    f: QExpr = _ZERO
    for (a, b), c in sorted(coeffs.items()):
        term: QExpr = const(c)
        if a:
            term = term * w**a
        if b:
            term = term * s**b
        f = f + term
    return QFunction(
        const(0.5) * (f + f.conj()), const(-0.5j) * (f - f.conj())
    )


def random_real_hyperholomorphic(
    rng: np.random.Generator, n_terms: int = 3
) -> QFunction:
    coeffs: dict[tuple[int, int], complex] = {}
    for _ in range(n_terms):
        a = int(rng.integers(0, 3))
        b = int(rng.integers(0, 3 - a))
        coeffs[(a, b)] = coeffs.get((a, b), 0j) + _random_complex(rng, 0.8)
    return real_component_hyperholomorphic(coeffs)


def curated_hyperholomorphic() -> list[tuple[str, QFunction]]:
    """Named pairs known to satisfy the first-order system, spanning
    the classifier's labels."""
    return [
        ("holomorphic_product", lower(parse("z1*z2"))),
        ("holomorphic_pair", QFunction(Z1, Z2)),
        ("linear_example", example_pair(0.0, 0.0)),
        ("linear_example_shifted", example_pair(1.0, 2.0)),
        ("antiholomorphic_linear", antiholomorphic_linear(1 + 0.5j, 0.25, -0.75)),
        (
            "real_component_square",
            real_component_hyperholomorphic(
                {(0, 0): 0.5, (1, 0): 1.0, (2, 0): 0.4, (1, 1): -0.3}
            ),
        ),
        ("antiholomorphic_pair", counterexample_pair()),
    ]


def right_combination(
    f: QFunction, g: QFunction, lam1: Quaternion, lam2: Quaternion
) -> QFunction:
    """f*lam1 + g*lam2 with quaternion constants acting on the right."""
    return sum_qf(scale_right_qf(f, lam1), scale_right_qf(g, lam2))
