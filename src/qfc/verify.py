"""Numerical checks of the identities the analysis code relies on.

Each item exercises one PDE system or operator identity on functions
with known behavior, including negative controls with known nonzero
residuals, and reports the worst residual among the checks expected to
be small.  Everything is driven by one seeded generator, so a repeated
run with the same seed produces identical numbers.

Each check evaluates its functions' jets with grid_jets, streaming its
grids from grid_blocks, or with jets_at at a single control point, and
derives every residual with analysis's jets-level formulas.  CArray
replays CPython's complex arithmetic, so each value, and each item,
equals that of evaluating one point at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .analysis import (
    DEFAULT_TOL,
    Jets,
    cauchy_fueter_from_jets,
    hyperholomorphy_from_jets,
    inverse_jets,
    inverse_system_from_jets,
    norm_sq_jet,
    product_rule_from_jets,
    product_system_from_jets,
    real_combined_from_jets,
    real_linear_from_jets,
    sum_pde_from_jets,
)
from .domain import DEFAULT_MASK_THRESHOLD, Domain, grid_blocks
from .errors import MASK_REASONS, OVERFLOW, SingularPointError
from .expr import ConjVar, RealConst, Var, const, parse
from .generators import (
    counterexample_pair,
    curated_hyperholomorphic,
    example_pair,
    random_point,
    random_polynomial_qf,
    random_quaternion,
    random_rational_meromorphic,
    random_real_hyperholomorphic,
    right_combination,
)
from .jets import Columns, Point4, columns_of, grid_jets, jets_at
from .lowering import QFunction, const_qf, lower, product_qf, sum_qf
from .quaternion import Quaternion, modulus, quat_mul

_FAIL_FLOOR = 1e-3

# A stage maps the jets of a check's functions to a tuple of values, one
# array each, and says whether a point where it meets a singular value is
# skipped (True) or raises (False).
Stage = tuple[Callable[..., tuple], bool]


@dataclass(frozen=True)
class VerifyItem:
    name: str
    passed: bool
    worst_residual: float
    detail: str


def _stages(fs: list[QFunction], blocks: Iterable[Columns], *stages: Stage) -> Iterator[list[tuple]]:
    """For each point of the blocks of coordinate columns, in order, the
    values of the stages, each a tuple of floats, up to the first stage that
    meets an event there.

    The stages run as one try block of the per-point path: a point drops out
    at the first stage whose evaluation is singular there if that stage
    skips it, and raises SingularPointError otherwise; overflow always
    raises OverflowError.  The functions' tree events count from the first
    stage, so fs lists functions whose trees meet no event their first
    stage's functions do not, such as f, g and their sum and product.
    """
    for z in blocks:
        n = len(z[0])
        with np.errstate(all="ignore"):
            # one call, so subtrees the functions share are evaluated once
            jets, events = grid_jets(tuple(e for f in fs for e in (f.f1, f.f2)), z)
            pairs = list(zip(jets[::2], jets[1::2]))
            columns = []
            for values_of, skips in stages:
                values = [np.broadcast_to(v, (n,)).tolist() for v in values_of(*pairs)]
                columns.append((list(zip(*values)), events.code.tolist(), skips))
        for i in range(n):
            out = []
            for values, code, skips in columns:
                if code[i] == OVERFLOW or (code[i] and not skips):
                    error = OverflowError if code[i] == OVERFLOW else SingularPointError
                    raise error(f"{MASK_REASONS[code[i]]} near {Point4.from_reals(*(c[i] for c in z))}")
                if code[i]:
                    break
                out.append(values[i])
            yield out


def _fold(worst: float, fs: list[QFunction], blocks: Iterable[Columns], *stages: Stage) -> float:
    """worst, raised with Python's max to the largest value of each stage
    at each point, point by point in order."""
    for values in _stages(fs, blocks, *stages):
        for v in values:
            worst = max(worst, max(v))
    return worst


def _grid(n: int) -> Iterator[Columns]:
    """The n**4 lattice of the default box, a block at a time."""
    return (z for _, z in grid_blocks(Domain(), n))


def _points(points: list[Point4]) -> list[Columns]:
    """The points as one block of coordinate columns."""
    return [columns_of([p.z1 for p in points], [p.z2 for p in points])]


def _at(fs: list[QFunction], p: Point4, values_of: Callable[..., tuple]) -> tuple:
    """values_of at the one point p, as a tuple of floats; raises where the
    functions or values_of meet an event there."""
    jets = jets_at(tuple(e for f in fs for e in (f.f1, f.f2)), p)
    return values_of(*zip(jets[::2], jets[1::2]))


def _inverse_derivative(f: Jets) -> tuple:
    """|D| of the right inverse of f."""
    return (cauchy_fueter_from_jets(inverse_jets(f)).magnitude(),)


def _sum_pde(h: Jets) -> tuple:
    return (sum_pde_from_jets(h, DEFAULT_MASK_THRESHOLD),)


def _product_gap(f: Jets, g: Jets, fg: Jets) -> tuple:
    return (product_rule_from_jets(f, g, fg).gap,)


def _correction_gap(f: Jets, g: Jets, fg: Jets) -> tuple:
    """How far the correction term is from f*D(g)."""
    expect = quat_mul(Quaternion(f[0].val, f[1].val), cauchy_fueter_from_jets(g).as_quaternion())
    return (modulus(product_rule_from_jets(f, g, fg).second_term - expect),)


def _sum_pde_identity(h: Jets) -> tuple:
    """The sum PDE residual, norm_sq and the inverse's |D| of h."""
    return (*_sum_pde(h), norm_sq_jet(h).val.real, *_inverse_derivative(h))


def run_verify(seed: int = 0, grid_n: int = 6, tol: float = DEFAULT_TOL) -> list[VerifyItem]:
    """Run all verification items and return them in a fixed order."""
    rng = np.random.default_rng(seed)
    samples = [random_point(rng) for _ in range(12)]
    items: list[VerifyItem] = []

    e00 = example_pair(0.0, 0.0)
    e12 = example_pair(1.0, 2.0)
    holo = lower(parse("z1*z2"))
    counter = counterexample_pair()
    m_const = const_qf(Quaternion(1.5 + 0j, 0j))
    zero = RealConst(0.0)

    # first-order system: known members, right-linear combinations,
    # and a non-member control
    worst = 0.0
    for f in (e00, e12, holo, counter):
        worst = _fold(worst, [f], _grid(grid_n), (hyperholomorphy_from_jets, True))
    curated = [f for _, f in curated_hyperholomorphic()]
    for _ in range(6):
        f = curated[int(rng.integers(0, len(curated)))]
        g = curated[int(rng.integers(0, len(curated)))]
        h = right_combination(f, g, random_quaternion(rng), random_quaternion(rng))
        worst = _fold(worst, [h], _points(samples), (hyperholomorphy_from_jets, False))
    passed = worst <= tol
    control = max(_at([QFunction(ConjVar("z2"), zero)], samples[0], hyperholomorphy_from_jets))
    passed = passed and control >= _FAIL_FLOOR
    items.append(
        VerifyItem(
            "hyperholomorphy",
            passed,
            worst,
            f"members and right-combinations over {grid_n**4} grid points; "
            f"control residual {control:.3e}",
        )
    )

    # derivative of a product: both sides agree, and the correction
    # term reduces to f*D(g) on real-component pairs in the kernel
    worst = 0.0
    for _ in range(20):
        f = random_polynomial_qf(rng)
        g = random_polynomial_qf(rng)
        points = _points([random_point(rng) for _ in range(3)])
        worst = _fold(worst, [f, g, product_qf(f, g)], points, (_product_gap, False))
    cor_worst = 0.0
    for _ in range(5):
        f = random_real_hyperholomorphic(rng)
        g = random_real_hyperholomorphic(rng)
        points = _points([random_point(rng) for _ in range(2)])
        cor_worst = _fold(cor_worst, [f, g, product_qf(f, g)], points, (_correction_gap, False))
    worst = max(worst, cor_worst)
    items.append(
        VerifyItem(
            "product_rule",
            worst <= tol,
            worst,
            f"60 random product points, correction-term reduction {cor_worst:.3e}",
        )
    )

    # inverse system: passes for the example family and meromorphic
    # functions, fails for the antiholomorphic pair off the real slice
    worst = 0.0
    passing = [e00, e12, holo]
    for _ in range(5):
        passing.append(random_rational_meromorphic(rng))
    for f in passing:
        worst = _fold(
            worst, [f], _points(samples), (inverse_system_from_jets, True), (_inverse_derivative, True)
        )
    p_off = Point4(1 + 1j, 1 + 0j)
    res_fail = max(_at([counter], p_off, inverse_system_from_jets))
    (dinv_fail,) = _at([counter], p_off, _inverse_derivative)
    passed = worst <= tol and res_fail >= _FAIL_FLOOR and dinv_fail >= _FAIL_FLOOR
    items.append(
        VerifyItem(
            "inverse_system",
            passed,
            worst,
            f"antiholomorphic pair off the real slice: system {res_fail:.3e}, "
            f"inverse derivative {dinv_fail:.3e}",
        )
    )

    # linear system for real-component functions
    worst = 0.0
    real_members = [e00, e12, const_qf(Quaternion(1 + 0j, 1 + 0j))]
    for _ in range(3):
        real_members.append(random_real_hyperholomorphic(rng))
    for f in real_members:
        worst = _fold(worst, [f], _grid(3), (real_linear_from_jets, False))
    x1_tree = const(0.5) * (Var("z1") + ConjVar("z1"))
    res = _at([QFunction(x1_tree, zero)], samples[1], real_linear_from_jets)
    value_ok = abs(res[1] - 0.5) <= 1e-12 and res[1] >= _FAIL_FLOOR
    try:
        _at([QFunction(Var("z1"), zero)], Point4(0.3 + 0.4j, 0j), real_linear_from_jets)
        precondition_ok = False
    except ValueError:
        precondition_ok = True
    items.append(
        VerifyItem(
            "real_linear_system",
            worst <= tol and value_ok and precondition_ok,
            worst,
            f"control second residual {res[1]:.6f} (expected 0.5)",
        )
    )

    # sum PDE: zero on the example family, shifted sums, holomorphic
    # and meromorphic sums; consistent with the inverse derivative
    worst = 0.0
    sum_members = [
        e00,
        e12,
        QFunction(parse("z1*z2 + 3"), zero),
        sum_qf(e00, m_const),
    ]
    for h in sum_members:
        worst = _fold(worst, [h], _grid(3), (_sum_pde, True))
    for _ in range(3):
        h = sum_qf(random_rational_meromorphic(rng), random_rational_meromorphic(rng))
        worst = _fold(worst, [h], _points(samples[:6]), (_sum_pde, False))
    ident_worst = 0.0
    for p in (p_off, Point4(0.5 - 0.7j, -0.3 + 0.4j)):
        a, n, dinv = _at([counter], p, _sum_pde_identity)
        b = 2.0 * n * n * dinv
        ident_worst = max(ident_worst, abs(a - b) / (1.0 + a + b))
    (neg,) = _at([counter], p_off, _sum_pde)
    passed = worst <= tol and ident_worst <= tol and neg >= _FAIL_FLOOR
    worst = max(worst, ident_worst)
    items.append(
        VerifyItem(
            "sum_pde",
            passed,
            worst,
            f"identity gap {ident_worst:.3e}; control residual {neg:.3e}",
        )
    )

    # product system: ordered products that stay in the class, plus an
    # order-sensitive control with known residual value
    worst = _fold(
        0.0,
        [m_const, e00, product_qf(m_const, e00)],
        _grid(3),
        (lambda m, e, me: product_system_from_jets(m, e), False),
        (lambda m, e, me: hyperholomorphy_from_jets(me), True),
    )
    for _ in range(3):
        f = random_rational_meromorphic(rng)
        g = random_rational_meromorphic(rng)
        worst = _fold(worst, [f, g], _points(samples[:6]), (product_system_from_jets, False))
    g_anti = QFunction(ConjVar("z2"), zero)
    p0 = Point4(0.4 + 0.2j, 0.7 - 0.3j)
    res = _at([e00, g_anti], p0, product_system_from_jets)
    expected = 2.0 * abs(p0.z2)
    value_ok = (
        min(res) >= _FAIL_FLOOR
        and abs(res[0] - expected) <= 1e-9
        and abs(res[1] - expected) <= 1e-9
    )
    items.append(
        VerifyItem(
            "product_system",
            worst <= tol and value_ok,
            worst,
            f"order-sensitive control ({res[0]:.6f}, {res[1]:.6f}), "
            f"expected {expected:.6f} twice",
        )
    )

    # combined system for real-component pairs closed under sum and product
    worst = _fold(
        0.0,
        [e00, e12, m_const],
        _grid(3),
        (lambda e, f, m: real_combined_from_jets(e, f), False),
        (lambda e, f, m: real_combined_from_jets(e, m), False),
    )
    g_sq = QFunction(x1_tree**2, zero)
    p1 = Point4(0.7 + 0.4j, -0.2 + 0.1j)
    five = _at([e00, g_sq], p1, real_combined_from_jets)
    bilinear = five[4]
    value_ok = bilinear >= _FAIL_FLOOR and abs(bilinear - 0.7) <= 1e-12
    items.append(
        VerifyItem(
            "real_combined",
            worst <= tol and value_ok,
            worst,
            f"bilinear control {bilinear:.6f} (expected 0.7)",
        )
    )

    # meromorphic functions satisfy every applicable system, alone and
    # combined with the example family through a real constant
    worst = 0.0
    for _ in range(5):
        f = random_rational_meromorphic(rng)
        g = random_rational_meromorphic(rng)
        worst = _fold(
            worst,
            [f, g, sum_qf(f, g), product_qf(f, g)],
            _points(samples[:4]),
            (lambda f, g, fpg, fg: hyperholomorphy_from_jets(f), False),
            (lambda f, g, fpg, fg: inverse_system_from_jets(f), False),
            (lambda f, g, fpg, fg: _sum_pde(fpg), False),
            (lambda f, g, fpg, fg: product_system_from_jets(f, g), False),
            (lambda f, g, fpg, fg: hyperholomorphy_from_jets(fg), False),
        )
    worst = _fold(
        worst,
        [sum_qf(m_const, e00), m_const, e00],
        _grid(3),
        (lambda h, m, e: hyperholomorphy_from_jets(h), True),
        (lambda h, m, e: _sum_pde(h), True),
        (lambda h, m, e: product_system_from_jets(m, e), True),
    )
    items.append(
        VerifyItem(
            "meromorphic_substructure",
            worst <= tol,
            worst,
            "5 random rational pairs plus real-constant combinations",
        )
    )

    return items
