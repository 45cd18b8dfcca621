"""Cauchy-Fueter operator, PDE residual systems, and the classifier.

All residual functions return raw magnitudes.  The classifier is the
only place residuals are normalized (by 1 + the largest jet magnitude
at the point) before comparison against the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .domain import Domain, grid_points
from .errors import InconclusiveError
from .jets import (
    BELOW_THRESHOLD,
    DEFAULT_SINGULAR_SQ_TOL,
    MASK_REASONS,
    OVERFLOW,
    CArray,
    Point4,
    PointEvents,
    WirtingerJet,
    eval_jet,
    grid_jets,
    jet_add,
    jet_conj,
    jet_div,
    jet_mul,
    jet_neg,
    maximum,
    refuse,
    vanishes,
)
from .lowering import QFunction, product_qf, sum_qf
from .quaternion import UNIT_J, Quaternion, modulus, quat_mul, square
from .report import MaskedPoint, ResidualReport

LABELS = (
    "Holomorphic",
    "Hyperholomorphic",
    "WHypermeromorphic",
    "Hypermeromorphic-candidate",
    "NonHyperholomorphic",
)

DEFAULT_TOL = 1e-8
DEFAULT_REAL_TOL = 1e-9


@dataclass(frozen=True)
class DValue:
    """Value of the operator in left-bracket form c1 + j*c2.

    z1 and z2 hold c1 and c2.  Commuting j to the right gives the
    canonical pair (c1, conj(c2)), see as_quaternion.
    """

    z1: complex
    z2: complex

    def as_quaternion(self) -> Quaternion:
        return Quaternion(self.z1, self.z2.conjugate())

    def magnitude(self) -> float:
        return math.hypot(abs(self.z1), abs(self.z2))


@dataclass(frozen=True)
class ProductRuleCheck:
    """Both sides of the derivative-of-a-product identity at a point."""

    lhs: Quaternion
    first_term: Quaternion
    second_term: Quaternion

    @property
    def rhs(self) -> Quaternion:
        return self.first_term + self.second_term

    @property
    def gap(self) -> float:
        return modulus(self.lhs - self.rhs)


@dataclass(frozen=True)
class BranchReport:
    """Pointwise dichotomy report for the real-component sum system.

    The system factors: at each point either the algebraic expression
    vanishes or the derivative system does.  branch records which side
    holds within tol ("algebraic", "derivative", "both", "neither").
    """

    expression_residuals: tuple[float, float]
    algebraic_residual: float
    derivative_residuals: tuple[float, float, float]
    branch: str
    tol: float


@dataclass(frozen=True)
class ClassificationLabel:
    label: str
    tol: float

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


def _jet_pair(
    f: QFunction, p: Point4, singular_sq_tol: float
) -> tuple[WirtingerJet, WirtingerJet]:
    return (
        eval_jet(f.f1, p, singular_sq_tol),
        eval_jet(f.f2, p, singular_sq_tol),
    )


def _jet_scale(j1: WirtingerJet, j2: WirtingerJet) -> float:
    return maximum(j1.magnitude(), j2.magnitude())


def _cauchy_fueter_from_jets(j1: WirtingerJet, j2: WirtingerJet) -> DValue:
    c1 = 0.5 * (j1.d_z1bar - j2.d_z2bar.conjugate())
    c2 = 0.5 * (j1.d_z2bar + j2.d_z1bar.conjugate())
    return DValue(c1, c2)


def cauchy_fueter(
    f: QFunction, p: Point4, singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL
) -> DValue:
    """Apply the modified Cauchy-Fueter operator to f at p."""
    return _cauchy_fueter_from_jets(*_jet_pair(f, p, singular_sq_tol))


def norm_sq_jet(j1: WirtingerJet, j2: WirtingerJet) -> WirtingerJet:
    """Jet of norm_sq_expr(f) from the jets of f's components."""
    return jet_add(jet_mul(j1, jet_conj(j1)), jet_mul(j2, jet_conj(j2)))


def inverse_jets(
    j1: WirtingerJet, j2: WirtingerJet, singular_sq_tol: float
) -> tuple[WirtingerJet, WirtingerJet]:
    """Jets of inverse_qf(f), conj(f)/norm_sq(f), from the jets of f."""
    n = norm_sq_jet(j1, j2)
    refuse(n.val, vanishes(n.val, singular_sq_tol), "norm_sq of the function vanishes")
    return jet_div(jet_conj(j1), n), jet_div(jet_neg(j2), n)


def _hyperholomorphy_from_jets(
    j1: WirtingerJet, j2: WirtingerJet
) -> tuple[float, float]:
    e1 = j1.d_z1bar - j2.d_z2bar.conjugate()
    e2 = j1.d_z2bar + j2.d_z1bar.conjugate()
    return (abs(e1), abs(e2))


def hyperholomorphy_residual(
    f: QFunction, p: Point4, singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL
) -> tuple[float, float]:
    """Residual magnitudes of the two component equations of 2*D(f)=0."""
    return _hyperholomorphy_from_jets(*_jet_pair(f, p, singular_sq_tol))


def _inverse_system_from_jets(
    j1: WirtingerJet, j2: WirtingerJet
) -> tuple[float, float]:
    v1, v2 = j1.val, j2.val
    w = v1.conjugate() - v1
    e1 = (
        w * j1.d_z1bar.conjugate()
        - v2.conjugate() * j2.d_z1
        - v2 * j1.d_z2.conjugate()
    )
    e2 = (
        v2.conjugate() * j1.d_z1
        + j2.d_z1bar.conjugate() * w
        - v2 * j2.d_z2.conjugate()
    )
    return (abs(e1), abs(e2))


def inverse_hyperholomorphy_residual(
    f: QFunction, p: Point4, singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL
) -> tuple[float, float]:
    """Residuals of the system characterizing a hyperholomorphic inverse.

    For hyperholomorphic f, this vanishes exactly when the right inverse
    of f is hyperholomorphic off the zero set of f.
    """
    return _inverse_system_from_jets(*_jet_pair(f, p, singular_sq_tol))


def _require_real(values: list[complex], real_tol: float, what: str) -> None:
    worst = max((abs(v.imag) for v in values), default=0.0)
    if worst > real_tol:
        raise ValueError(
            f"{what} requires real-valued components at the point "
            f"(largest imaginary part {worst:.3e})"
        )


def real_linear_residual(
    f: QFunction,
    p: Point4,
    real_tol: float = DEFAULT_REAL_TOL,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> tuple[float, float]:
    """Residuals of the linear first-order system for real-component f."""
    j1, j2 = _jet_pair(f, p, singular_sq_tol)
    _require_real([j1.val, j2.val], real_tol, "real_linear_residual")
    return _real_linear_from_jets(j1, j2)


def _real_linear_from_jets(j1: WirtingerJet, j2: WirtingerJet) -> tuple[float, float]:
    e1 = j2.d_z1 + j1.d_z2bar
    e2 = j1.d_z1 - j2.d_z2bar
    return (abs(e1), abs(e2))


def sum_pde_from_jets(j1: WirtingerJet, j2: WirtingerJet, mask_threshold: float) -> float:
    """sum_pde_residual from h's jets; conj_qf(h) has the jets conj(j1), -j2."""
    nj = norm_sq_jet(j1, j2)
    n = nj.val.real
    refuse(nj.val, n < mask_threshold, "norm_sq below mask threshold")
    hbar = Quaternion(j1.val.conjugate(), -j2.val)
    dn = Quaternion(0.5 * nj.d_z1bar, (0.5 * nj.d_z2bar).conjugate())
    dhbar = _cauchy_fueter_from_jets(jet_conj(j1), jet_neg(j2)).as_quaternion()
    return modulus(quat_mul(dn.scale(-2.0), hbar) + dhbar.scale(2.0 * n))


def sum_pde_residual(
    h: QFunction,
    p: Point4,
    mask_threshold: float = 1e-6,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> float:
    """Residual of the PDE characterizing sums that stay w-hypermeromorphic.

    Raises SingularPointError when norm_sq(h) at p is below mask_threshold,
    since the PDE divides by the norm there.
    """
    return sum_pde_from_jets(*_jet_pair(h, p, singular_sq_tol), mask_threshold)


def real_sum_branch(
    h: QFunction,
    p: Point4,
    tol: float = DEFAULT_TOL,
    real_tol: float = DEFAULT_REAL_TOL,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> BranchReport:
    """Factored form of the sum PDE for real-component h, with branch."""
    j1, j2 = _jet_pair(h, p, singular_sq_tol)
    v1, v2 = j1.val, j2.val
    _require_real([v1, v2], real_tol, "real_sum_branch")
    e_a = -(v1 * v1) * j1.d_z1bar + 3.0 * (v2 * v2) * j2.d_z2
    e_b = -(v1 * v1) * j2.d_z2 + (v2 * v2) * j1.d_z1bar
    algebraic = abs(v1**4 - 3.0 * v2**4)
    derivative = (
        abs(j1.d_z1bar),
        abs(j2.d_z2),
        abs(j1.d_z2 + j2.d_z1bar),
    )
    alg_ok = algebraic <= tol
    der_ok = max(derivative) <= tol
    if alg_ok and der_ok:
        branch = "both"
    elif alg_ok:
        branch = "algebraic"
    elif der_ok:
        branch = "derivative"
    else:
        branch = "neither"
    return BranchReport((abs(e_a), abs(e_b)), algebraic, derivative, branch, tol)


def product_system_residual(
    f: QFunction,
    g: QFunction,
    p: Point4,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> tuple[float, float]:
    """Residuals of the PDE pair for the ordered product f*g.

    The system is order-sensitive: it constrains the left factor's
    derivatives through the right factor's first component value.
    """
    jf1, jf2 = _jet_pair(f, p, singular_sq_tol)
    jg1, jg2 = _jet_pair(g, p, singular_sq_tol)
    u, v = jf1.val, jf2.val
    w = u - u.conjugate()
    g1 = jg1.val
    p1 = (
        g1 * (jf1.d_z1bar + jf2.d_z2bar.conjugate())
        + w * jg1.d_z1bar
        + v.conjugate() * jg1.d_z2
        - v * jg2.d_z1.conjugate()
    )
    p2 = (
        g1 * (jf1.d_z2bar - jf2.d_z1bar.conjugate())
        + w * jg1.d_z2bar
        - v.conjugate() * jg1.d_z1
        - v * jg2.d_z2.conjugate()
    )
    return (abs(p1), abs(p2))


def real_product_residual(
    f: QFunction,
    g: QFunction,
    p: Point4,
    real_tol: float = DEFAULT_REAL_TOL,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> float:
    """Bilinear product condition for real-component f and g."""
    jf1, jf2 = _jet_pair(f, p, singular_sq_tol)
    jg1, jg2 = _jet_pair(g, p, singular_sq_tol)
    _require_real([jf1.val, jf2.val, jg1.val, jg2.val], real_tol, "real_product_residual")
    return abs(jf1.d_z1 * jg2.d_z2 + jf1.d_z2 * jg2.d_z1)


def real_combined_residual(
    f: QFunction,
    g: QFunction,
    p: Point4,
    real_tol: float = DEFAULT_REAL_TOL,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> tuple[float, float, float, float, float]:
    """The five-equation system for real-component pairs closed under
    both sum and product: each factor's linear system plus one bilinear
    coupling equation."""
    jf1, jf2 = _jet_pair(f, p, singular_sq_tol)
    jg1, jg2 = _jet_pair(g, p, singular_sq_tol)
    _require_real(
        [jf1.val, jf2.val, jg1.val, jg2.val], real_tol, "real_combined_residual"
    )
    return (
        abs(jf2.d_z1 + jf1.d_z2),
        abs(jf1.d_z1 - jf2.d_z2),
        abs(jg2.d_z1 + jg1.d_z2),
        abs(jg1.d_z1 - jg2.d_z2),
        abs(jf1.d_z1 * jg1.d_z1 - jf1.d_z2 * jg1.d_z2),
    )


def product_rule_check(
    f: QFunction,
    g: QFunction,
    p: Point4,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> ProductRuleCheck:
    """Evaluate both sides of D(f*g) = D(f)*g + (correction term).

    The correction term depends on the values of f and the derivatives
    of g; it reduces to f*D(g) when f is real-valued and g satisfies the
    real-component linear system.
    """
    jf1, jf2 = _jet_pair(f, p, singular_sq_tol)
    jg1, jg2 = _jet_pair(g, p, singular_sq_tol)
    u, v = jf1.val, jf2.val
    gq = Quaternion(jg1.val, jg2.val)

    df1 = Quaternion(0.5 * jf1.d_z1bar, (0.5 * jf1.d_z2bar).conjugate())
    df2 = Quaternion(0.5 * jf2.d_z1bar, (0.5 * jf2.d_z2bar).conjugate())
    first = quat_mul(df1, gq) + quat_mul(df2, quat_mul(UNIT_J, gq))

    x1 = u * jg1.d_z1bar - v * jg2.d_z1.conjugate()
    y1 = u * jg2.d_z1bar + v * jg1.d_z1.conjugate()
    x2 = u * jg1.d_z2bar - v * jg2.d_z2.conjugate()
    y2 = u * jg2.d_z2bar + v * jg1.d_z2.conjugate()
    second = Quaternion(0.5 * (x1 - y2.conjugate()), 0.5 * (y1 + x2.conjugate()))

    lhs = cauchy_fueter(product_qf(f, g), p, singular_sq_tol).as_quaternion()
    return ProductRuleCheck(lhs, first, second)


Rows = list[tuple[Point4, tuple[tuple[float, ...], ...], tuple[float, ...] | None]]
Systems = Callable[
    [WirtingerJet, WirtingerJet, PointEvents],
    tuple[tuple[tuple[np.ndarray, ...], ...], tuple[np.ndarray, ...], np.ndarray | bool],
]


# Points evaluated together.  Each jet awaiting a user holds ten float64
# arrays of this length, so memory stays bounded on any grid; elementwise
# arithmetic makes the values independent of it.
_BLOCK_POINTS = 4096


def _per_point(values: tuple[np.ndarray, ...], n: int) -> list[tuple[float, ...]]:
    return list(zip(*(np.broadcast_to(v, (n,)).tolist() for v in values)))


def sample(
    f: QFunction,
    d: Domain,
    grid_n: int,
    systems: Systems,
    singular_sq_tol: float,
) -> tuple[Rows, list[MaskedPoint]]:
    """Evaluate f's two component jets at all grid points at once and
    derive every residual system from them.

    systems(j1, j2, events) returns (reported, extra, holds): reported has
    one tuple of residual arrays per reported system; extra is a tuple of
    further arrays for the caller's own use, defined where holds is true
    (classify's normalized maxima, everywhere; residuals' real_linear
    system, at real-valued points).  Each row is (point, the reported
    tuples, the extra tuple or None where it does not hold).  Every
    reported value, and every extra value where it holds, is checked for
    finiteness.

    A point is masked "singular" when f or a system divides by a vanishing
    value there, "norm_sq below threshold" when |f1|^2 + |f2|^2 is below
    the domain's excluded threshold, and "overflow" when Python's
    arithmetic would overflow, or that sum, a jet slot or a checked value
    is not finite.  A point keeps its first event, in the order evaluating
    it alone would meet them: f1's tree, f2's tree, the norm, the jets,
    the systems in call order, then the checked values.  The arithmetic is
    CPython's (see CArray), so every value equals the per-point one.
    Grids larger than _BLOCK_POINTS are evaluated a block at a time.
    Returns the unmasked points with their values and the masked points,
    in grid order.
    """
    points = grid_points(d, grid_n)
    rows: Rows = []
    masked: list[MaskedPoint] = []
    for start in range(0, len(points), _BLOCK_POINTS):
        block = points[start : start + _BLOCK_POINTS]
        for p, code, values in _sample_block(f, block, d.excluded_threshold, systems, singular_sq_tol):
            if code:
                masked.append(MaskedPoint(p, MASK_REASONS[code]))
            else:
                rows.append((p, *values))
    return rows, masked


def _sample_block(
    f: QFunction, points: list[Point4], threshold: float, systems: Systems, singular_sq_tol: float
) -> Iterator[tuple[Point4, int, tuple]]:
    """sample's evaluation of one block of points: each point with its
    reason code (0 if unmasked) and its (reported, extra or None) values."""
    n = len(points)
    events = PointEvents(n)
    with np.errstate(all="ignore"):
        z1 = CArray.of([p.z1 for p in points], events)
        z2 = CArray.of([p.z2 for p in points], events)
        j1, j2 = grid_jets((f.f1, f.f2), z1, z2, singular_sq_tol)
        # abs(v) ** 2 raises OverflowError, masking the point, where a
        # finite abs squares to inf; two finite squares may still sum to inf
        a1, a2 = abs(j1.val), abs(j2.val)
        s1, s2 = square(a1), square(a2)
        events.flag((np.isfinite(a1) & np.isinf(s1)) | (np.isfinite(a2) & np.isinf(s2)), OVERFLOW)
        events.flag(s1 + s2 < threshold, BELOW_THRESHOLD)
        finite = True
        for slot in (*vars(j1).values(), *vars(j2).values()):
            finite = finite & slot.isfinite()
        events.flag(~finite, OVERFLOW)
        reported, extra, holds = systems(j1, j2, events)
        for v in (v for values in reported for v in values):
            events.flag(~np.isfinite(v), OVERFLOW)
        for v in extra:
            events.flag(~np.isfinite(v) & holds, OVERFLOW)
    columns = [_per_point(values, n) for values in reported]
    extras = _per_point(extra, n)
    for i, (p, code, has_extra) in enumerate(
        zip(points, events.code.tolist(), np.broadcast_to(holds, (n,)).tolist())
    ):
        yield p, code, (tuple(c[i] for c in columns), extras[i] if has_extra else None)


def _reports(names: tuple[str, ...], rows: Rows, masked: list[MaskedPoint]) -> list[ResidualReport]:
    return [ResidualReport(n, [(p, vs[k]) for p, vs, _ in rows], masked) for k, n in enumerate(names)]


def _classify_systems(
    j1: WirtingerJet, j2: WirtingerJet, events: PointEvents, singular_sq_tol: float
):
    """f's system, its inverse's system and |f2|, and as the extra value
    the two systems' largest residuals normalized by 1 + the largest jet
    magnitude."""
    k1, k2 = inverse_jets(j1, j2, singular_sq_tol)
    e = _hyperholomorphy_from_jets(j1, j2)
    e_inv = _hyperholomorphy_from_jets(k1, k2)
    scale, scale_inv = 1.0 + _jet_scale(j1, j2), 1.0 + _jet_scale(k1, k2)
    reported = (e, e_inv, (abs(j2.val),))
    return reported, (maximum(*e) / scale, maximum(*e_inv) / scale_inv), True


def _pair_passes(
    h: QFunction, d: Domain, grid_n: int, tol: float, systems: Systems, singular_sq_tol: float
) -> bool:
    """True if h and its inverse pass the first-order system on the
    unmasked grid points (normalized residuals), with at least one
    unmasked point."""
    rows, _ = sample(h, d, grid_n, systems, singular_sq_tol)
    return bool(rows) and all(max(norm_max) <= tol for _, _, norm_max in rows)


def classify(
    f: QFunction,
    d: Domain | None = None,
    grid_n: int = 6,
    tol: float = DEFAULT_TOL,
    witnesses: list[QFunction] | None = None,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> tuple[ClassificationLabel, list[ResidualReport]]:
    """Sample f on a grid and classify it by its PDE residuals.

    Masks points as sample does.  Raises InconclusiveError when fewer
    than half of the grid points survive masking.  A witness list
    upgrades WHypermeromorphic to Hypermeromorphic-candidate when sums
    and products with every witness stay in the class on the same grid.
    """
    if d is None:
        d = Domain()
    systems = partial(_classify_systems, singular_sq_tol=singular_sq_tol)
    rows, masked = sample(f, d, grid_n, systems, singular_sq_tol)
    total = len(rows) + len(masked)
    if len(rows) * 2 < total:
        raise InconclusiveError(f"only {len(rows)} of {total} grid points are unmasked")
    names = ("hyperholomorphy", "inverse_hyperholomorphy", "second_component")
    reports = _reports(names, rows, masked)
    eq1_norm_max = max(norm_max[0] for _, _, norm_max in rows)
    inv_norm_max = max(norm_max[1] for _, _, norm_max in rows)
    comp2_max = reports[2].max_residual

    if eq1_norm_max > tol:
        label = "NonHyperholomorphic"
    elif comp2_max <= tol:
        label = "Holomorphic"
    elif inv_norm_max <= tol:
        label = "WHypermeromorphic"
        if witnesses:
            upgraded = all(
                _pair_passes(h, d, grid_n, tol, systems, singular_sq_tol)
                for w in witnesses
                for h in (sum_qf(f, w), product_qf(f, w), product_qf(w, f))
            )
            if upgraded:
                label = "Hypermeromorphic-candidate"
    else:
        label = "Hyperholomorphic"
    return ClassificationLabel(label, tol), reports


def _residual_systems(
    j1: WirtingerJet, j2: WirtingerJet, events: PointEvents, mask_threshold: float
):
    """The hyperholomorphy, inverse and sum systems, and as the extra value
    the real-component linear system, which holds where f is real-valued."""
    reported = (
        _hyperholomorphy_from_jets(j1, j2),
        _inverse_system_from_jets(j1, j2),
        (sum_pde_from_jets(j1, j2, mask_threshold),),
    )
    real = maximum(abs(j1.val.imag), abs(j2.val.imag)) <= DEFAULT_REAL_TOL
    with events.only(real):
        linear = _real_linear_from_jets(j1, j2)
    return reported, linear, real


def residual_reports(f: QFunction, d: Domain, grid_n: int) -> list[ResidualReport]:
    """Reports of the hyperholomorphy, inverse and sum systems on the
    grid, plus the real-component linear system when f is real-valued at
    every unmasked point.  The linear system is sampled at each point where
    f is real-valued, so its overflow masks the point even when the report
    is not emitted."""
    systems = partial(_residual_systems, mask_threshold=d.excluded_threshold)
    rows, masked = sample(f, d, grid_n, systems, DEFAULT_SINGULAR_SQ_TOL)
    reports = _reports(("hyperholomorphy", "inverse_hyperholomorphy", "sum_pde"), rows, masked)
    if all(linear is not None for _, _, linear in rows):
        reports.append(ResidualReport("real_linear", [(p, linear) for p, _, linear in rows], masked))
    return reports
