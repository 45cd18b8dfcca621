"""Cauchy-Fueter operator, PDE residual systems, and the classifier.

All residual functions return raw magnitudes.  The classifier is the
only place residuals are normalized (by 1 + the largest jet magnitude
at the point) before comparison against the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .domain import DEFAULT_MASK_THRESHOLD, Domain, grid_blocks
from .errors import BELOW_THRESHOLD, MASK_REASONS, OVERFLOW, InconclusiveError
from .jets import (
    Columns,
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
from .lowering import QFunction, product_qf
from .quaternion import UNIT_J, Quaternion, modulus, norm_sq, quat_mul
from .report import MaskedPoint, ResidualReport

LABELS = (
    "Holomorphic",
    "Hyperholomorphic",
    "WHypermeromorphic",
    "NonHyperholomorphic",
)

DEFAULT_TOL = 1e-8
# A value is real where its imaginary part is at most this.
REAL_TOL = 1e-9


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
        """math.hypot of the parts' magnitudes, elementwise for grid parts:
        np.hypot differs from math.hypot in the last bit on some pairs."""
        a1, a2 = abs(self.z1), abs(self.z2)
        if not isinstance(a1, np.ndarray):
            return math.hypot(a1, a2)
        return np.array(list(map(math.hypot, *(a.tolist() for a in np.broadcast_arrays(a1, a2)))))


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
class ClassificationLabel:
    label: str
    tol: float

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


def _jet_pair(f: QFunction, p: Point4) -> tuple[WirtingerJet, WirtingerJet]:
    return eval_jet(f.f1, p), eval_jet(f.f2, p)


def _jet_scale(j1: WirtingerJet, j2: WirtingerJet) -> float:
    return maximum(j1.magnitude(), j2.magnitude())


def _cauchy_fueter_from_jets(j1: WirtingerJet, j2: WirtingerJet) -> DValue:
    c1 = 0.5 * (j1.d_z1bar - j2.d_z2bar.conjugate())
    c2 = 0.5 * (j1.d_z2bar + j2.d_z1bar.conjugate())
    return DValue(c1, c2)


def cauchy_fueter(f: QFunction, p: Point4) -> DValue:
    """Apply the modified Cauchy-Fueter operator to f at p."""
    return _cauchy_fueter_from_jets(*_jet_pair(f, p))


def norm_sq_jet(j1: WirtingerJet, j2: WirtingerJet) -> WirtingerJet:
    """Jet of norm_sq_expr(f) from the jets of f's components."""
    return jet_add(jet_mul(j1, jet_conj(j1)), jet_mul(j2, jet_conj(j2)))


def inverse_jets(j1: WirtingerJet, j2: WirtingerJet) -> tuple[WirtingerJet, WirtingerJet]:
    """Jets of inverse_qf(f), conj(f)/norm_sq(f), from the jets of f."""
    n = norm_sq_jet(j1, j2)
    refuse(n.val, vanishes(n.val), "norm_sq of the function vanishes")
    return jet_div(jet_conj(j1), n), jet_div(jet_neg(j2), n)


def _hyperholomorphy_from_jets(
    j1: WirtingerJet, j2: WirtingerJet
) -> tuple[float, float]:
    e1 = j1.d_z1bar - j2.d_z2bar.conjugate()
    e2 = j1.d_z2bar + j2.d_z1bar.conjugate()
    return (abs(e1), abs(e2))


def hyperholomorphy_residual(f: QFunction, p: Point4) -> tuple[float, float]:
    """Residual magnitudes of the two component equations of 2*D(f)=0."""
    return _hyperholomorphy_from_jets(*_jet_pair(f, p))


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


def inverse_hyperholomorphy_residual(f: QFunction, p: Point4) -> tuple[float, float]:
    """Residuals of the system characterizing a hyperholomorphic inverse.

    For hyperholomorphic f, this vanishes exactly when the right inverse
    of f is hyperholomorphic off the zero set of f.
    """
    return _inverse_system_from_jets(*_jet_pair(f, p))


def _require_real(values: list[complex], what: str) -> None:
    """Raise ValueError unless every value is real within REAL_TOL; for
    grid values, at the first point where one is not."""
    worst = maximum(*(abs(v.imag) for v in values))
    if isinstance(worst, np.ndarray):
        worst = worst.tolist()[int(np.argmax(worst > REAL_TOL))]
    if worst > REAL_TOL:
        raise ValueError(
            f"{what} requires real-valued components at the point "
            f"(largest imaginary part {worst:.3e})"
        )


def real_linear_residual(f: QFunction, p: Point4) -> tuple[float, float]:
    """Residuals of the linear first-order system for real-component f."""
    j1, j2 = _jet_pair(f, p)
    _require_real([j1.val, j2.val], "real_linear_residual")
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
    h: QFunction, p: Point4, mask_threshold: float = DEFAULT_MASK_THRESHOLD
) -> float:
    """Residual of the PDE characterizing sums that stay w-hypermeromorphic.

    Raises SingularPointError when norm_sq(h) at p is below mask_threshold,
    since the PDE divides by the norm there.
    """
    return sum_pde_from_jets(*_jet_pair(h, p), mask_threshold)


def product_system_residual(f: QFunction, g: QFunction, p: Point4) -> tuple[float, float]:
    """Residuals of the PDE pair for the ordered product f*g.

    The system is order-sensitive: it constrains the left factor's
    derivatives through the right factor's first component value.
    """
    return _product_system_from_jets(*_jet_pair(f, p), *_jet_pair(g, p))


def _product_system_from_jets(
    jf1: WirtingerJet, jf2: WirtingerJet, jg1: WirtingerJet, jg2: WirtingerJet
) -> tuple[float, float]:
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


def real_combined_residual(
    f: QFunction, g: QFunction, p: Point4
) -> tuple[float, float, float, float, float]:
    """The five-equation system for real-component pairs closed under
    both sum and product: each factor's linear system plus one bilinear
    coupling equation."""
    jf1, jf2 = _jet_pair(f, p)
    jg1, jg2 = _jet_pair(g, p)
    _require_real([jf1.val, jf2.val, jg1.val, jg2.val], "real_combined_residual")
    return _real_combined_from_jets(jf1, jf2, jg1, jg2)


def _real_combined_from_jets(
    jf1: WirtingerJet, jf2: WirtingerJet, jg1: WirtingerJet, jg2: WirtingerJet
) -> tuple[float, float, float, float, float]:
    return (
        abs(jf2.d_z1 + jf1.d_z2),
        abs(jf1.d_z1 - jf2.d_z2),
        abs(jg2.d_z1 + jg1.d_z2),
        abs(jg1.d_z1 - jg2.d_z2),
        abs(jf1.d_z1 * jg1.d_z1 - jf1.d_z2 * jg1.d_z2),
    )


def product_rule_check(f: QFunction, g: QFunction, p: Point4) -> ProductRuleCheck:
    """Evaluate both sides of D(f*g) = D(f)*g + (correction term).

    The correction term depends on the values of f and the derivatives
    of g; it reduces to f*D(g) when f is real-valued and g satisfies the
    real-component linear system.
    """
    return _product_rule_from_jets(
        *_jet_pair(f, p),
        *_jet_pair(g, p),
        *_jet_pair(product_qf(f, g), p),
    )


def _product_rule_from_jets(
    jf1: WirtingerJet,
    jf2: WirtingerJet,
    jg1: WirtingerJet,
    jg2: WirtingerJet,
    jp1: WirtingerJet,
    jp2: WirtingerJet,
) -> ProductRuleCheck:
    """product_rule_check from the jets of f, g and product_qf(f, g)."""
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

    lhs = _cauchy_fueter_from_jets(jp1, jp2).as_quaternion()
    return ProductRuleCheck(lhs, first, second)


Systems = Callable[
    [WirtingerJet, WirtingerJet, PointEvents],
    tuple[tuple[tuple[np.ndarray, ...], ...], tuple[np.ndarray, ...], np.ndarray | bool],
]


class Sample(NamedTuple):
    """sample's result, in grid order: the unmasked points as rows
    (x1, y1, x2, y2); one array per reported system with a row of
    residuals per unmasked point; the extra values, a row per unmasked
    point, and where they hold; and the masked points."""

    points: np.ndarray
    reported: list[np.ndarray]
    extra: np.ndarray
    holds: np.ndarray
    masked: list[MaskedPoint]


def _per_point(values: tuple[np.ndarray, ...], n: int) -> list[tuple[float, ...]]:
    return list(zip(*(np.broadcast_to(v, (n,)).tolist() for v in values)))


def _columns(values: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    return np.column_stack([np.broadcast_to(v, (n,)) for v in values])


def sample(f: QFunction, d: Domain, grid_n: int, systems: Systems) -> Sample:
    """Evaluate f's two component jets at all grid points at once and
    derive every residual system from them.

    systems(j1, j2, events) returns (reported, extra, holds): reported has
    one tuple of residual arrays per reported system; extra is a tuple of
    further arrays for the caller's own use, defined where holds is true
    (classify's normalized maxima, everywhere; residuals' real_linear
    system, at real-valued points).  Every reported value, and every
    extra value where it holds, is checked for finiteness.

    A point is masked "singular" when f or a system divides by a vanishing
    value there, "norm_sq below threshold" when |f1|^2 + |f2|^2 is below
    the domain's excluded threshold, and "overflow" when Python's
    arithmetic would overflow, or that sum, a jet slot or a checked value
    is not finite.  A point keeps its first event, in the order evaluating
    it alone would meet them: f1's tree, f2's tree, the norm, the jets,
    the systems in call order, then the checked values.  The arithmetic is
    CPython's (see CArray), so every value equals the per-point one.
    Grids larger than BLOCK_POINTS are evaluated a block at a time.
    """
    blocks = [_sample_block(f, z, d.excluded_threshold, systems) for _, z in grid_blocks(d, grid_n)]
    code, *columns = (np.concatenate(parts) for parts in zip(*blocks))
    bad = code != 0
    masked = [
        MaskedPoint(Point4.from_reals(*p), MASK_REASONS[c])
        for p, c in zip(columns[0][bad].tolist(), code[bad].tolist())
    ]
    coords, extra, holds, *reported = (c[~bad] for c in columns)
    return Sample(coords, reported, extra, holds, masked)


def _sample_block(f: QFunction, z: Columns, threshold: float, systems: Systems) -> tuple[np.ndarray, ...]:
    """sample's evaluation of one block of points: each point's reason
    code (0 if unmasked) and coordinates, the extra values and where they
    hold, and a residual array per reported system, a row per point."""
    n = len(z[0])
    with np.errstate(all="ignore"):
        (j1, j2), events = grid_jets((f.f1, f.f2), z)
        events.flag(norm_sq(Quaternion(j1.val, j2.val)) < threshold, BELOW_THRESHOLD)
        finite = True
        for slot in (*vars(j1).values(), *vars(j2).values()):
            finite = finite & slot.isfinite()
        events.flag(~finite, OVERFLOW)
        reported, extra, holds = systems(j1, j2, events)
        for v in (v for values in reported for v in values):
            events.flag(~np.isfinite(v), OVERFLOW)
        for v in extra:
            events.flag(~np.isfinite(v) & holds, OVERFLOW)
    coords = np.column_stack(z)
    holds = np.broadcast_to(holds, (n,))
    return events.code, coords, _columns(extra, n), holds, *(_columns(values, n) for values in reported)


def _reports(names: tuple[str, ...], s: Sample) -> list[ResidualReport]:
    return [ResidualReport(n, s.points, r, s.masked) for n, r in zip(names, s.reported)]


def _classify_systems(j1: WirtingerJet, j2: WirtingerJet, events: PointEvents):
    """f's system, its inverse's system and |f2|, and as the extra value
    the two systems' largest residuals normalized by 1 + the largest jet
    magnitude."""
    k1, k2 = inverse_jets(j1, j2)
    e = _hyperholomorphy_from_jets(j1, j2)
    e_inv = _hyperholomorphy_from_jets(k1, k2)
    scale, scale_inv = 1.0 + _jet_scale(j1, j2), 1.0 + _jet_scale(k1, k2)
    reported = (e, e_inv, (abs(j2.val),))
    return reported, (maximum(*e) / scale, maximum(*e_inv) / scale_inv), True


def classify(
    f: QFunction,
    d: Domain | None = None,
    grid_n: int = 6,
    tol: float = DEFAULT_TOL,
) -> tuple[ClassificationLabel, list[ResidualReport]]:
    """Sample f on a grid and classify it by its PDE residuals.

    Masks points as sample does.  Raises InconclusiveError when fewer
    than half of the grid points survive masking.  Closure under sums and
    products is checked by classifying f + w, f*w and w*f themselves.
    """
    if d is None:
        d = Domain()
    s = sample(f, d, grid_n, _classify_systems)
    total = len(s.points) + len(s.masked)
    if len(s.points) * 2 < total:
        raise InconclusiveError(f"only {len(s.points)} of {total} grid points are unmasked")
    reports = _reports(("hyperholomorphy", "inverse_hyperholomorphy", "second_component"), s)
    eq1_norm_max, inv_norm_max = s.extra.max(axis=0).tolist()
    comp2_max = reports[2].max_residual

    if eq1_norm_max > tol:
        label = "NonHyperholomorphic"
    elif comp2_max <= tol:
        label = "Holomorphic"
    elif inv_norm_max <= tol:
        label = "WHypermeromorphic"
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
    real = maximum(abs(j1.val.imag), abs(j2.val.imag)) <= REAL_TOL
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
    s = sample(f, d, grid_n, systems)
    reports = _reports(("hyperholomorphy", "inverse_hyperholomorphy", "sum_pde"), s)
    if s.holds.all():
        reports.append(ResidualReport("real_linear", s.points, s.extra, s.masked))
    return reports
