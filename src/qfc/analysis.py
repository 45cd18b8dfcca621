"""Cauchy-Fueter operator, PDE residual systems, and the classifier.

Each operator and system is a formula over the jets of a function's two
components, (j1, j2), as grid_jets gives them for a block of points or
jets_at for one point, and returns an array with a value per point.  Jets
are derived only by the jet_* rules of jets.  The formulas, and the
methods of what they return, are quiet, also on jets_at's jets.  All
residual formulas return raw magnitudes.  The classifier is the only place
residuals are normalized (by 1 + the largest jet magnitude at the point)
before comparison against the tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .domain import Domain, grid_blocks
from .errors import BELOW_THRESHOLD, OVERFLOW, SINGULAR, InconclusiveError
from .jets import (
    CArray,
    Columns,
    PointEvents,
    WirtingerJet,
    grid_jets,
    jet_add,
    jet_conj,
    jet_div,
    jet_mul,
    jet_neg,
    maximum,
    quiet,
)
from .lowering import QFunction
from .quaternion import UNIT_J, Quaternion, modulus, norm_sq, quat_mul
from .report import ResidualReport

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

    z1: CArray
    z2: CArray

    def as_quaternion(self) -> Quaternion:
        return Quaternion(self.z1, self.z2.conjugate())

    @quiet
    def magnitude(self) -> np.ndarray:
        """math.hypot of the parts' magnitudes, elementwise: np.hypot
        differs from math.hypot in the last bit on some pairs."""
        a1, a2 = np.broadcast_arrays(abs(self.z1), abs(self.z2))
        return np.array(list(map(math.hypot, a1.tolist(), a2.tolist())))


@dataclass(frozen=True)
class ProductRuleCheck:
    """Both sides of the derivative-of-a-product identity at a point."""

    lhs: Quaternion
    first_term: Quaternion
    second_term: Quaternion

    @property
    @quiet
    def rhs(self) -> Quaternion:
        return self.first_term + self.second_term

    @property
    @quiet
    def gap(self) -> np.ndarray:
        return modulus(self.lhs - self.rhs)


@dataclass(frozen=True)
class ClassificationLabel:
    label: str
    tol: float

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


# The jets of a function's two components, (f1, f2), at the same points.
Jets = tuple[WirtingerJet, WirtingerJet]


def _jet_scale(j1: WirtingerJet, j2: WirtingerJet) -> np.ndarray:
    return maximum(j1.magnitude(), j2.magnitude())


@quiet
def cauchy_fueter_from_jets(f: Jets) -> DValue:
    """The modified Cauchy-Fueter operator applied to f, from f's jets."""
    j1, j2 = f
    c1 = 0.5 * (j1.d_z1bar - j2.d_z2bar.conjugate())
    c2 = 0.5 * (j1.d_z2bar + j2.d_z1bar.conjugate())
    return DValue(c1, c2)


@quiet
def norm_sq_jet(f: Jets) -> WirtingerJet:
    """Jet of norm_sq_expr(f) from f's jets."""
    j1, j2 = f
    return jet_add(jet_mul(j1, jet_conj(j1)), jet_mul(j2, jet_conj(j2)))


@quiet
def inverse_jets(f: Jets) -> Jets:
    """Jets of inverse_qf(f), conj(f)/norm_sq(f), from f's jets; singular
    where norm_sq(f) vanishes, as jet_div flags."""
    n = norm_sq_jet(f)
    return jet_div(jet_conj(f[0]), n), jet_div(jet_neg(f[1]), n)


@quiet
def hyperholomorphy_from_jets(f: Jets) -> tuple[np.ndarray, np.ndarray]:
    """Residual magnitudes of the two component equations of 2*D(f)=0,
    from f's jets."""
    j1, j2 = f
    e1 = j1.d_z1bar - j2.d_z2bar.conjugate()
    e2 = j1.d_z2bar + j2.d_z1bar.conjugate()
    return (abs(e1), abs(e2))


@quiet
def inverse_system_from_jets(f: Jets) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the system characterizing a hyperholomorphic inverse,
    from f's jets.

    For hyperholomorphic f, this vanishes exactly when the right inverse
    of f is hyperholomorphic off the zero set of f.
    """
    j1, j2 = f
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


def _require_real(values: list[CArray], what: str) -> None:
    """Raise ValueError unless every value is real within REAL_TOL, at the
    first point where one is not."""
    worst = maximum(*(abs(v.imag) for v in values))
    worst = worst.tolist()[int(np.argmax(worst > REAL_TOL))]
    if worst > REAL_TOL:
        raise ValueError(
            f"{what} requires real-valued components at the point "
            f"(largest imaginary part {worst:.3e})"
        )


def _real_linear(j1: WirtingerJet, j2: WirtingerJet) -> tuple[np.ndarray, np.ndarray]:
    e1 = j2.d_z1 + j1.d_z2bar
    e2 = j1.d_z1 - j2.d_z2bar
    return (abs(e1), abs(e2))


@quiet
def real_linear_from_jets(f: Jets) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the linear first-order system for real-component f,
    from f's jets.  Raises ValueError unless f's values are real."""
    _require_real([f[0].val, f[1].val], "real_linear_from_jets")
    return _real_linear(*f)


@quiet
def sum_pde_from_jets(h: Jets, mask_threshold: float) -> np.ndarray:
    """Residual of the PDE characterizing sums that stay
    w-hypermeromorphic, from h's jets; conj_qf(h) has the jets conj(j1), -j2.

    Flags "singular" where norm_sq(h) is below mask_threshold, since the
    PDE divides by the norm there.
    """
    j1, j2 = h
    nj = norm_sq_jet(h)
    n = nj.val.real
    nj.val.events.flag(n < mask_threshold, SINGULAR)
    hbar = Quaternion(j1.val.conjugate(), -j2.val)
    dn = Quaternion(0.5 * nj.d_z1bar, (0.5 * nj.d_z2bar).conjugate())
    dhbar = cauchy_fueter_from_jets((jet_conj(j1), jet_neg(j2))).as_quaternion()
    return modulus(quat_mul(dn.scale(-2.0), hbar) + dhbar.scale(2.0 * n))


@quiet
def product_system_from_jets(f: Jets, g: Jets) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the PDE pair for the ordered product f*g, from the jets
    of f and g.

    The system is order-sensitive: it constrains the left factor's
    derivatives through the right factor's first component value.
    """
    (jf1, jf2), (jg1, jg2) = f, g
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


@quiet
def product_rule_from_jets(f: Jets, g: Jets, fg: Jets) -> ProductRuleCheck:
    """Both sides of D(f*g) = D(f)*g + (correction term), from the jets of
    f, g and product_qf(f, g).

    The correction term depends on the values of f and the derivatives
    of g; it reduces to f*D(g) when f is real-valued and g satisfies the
    real-component linear system.
    """
    (jf1, jf2), (jg1, jg2) = f, g
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

    lhs = cauchy_fueter_from_jets(fg).as_quaternion()
    return ProductRuleCheck(lhs, first, second)


Systems = Callable[
    [Jets, PointEvents],
    tuple[tuple[tuple[np.ndarray, ...], ...], tuple[np.ndarray, ...], np.ndarray | bool],
]


class Sample(NamedTuple):
    """sample's result, in grid order: the unmasked points as rows
    (x1, y1, x2, y2); one array per reported system with a row of
    residuals per unmasked point; the extra values, a row per unmasked
    point, and where they hold; and the masked points' rows and codes."""

    points: np.ndarray
    reported: list[np.ndarray]
    extra: np.ndarray
    holds: np.ndarray
    masked: np.ndarray
    reasons: np.ndarray


def _columns(values: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    return np.column_stack([np.broadcast_to(v, (n,)) for v in values])


def sample(f: QFunction, d: Domain, grid_n: int, systems: Systems) -> Sample:
    """Evaluate f's two component jets at all grid points at once and
    derive every residual system from them.

    systems(jets, events) returns (reported, extra, holds): reported has
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
    blocks = [_sample_block(f, z, d.excluded_threshold, systems) for z in grid_blocks(d, grid_n)]
    code, *columns = (np.concatenate(parts) for parts in zip(*blocks))
    del blocks  # so the copies below can reuse the blocks' memory
    bad = code != 0
    coords, extra, holds, *reported = (c[~bad] for c in columns)
    return Sample(coords, reported, extra, holds, columns[0][bad], code[bad])


def _sample_block(f: QFunction, z: Columns, threshold: float, systems: Systems) -> tuple[np.ndarray, ...]:
    """sample's evaluation of one block of points: each point's reason
    code (0 if unmasked) and coordinates, the extra values and where they
    hold, and a residual array per reported system, a row per point."""
    n = len(z[0])
    with np.errstate(all="ignore"):
        (j1, j2), events = grid_jets((f.f1, f.f2), z)
        events.flag(norm_sq(Quaternion(j1.val, j2.val)) < threshold, BELOW_THRESHOLD)
        grads = (j1.grad.isfinite() & j2.grad.isfinite()).all(axis=(0, 1))
        events.flag(~(j1.val.isfinite() & j2.val.isfinite() & grads), OVERFLOW)
        reported, extra, holds = systems((j1, j2), events)
        for v in (v for values in reported for v in values):
            events.flag(~np.isfinite(v), OVERFLOW)
        for v in extra:
            events.flag(~np.isfinite(v) & holds, OVERFLOW)
    coords = np.column_stack(z)
    holds = np.broadcast_to(holds, (n,))
    return events.code, coords, _columns(extra, n), holds, *(_columns(values, n) for values in reported)


def _reports(names: tuple[str, ...], s: Sample) -> list[ResidualReport]:
    return [ResidualReport(n, s.points, r, s.masked, s.reasons) for n, r in zip(names, s.reported)]


def _classify_systems(f: Jets, events: PointEvents):
    """f's system, its inverse's system and |f2|, and as the extra value
    the two systems' largest residuals normalized by 1 + the largest jet
    magnitude."""
    k = inverse_jets(f)
    e = hyperholomorphy_from_jets(f)
    e_inv = hyperholomorphy_from_jets(k)
    scale, scale_inv = 1.0 + _jet_scale(*f), 1.0 + _jet_scale(*k)
    reported = (e, e_inv, (abs(f[1].val),))
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


def _residual_systems(f: Jets, events: PointEvents, mask_threshold: float):
    """The hyperholomorphy, inverse and sum systems, and as the extra value
    the real-component linear system, which holds where f is real-valued."""
    reported = (
        hyperholomorphy_from_jets(f),
        inverse_system_from_jets(f),
        (sum_pde_from_jets(f, mask_threshold),),
    )
    real = maximum(abs(f[0].val.imag), abs(f[1].val.imag)) <= REAL_TOL
    with events.only(real):
        linear = _real_linear(*f)
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
        reports.append(ResidualReport("real_linear", s.points, s.extra, s.masked, s.reasons))
    return reports
