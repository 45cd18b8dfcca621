"""Zero and pole scans and order estimates against the per-point loops
they replaced.

zeros evaluates its trees over arrays of points with grid_jets.  The
oracles here are copies of the per-point loops, with the value of each
tree at each grid point or probe, a point skipped where evaluating it
raises, and the same lattice clustering and order fit.  Scans must give
the same clusters and order estimates the same floats, bit for bit.  The
value is the val slot of the recursive eval_jet (jet_oracle), computed without the partials that eval_jet
would compute and the scans never read.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfc.domain
import qfc.jets
import qfc.zeros
from qfc.cli import main
from qfc.domain import Domain, grid_axes
from qfc.errors import InconclusiveError, SingularPointError
from qfc.expr import Add, Conj, ConjVar, Div, Mul, Neg, Pow, QExpr, RealConst, Sub, UnitI, UnitJ, Var, const, parse
from qfc.generators import random_polynomial_qf, random_rational_meromorphic
from qfc.jets import Point4
from qfc.lowering import QFunction, inverse_qf, lower
from qfc.zeros import _RADII, _TINY, OrderEstimate, _slope, estimate_order, pole_set_scan, zero_set_scan

from jet_oracle import eval_jet, grid_points, vanishes

Z1, Z2 = Var("z1"), Var("z2")
# Each axis of a random box; the last one makes squares overflow.
INTERVALS = ((-1.0, 1.0), (-2.0, 0.5), (0.0, 1.0), (-0.3, 0.3), (-1e200, 1e200))
KINDS = ("planted", "rational", "pole", "polynomial", "meromorphic")


def _function(kind: str, rng: np.random.Generator, axes: list[list[float]]) -> QFunction:
    """A random function of the given kind whose zeros or singular points
    sit on nodes of the grid with these axes."""

    def node():
        x1, y1, x2, y2 = (axis[rng.integers(len(axis))] for axis in axes)
        return complex(x1, y1), complex(x2, y2)

    def coeff():
        return const(complex(*rng.uniform(-1.0, 1.0, 2)))

    (a, b), (c, e) = node(), node()
    k, m = (int(x) for x in rng.integers(1, 4, 2))
    u, w = Z1 - const(a), Z2 - const(b)
    planted = coeff() * u**k + coeff() * w + (w**m + coeff() * u) * UnitJ()
    if kind == "planted":
        return lower(planted)
    if kind == "rational":  # singular where z1 = c or z2 = e
        return lower(planted / ((Z1 - const(c)) * (Z2 - const(e))))
    if kind == "pole":  # singular at the node (c, e) alone
        return lower(planted / ((Z1 - const(c)) + (Z2 - const(e)) * UnitJ()))
    if kind == "polynomial":
        return random_polynomial_qf(rng)
    return random_rational_meromorphic(rng)


def _value(e: QExpr, p: Point4) -> complex:
    """eval_jet(e, p).val, and the same exception first: a quotient's
    numerator is read before its denominator, and a power's n - 1 power,
    eval_jet's factor, before its n power.  (1e200+0j)**4 is nan+nanj
    while (1e200+0j)**3 overflows."""
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
        case Add(l, r):
            return _value(l, p) + _value(r, p)
        case Sub(l, r):
            return _value(l, p) - _value(r, p)
        case Neg(x):
            return -_value(x, p)
        case Mul(l, r):
            return _value(l, p) * _value(r, p)
        case Div(l, r):
            num, den = _value(l, p), _value(r, p)
            if vanishes(den):
                raise SingularPointError(f"denominator vanishes near {p}")
            return num / den
        case Pow(b, n):
            base = _value(b, p)
            base ** (n - 1)  # raises where eval_jet's factor raises
            return base**n
        case Conj(x):
            return _value(x, p).conjugate()
    raise TypeError(f"not a j-free expression node: {e!r}")


def _outcome_bits(evaluate, e: QExpr, p: Point4):
    """The value's parts, with NaN as the string "nan", or the exception type."""
    try:
        v = evaluate(e, p)
    except (SingularPointError, OverflowError) as exc:
        return type(exc)
    return tuple("nan" if math.isnan(x) else x.hex() for x in (v.real, v.imag))


def test_the_value_oracle_is_eval_jets_value_slot() -> None:
    """Over the scans' random functions and their right inverses, on boxes
    where squares overflow, _value gives eval_jet's val bits and raises
    what eval_jet raises.  At z1 = 1e200, z2 = 0, z1^4 is NaN but its
    factor 4 z1^3 overflows, and z1^2 / (z2 / z2) overflows before its
    denominator divides by zero."""
    big = Point4(1e200 + 0j, 0j)
    cases = [(Pow(Z1, 4), big, 1e-12), (Div(Pow(Z1, 2), Div(Z2, Z2)), big, 1e-12)]
    for seed in range(3):
        for kind in KINDS:
            d = Domain((INTERVALS[4], INTERVALS[seed], INTERVALS[0], INTERVALS[3]))
            f = _function(kind, np.random.default_rng(seed), grid_axes(d, 2))
            for g in (f, inverse_qf(f)):
                cases += [(e, p, tol) for e in (g.f1, g.f2) for p in grid_points(d, 2) for tol in (1e-12, 1e-2)]
    seen = set()
    for e, p, tol in cases:
        with patch.object(qfc.jets, "SINGULAR_SQ_TOL", tol):
            expected = _outcome_bits(lambda *a: eval_jet(*a).val, e, p)
            assert _outcome_bits(_value, e, p) == expected
        seen.add(expected if isinstance(expected, type) else "value")
    assert seen == {"value", SingularPointError, OverflowError}


def _zero_at(g: QFunction, p: Point4, tol: float):
    """Whether both components of g are within tol of zero at p, or the
    exception evaluating them raises; a value read that is not finite
    overflows.  The second value is read only where the first passes."""
    try:
        v1 = _value(g.f1, p)
        v2 = _value(g.f2, p)
        for v in (v1, v2):
            if not cmath.isfinite(v):
                raise OverflowError(f"{v} is not finite")
            if abs(v) > tol:
                return False
        return True
    except (SingularPointError, OverflowError) as exc:
        return exc


def _candidate(f: QFunction, p: Point4, kind: str, tol: float):
    if kind == "zero":
        return _zero_at(f, p, tol)
    at = _zero_at(inverse_qf(f), p, tol)
    if isinstance(at, SingularPointError) and isinstance(_zero_at(f, p, tol), SingularPointError):
        return True
    return at


def _per_point_scan(f, d, grid_n, tol, kind="zero"):
    """The scan one grid point at a time; clusters are components of the
    hits under Chebyshev adjacency, in grid order of their first member."""
    hits, skipped = {}, 0
    for p, idx in zip(grid_points(d, grid_n), product(range(grid_n), repeat=4)):
        at = _candidate(f, p, kind, tol)
        if isinstance(at, Exception):
            skipped += 1
        elif at:
            hits[idx] = p
    if skipped == grid_n**4:
        raise InconclusiveError("every grid point is skipped")
    clusters, seen = [], set()
    for start in hits:
        if start in seen:
            continue
        members, todo = [], [start]
        seen.add(start)
        while todo:
            idx = todo.pop()
            members.append(idx)
            for off in product((-1, 0, 1), repeat=4):
                nb = tuple(i + o for i, o in zip(idx, off))
                if nb in hits and nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
        clusters.append([hits[idx] for idx in sorted(members)])
    return clusters


def _fraction_slope(bucket: list[tuple[float, float]]) -> float:
    """The least-squares slope of y against x, from the centred sums in
    exact rational arithmetic, rounded once."""
    xs = [Fraction(x) for x, _ in bucket]
    ys = [Fraction(y) for _, y in bucket]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs))


def _per_point_order(f, q, kind="zero", *, seed=0, zero_tol=1e-9, probe=complex):
    """estimate_order one probe at a time.  probe=complex evaluates with
    Python's complex arithmetic; the identity keeps the numpy.complex128
    probes of the loop the array path replaced.  A sample whose magnitude
    is not finite is dropped, and the fit is _fraction_slope."""
    if _candidate(f, q, kind, zero_tol) is not True:
        raise ValueError("not a candidate")
    radii = np.geomspace(1e-1, 1e-4, 8)
    rng = np.random.default_rng(seed)
    dirs = []
    while len(dirs) < 16:  # points uniform in the unit ball, scaled to the sphere
        v = rng.uniform(-1, 1, size=4).tolist()
        h = math.hypot(*v)
        if 0 < h <= 1:
            dirs.append((complex(v[0] / h, v[1] / h), complex(v[2] / h, v[3] / h)))
    samples = ([], [])
    for u1, u2 in dirs:
        for r in radii:
            p = Point4(probe(q.z1 + r * u1), probe(q.z2 + r * u2))
            for comp, bucket in ((f.f1, samples[0]), (f.f2, samples[1])):
                try:
                    a = abs(_value(comp, p))
                except (SingularPointError, OverflowError):
                    continue
                if math.isfinite(a):
                    bucket.append((math.log(r), math.log(max(a, 1e-300))))
    per = []
    for bucket in samples:
        if len(bucket) < len(radii) or len({lr for lr, _ in bucket}) < 2:
            raise ValueError("too few valid samples around the candidate point")
        if all(lv < math.log(_TINY) for _, lv in bucket):
            per.append(math.inf if kind == "zero" else 0.0)
            continue
        slope = _fraction_slope(bucket)
        per.append(max(0.0, slope if kind == "zero" else -slope))
    return OrderEstimate(q, kind, min(per) if kind == "zero" else max(per), (per[0], per[1]))


def _outcome(run, *args, **kwargs):
    try:
        return repr(run(*args, **kwargs))
    except ValueError:
        return "refused"


def _compare(f, d, grid_n, tol, singular_sq_tol, kind):
    """Assert the scans and the order estimates at each cluster's first
    point agree under the singular tolerance singular_sq_tol; the per-point
    clusters, or None where every point is skipped."""
    scan = zero_set_scan if kind == "zero" else pole_set_scan
    with patch.object(qfc.jets, "SINGULAR_SQ_TOL", singular_sq_tol):
        try:
            expected = _per_point_scan(f, d, grid_n, tol, kind)
        except InconclusiveError:
            with pytest.raises(InconclusiveError):
                scan(f, d, grid_n, tol)
            return None
        assert repr(scan(f, d, grid_n, tol)) == repr(expected)
        for q in [c[0] for c in expected] + [Point4(0j, 0j)]:
            args = (f, q, kind)
            assert _outcome(estimate_order, *args, zero_tol=tol) == _outcome(_per_point_order, *args, zero_tol=tol)
    return expected


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    box=st.lists(st.sampled_from(INTERVALS), min_size=4, max_size=4),
    grid_n=st.integers(min_value=2, max_value=9),
    tol=st.sampled_from((1e-9, 0.25, 2.0)),
    singular_sq_tol=st.sampled_from((1e-12, 1e-2)),
)
def test_batched_zero_scan_equals_the_per_point_loop(kind, seed, box, grid_n, tol, singular_sq_tol) -> None:
    d = Domain(tuple(box))
    f = _function(kind, np.random.default_rng(seed), grid_axes(d, grid_n))
    _compare(f, d, grid_n, tol, singular_sq_tol, "zero")


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    box=st.lists(st.sampled_from(INTERVALS), min_size=4, max_size=4),
    grid_n=st.integers(min_value=2, max_value=5),
    tol=st.sampled_from((1e-9, 0.25)),
)
def test_batched_pole_scan_equals_the_per_point_loop(kind, seed, box, grid_n, tol) -> None:
    """Also on boxes where squares overflow: where a point both overflows
    and divides by a vanishing value, the array path and eval_jet both
    record the event of the numerator, which they evaluate first."""
    d = Domain(tuple(box))
    f = _function(kind, np.random.default_rng(seed), grid_axes(d, grid_n))
    _compare(f, d, grid_n, tol, 1e-12, "pole")


def test_the_comparison_finds_clusters_and_skips() -> None:
    """A fixed sweep meets zero clusters, pole nodes and an all-skipped
    grid, so the comparisons above are not vacuous."""
    found = {"zero": 0, "pole": 0}
    for seed in range(3):
        for kind in KINDS:
            d = Domain((INTERVALS[seed], INTERVALS[seed + 1], INTERVALS[0], INTERVALS[3]))
            f = _function(kind, np.random.default_rng(seed), grid_axes(d, 4))
            for scan_kind in found:
                found[scan_kind] += len(_compare(f, d, 4, 1e-9, 1e-12, scan_kind) or [])
    assert found["zero"] and found["pole"], found
    real_z1 = Domain(((1e10, 2e10), (0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0)))  # z1^40 overflows everywhere
    assert _compare(lower(parse("z1^40 + z2*j")), real_z1, 3, 1e-9, 1e-12, "zero") is None
    # |f2| overflows everywhere; it is only taken, and skips the point, where |f1| <= tol
    huge = "(1.5e308 + 1.5e308 * i) * j"
    assert _compare(lower(parse(huge)), Domain(), 2, 1e-9, 1e-12, "zero") is None
    assert _compare(lower(parse(f"1 + {huge}")), Domain(), 2, 1e-9, 1e-12, "zero") == []


def test_order_keeps_the_numpy_probes_bits_without_division() -> None:
    """Without a quotient, numpy.complex128 and Python complex arithmetic
    agree, so the estimates equal those of the replaced loop, whose probe
    coordinates were numpy.complex128."""
    for seed in range(6):
        for kind in ("planted", "polynomial"):
            rng = np.random.default_rng(seed)
            f = _function(kind, rng, grid_axes(Domain(), 5))
            for q in [Point4(0j, 0j), *(c[0] for c in zero_set_scan(f, Domain(), 5))]:
                for order_kind in ("zero", "pole"):
                    old = _outcome(_per_point_order, f, q, order_kind, probe=lambda z: z)
                    assert _outcome(estimate_order, f, q, order_kind) == old


def test_the_order_radii_are_geomspaces() -> None:
    assert _RADII == tuple(np.geomspace(1e-1, 1e-4, 8).tolist())


LOG_RADII = [math.log(r) for r in _RADII]
# Abscissae as the fits see them: the log radii themselves, so that
# samples share them, or any float between and around them.
ABSCISSAE = st.sampled_from(LOG_RADII) | st.floats(-10.0, -2.0)


def _two_abscissae(bucket: list[tuple[float, float]]) -> bool:
    return len({x for x, _ in bucket}) >= 2


@settings(max_examples=200, deadline=None)
@given(
    bucket=st.lists(
        st.tuples(ABSCISSAE, st.floats(math.log(1e-300), math.log(1.7e308))), min_size=8, max_size=128
    ).filter(_two_abscissae)
)
def test_the_slope_is_the_exact_least_squares_slope_rounded_once(bucket) -> None:
    """Log magnitudes run from log(1e-300), the floor of a sample, to the
    log of the largest float."""
    assert _slope(bucket).hex() == _fraction_slope(bucket).hex()


@settings(max_examples=200, deadline=None)
@given(
    noisy=st.lists(
        st.tuples(st.sampled_from(LOG_RADII), st.floats(-0.01, 0.01)), min_size=8, max_size=128
    ).filter(_two_abscissae),
    slope=st.floats(0.25, 8.0) | st.floats(-8.0, -0.25),
    intercept=st.floats(-5.0, 5.0),
)
def test_the_slope_agrees_with_polyfit_on_well_conditioned_lines(noisy, slope, intercept) -> None:
    """Noisy lines through the log radii, whose slopes are far from zero."""
    xs = [x for x, _ in noisy]
    ys = [slope * x + intercept + e for x, e in noisy]
    fit = _slope(list(zip(xs, ys)))
    assert fit == pytest.approx(float(np.polyfit(xs, ys, 1)[0]), rel=1e-12, abs=0.0)


def test_scans_are_evaluated_in_blocks(monkeypatch: pytest.MonkeyPatch) -> None:
    """A grid split into blocks, the last one partial, scans as one."""
    monkeypatch.setattr(qfc.domain, "BLOCK_POINTS", 7)
    d = Domain(((-1.0, 1.0), (-2.0, 0.5), (0.0, 1.0), (-0.3, 0.3)))
    for kind in ("planted", "rational", "pole"):
        f = _function(kind, np.random.default_rng(3), grid_axes(d, 4))
        for scan_kind in ("zero", "pole"):
            _compare(f, d, 4, 0.25, 1e-12, scan_kind)


def test_zero_set_and_order_never_evaluate_per_point(capsys, tmp_path) -> None:
    assert not hasattr(qfc.jets, "eval_jet") and not hasattr(qfc.zeros, "eval_jet")
    path = tmp_path / "f.txt"
    path.write_text("f = (z1 - 0.5)^2 + (z2 + 0.5) * j\ng = 1 / ((z1 - 0.5) + (z2 + 0.5) * j)\n")
    for argv in (["zero-set"], ["order"], ["order", "--kind", "pole"]):
        assert main([*argv, "--input", str(path), "--grid", "5"]) == 0
    out = capsys.readouterr().out
    assert "f: 1 candidate cluster(s)" in out and "g: 1 candidate cluster(s)" in out

