"""Zero-set scanning and local order estimation.

Both evaluate their trees over arrays of points, a block of at most
BLOCK_POINTS at a time, with grid_jets.  Its arithmetic is CPython's
(see jets.CArray), so each value equals the one evaluating that point
alone gives, and a point where that evaluation would raise (a vanishing
divisor, an overflowing power or magnitude) carries that event instead
and is skipped.  So is a point where a value the zero test reads is not
finite.

Zeros and poles are tests on values, so every call here is grid_jets'
value-only form, partials=False: no gradient is computed or held, and
the events are the full walk's, since the value steps that flag them are
the same.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .domain import Domain, grid_blocks
from .errors import MASK_REASONS, OVERFLOW, SINGULAR, InconclusiveError
from .generators import SeededStream
from .jets import Columns, Point4, columns_of, grid_jets
from .lowering import QFunction, inverse_qf

_TINY = 1e-250
_DIRECTIONS = 16  # random unit directions of an order fit
# The radii of an order fit, np.geomspace(1e-1, 1e-4, 8) bit for bit.
_RADII = (
    0.1, 0.037275937203149395, 0.013894954943731374, 0.005179474679231213,
    0.0019306977288832496, 0.0007196856730011522, 0.0002682695795279727, 0.0001,
)

# A block's candidates, each point's event code (0 where it was evaluated)
# and the two magnitudes compared with the tolerance.
Test = Callable[[Columns], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def _zero_test(f: QFunction, tol: float) -> Test:
    """Points where both components of f are within tol of zero; a point
    where a value read is not finite is flagged "overflow"."""

    def test(z: Columns):
        (j1, j2), events = grid_jets((f.f1, f.f2), z, partials=False)
        a1 = abs(j1.val)
        events.flag(~j1.val.isfinite(), OVERFLOW)
        with events.only(a1 <= tol):  # v2 is read only where |v1| passes
            a2 = abs(j2.val)
            events.flag(~j2.val.isfinite(), OVERFLOW)
        code = events.code
        return (code == 0) & (a1 <= tol) & (a2 <= tol), code, a1, a2

    return test


def _pole_test(f: QFunction, tol: float) -> Test:
    """Points where the right inverse of f is within tol of zero, and
    nodes where both the inverse and f divide by a vanishing value."""
    inverse_zero = _zero_test(inverse_qf(f), tol)

    def test(z: Columns):
        hit, code, w1, w2 = inverse_zero(z)
        _, events = grid_jets((f.f1, f.f2), z, partials=False)
        node = (code == SINGULAR) & (events.code == SINGULAR)
        return hit | node, np.where(node, 0, code), w1, w2

    return test


def zero_set_scan(
    f: QFunction, d: Domain | None = None, grid_n: int = 21, tol: float = 1e-9
) -> list[list[Point4]]:
    """Grid points where both components of f are within tol of zero,
    grouped into clusters of grid-adjacent points.

    Adjacency is Chebyshev distance one on the index lattice.  Clusters
    are returned in grid order of their first member, members in grid
    order; points where f is singular or overflows are skipped, and
    InconclusiveError is raised when every point is.
    """
    return _scan(d or Domain(), grid_n, _zero_test(f, tol))


def pole_set_scan(
    f: QFunction, d: Domain | None = None, grid_n: int = 21, tol: float = 1e-9
) -> list[list[Point4]]:
    """Pole candidates of f, clustered as zero_set_scan clusters zeros:
    grid points where the right inverse of f is within tol of zero, and
    grid points where f itself is singular, so its inverse is too."""
    return _scan(d or Domain(), grid_n, _pole_test(f, tol))


def _scan(d: Domain, grid_n: int, test: Test) -> list[list[Point4]]:
    total, start = grid_n**4, 0
    hits: dict[tuple[int, int, int, int], Point4] = {}
    skipped = np.zeros(max(MASK_REASONS) + 1, dtype=int)
    for columns in grid_blocks(d, grid_n):
        with np.errstate(all="ignore"):
            hit, code, _, _ = test(columns)
        skipped += np.bincount(code, minlength=len(skipped))
        at = np.flatnonzero(hit)
        lattice = zip(*(k.tolist() for k in np.unravel_index(start + at, (grid_n,) * 4)))
        for i, idx in zip(at.tolist(), lattice):
            hits[idx] = Point4.from_reals(*(float(c[i]) for c in columns))
        start += len(code)
    if skipped[1:].sum() == total:
        reasons = ", ".join(f"{n} {MASK_REASONS[c]}" for c, n in enumerate(skipped.tolist()) if c and n)
        raise InconclusiveError(f"every grid point is skipped ({reasons})")

    parent: dict[tuple[int, int, int, int], tuple[int, int, int, int]] = {
        k: k for k in hits
    }

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    offsets = [off for off in product((-1, 0, 1), repeat=4) if any(off)]
    for idx in hits:
        for off in offsets:
            nb = tuple(idx[k] + off[k] for k in range(4))
            if nb in hits:
                ra, rb = find(idx), find(nb)
                if ra != rb:
                    parent[rb] = ra

    clusters: dict[tuple[int, int, int, int], list[Point4]] = {}
    order: list[tuple[int, int, int, int]] = []
    for idx in hits:
        root = find(idx)
        if root not in clusters:
            clusters[root] = []
            order.append(root)
        clusters[root].append(hits[idx])
    return [clusters[root] for root in order]


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares growth exponent of f near an isolated zero or pole.

    order is the minimum component exponent for zeros and the maximum
    pole exponent for poles; per_component stores the raw fitted values
    clipped at zero (math.inf marks an identically zero component of a
    zero estimate).
    """

    location: Point4
    kind: str
    order: float
    per_component: tuple[float, float]

    @property
    def display_order(self) -> float:
        if math.isinf(self.order):
            return self.order
        return round(self.order * 2.0) / 2.0


def estimate_order(
    f: QFunction, q: Point4, kind: str = "zero", *, seed: int = 0, zero_tol: float = 1e-9
) -> OrderEstimate:
    """Fit log|f_i(q + r*u)| against log r over shrinking radii.

    Samples eight radii from 1e-1 down to 1e-4 (_RADII) along 16 random unit
    directions (_DIRECTIONS).  Each is a point uniform in the unit ball of
    R^4, drawn by rejection from four uniform(-1, 1) draws of
    SeededStream(seed), scaled to unit length, so it is uniform on the
    sphere (Marsaglia, Ann. Math. Statist. 43(2), 1972).
    kind="zero" requires both components of f to vanish at q within
    zero_tol; kind="pole" requires q to be a point pole_set_scan would
    report.  A sample of a component counts where evaluating that
    component alone is not singular and does not overflow, and where its
    magnitude is finite.  Each component's order is the exact
    least-squares slope of its samples' log magnitudes against log r,
    rounded once (_slope).  Raises ValueError when a component keeps fewer
    samples than there are radii, or samples at one radius.
    """
    if kind not in ("zero", "pole"):
        raise ValueError("kind must be 'zero' or 'pole'")
    _check_candidate(f, q, kind, zero_tol)

    stream = SeededStream(seed)
    dirs: list[tuple[complex, complex]] = []
    while len(dirs) < _DIRECTIONS:
        v = [stream.uniform(-1.0, 1.0) for _ in range(4)]
        h = math.hypot(*v)
        if 0.0 < h <= 1.0:
            a, b, c, d = (x / h for x in v)
            dirs.append((complex(a, b), complex(c, d)))

    z1 = [q.z1 + r * u1 for u1, _ in dirs for r in _RADII]
    z2 = [q.z2 + r * u2 for _, u2 in dirs for r in _RADII]
    z = columns_of(z1, z2)
    log_r = [math.log(r) for _ in dirs for r in _RADII]
    samples = []
    for comp in (f.f1, f.f2):
        with np.errstate(all="ignore"):
            (j,), events = grid_jets((comp,), z, partials=False)
            counts = (events.code == 0).tolist()
            magnitudes = np.broadcast_to(abs(j.val), (len(z1),)).tolist()
        kept = [(lr, a) for lr, a, ok in zip(log_r, magnitudes, counts) if ok and math.isfinite(a)]
        samples.append([(lr, math.log(max(a, 1e-300))) for lr, a in kept])

    per: list[float] = []
    for bucket in samples:
        if len(bucket) < len(_RADII):
            raise ValueError("too few valid samples around the candidate point")
        if len({lr for lr, _ in bucket}) < 2:  # a line fit needs two abscissae
            raise ValueError("valid samples around the candidate point at fewer than two radii")
        if all(lv < math.log(_TINY) for _, lv in bucket):
            per.append(math.inf if kind == "zero" else 0.0)
            continue
        slope = _slope(bucket)
        per.append(max(0.0, slope if kind == "zero" else -slope))

    order = min(per) if kind == "zero" else max(per)
    return OrderEstimate(q, kind, order, (per[0], per[1]))


def _slope(bucket: list[tuple[float, float]]) -> float:
    """The least-squares slope of y against x over the (x, y) pairs,
    exact and rounded once; the pairs must hold two distinct x.

    Each float is an integer over a power of two, so over their largest
    denominator every sum is a Python int, and CPython rounds the one
    int/int true division correctly."""
    ratios = [v.as_integer_ratio() for pair in bucket for v in pair]
    shift = max(d for _, d in ratios).bit_length()
    ints = [n << (shift - d.bit_length()) for n, d in ratios]
    xs, ys = ints[0::2], ints[1::2]
    n, sx, sy = len(bucket), sum(xs), sum(ys)
    num = n * sum(x * y for x, y in zip(xs, ys)) - sx * sy
    return num / (n * sum(x * x for x in xs) - sx * sx)


def _check_candidate(f: QFunction, q: Point4, kind: str, zero_tol: float) -> None:
    """Raise ValueError unless q is a point the scan for kind would report."""
    test = (_zero_test if kind == "zero" else _pole_test)(f, zero_tol)
    with np.errstate(all="ignore"):
        hit, code, a1, a2 = test(columns_of([q.z1], [q.z2]))
    if hit[0]:
        return
    if code[0]:
        raise ValueError(f"{q} is not a {kind} candidate: {MASK_REASONS[int(code[0])]}")
    what = "component" if kind == "zero" else "inverse"
    raise ValueError(
        f"{q} is not a {kind} candidate ({what} magnitudes {a1[0]:.3e}, {a2[0]:.3e})"
    )
