"""Zero-set scanning and local order estimation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .domain import Domain, grid_points
from .errors import SingularPointError
from .jets import DEFAULT_SINGULAR_SQ_TOL, Point4, eval_value
from .lowering import QFunction, inverse_qf

_TINY = 1e-250


def zero_set_scan(
    f: QFunction,
    d: Domain | None = None,
    grid_n: int = 21,
    tol: float = 1e-9,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> list[list[Point4]]:
    """Grid points where both components of f are within tol of zero,
    grouped into clusters of grid-adjacent points.

    Adjacency is Chebyshev distance one on the index lattice.  Clusters
    are returned in grid order of their first member, members in grid
    order; singular grid points are skipped.
    """
    if d is None:
        d = Domain()
    hits: dict[tuple[int, int, int, int], Point4] = {}
    for p, idx in zip(grid_points(d, grid_n), product(range(grid_n), repeat=4)):
        try:
            v1 = eval_value(f.f1, p, singular_sq_tol)
            v2 = eval_value(f.f2, p, singular_sq_tol)
        except SingularPointError:
            continue
        if abs(v1) <= tol and abs(v2) <= tol:
            hits[idx] = p

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
    f: QFunction,
    q: Point4,
    kind: str = "zero",
    *,
    n_directions: int = 16,
    seed: int = 0,
    zero_tol: float = 1e-9,
    singular_sq_tol: float = DEFAULT_SINGULAR_SQ_TOL,
) -> OrderEstimate:
    """Fit log|f_i(q + r*u)| against log r over shrinking radii.

    Samples eight radii from 1e-1 down to 1e-4 along n_directions random
    unit directions drawn from a seeded generator.  kind="zero" requires
    both components of f to vanish at q within zero_tol; kind="pole"
    requires q to be a candidate zero of the right inverse of f.
    """
    if kind not in ("zero", "pole"):
        raise ValueError("kind must be 'zero' or 'pole'")
    _check_candidate(f, q, kind, zero_tol, singular_sq_tol)

    radii = np.geomspace(1e-1, 1e-4, 8)
    rng = np.random.default_rng(seed)
    dirs: list[tuple[complex, complex]] = []
    for _ in range(n_directions):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        dirs.append((complex(v[0], v[1]), complex(v[2], v[3])))

    samples: tuple[list[tuple[float, float]], list[tuple[float, float]]] = ([], [])
    for u1, u2 in dirs:
        for r in radii:
            p = Point4(q.z1 + r * u1, q.z2 + r * u2)
            for comp, bucket in ((f.f1, samples[0]), (f.f2, samples[1])):
                try:
                    v = eval_value(comp, p, singular_sq_tol)
                except SingularPointError:
                    continue
                bucket.append((math.log(r), math.log(max(abs(v), 1e-300))))

    per: list[float] = []
    for bucket in samples:
        if len(bucket) < len(radii):
            raise ValueError("too few valid samples around the candidate point")
        if all(lv < math.log(_TINY) for _, lv in bucket):
            per.append(math.inf if kind == "zero" else 0.0)
            continue
        logr = np.array([lr for lr, _ in bucket])
        logv = np.array([lv for _, lv in bucket])
        slope = float(np.polyfit(logr, logv, 1)[0])
        per.append(max(0.0, slope if kind == "zero" else -slope))

    order = min(per) if kind == "zero" else max(per)
    return OrderEstimate(q, kind, order, (per[0], per[1]))


def _check_candidate(
    f: QFunction, q: Point4, kind: str, zero_tol: float, singular_sq_tol: float
) -> None:
    if kind == "zero":
        try:
            v1 = eval_value(f.f1, q, singular_sq_tol)
            v2 = eval_value(f.f2, q, singular_sq_tol)
        except SingularPointError as exc:
            raise ValueError(f"{q} is not a zero candidate: {exc}") from exc
        if abs(v1) > zero_tol or abs(v2) > zero_tol:
            raise ValueError(
                f"{q} is not a zero candidate (component magnitudes "
                f"{abs(v1):.3e}, {abs(v2):.3e})"
            )
        return
    inv = inverse_qf(f)
    try:
        w1 = eval_value(inv.f1, q, singular_sq_tol)
        w2 = eval_value(inv.f2, q, singular_sq_tol)
    except SingularPointError:
        try:
            eval_value(f.f1, q, singular_sq_tol)
            eval_value(f.f2, q, singular_sq_tol)
        except SingularPointError:
            return
        raise ValueError(f"{q} is not a pole candidate") from None
    if abs(w1) > zero_tol or abs(w2) > zero_tol:
        raise ValueError(
            f"{q} is not a pole candidate (inverse magnitudes "
            f"{abs(w1):.3e}, {abs(w2):.3e})"
        )
