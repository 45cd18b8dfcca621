"""Whole-grid sampling against the per-point loop it replaced.

analysis.sample evaluates the component jets, the mask reasons and every
residual system once over arrays of all grid points.  The oracle here is
a copy of the per-point loop: the recursive eval_jet (jet_oracle) at each point, the same systems on
its jets as one-point jets, and the mask reason from the first exception.  Rows, read
back from the sample's columns, and masked points must agree by repr,
for classify's and for residuals' systems, over random functions,
overflowing boxes and wide tolerances.
"""

from __future__ import annotations

import cmath
import math
import tracemalloc
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfc.analysis
import qfc.domain
import qfc.jets
from qfc.analysis import (
    REAL_TOL,
    _classify_systems,
    _jet_scale,
    _residual_systems,
    classify,
    hyperholomorphy_from_jets,
    inverse_jets,
    inverse_system_from_jets,
    real_linear_from_jets,
    residual_reports,
    sample,
    sum_pde_from_jets,
)
from qfc.domain import Domain, grid_blocks
from qfc.errors import MASK_REASONS, SingularPointError
from qfc.expr import parse
from qfc.generators import example_pair, random_polynomial_qf, random_rational_meromorphic
from qfc.jets import Point4, columns_of, grid_jets
from qfc.lowering import lower

from jet_oracle import eval_jet, grid_points, one_point, scalar

BOXES = {
    "default": (-1.0, 1.0) * 4,
    "wide": (-1e200, 1e200, -1.0, 1.0, -1e200, 1e200, -1.0, 1.0),
    "corner": (0.5, 1e200, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0),
    "tiny": (0.0, 1e-3) * 4,
}
MASKS = {"default": 1e-6, "wide": 1e-6, "corner": 1e-6, "tiny": 4.0}
SINGULAR_SQ_TOLS = (1e-12, 1e-2, 4.0)
# Pow-heavy, degenerate and real-valued inputs.  z1^150 takes CPython's
# general power rather than binary powering.  In the last, f1 = z1^2
# overflows on the wide boxes while f2 divides by zero everywhere, so the
# reason depends on evaluating f1's tree first.
FIXED = (
    "(z1*z2)^7 + z1^30*j",
    "z1^60/(z2^2 - 0.25)",
    "z1^150 + z2^3*j",
    "conj(z1) + conj(z2)*j",
    "(z1 + conj(z1))^3 + z2*conj(z2)*j",
    "z1^2 + z2*j/(z1 - z1)",
)


def _probe(f, p, threshold, systems):
    values = None
    try:
        j1, j2 = eval_jet(f.f1, p), eval_jet(f.f2, p)
        if abs(j1.val) ** 2 + abs(j2.val) ** 2 < threshold:
            return None, "norm_sq below threshold"
        if all(map(cmath.isfinite, (*vars(j1).values(), *vars(j2).values()))):
            with np.errstate(all="ignore"):  # Python's arithmetic does not warn
                values = scalar(systems(*one_point((j1, j2), p)))
    except SingularPointError:
        return None, "singular"
    except OverflowError:
        return None, "overflow"
    if values is None or not all(math.isfinite(v) for vs in values for v in vs):
        return None, "overflow"
    return values, None


def _per_point_sample(f, d, grid_n, systems):
    rows, masked = [], []
    for p in grid_points(d, grid_n):
        values, reason = _probe(f, p, d.excluded_threshold, systems)
        if reason is None:
            rows.append((p, values))
        else:
            masked.append((p, reason))
    return rows, masked


def _classify_scalar(j1, j2):
    k1, k2 = inverse_jets((j1, j2))
    e = hyperholomorphy_from_jets((j1, j2))
    e_inv = hyperholomorphy_from_jets((k1, k2))
    scale, scale_inv = 1.0 + _jet_scale(j1, j2), 1.0 + _jet_scale(k1, k2)
    return e, e_inv, (abs(j2.val),), (max(e) / scale, max(e_inv) / scale_inv)


def _residuals_scalar(j1, j2, mask_threshold):
    values = (
        hyperholomorphy_from_jets((j1, j2)),
        inverse_system_from_jets((j1, j2)),
        (sum_pde_from_jets((j1, j2), mask_threshold),),
    )
    if max(abs(j1.val.imag), abs(j2.val.imag)) <= REAL_TOL:
        values += (real_linear_from_jets((j1, j2)),)
    return values


def _rows(s) -> list[tuple]:
    """The sample's columns as the per-point loop's rows: each unmasked
    point with its tuple of values per reported system, and its extra
    values or None where they do not hold."""
    reported = [r.tolist() for r in s.reported]
    return [
        (Point4.from_reals(*p), tuple(tuple(r[i]) for r in reported), tuple(extra) if holds else None)
        for i, (p, extra, holds) in enumerate(zip(s.points.tolist(), s.extra.tolist(), s.holds.tolist()))
    ]


def _compare(f, d: Domain, grid_n: int, singular_sq_tol: float) -> list[str]:
    """Assert both paths agree for both systems under the singular
    tolerance singular_sq_tol; the mask reasons seen."""
    mask = d.excluded_threshold
    cases = (
        (_classify_scalar, _classify_systems),
        (partial(_residuals_scalar, mask_threshold=mask), partial(_residual_systems, mask_threshold=mask)),
    )
    reasons = []
    for scalar, batched in cases:
        with patch.object(qfc.jets, "SINGULAR_SQ_TOL", singular_sq_tol):
            old_rows, old_masked = _per_point_sample(f, d, grid_n, scalar)
            s = sample(f, d, grid_n, batched)
        expected = [(p, vs[:3], vs[3] if len(vs) > 3 else None) for p, vs in old_rows]
        assert repr(_rows(s)) == repr(expected)
        masked = [(Point4.from_reals(*p), MASK_REASONS[c]) for p, c in zip(s.masked.tolist(), s.reasons.tolist())]
        assert repr(masked) == repr(old_masked)
        reasons += [reason for _, reason in masked]
    return reasons


def _function(kind: str, seed: int):
    if kind in FIXED:
        return lower(parse(kind))
    gen = {"polynomial": random_polynomial_qf, "rational": random_rational_meromorphic}[kind]
    return gen(np.random.default_rng(seed))


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["polynomial", "rational", *FIXED]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    box=st.sampled_from(sorted(BOXES)),
    singular_sq_tol=st.sampled_from(SINGULAR_SQ_TOLS),
)
def test_batched_sample_equals_the_per_point_loop(kind: str, seed: int, box: str, singular_sq_tol: float) -> None:
    d = Domain.from_flat(BOXES[box], MASKS[box])
    _compare(_function(kind, seed), d, 3, singular_sq_tol)


def test_the_comparison_meets_every_mask_reason() -> None:
    reasons = set()
    for seed in range(6):
        for kind in ("polynomial", "rational", *FIXED):
            for box in BOXES:
                d = Domain.from_flat(BOXES[box], MASKS[box])
                reasons.update(_compare(_function(kind, seed), d, 2, SINGULAR_SQ_TOLS[seed % 3]))
    assert reasons == {"singular", "norm_sq below threshold", "overflow"}
    # the patched tolerance reaches sample: 1/w for w = z1 - 0.5 divides by
    # |w|^2, which is 1.25 at the grid-2 points with x1 = 1, so they are
    # singular under 4.0 and not under 1e-12
    f = lower(parse("1/(z1 - 0.5) + z2*j"))
    assert "singular" in _compare(f, Domain(), 2, 4.0)
    assert "singular" not in _compare(f, Domain(), 2, 1e-12)


def test_grid_sampling_never_evaluates_per_point() -> None:
    assert not hasattr(qfc.analysis, "eval_jet") and not hasattr(qfc.jets, "eval_jet")
    label, reports = classify(example_pair(0.0, 0.0), Domain(), 3)
    assert label.label == "WHypermeromorphic"
    assert len(reports[0].points) + len(reports[0].masked) == 81
    reports = residual_reports(example_pair(0.0, 0.0), Domain(), 3)
    assert [r.system for r in reports] == ["hyperholomorphy", "inverse_hyperholomorphy", "sum_pde", "real_linear"]


def test_trees_too_deep_to_hash_are_sampled() -> None:
    """A 700-term chain, too deep for a structural hash, hashes as an
    interned node and samples like any other tree."""
    text = " + ".join(["z1"] * 700) + " + z2*j"
    f = lower(parse(text))
    assert hash(f.f1) == hash(lower(parse(text)).f1)
    _compare(f, Domain(), 2, 1e-12)


def test_blocks_of_points_give_the_same_rows(monkeypatch: pytest.MonkeyPatch) -> None:
    """A grid split into blocks, the last one partial, samples as one."""
    monkeypatch.setattr(qfc.domain, "BLOCK_POINTS", 7)
    for kind in ("rational", *FIXED):
        for box in ("default", "wide"):
            _compare(_function(kind, 5), Domain.from_flat(BOXES[box], MASKS[box]), 3, 1e-12)


def test_grid_jets_holds_only_the_jets_awaiting_a_user() -> None:
    """A 300-term sum has 300 distinct Add nodes; their jets are dropped
    as the walk passes them, so the peak is a few jets, not 300."""
    f = lower(parse(" + ".join(["z1*z2"] * 300) + " + z2*j"))
    n, p = 4096, complex(0.5, 0.25)
    z = columns_of([p] * n, [p] * n)
    tracemalloc.start()
    try:
        (j1, _), _ = grid_jets((f.f1, f.f2), z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert j1.val.real.tolist() == [eval_jet(f.f1, Point4(p, p)).val.real] * n
    jet_bytes = 10 * 8 * n  # five complex slots of n points
    assert peak < 20 * jet_bytes


def _walk_peak(f, z, partials: bool) -> int:
    """The tracemalloc peak of a grid_jets walk of f's components."""
    tracemalloc.start()
    try:
        with np.errstate(all="ignore"):
            grid_jets((f.f1, f.f2), z, partials=partials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_value_only_walk_holds_no_gradient() -> None:
    """partials=False gives every jet an empty gradient, so a walk of a
    4,096-point block peaks at a few value arrays, where the same walk with
    partials holds (2, 2, n) gradients and peaks above that bound."""
    f = lower(parse("(z1 - 0.3)^3 + (z2 - 0.1)^3 * j"))
    (z,) = grid_blocks(Domain(), 8)
    value_bytes = 2 * 8 * len(z[0])  # one complex value of n points
    assert len(z[0]) == 4096
    assert _walk_peak(f, z, False) < 10 * value_bytes < _walk_peak(f, z, True)
