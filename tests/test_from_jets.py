"""Jet-derived forms against evaluating the trees they stand for.

Grid sampling derives the inverse's jets and the sum PDE from the two
component jets of f, instead of building inverse_qf, norm_sq_expr and
conj_qf trees and evaluating them per point.  Both ways must give equal
values and must refuse (SingularPointError) at the same points.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

import qfc.jets
from qfc.analysis import cauchy_fueter_from_jets, inverse_jets, sum_pde_from_jets
from qfc.errors import SingularPointError
from qfc.generators import random_point, random_polynomial_qf, random_rational_meromorphic
from qfc.lowering import conj_qf, inverse_qf, norm_sq_expr
from qfc.quaternion import Quaternion, modulus, quat_mul

from jet_oracle import eval_jet, jet_pair, scalar

GENERATORS = st.sampled_from([random_polynomial_qf, random_rational_meromorphic])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# Wide tolerances and thresholds make refusals common, so the refusal
# paths are compared as well as the values.
SINGULAR_SQ_TOLS = st.sampled_from([1e-12, 1e-2, 0.5, 4.0])
MASKS = st.sampled_from([1e-6, 0.1, 1.0, 4.0])


def _outcome(fn):
    try:
        return fn()
    except SingularPointError:
        return "singular"


def _inverse_from_jets(f, p):
    return scalar(inverse_jets(jet_pair(f, p)))


def _inverse_from_tree(f, p):
    return scalar(jet_pair(inverse_qf(f), p))


def _sum_pde_from_trees(h, p, mask_threshold):
    """The sum PDE as formulated on trees: norm_sq_expr(h) and conj_qf(h)
    are built and evaluated at p."""
    nj = eval_jet(norm_sq_expr(h), p)
    n = nj.val.real
    if n < mask_threshold:
        raise SingularPointError(f"norm_sq below mask threshold at {p}")
    j1, j2 = eval_jet(h.f1, p), eval_jet(h.f2, p)
    hbar = Quaternion(j1.val.conjugate(), -j2.val)
    dn = Quaternion(0.5 * nj.d_z1bar, (0.5 * nj.d_z2bar).conjugate())
    dhbar = scalar(cauchy_fueter_from_jets(jet_pair(conj_qf(h), p))).as_quaternion()
    return modulus(quat_mul(dn.scale(-2.0), hbar) + dhbar.scale(2.0 * n))


@settings(max_examples=300, deadline=None)
@given(gen=GENERATORS, seed=SEEDS, tol=SINGULAR_SQ_TOLS)
def test_inverse_jets_equal_the_inverse_tree(gen, seed: int, tol: float) -> None:
    rng = np.random.default_rng(seed)
    f = gen(rng)
    p = random_point(rng)
    with patch.object(qfc.jets, "SINGULAR_SQ_TOL", tol):
        assert _outcome(lambda: _inverse_from_jets(f, p)) == _outcome(lambda: _inverse_from_tree(f, p))


@settings(max_examples=300, deadline=None)
@given(gen=GENERATORS, seed=SEEDS, tol=SINGULAR_SQ_TOLS, mask=MASKS)
def test_sum_pde_from_jets_equals_the_tree_formula(gen, seed: int, tol: float, mask: float) -> None:
    rng = np.random.default_rng(seed)
    h = gen(rng)
    p = random_point(rng)
    with patch.object(qfc.jets, "SINGULAR_SQ_TOL", tol):
        from_jets = _outcome(lambda: scalar(sum_pde_from_jets(jet_pair(h, p), mask)))
        assert from_jets == _outcome(lambda: _sum_pde_from_trees(h, p, mask))


def test_the_comparisons_cover_values_and_refusals() -> None:
    kinds = set()
    for seed in range(40):
        for gen in (random_polynomial_qf, random_rational_meromorphic):
            rng = np.random.default_rng(seed)
            f = gen(rng)
            p = random_point(rng)
            for tol in (1e-12, 0.5):
                with patch.object(qfc.jets, "SINGULAR_SQ_TOL", tol):
                    kinds.add(("inverse", _outcome(lambda: _inverse_from_jets(f, p)) == "singular"))
            for mask in (1e-6, 1.0):
                kinds.add(("sum_pde", _outcome(lambda: scalar(sum_pde_from_jets(jet_pair(f, p), mask))) == "singular"))
    assert kinds == {(name, refused) for name in ("inverse", "sum_pde") for refused in (False, True)}
