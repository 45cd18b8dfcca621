"""Forward-mode Wirtinger jets against hand values and central differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfc import (
    Add,
    Conj,
    ConjVar,
    Div,
    Mul,
    Point4,
    Pow,
    QFunction,
    Quaternion,
    RealConst,
    SingularPointError,
    UnitI,
    UnitJ,
    Var,
    eval_jet,
    eval_qexpr,
    eval_qfunction,
    fd_jet,
)
from qfc.generators import random_point

from random_trees import random_scalar_tree

FD_TOL = 1e-6
SEED = 1902
N_FD_TREES = 300
COORDS = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
POINTS = st.builds(
    lambda a, b, c, d: Point4(complex(a, b), complex(c, d)),
    COORDS, COORDS, COORDS, COORDS,
)

_FIELDS = ("val", "d_z1", "d_z1bar", "d_z2", "d_z2bar")


def _jet_diff(a, b) -> float:
    return max(abs(getattr(a, f) - getattr(b, f)) for f in _FIELDS)


def test_variable_jets_are_exact() -> None:
    p = Point4(1 + 2j, -0.5 + 0.25j)
    j = eval_jet(Var("z1"), p)
    assert (j.val, j.d_z1, j.d_z1bar, j.d_z2, j.d_z2bar) == (1 + 2j, 1, 0, 0, 0)
    j = eval_jet(ConjVar("z1"), p)
    assert (j.val, j.d_z1, j.d_z1bar) == (1 - 2j, 0, 1)
    j = eval_jet(Var("z2"), p)
    assert (j.d_z2, j.d_z2bar) == (1, 0)


def test_product_jet_matches_hand_computation() -> None:
    # |z1|^2 has d_z1 = conj(z1) and d_z1bar = z1.
    j = eval_jet(Mul(Var("z1"), ConjVar("z1")), Point4(2 + 1j, -0.5 + 0.25j))
    assert j.val == 5 + 0j
    assert j.d_z1 == 2 - 1j
    assert j.d_z1bar == 2 + 1j
    assert j.d_z2 == 0j and j.d_z2bar == 0j
    assert j.magnitude() == 5.0


@given(p=POINTS)
def test_holomorphic_trees_have_exactly_zero_bar_derivatives(p: Point4) -> None:
    tree = Add(Mul(Var("z1"), Var("z2")), Pow(Var("z1"), 3))
    j = eval_jet(tree, p)
    assert j.d_z1bar == 0j
    assert j.d_z2bar == 0j


@given(p=POINTS)
def test_conjugation_swaps_and_conjugates_the_jet(p: Point4) -> None:
    tree = Add(Mul(Var("z1"), Var("z2")), ConjVar("z2"))
    j = eval_jet(tree, p)
    jc = eval_jet(Conj(tree), p)
    assert jc.val == j.val.conjugate()
    assert jc.d_z1 == j.d_z1bar.conjugate()
    assert jc.d_z1bar == j.d_z1.conjugate()
    assert jc.d_z2 == j.d_z2bar.conjugate()
    assert jc.d_z2bar == j.d_z2.conjugate()


@given(p=POINTS)
def test_real_valued_trees_pair_their_derivatives(p: Point4) -> None:
    # x1 = (z1 + conj(z1)) / 2 is real, so d_z1 must equal conj(d_z1bar).
    tree = Mul(RealConst(0.5), Add(Var("z1"), ConjVar("z1")))
    j = eval_jet(tree, p)
    assert j.val.imag == 0.0
    assert j.d_z1 == j.d_z1bar.conjugate()


def test_jet_linearity_is_exact() -> None:
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        a = round(float(rng.uniform(-2, 2)), 3)
        t1 = random_scalar_tree(rng, 3)
        t2 = random_scalar_tree(rng, 3)
        p = random_point(rng, -1.5, 1.5)
        combo = Add(Mul(RealConst(a), t1), t2)
        j, j1, j2 = eval_jet(combo, p), eval_jet(t1, p), eval_jet(t2, p)
        for f in _FIELDS:
            assert getattr(j, f) == a * getattr(j1, f) + getattr(j2, f)


def test_finite_differences_confirm_forward_jets() -> None:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(N_FD_TREES):
        tree = random_scalar_tree(rng, 4)
        p = random_point(rng, -2.0, 2.0)
        aj = eval_jet(tree, p)
        fj = fd_jet(tree, p, 1e-5)
        worst = max(worst, _jet_diff(aj, fj) / (1.0 + aj.magnitude()))
    assert worst <= FD_TOL


def test_finite_difference_example_tolerance() -> None:
    p = Point4(2 + 1j, -0.5 + 0.25j)
    tree = Mul(Var("z1"), ConjVar("z1"))
    assert _jet_diff(eval_jet(tree, p), fd_jet(tree, p)) <= 1e-9


def test_quotient_jets_raise_near_singular_denominators() -> None:
    tree = Div(RealConst(1.0), Var("z1"))
    p = Point4(0j, 1j)
    with pytest.raises(SingularPointError, match="denominator vanishes near"):
        eval_jet(tree, p)
    with pytest.raises(SingularPointError):
        fd_jet(tree, p)
    with pytest.raises(SingularPointError):
        eval_qfunction(QFunction(tree, RealConst(0.0)), p)
    # A comfortably nonzero denominator works in both evaluators.
    q = Point4(0.5 + 0j, 1j)
    assert eval_qfunction(QFunction(tree, RealConst(0.0)), q) == Quaternion(2.0 + 0j, 0j)
    assert eval_jet(tree, q).val == 2.0 + 0j


def test_singular_tolerance_widens_the_mask() -> None:
    tree = Div(RealConst(1.0), Var("z1"))
    p = Point4(0.01 + 0j, 0j)
    assert eval_jet(tree, p).val == 100 + 0j
    with pytest.raises(SingularPointError):
        eval_jet(tree, p, 1e-3)


def test_unit_j_has_no_scalar_jet() -> None:
    with pytest.raises(ValueError, match="j has no scalar jet; lower the expression first"):
        eval_jet(UnitJ(), Point4(0j, 0j))
    with pytest.raises(ValueError):
        eval_jet(Add(Var("z1"), UnitJ()), Point4(0j, 0j))


def test_fd_step_validation() -> None:
    with pytest.raises(ValueError, match="step size must be positive and finite"):
        fd_jet(Var("z1"), Point4(0j, 0j), h=-1.0)
    with pytest.raises(ValueError):
        fd_jet(Var("z1"), Point4(0j, 0j), h=0.0)
    with pytest.raises(ValueError):
        fd_jet(Var("z1"), Point4(0j, 0j), h=float("inf"))


def test_quaternion_evaluator_handles_units() -> None:
    p = Point4(0.3 + 0.4j, -0.2 + 0.9j)
    assert eval_qexpr(UnitI(), p) == Quaternion(1j, 0j)
    assert eval_qexpr(UnitJ(), p) == Quaternion(0j, 1 + 0j)
    got = eval_qexpr(Mul(Var("z2"), UnitJ()), p)
    assert got == Quaternion(0j, p.z2)
