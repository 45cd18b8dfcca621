"""Forward-mode Wirtinger jets against hand values and central differences,
and grid_jets and its one-point form jets_at against the recursive oracle."""

from __future__ import annotations

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qfc.jets
from qfc.errors import OVERFLOW, SINGULAR, SingularPointError
from qfc.expr import Add, Conj, ConjVar, Div, Mul, Neg, Pow, RealConst, Sub, UnitI, UnitJ, Var
from qfc.generators import random_point, random_polynomial_qf, random_rational_meromorphic
from qfc.jets import Point4, columns_of, grid_jets, jets_at
from qfc.lowering import QFunction, conj_qf, inverse_qf, lower
from qfc.quaternion import Quaternion

from jet_oracle import eval_jet, eval_qfunction, fd_jet
from qexpr_oracle import eval_qexpr
from random_trees import random_scalar_tree, random_surface_tree

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
    with patch.object(qfc.jets, "SINGULAR_SQ_TOL", 1e-3), pytest.raises(SingularPointError):
        eval_jet(tree, p)


@pytest.mark.parametrize("tol, refused", [(1e-12, False), (4.0, True)])
def test_the_singular_tolerance_is_read_at_call_time(tol: float, refused: bool) -> None:
    """SINGULAR_SQ_TOL is read when a quotient is evaluated, not bound at
    import: |1.5|^2 = 2.25 is below 4.0, so 1/z1 at z1 = 1.5 is refused
    by both evaluators under 4.0 and by neither under 1e-12."""
    tree = Div(RealConst(1.0), Var("z1"))
    p = Point4(1.5 + 0j, 0j)
    with patch.object(qfc.jets, "SINGULAR_SQ_TOL", tol):
        if refused:
            with pytest.raises(SingularPointError):
                eval_jet(tree, p)
        else:
            assert eval_jet(tree, p).val == (1 + 0j) / (1.5 + 0j)
        with np.errstate(all="ignore"):
            _, events = grid_jets((tree,), columns_of([p.z1], [p.z2]))
    assert events.code.tolist() == [SINGULAR if refused else 0]


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


# grid_jets against eval_jet, slot by slot and point by point.

Z1, Z2, CZ1, CZ2 = Var("z1"), Var("z2"), ConjVar("z1"), ConjVar("z2")
# Fixed trees: binary powering and CPython's general power (n > 100), a
# conjugated quotient, singular where x2 = 0, a quotient singular where
# y2 = 0, a double conjugate, and a constants-only tree.
GRID_FIXED = {
    "powers": (Pow(Add(Z1, CZ2), 2), Pow(Mul(Z1, Z2), 3), Pow(Sub(Z1, RealConst(0.5)), 101), Pow(CZ2, 150)),
    "conj_quotient": (Conj(Div(Pow(Z1, 2), Add(Z2, CZ2))), Div(Conj(Z1), Pow(Sub(Z2, CZ2), 2))),
    "conj_conj": (Conj(Conj(Add(Mul(Z1, CZ2), Pow(CZ1, 2)))), Neg(Conj(Conj(Z2)))),
    "constants": (Add(Mul(RealConst(2.0), UnitI()), Div(RealConst(-0.0), Pow(RealConst(3.0), 2))),),
}
GRID_KINDS = ("scalar", "surface", "polynomial", "meromorphic", *GRID_FIXED)
# Exact zeros make quotients singular, and 1e200 makes powers overflow.
GRID_COORDS = st.sampled_from((0.0, -0.0, 0.5, -1.0, 1.5, 1e200, -1e200)) | COORDS
_EVENT_OF = {SingularPointError: SINGULAR, OverflowError: OVERFLOW}


def _grid_trees(kind: str, seed: int, form: str) -> tuple:
    """A fixed kind's trees, or the component trees of a drawn pair, of
    its right inverse or of its conjugate."""
    if kind in GRID_FIXED:
        return GRID_FIXED[kind]
    rng = np.random.default_rng(seed)
    f = {
        "scalar": lambda: QFunction(random_scalar_tree(rng, 4), random_scalar_tree(rng, 3)),
        "surface": lambda: lower(random_surface_tree(rng, 3)),
        "polynomial": lambda: random_polynomial_qf(rng),
        "meromorphic": lambda: random_rational_meromorphic(rng),
    }[kind]()
    f = {"plain": lambda g: g, "inverse": inverse_qf, "conj": conj_qf}[form](f)
    return (f.f1, f.f2)


def _slot_bits(z: complex) -> tuple:
    return tuple("nan" if math.isnan(x) else x.hex() for x in (z.real, z.imag))


def _column_bits(c, n: int) -> list[tuple]:
    """_slot_bits of a grid slot at each of n points."""
    re, im = (np.broadcast_to(x, (n,)).tolist() for x in (c.real, c.imag))
    return [_slot_bits(complex(a, b)) for a, b in zip(re, im)]


def _per_point(trees: tuple, p: Point4):
    """Each tree's five slots at p by eval_jet, or the event code of the
    first tree whose evaluation raises."""
    try:
        jets = [eval_jet(e, p) for e in trees]
    except (SingularPointError, OverflowError) as exc:
        return _EVENT_OF[type(exc)]
    return [[_slot_bits(getattr(j, f)) for f in _FIELDS] for j in jets]


GRID_POINTS = st.builds(Point4.from_reals, GRID_COORDS, GRID_COORDS, GRID_COORDS, GRID_COORDS)
BLOCKS = st.sampled_from((1, 3, 64)).flatmap(lambda n: st.lists(GRID_POINTS, min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(GRID_KINDS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    form=st.sampled_from(("plain", "inverse", "conj")),
    points=BLOCKS,
    tol=st.sampled_from((1e-12, 1e-2)),
)
# A numerator that overflows where its denominator vanishes, a singular
# point and a regular one.
@example("conj_quotient", 0, "plain", [Point4(1e200 + 0j, 0j), Point4(0.5 + 0j, 1j), Point4(0.5 - 1j, 1.5 + 1j)], 1e-12)
def test_grid_jets_equal_eval_jet_at_every_point(kind, seed, form, points, tol) -> None:
    """Every slot bit for bit (a NaN part as NaN) where no evaluation
    raises, and elsewhere the event of the first one that does."""
    trees, n = _grid_trees(kind, seed, form), len(points)
    with patch.object(qfc.jets, "SINGULAR_SQ_TOL", tol):
        with np.errstate(all="ignore"):
            jets, events = grid_jets(trees, columns_of([p.z1 for p in points], [p.z2 for p in points]))
        for j in jets:
            for f in _FIELDS:
                assert getattr(j, f).real.shape in {(n,), (1,)}
        if kind == "constants":
            assert all(getattr(j, f).real.shape == (1,) for j in jets for f in _FIELDS)
        slots = [[_column_bits(getattr(j, f), n) for f in _FIELDS] for j in jets]
        for i, p in enumerate(points):
            expected = _per_point(trees, p)
            if isinstance(expected, int):
                assert events.code[i] == expected
                continue
            assert events.code[i] == 0
            assert [[column[i] for column in js] for js in slots] == expected


def test_the_point_entry_evaluates_a_sum_too_deep_to_recurse() -> None:
    """A 10,001-term Add chain, built without lower, is deeper than
    Python's recursion limit; jets_at walks it and returns grid_jets'
    value, the left-to-right sum of the terms."""
    chain = Var("z1")
    for _ in range(10_000):
        chain = Add(chain, Var("z1"))
    p = Point4(0.3 + 0.7j, -0.2 + 0.1j)
    (j,) = jets_at((chain,), p)
    (g,), _ = grid_jets((chain,), columns_of([p.z1], [p.z2]))
    assert j.val == complex(g.val.real[0], g.val.imag[0]) == sum([p.z1] * 10_001, 0j)
    assert j.val == pytest.approx(3000.3 + 7000.7j, rel=1e-12)
    assert (j.d_z1, j.d_z1bar, j.d_z2, j.d_z2bar) == (10_001 + 0j, 0j, 0j, 0j)
    assert type(j.val) is complex and type(j.d_z1) is complex
    with pytest.raises(RecursionError):
        eval_jet(chain, p)


def test_the_point_entry_raises_where_grid_jets_flags() -> None:
    with pytest.raises(SingularPointError, match=r"^singular near Point4"):
        jets_at((Var("z2"), Div(RealConst(1.0), Var("z1"))), Point4(0j, 1j))
    with pytest.raises(OverflowError, match=r"^overflow near Point4"):
        jets_at((Pow(Var("z1"), 2),), Point4(1e200 + 0j, 0j))
    q = Point4(0.5 + 0j, 1j)
    assert jets_at((Div(RealConst(1.0), Var("z1")),), q) == [eval_jet(Div(RealConst(1.0), Var("z1")), q)]
