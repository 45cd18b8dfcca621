"""Lowering surface expressions to component pairs, and pair arithmetic."""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest

import qfc.jets
import qfc.lowering
from qfc.analysis import classify
from qfc.errors import InconclusiveError, SingularPointError
from qfc.expr import Add, ConjVar, Mul, Neg, Pow, RealConst, Sub, UnitJ, Var, parse
from qfc.generators import random_point
from qfc.jets import Point4
from qfc.lowering import (
    QFunction,
    conj_qf,
    const_qf,
    inverse_qf,
    lower,
    norm_sq_expr,
    product_qf,
    scale_right_qf,
    sum_qf,
)
from qfc.quaternion import ONE, Quaternion, modulus, norm_sq, quat_conj, quat_mul

import expr_oracle
from jet_oracle import eval_qfunction
from qexpr_oracle import eval_qexpr
from random_trees import random_surface_tree

SOUNDNESS_REL_TOL = 1e-10
N_SOUNDNESS_TREES = 200
SEED = 417


def test_lowering_moves_j_to_the_second_component() -> None:
    assert lower(parse("j*z1")) == QFunction(RealConst(0.0), ConjVar("z1"))
    assert lower(parse("z1^2 + z2*j")) == QFunction(Pow(Var("z1"), 2), Var("z2"))
    assert lower(parse("j*j")) == QFunction(RealConst(-1.0), RealConst(0.0))


def test_lowering_a_square_expands_by_the_product_rule() -> None:
    got = lower(parse("(z1 + z2*j)*(z1 + z2*j)"))
    want = QFunction(
        Sub(Mul(Var("z1"), Var("z1")), Mul(Var("z2"), ConjVar("z2"))),
        Add(Mul(Var("z1"), Var("z2")), Mul(Var("z2"), ConjVar("z1"))),
    )
    assert got == want


def test_a_power_of_a_negated_scalar_stays_a_power() -> None:
    """Negating a scalar makes its second component RealConst(-0.0), a
    node apart from RealConst(0.0) that is still zero, so the power keeps
    the scalar fast path instead of expanding to products."""
    for n in (2, 3):
        assert lower(parse(f"(-z1)^{n}")) == QFunction(Pow(Neg(Var("z1")), n), RealConst(0.0))


def test_components_must_stay_scalar() -> None:
    with pytest.raises(ValueError, match="component expressions must not contain j"):
        QFunction(Var("z1"), UnitJ())
    with pytest.raises(ValueError):
        QFunction(Add(Var("z1"), UnitJ()), RealConst(0.0))


def test_pair_arithmetic_mirrors_quaternion_arithmetic() -> None:
    p = Point4(0.3 + 0.4j, -0.2 + 0.9j)
    f = lower(parse("z1 + z2*j"))
    g = lower(parse("conj(z1) + 2 + z1*z2*j"))
    fv, gv = eval_qfunction(f, p), eval_qfunction(g, p)
    assert eval_qfunction(sum_qf(f, g), p) == fv + gv
    assert modulus(eval_qfunction(product_qf(f, g), p) - quat_mul(fv, gv)) <= 1e-12
    assert eval_qfunction(conj_qf(f), p) == quat_conj(fv)
    assert norm_sq(eval_qfunction(QFunction(norm_sq_expr(f), RealConst(0.0)), p)) == (
        pytest.approx(norm_sq(fv) ** 2, rel=1e-12)
    )


def test_product_is_order_sensitive() -> None:
    f = lower(parse("z1 + z2*j"))
    g = lower(parse("i*z2 + conj(z1)*j"))
    p = Point4(0.7 - 0.2j, 0.4 + 0.5j)
    fg = eval_qfunction(product_qf(f, g), p)
    gf = eval_qfunction(product_qf(g, f), p)
    assert modulus(fg - gf) > 0.1


def test_inverse_pair_inverts_pointwise() -> None:
    f = lower(parse("z1 + 2 + z2*j"))
    inv = inverse_qf(f)
    for p in (Point4(0.3 + 0.4j, -0.2 + 0.9j), Point4(-1 + 1j, 0.5 + 0j)):
        prod = eval_qfunction(product_qf(f, inv), p)
        assert modulus(prod - ONE) <= 1e-12
    assert eval_qfunction(inverse_qf(const_qf(ONE)), Point4(0j, 0j)) == ONE


def test_inverse_of_a_scalar_function_is_its_reciprocal() -> None:
    f = QFunction(parse("z1 + 2"), RealConst(0.0))
    inv = inverse_qf(f)
    p = Point4(0.25 - 0.5j, 0.1 + 0j)
    got = eval_qfunction(inv, p)
    assert got.z2 == 0j
    assert got.z1 == pytest.approx(1.0 / (p.z1 + 2), rel=1e-12)


def test_inverse_raises_on_the_zero_set() -> None:
    f = lower(parse("z1 + z2*j"))
    with pytest.raises(SingularPointError):
        eval_qfunction(inverse_qf(f), Point4(0j, 0j))


def test_scale_right_by_a_real_constant_scales_values() -> None:
    f = lower(parse("z1 + conj(z2)*j"))
    scaled = scale_right_qf(f, Quaternion(-3.0 + 0j, 0j))
    p = Point4(0.6 + 0.1j, -0.4 + 0.8j)
    assert eval_qfunction(scaled, p) == eval_qfunction(f, p).scale(-3.0)


def test_lowering_lowers_each_distinct_node_once(monkeypatch) -> None:
    """Twelve squarings x = x * x of z1*j + z2 make a tree of 4,096
    copies of it but only 17 distinct nodes: lower makes one product for
    z1*j and one per squaring, where lowering each occurrence of a shared
    subtree (the recursive oracle) makes 8,191."""
    x = parse("z1*j + z2")
    for _ in range(12):
        x = x * x
    calls = {"lower": 0, "oracle": 0}

    def counting(name):
        def product(f, g):
            calls[name] += 1
            return product_qf(f, g)

        return product

    monkeypatch.setattr(qfc.lowering, "product_qf", counting("lower"))
    monkeypatch.setattr(expr_oracle, "product_qf", counting("oracle"))
    assert lower(x) == expr_oracle.oracle_lower(x)
    assert calls == {"lower": 13, "oracle": 8_191}


def test_lowering_is_sound_against_direct_evaluation() -> None:
    """Evaluating the surface tree and its lowered pair must agree."""
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(N_SOUNDNESS_TREES):
        tree = random_surface_tree(rng, 5)
        p = random_point(rng, -1.2, 1.2)
        try:
            direct = eval_qexpr(tree, p, 1e-9)
            with patch.object(qfc.jets, "SINGULAR_SQ_TOL", 1e-9):
                lowered = eval_qfunction(lower(tree), p)
        except SingularPointError:
            continue
        assert modulus(direct - lowered) <= SOUNDNESS_REL_TOL * (1.0 + modulus(direct))
        checked += 1
    assert checked >= N_SOUNDNESS_TREES // 2


def test_zero_over_zero_is_undefined_everywhere() -> None:
    """0/0 used to fold to the constant 0, so z1 + 0/0 was Holomorphic
    with no point masked."""
    assert lower(parse("0/0")) != QFunction(RealConst(0.0), RealConst(0.0))
    for text in ("z1 + 0/0", "z1 + z2 * j + (0 * z1) / (z1 - z1)"):
        with pytest.raises(InconclusiveError, match="only 0 of 81 grid points are unmasked"):
            classify(lower(parse(text)), grid_n=3)
