"""verify-paper's items against the per-point path they replaced.

run_verify evaluates each check's functions with grid_jets, on its grids
block by block from grid_blocks and on its sample points as one block.
The oracle here is a copy of the per-point run_verify: each residual
from analysis's jets-level formulas on the jets of the recursive eval_jet
(jet_oracle) as one-point jets, read back as floats, as the per-point
functions it called computed it, and the points where they raise
SingularPointError skipped where it caught them.  The items must be equal,
every float bit for bit.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfc.analysis
import qfc.domain
import qfc.jets
import qfc.verify
import qfc.zeros
from qfc.analysis import (
    DValue,
    cauchy_fueter_from_jets,
    hyperholomorphy_from_jets,
    inverse_system_from_jets,
    product_rule_from_jets,
    product_system_from_jets,
    real_linear_from_jets,
    sum_pde_from_jets,
)
from qfc.cli import main
from qfc.domain import DEFAULT_MASK_THRESHOLD, Domain
from qfc.errors import SingularPointError
from qfc.expr import ConjVar, RealConst, Var, const, parse
from qfc.generators import (
    SeededStream,
    counterexample_pair,
    curated_hyperholomorphic,
    example_pair,
    random_point,
    random_polynomial_qf,
    random_quaternion,
    random_rational_meromorphic,
    random_real_hyperholomorphic,
    right_combination,
)
from qfc.jets import CArray, Point4, PointEvents, columns_of
from qfc.lowering import (
    QFunction,
    const_qf,
    inverse_qf,
    lower,
    norm_sq_expr,
    product_qf,
    sum_qf,
)
from qfc.quaternion import Quaternion, modulus, quat_mul
from qfc.verify import VerifyItem, _fold, _inverse_derivative, run_verify

from jet_oracle import eval_jet, eval_qfunction, grid_points, jet_pair, scalar

_FAIL_FLOOR = 1e-3


def _max_eq1(f: QFunction, pts: list[Point4]) -> float:
    worst = 0.0
    for p in pts:
        try:
            worst = max(worst, max(scalar(hyperholomorphy_from_jets(jet_pair(f, p)))))
        except SingularPointError:
            continue
    return worst


def per_point_run_verify(seed: int = 0, grid_n: int = 6, tol: float = 1e-8) -> list[VerifyItem]:
    """run_verify as it was before the array evaluator, each per-point
    residual function written as its formula on jet_pair."""
    rng = SeededStream(seed)
    d = Domain()
    pts = grid_points(d, grid_n)
    coarse = grid_points(d, 3)
    samples = [random_point(rng) for _ in range(12)]
    items: list[VerifyItem] = []

    e00 = example_pair(0.0, 0.0)
    e12 = example_pair(1.0, 2.0)
    holo = lower(parse("z1*z2"))
    counter = counterexample_pair()
    m_const = const_qf(Quaternion(1.5 + 0j, 0j))
    zero = RealConst(0.0)

    # first-order system: known members, right-linear combinations,
    # and a non-member control
    worst = 0.0
    for f in (e00, e12, holo, counter):
        worst = max(worst, _max_eq1(f, pts))
    curated = [f for _, f in curated_hyperholomorphic()]
    for _ in range(6):
        f = curated[int(rng.integers(0, len(curated)))]
        g = curated[int(rng.integers(0, len(curated)))]
        h = right_combination(f, g, random_quaternion(rng), random_quaternion(rng))
        for p in samples:
            worst = max(worst, max(scalar(hyperholomorphy_from_jets(jet_pair(h, p)))))
    passed = worst <= tol
    control = max(
        scalar(hyperholomorphy_from_jets(jet_pair(QFunction(ConjVar("z2"), zero), samples[0])))
    )
    passed = passed and control >= _FAIL_FLOOR
    items.append(
        VerifyItem(
            "hyperholomorphy",
            passed,
            worst,
            f"members and right-combinations over {len(pts)} grid points; "
            f"control residual {control:.3e}",
        )
    )

    # derivative of a product: both sides agree, and the correction
    # term reduces to f*D(g) on real-component pairs in the kernel
    worst = 0.0
    for _ in range(20):
        f = random_polynomial_qf(rng)
        g = random_polynomial_qf(rng)
        for _ in range(3):
            p = random_point(rng)
            worst = max(worst, scalar(product_rule_from_jets(*(jet_pair(h, p) for h in (f, g, product_qf(f, g))))).gap)
    cor_worst = 0.0
    for _ in range(5):
        f = random_real_hyperholomorphic(rng)
        g = random_real_hyperholomorphic(rng)
        for _ in range(2):
            p = random_point(rng)
            chk = scalar(product_rule_from_jets(*(jet_pair(h, p) for h in (f, g, product_qf(f, g)))))
            expect = quat_mul(eval_qfunction(f, p), scalar(cauchy_fueter_from_jets(jet_pair(g, p))).as_quaternion())
            cor_worst = max(cor_worst, modulus(chk.second_term - expect))
    worst = max(worst, cor_worst)
    items.append(
        VerifyItem(
            "product_rule",
            worst <= tol,
            worst,
            f"60 random product points, correction-term reduction {cor_worst:.3e}",
        )
    )

    # inverse system: passes for the example family and meromorphic
    # functions, fails for the antiholomorphic pair off the real slice
    worst = 0.0
    passing = [e00, e12, holo]
    for _ in range(5):
        passing.append(random_rational_meromorphic(rng))
    for f in passing:
        for p in samples:
            try:
                worst = max(worst, max(scalar(inverse_system_from_jets(jet_pair(f, p)))))
                worst = max(worst, scalar(cauchy_fueter_from_jets(jet_pair(inverse_qf(f), p)).magnitude()))
            except SingularPointError:
                continue
    p_off = Point4(1 + 1j, 1 + 0j)
    res_fail = max(scalar(inverse_system_from_jets(jet_pair(counter, p_off))))
    dinv_fail = scalar(cauchy_fueter_from_jets(jet_pair(inverse_qf(counter), p_off)).magnitude())
    passed = worst <= tol and res_fail >= _FAIL_FLOOR and dinv_fail >= _FAIL_FLOOR
    items.append(
        VerifyItem(
            "inverse_system",
            passed,
            worst,
            f"antiholomorphic pair off the real slice: system {res_fail:.3e}, "
            f"inverse derivative {dinv_fail:.3e}",
        )
    )

    # linear system for real-component functions
    worst = 0.0
    real_members = [e00, e12, const_qf(Quaternion(1 + 0j, 1 + 0j))]
    for _ in range(3):
        real_members.append(random_real_hyperholomorphic(rng))
    for f in real_members:
        for p in coarse:
            worst = max(worst, max(scalar(real_linear_from_jets(jet_pair(f, p)))))
    x1_tree = const(0.5) * (Var("z1") + ConjVar("z1"))
    res = scalar(real_linear_from_jets(jet_pair(QFunction(x1_tree, zero), samples[1])))
    value_ok = abs(res[1] - 0.5) <= 1e-12 and res[1] >= _FAIL_FLOOR
    try:
        scalar(real_linear_from_jets(jet_pair(QFunction(Var("z1"), zero), Point4(0.3 + 0.4j, 0j))))
        precondition_ok = False
    except ValueError:
        precondition_ok = True
    items.append(
        VerifyItem(
            "real_linear_system",
            worst <= tol and value_ok and precondition_ok,
            worst,
            f"control second residual {res[1]:.6f} (expected 0.5)",
        )
    )

    # sum PDE: zero on the example family, shifted sums, holomorphic
    # and meromorphic sums; consistent with the inverse derivative
    worst = 0.0
    sum_members = [
        e00,
        e12,
        QFunction(parse("z1*z2 + 3"), zero),
        sum_qf(e00, m_const),
    ]
    for h in sum_members:
        for p in coarse:
            try:
                worst = max(worst, scalar(sum_pde_from_jets(jet_pair(h, p), DEFAULT_MASK_THRESHOLD)))
            except SingularPointError:
                continue
    for _ in range(3):
        h = sum_qf(random_rational_meromorphic(rng), random_rational_meromorphic(rng))
        for p in samples[:6]:
            worst = max(worst, scalar(sum_pde_from_jets(jet_pair(h, p), DEFAULT_MASK_THRESHOLD)))
    ident_worst = 0.0
    for p in (p_off, Point4(0.5 - 0.7j, -0.3 + 0.4j)):
        a = scalar(sum_pde_from_jets(jet_pair(counter, p), DEFAULT_MASK_THRESHOLD))
        n = eval_jet(norm_sq_expr(counter), p).val.real
        b = 2.0 * n * n * scalar(cauchy_fueter_from_jets(jet_pair(inverse_qf(counter), p)).magnitude())
        ident_worst = max(ident_worst, abs(a - b) / (1.0 + a + b))
    neg = scalar(sum_pde_from_jets(jet_pair(counter, p_off), DEFAULT_MASK_THRESHOLD))
    passed = worst <= tol and ident_worst <= tol and neg >= _FAIL_FLOOR
    worst = max(worst, ident_worst)
    items.append(
        VerifyItem(
            "sum_pde",
            passed,
            worst,
            f"identity gap {ident_worst:.3e}; control residual {neg:.3e}",
        )
    )

    # product system: ordered products that stay in the class, plus an
    # order-sensitive control with known residual value
    worst = 0.0
    for p in coarse:
        worst = max(worst, max(scalar(product_system_from_jets(jet_pair(m_const, p), jet_pair(e00, p)))))
        worst = max(worst, _max_eq1(product_qf(m_const, e00), [p]))
    for _ in range(3):
        f = random_rational_meromorphic(rng)
        g = random_rational_meromorphic(rng)
        for p in samples[:6]:
            worst = max(worst, max(scalar(product_system_from_jets(jet_pair(f, p), jet_pair(g, p)))))
    g_anti = QFunction(ConjVar("z2"), zero)
    p0 = Point4(0.4 + 0.2j, 0.7 - 0.3j)
    res = scalar(product_system_from_jets(jet_pair(e00, p0), jet_pair(g_anti, p0)))
    expected = 2.0 * abs(p0.z2)
    value_ok = (
        min(res) >= _FAIL_FLOOR
        and abs(res[0] - expected) <= 1e-9
        and abs(res[1] - expected) <= 1e-9
    )
    items.append(
        VerifyItem(
            "product_system",
            worst <= tol and value_ok,
            worst,
            f"order-sensitive control ({res[0]:.6f}, {res[1]:.6f}), "
            f"expected {expected:.6f} twice",
        )
    )

    # real-component members closed under sum and product
    pairs = [(e00, e12), (e00, m_const)]
    for _ in range(3):
        pairs.append((random_real_hyperholomorphic(rng), random_real_hyperholomorphic(rng)))
    worst = 0.0
    for f, g in pairs:
        for p in coarse:
            for h in (sum_qf(f, g), product_qf(f, g)):
                worst = max(worst, max(scalar(real_linear_from_jets(jet_pair(h, p)))))
    p1 = Point4(0.7 + 0.4j, -0.2 + 0.1j)
    res = scalar(real_linear_from_jets(jet_pair(product_qf(e00, QFunction(x1_tree**2, zero)), p1)))
    value_ok = min(res) >= _FAIL_FLOOR and abs(res[0] - 1.26) <= 1e-12 and abs(res[1] - 0.7) <= 1e-12
    items.append(
        VerifyItem(
            "real_combined",
            worst <= tol and value_ok,
            worst,
            f"sums and products of {len(pairs)} pairs over {len(coarse)} grid points; "
            f"control residuals ({res[0]:.6f}, {res[1]:.6f}) (expected 1.26, 0.7)",
        )
    )

    # meromorphic functions satisfy every applicable system, alone and
    # combined with the example family through a real constant
    worst = 0.0
    for _ in range(5):
        f = random_rational_meromorphic(rng)
        g = random_rational_meromorphic(rng)
        for p in samples[:4]:
            worst = max(worst, max(scalar(hyperholomorphy_from_jets(jet_pair(f, p)))))
            worst = max(worst, max(scalar(inverse_system_from_jets(jet_pair(f, p)))))
            worst = max(worst, scalar(sum_pde_from_jets(jet_pair(sum_qf(f, g), p), DEFAULT_MASK_THRESHOLD)))
            worst = max(worst, max(scalar(product_system_from_jets(jet_pair(f, p), jet_pair(g, p)))))
            worst = max(worst, max(scalar(hyperholomorphy_from_jets(jet_pair(product_qf(f, g), p)))))
    for p in coarse:
        try:
            worst = max(worst, max(scalar(hyperholomorphy_from_jets(jet_pair(sum_qf(m_const, e00), p)))))
            worst = max(worst, scalar(sum_pde_from_jets(jet_pair(sum_qf(m_const, e00), p), DEFAULT_MASK_THRESHOLD)))
            worst = max(worst, max(scalar(product_system_from_jets(jet_pair(m_const, p), jet_pair(e00, p)))))
        except SingularPointError:
            continue
    items.append(
        VerifyItem(
            "meromorphic_substructure",
            worst <= tol,
            worst,
            "5 random rational pairs plus real-constant combinations",
        )
    )

    return items


@pytest.mark.parametrize("seed, grid_n", [(0, 6), (7, 6), (123456, 6), (0, 3), (0, 4)])
def test_items_equal_the_per_point_path(seed: int, grid_n: int) -> None:
    assert run_verify(seed, grid_n) == per_point_run_verify(seed, grid_n)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    grid_n=st.sampled_from((2, 3, 6)),
    tol=st.sampled_from((1e-8, 1e-16)),
)
def test_items_equal_the_per_point_path_on_random_seeds(seed: int, grid_n: int, tol: float) -> None:
    assert run_verify(seed, grid_n, tol) == per_point_run_verify(seed, grid_n, tol)


def test_blocks_of_points_give_the_same_items(monkeypatch: pytest.MonkeyPatch) -> None:
    """Grids split into blocks, the last one partial, verify as one."""
    monkeypatch.setattr(qfc.domain, "BLOCK_POINTS", 7)
    assert run_verify(5, 4) == per_point_run_verify(5, 4)


def _peak(grid_n: int) -> int:
    """Peak bytes traced in run_verify(0, grid_n), run once untraced
    first: the first run at a grid pays one-time allocations, numpy's
    buffers under np.unravel_index and the interned-node dict's growth."""
    run_verify(0, grid_n)
    tracemalloc.start()
    try:
        run_verify(0, grid_n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_the_grid(monkeypatch: pytest.MonkeyPatch) -> None:
    """The grids stream from grid_blocks, so a grid with three times the
    points, 20,736 against 6,561, peaks at about the same memory."""
    monkeypatch.setattr(qfc.domain, "BLOCK_POINTS", 64)
    small, large = _peak(9), _peak(12)
    assert large < 1.3 * small, (small, large)


def test_verify_paper_never_evaluates_per_point(capsys) -> None:
    for module in (qfc.analysis, qfc.jets, qfc.verify):
        assert not hasattr(module, "eval_jet")
    for name in ("eval_qfunction", "inverse_qf", "norm_sq_expr", "CArray", "PointEvents"):
        assert not hasattr(qfc.verify, name)
    for name in ("CArray", "PointEvents"):  # grid_jets builds a block's events and coordinates
        assert not hasattr(qfc.zeros, name)
    assert main(["verify-paper", "--grid", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_a_stage_counts_where_a_later_stage_is_singular() -> None:
    """The stages of one try block: a point drops out from the first stage
    that is singular there, where that stage skips it, and raises where
    it does not."""
    f = QFunction(Var("z1") - 3.0, RealConst(0.0))  # its inverse is singular at z1 = 3
    points = [columns_of([3 + 0j, 0j], [0j, 0j])]
    shifted = (lambda f: (abs(f[0].val + 10.0),), True)  # 10 at the first point, 7 at the second
    assert _fold(0.0, [f], points, shifted, (_inverse_derivative, True)) == 10.0
    assert _fold(0.0, [f], points, (_inverse_derivative, True), shifted) == 7.0
    with pytest.raises(SingularPointError):
        _fold(0.0, [f], points, shifted, (_inverse_derivative, False))
    # a singular tree drops the point from the first stage on
    g = QFunction(RealConst(1.0) / (Var("z1") - 3.0), RealConst(0.0))
    assert _fold(0.0, [g], points, (lambda g: (abs(g[0].val),), True)) == abs(1 / (-3 + 0j))
    # overflow raises even where a singular point is skipped
    big = QFunction(Var("z1") ** 200, RealConst(0.0))
    with pytest.raises(OverflowError):
        _fold(0.0, [big], [columns_of([1e10 + 0j], [0j])], (lambda f: (abs(f[0].val),), True))


def test_array_magnitude_is_math_hypot_bit_for_bit() -> None:
    rng = np.random.default_rng(11)
    x1, y1, x2, y2 = rng.standard_normal((4, 20_000))
    events = PointEvents(len(x1))
    got = DValue(CArray(x1, y1, events), CArray(x2, y2, events)).magnitude()
    expected = [
        math.hypot(abs(complex(a, b)), abs(complex(c, d)))
        for a, b, c, d in zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())
    ]
    assert got.tolist() == expected
    assert np.hypot(np.hypot(x1, y1), np.hypot(x2, y2)).tolist() != expected  # why math.hypot
