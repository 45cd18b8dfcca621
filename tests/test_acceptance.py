"""End-to-end acceptance checks.

Each test prints one PASS or FAIL line for its criterion.  Criterion 02 checks
the antiholomorphic pair's inverse where it genuinely fails to be
hyperholomorphic: both inverse quantities equal closed forms proportional to
|Im z1|, so they are required to be large off the real-z1 slice and exactly
zero on it.
"""

from __future__ import annotations

import json
import math
import time
from unittest.mock import patch

import numpy as np

import qfc.jets
from qfc.analysis import (
    cauchy_fueter_from_jets,
    classify,
    hyperholomorphy_from_jets,
    inverse_system_from_jets,
    product_rule_from_jets,
    product_system_from_jets,
    sum_pde_from_jets,
)
from qfc.domain import DEFAULT_MASK_THRESHOLD, Domain
from qfc.errors import SingularPointError
from qfc.expr import Add, Conj, ConjVar, Div, Mul, Neg, Pow, RealConst, Sub, UnitI, Var
from qfc.jets import Point4
from qfc.lowering import QFunction, inverse_qf, product_qf, scale_right_qf, sum_qf
from qfc.quaternion import Quaternion, norm_sq, quat_mul
from qfc.zeros import estimate_order, zero_set_scan
from qfc.cli import main
from qfc.generators import (
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

from jet_oracle import eval_jet, eval_qfunction, fd_jet, grid_points, jet_pair, scalar

MASK = 1e-6


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_linear_family_residuals_and_label() -> None:
    t0 = time.monotonic()
    worst = 0.0
    labels = []
    pts = grid_points(Domain(), 6)
    assert len(pts) == 1296
    for a, b in ((0.0, 0.0), (1.0, 2.0)):
        f = example_pair(a, b)
        inv = inverse_qf(f)
        for p in pts:
            if norm_sq(eval_qfunction(f, p)) < MASK:
                continue
            worst = max(worst, *scalar(hyperholomorphy_from_jets(jet_pair(f, p))))
            worst = max(worst, *scalar(hyperholomorphy_from_jets(jet_pair(inv, p))))
        label, _ = classify(f)
        labels.append(label.label)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and labels == ["WHypermeromorphic"] * 2 and elapsed < 5.0
    _line(1, ok, f"worst residual {worst:.3e}, labels {labels}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert labels == ["WHypermeromorphic", "WHypermeromorphic"]
    assert elapsed < 5.0


def test_criterion_02_antiholomorphic_pair_inverse_quantities() -> None:
    """f = conj(z1) + conj(z2) j satisfies the first system everywhere, yet its
    inverse is not hyperholomorphic.

    With N = |z1|^2 + |z2|^2 the inverse is (z1/N, -conj(z2)/N), so
    D(f^-1) = (conj(z1) - z1) / (2 N^2) * (z1, z2) and |D(f^-1)| = |Im z1| / N^1.5,
    while the inverse-system residual is 2 |Im z1|.  Both vanish on the whole
    real-z1 slice, so they are required to be at least 1e-3 and to match the
    closed forms at (1+i, 1) and on the 6-grid (where Im z1 is never zero), and
    to be exactly zero at (1, 1).
    """
    f = counterexample_pair()
    inv = inverse_qf(f)

    def quantities(p: Point4) -> tuple[float, float]:
        dinv = scalar(cauchy_fueter_from_jets(jet_pair(inv, p)).magnitude())
        return dinv, max(scalar(inverse_system_from_jets(jet_pair(f, p))))

    pts = grid_points(Domain(), 6)
    assert len(pts) == 1296
    worst_eq1 = 0.0
    for p in pts:
        worst_eq1 = max(worst_eq1, *scalar(hyperholomorphy_from_jets(jet_pair(f, p))))
    off = Point4(1 + 1j, 1 + 0j)
    dinv_off, inv_res_off = quantities(off)
    min_dinv = min_res = math.inf
    worst_rel = 0.0
    for p in [off] + pts:
        dinv, inv_res = quantities(p)
        n = abs(p.z1) ** 2 + abs(p.z2) ** 2
        expect_dinv = abs(p.z1.imag) / n**1.5
        expect_res = 2.0 * abs(p.z1.imag)
        min_dinv = min(min_dinv, dinv)
        min_res = min(min_res, inv_res)
        worst_rel = max(
            worst_rel,
            abs(dinv - expect_dinv) / expect_dinv,
            abs(inv_res - expect_res) / expect_res,
        )
    dinv_real, inv_res_real = quantities(Point4(1 + 0j, 1 + 0j))
    ok = (
        worst_eq1 <= 1e-12
        and min_dinv >= 1e-3
        and min_res >= 1e-3
        and worst_rel <= 1e-12
        and dinv_real == 0.0
        and inv_res_real == 0.0
    )
    _line(
        2,
        ok,
        f"eq1 {worst_eq1:.3e}, at (1+i,1): derivative {dinv_off:.6f}, system {inv_res_off:.6f}; "
        f"grid minima {min_dinv:.4f}, {min_res:.4f}; closed-form error {worst_rel:.3e}",
    )
    print(f"  measured at (1,1): inverse derivative {dinv_real}, inverse system {inv_res_real}")
    assert worst_eq1 <= 1e-12
    assert min_dinv >= 1e-3
    assert min_res >= 1e-3
    assert worst_rel <= 1e-12
    assert dinv_real == 0.0
    assert inv_res_real == 0.0


def test_criterion_03_inverse_equivalence_passing_direction() -> None:
    rng = np.random.default_rng(3)
    worst_sys = 0.0
    worst_dinv = 0.0
    coarse = grid_points(Domain(), 3)
    for _ in range(20):
        f = random_rational_meromorphic(rng)
        inv = inverse_qf(f)
        for p in coarse + [random_point(rng) for _ in range(5)]:
            nsq = norm_sq(eval_qfunction(f, p))
            if nsq < MASK:
                continue
            worst_sys = max(worst_sys, *scalar(inverse_system_from_jets(jet_pair(f, p))))
            worst_dinv = max(worst_dinv, scalar(cauchy_fueter_from_jets(jet_pair(inv, p)).magnitude()) / nsq**2)
    ok = worst_sys <= 1e-9 and worst_dinv <= 1e-9
    _line(3, ok, f"system {worst_sys:.3e}, scaled inverse derivative {worst_dinv:.3e}")
    assert worst_sys <= 1e-9
    assert worst_dinv <= 1e-9


def test_criterion_04_product_rule_and_its_reduction() -> None:
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    for _ in range(100):
        f = random_polynomial_qf(rng)
        g = random_polynomial_qf(rng)
        p = random_point(rng)
        chk = scalar(product_rule_from_jets(*(jet_pair(h, p) for h in (f, g, product_qf(f, g)))))
        worst_gap = max(worst_gap, chk.gap)
    worst_red = 0.0
    for _ in range(20):
        f = random_real_hyperholomorphic(rng)
        g = random_real_hyperholomorphic(rng)
        p = random_point(rng)
        chk = scalar(product_rule_from_jets(*(jet_pair(h, p) for h in (f, g, product_qf(f, g)))))
        expect = quat_mul(eval_qfunction(f, p), scalar(cauchy_fueter_from_jets(jet_pair(g, p))).as_quaternion())
        diff = chk.second_term - expect
        worst_red = max(worst_red, math.hypot(abs(diff.z1), abs(diff.z2)))
    ok = worst_gap <= 1e-9 and worst_red <= 1e-10
    _line(4, ok, f"gap {worst_gap:.3e} over 100 pairs, reduction {worst_red:.3e}")
    assert worst_gap <= 1e-9
    assert worst_red <= 1e-10


def _random_quotient_tree(rng: np.random.Generator, depth: int):
    if depth <= 0 or rng.uniform() < 0.25:
        k = int(rng.integers(0, 6))
        return (
            Var("z1"), Var("z2"), ConjVar("z1"), ConjVar("z2"),
            RealConst(round(float(rng.uniform(-2.0, 2.0)), 3)), UnitI(),
        )[k]
    k = int(rng.integers(0, 7))
    if k == 0:
        return Add(_random_quotient_tree(rng, depth - 1), _random_quotient_tree(rng, depth - 1))
    if k == 1:
        return Sub(_random_quotient_tree(rng, depth - 1), _random_quotient_tree(rng, depth - 1))
    if k == 2:
        return Mul(_random_quotient_tree(rng, depth - 1), _random_quotient_tree(rng, depth - 1))
    if k == 3:
        return Div(_random_quotient_tree(rng, depth - 1), _random_quotient_tree(rng, depth - 1))
    if k == 4:
        return Neg(_random_quotient_tree(rng, depth - 1))
    if k == 5:
        return Conj(_random_quotient_tree(rng, depth - 1))
    return Pow(_random_quotient_tree(rng, depth - 1), int(rng.integers(1, 4)))


def test_criterion_05_forward_jets_match_finite_differences() -> None:
    rng = np.random.default_rng(5)
    kept = 0
    attempts = 0
    worst = 0.0
    fields = ("val", "d_z1", "d_z1bar", "d_z2", "d_z2bar")
    with patch.object(qfc.jets, "SINGULAR_SQ_TOL", 1e-3):
        while kept < 1000 and attempts < 20000:
            attempts += 1
            tree = _random_quotient_tree(rng, 4)
            p = random_point(rng, -2.0, 2.0)
            try:
                aj = eval_jet(tree, p)
                fj = fd_jet(tree, p, 1e-5)
            except (SingularPointError, OverflowError):
                continue
            diff = max(abs(getattr(aj, f) - getattr(fj, f)) for f in fields)
            worst = max(worst, diff / (1.0 + aj.magnitude()))
            kept += 1
    ok = kept == 1000 and worst <= 1e-6
    _line(5, ok, f"{kept} pairs, worst relative error {worst:.3e}")
    assert kept == 1000
    assert worst <= 1e-6


def test_criterion_06_zero_set_of_the_linear_example() -> None:
    grid_n = 11
    spacing = 2.0 / (grid_n - 1)
    clusters = zero_set_scan(example_pair(0.0, 0.0), grid_n=grid_n, tol=2.0 * spacing)
    points = [p for c in clusters for p in c]
    bound = 2.0 * spacing + 1e-12
    confined = all(abs(p.z1.real) <= bound and abs(p.z2.real) <= bound for p in points)
    slices = {(p.z1.imag, p.z2.imag) for p in points}
    covered = len(slices) == grid_n * grid_n
    ok = bool(points) and confined and covered
    _line(6, ok, f"{len(points)} points, confined {confined}, {len(slices)}/{grid_n * grid_n} slices")
    assert points
    assert confined
    assert covered


def test_criterion_07_meromorphic_substructure() -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        f = random_rational_meromorphic(rng)
        g = random_rational_meromorphic(rng)
        for p in [random_point(rng) for _ in range(4)]:
            if norm_sq(eval_qfunction(f, p)) < MASK or norm_sq(eval_qfunction(g, p)) < MASK:
                continue
            worst = max(worst, *scalar(hyperholomorphy_from_jets(jet_pair(f, p))))
            worst = max(worst, *scalar(inverse_system_from_jets(jet_pair(f, p))))
            worst = max(worst, scalar(sum_pde_from_jets(jet_pair(sum_qf(f, g), p), DEFAULT_MASK_THRESHOLD)))
            worst = max(worst, *scalar(product_system_from_jets(jet_pair(f, p), jet_pair(g, p))))
            worst = max(worst, *scalar(hyperholomorphy_from_jets(jet_pair(product_qf(f, g), p))))
    # Combinations with the linear example use a real constant partner; the
    # order puts the constant first, where the product system is exact.
    m = QFunction(RealConst(1.5), RealConst(0.0))
    e00 = example_pair(0.0, 0.0)
    worst_combo = 0.0
    for p in grid_points(Domain(), 3):
        if norm_sq(eval_qfunction(e00, p)) < MASK:
            continue
        s = sum_qf(m, e00)
        worst_combo = max(worst_combo, *scalar(hyperholomorphy_from_jets(jet_pair(s, p))))
        worst_combo = max(worst_combo, scalar(sum_pde_from_jets(jet_pair(s, p), DEFAULT_MASK_THRESHOLD)))
        worst_combo = max(worst_combo, *scalar(hyperholomorphy_from_jets(jet_pair(product_qf(m, e00), p))))
        worst_combo = max(worst_combo, *scalar(product_system_from_jets(jet_pair(m, p), jet_pair(e00, p))))
    ok = worst <= 1e-10 and worst_combo <= 1e-10
    _line(7, ok, f"rational pairs {worst:.3e}, example combinations {worst_combo:.3e}")
    assert worst <= 1e-10
    assert worst_combo <= 1e-10


def test_criterion_08_right_linear_combinations_stay_in_the_kernel() -> None:
    rng = np.random.default_rng(8)
    curated = [f for _, f in curated_hyperholomorphic()]
    worst = 0.0
    for _ in range(10):
        f = curated[int(rng.integers(0, len(curated)))]
        g = curated[int(rng.integers(0, len(curated)))]
        h = right_combination(f, g, random_quaternion(rng), random_quaternion(rng))
        for _ in range(4):
            worst = max(worst, *scalar(hyperholomorphy_from_jets(jet_pair(h, random_point(rng)))))
    ok = worst <= 1e-9
    _line(8, ok, f"worst residual {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_09_labels_survive_real_scaling() -> None:
    mismatches = []
    for name, f in curated_hyperholomorphic():
        base, _ = classify(f)
        for alpha in (-3.0, 0.5, 7.0):
            scaled = scale_right_qf(f, Quaternion(alpha + 0j, 0j))
            label, _ = classify(scaled)
            if label.label != base.label:
                mismatches.append((name, alpha, base.label, label.label))
    ok = not mismatches
    _line(9, ok, f"{len(mismatches)} label changes across 21 scalings")
    assert mismatches == []


def test_criterion_10_order_estimates() -> None:
    est1 = estimate_order(QFunction(Var("z1"), Var("z2")), Point4(0j, 0j))
    est2 = estimate_order(QFunction(Pow(Var("z1"), 2), Var("z2")), Point4(0j, 0j))
    ok = (
        abs(est1.order - 1.0) <= 0.05
        and abs(est2.order - 1.0) <= 0.05
        and abs(est2.per_component[0] - 2.0) <= 0.1
        and abs(est2.per_component[1] - 1.0) <= 0.05
    )
    _line(10, ok, f"orders {est1.order:.4f}, {est2.order:.4f}, slopes {est2.per_component}")
    assert abs(est1.order - 1.0) <= 0.05
    assert abs(est2.order - 1.0) <= 0.05
    assert abs(est2.per_component[0] - 2.0) <= 0.1
    assert abs(est2.per_component[1] - 1.0) <= 0.05


def test_criterion_11_verification_json_is_deterministic(capsys) -> None:
    code1 = main(["verify-paper", "--seed", "0", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = main(["verify-paper", "--seed", "0", "--format", "json"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    _line(11, ok, f"{len(out1)} bytes, byte-identical {out1 == out2}")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True
