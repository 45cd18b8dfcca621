"""Residual systems, the product rule, and the classifier.  The systems are
analysis's jets-level formulas applied to the recursive oracle's jets at
a point, as one-point jets, their results read back as Python numbers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qfc.analysis import (
    ClassificationLabel,
    DValue,
    cauchy_fueter_from_jets,
    classify,
    hyperholomorphy_from_jets,
    inverse_system_from_jets,
    product_rule_from_jets,
    product_system_from_jets,
    real_combined_from_jets,
    real_linear_from_jets,
    sum_pde_from_jets,
)
from qfc.domain import DEFAULT_MASK_THRESHOLD, Domain
from qfc.errors import InconclusiveError, SingularPointError
from qfc.expr import RealConst, Var, const, parse
from qfc.jets import CArray, Point4, PointEvents
from qfc.lowering import QFunction, const_qf, inverse_qf, lower, product_qf, scale_right_qf, sum_qf
from qfc.quaternion import Quaternion, modulus, norm_sq, quat_mul
from qfc.generators import (
    counterexample_pair,
    curated_hyperholomorphic,
    example_pair,
    random_point,
    random_polynomial_qf,
    random_real_hyperholomorphic,
)

from jet_oracle import eval_jet, eval_qfunction, grid_points, jet_pair, scalar

SEED = 2203
EXACT_POINTS = (
    Point4(0.3 + 0.7j, -0.2 + 0.1j),
    Point4(-0.9 + 0.05j, 0.6 - 0.8j),
    Point4(1.0 + 1.0j, 1.0 + 0j),
)
X1 = const(0.5) * (Var("z1") + Var("z1").conj())
X2 = const(0.5) * (Var("z2") + Var("z2").conj())


def test_derivative_of_holomorphic_components_vanishes() -> None:
    f = QFunction(Var("z1"), RealConst(0.0))
    for p in EXACT_POINTS:
        assert scalar(cauchy_fueter_from_jets(jet_pair(f, p))) == DValue(0j, 0j)


def test_derivative_of_conjugate_first_component() -> None:
    f = QFunction(Var("z1").conj(), RealConst(0.0))
    d = cauchy_fueter_from_jets(jet_pair(f, EXACT_POINTS[0]))
    assert scalar(d) == DValue(0.5 + 0j, 0j)
    assert scalar(d.as_quaternion()) == Quaternion(0.5 + 0j, 0j)
    assert scalar(d.magnitude()) == 0.5


def test_derivative_value_embeds_with_a_conjugated_second_slot() -> None:
    events = PointEvents(1)
    d = DValue(CArray.of([1 + 2j], events), CArray.of([3 + 4j], events))
    assert scalar(d.as_quaternion()) == Quaternion(1 + 2j, 3 - 4j)
    assert scalar(d.magnitude()) == pytest.approx(math.hypot(abs(1 + 2j), abs(3 + 4j)))


def test_antiholomorphic_pair_is_annihilated_everywhere() -> None:
    f = counterexample_pair()
    for p in EXACT_POINTS:
        assert scalar(cauchy_fueter_from_jets(jet_pair(f, p))) == DValue(0j, 0j)
        assert scalar(hyperholomorphy_from_jets(jet_pair(f, p))) == (0.0, 0.0)


def test_first_system_flags_a_conjugate_second_variable() -> None:
    f = QFunction(Var("z2").conj(), RealConst(0.0))
    assert scalar(hyperholomorphy_from_jets(jet_pair(f, EXACT_POINTS[0]))) == (0.0, 1.0)


def test_linear_example_family_satisfies_the_first_system_exactly() -> None:
    for a, b in ((0.0, 0.0), (1.0, 2.0), (-0.75, 0.3)):
        f = example_pair(a, b)
        for p in EXACT_POINTS:
            assert scalar(hyperholomorphy_from_jets(jet_pair(f, p))) == (0.0, 0.0)


def test_inverse_system_vanishes_for_scalar_holomorphic_functions() -> None:
    f = QFunction(parse("z1*z2 + 3"), RealConst(0.0))
    for p in EXACT_POINTS:
        assert scalar(inverse_system_from_jets(jet_pair(f, p))) == (0.0, 0.0)


def test_inverse_system_on_the_linear_example() -> None:
    f = example_pair(0.0, 0.0)
    for p in EXACT_POINTS:
        assert max(scalar(inverse_system_from_jets(jet_pair(f, p)))) <= 1e-12


def test_antiholomorphic_pair_inverse_system_vanishes_only_on_the_real_slice() -> None:
    f = counterexample_pair()
    assert scalar(inverse_system_from_jets(jet_pair(f, Point4(1 + 0j, 1 + 0j)))) == (0.0, 0.0)
    off = scalar(inverse_system_from_jets(jet_pair(f, Point4(1 + 1j, 1 + 0j))))
    assert off[0] == pytest.approx(2.0, abs=1e-12)
    assert max(off) > 1e-3


def test_antiholomorphic_pair_inverse_derivative_matches_hand_value() -> None:
    dinv = inverse_qf(counterexample_pair())
    assert scalar(cauchy_fueter_from_jets(jet_pair(dinv, Point4(1 + 0j, 1 + 0j))).magnitude()) == 0.0
    got = scalar(cauchy_fueter_from_jets(jet_pair(dinv, Point4(1 + 1j, 1 + 0j))).magnitude())
    assert got == pytest.approx(math.sqrt(3.0) / 9.0, rel=1e-12)


def test_real_linear_system_on_real_component_pairs() -> None:
    f = example_pair(0.0, 0.0)
    for p in EXACT_POINTS:
        assert scalar(real_linear_from_jets(jet_pair(f, p))) == (0.0, 0.0)
    assert scalar(real_linear_from_jets(jet_pair(const_qf(Quaternion(1 + 0j, 1 + 0j)), EXACT_POINTS[0]))) == (0.0, 0.0)
    assert scalar(real_linear_from_jets(jet_pair(QFunction(X1, RealConst(0.0)), EXACT_POINTS[0]))) == (0.0, 0.5)


def test_real_linear_system_rejects_complex_components() -> None:
    f = QFunction(Var("z1"), RealConst(0.0))
    with pytest.raises(ValueError, match="requires real-valued components"):
        scalar(real_linear_from_jets(jet_pair(f, Point4(0.3 + 0.2j, 0j))))


def test_sum_pde_vanishes_on_the_linear_example() -> None:
    f = example_pair(0.0, 0.0)
    assert scalar(sum_pde_from_jets(jet_pair(f, Point4(0.5 + 0.25j, -0.4 + 0.8j)), DEFAULT_MASK_THRESHOLD)) == 0.0


def test_sum_pde_on_the_antiholomorphic_pair() -> None:
    f = counterexample_pair()
    assert scalar(sum_pde_from_jets(jet_pair(f, Point4(1 + 0j, 1 + 0j)), DEFAULT_MASK_THRESHOLD)) == 0.0
    got = scalar(sum_pde_from_jets(jet_pair(f, Point4(1 + 1j, 1 + 0j)), DEFAULT_MASK_THRESHOLD))
    assert got == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)


def test_sum_pde_masks_the_zero_set() -> None:
    f = example_pair(0.0, 0.0)
    with pytest.raises(SingularPointError):
        scalar(sum_pde_from_jets(jet_pair(f, Point4(0j, 0j)), DEFAULT_MASK_THRESHOLD))


def test_product_system_distinguishes_factor_order() -> None:
    e00 = example_pair(0.0, 0.0)
    m = const_qf(Quaternion(1.5 + 0j, 0j))
    p = Point4(0.4 + 0.2j, 0.7 - 0.3j)
    assert scalar(product_system_from_jets(jet_pair(m, p), jet_pair(e00, p))) == (0.0, 0.0)
    assert scalar(product_system_from_jets(jet_pair(e00, p), jet_pair(m, p))) == (3.0, 3.0)


def test_product_system_on_holomorphic_pairs_and_a_failing_partner() -> None:
    f = QFunction(parse("z1*z2"), RealConst(0.0))
    g = QFunction(parse("z1 + 3"), RealConst(0.0))
    p = Point4(0.4 + 0.2j, 0.7 - 0.3j)
    assert scalar(product_system_from_jets(jet_pair(f, p), jet_pair(g, p))) == (0.0, 0.0)
    g_anti = QFunction(Var("z2").conj(), RealConst(0.0))
    bad = scalar(product_system_from_jets(jet_pair(example_pair(0.0, 0.0), p), jet_pair(g_anti, p)))
    assert bad[0] == pytest.approx(2.0 * abs(p.z2), rel=1e-12)
    assert bad[1] == pytest.approx(2.0 * abs(p.z2), rel=1e-12)


def test_real_combined_system_values() -> None:
    e00 = example_pair(0.0, 0.0)
    e12 = example_pair(1.0, 2.0)
    p = Point4(0.7 + 0.4j, -0.2 + 0.1j)
    assert scalar(real_combined_from_jets(jet_pair(e00, p), jet_pair(e12, p))) == (0.0, 0.0, 0.0, 0.0, 0.0)
    g = QFunction(X1 ** 2, RealConst(0.0))
    got = scalar(real_combined_from_jets(jet_pair(e00, p), jet_pair(g, p)))
    assert got[:3] == (0.0, 0.0, 0.0)
    assert got[3] == pytest.approx(0.7, abs=1e-12)
    assert got[4] == pytest.approx(0.7, abs=1e-12)


def test_real_combined_takes_d_dz2_where_real_linear_takes_d_dzbar2() -> None:
    """real_combined_from_jets's first four equations are not each
    factor's linear system: a real-component f that satisfies that system
    leaves them nonzero.  Pinned until they are checked against the
    paper's system, so verify-paper's output stays as it is."""
    f = random_real_hyperholomorphic(np.random.default_rng(3))
    p = Point4(0.3 + 0.2j, -0.4 + 0.7j)
    (f1, f2), g = jet_pair(f, p), jet_pair(example_pair(), p)
    assert scalar(real_linear_from_jets((f1, f2))) == (0.0, 0.0)
    got = scalar(real_combined_from_jets((f1, f2), g))
    assert got[:2] == scalar((abs(f2.d_z1 + f1.d_z2), abs(f1.d_z1 - f2.d_z2)))
    assert got[0] == pytest.approx(1.1967172104415418, rel=1e-12)
    assert got[1] == pytest.approx(0.42274926690874814, rel=1e-12)


def test_product_rule_is_exact_for_holomorphic_factors() -> None:
    f = lower(parse("z1*z2"))
    g = lower(parse("z1^2 + z2"))
    p = Point4(0.7 - 0.2j, 0.3 + 0.9j)
    chk = scalar(product_rule_from_jets(*(jet_pair(h, p) for h in (f, g, product_qf(f, g)))))
    assert chk.lhs == Quaternion(0j, 0j)
    assert chk.first_term == Quaternion(0j, 0j)
    assert chk.second_term == Quaternion(0j, 0j)
    assert chk.gap == 0.0
    assert chk.rhs == chk.first_term + chk.second_term


def test_product_rule_gap_on_random_polynomial_pairs() -> None:
    rng = np.random.default_rng(SEED)
    for _ in range(60):
        f = random_polynomial_qf(rng)
        g = random_polynomial_qf(rng)
        p = random_point(rng)
        assert scalar(product_rule_from_jets(*(jet_pair(h, p) for h in (f, g, product_qf(f, g))))).gap <= 1e-9


def test_product_rule_second_term_reduces_for_real_component_pairs() -> None:
    rng = np.random.default_rng(SEED)
    for _ in range(15):
        f = random_real_hyperholomorphic(rng)
        g = random_real_hyperholomorphic(rng)
        p = random_point(rng)
        chk = scalar(product_rule_from_jets(*(jet_pair(h, p) for h in (f, g, product_qf(f, g)))))
        expect = quat_mul(eval_qfunction(f, p), scalar(cauchy_fueter_from_jets(jet_pair(g, p))).as_quaternion())
        assert modulus(chk.second_term - expect) <= 1e-10


def test_classifier_labels() -> None:
    cases = (
        (QFunction(parse("z1*z2"), RealConst(0.0)), "Holomorphic"),
        (QFunction(Var("z1"), Var("z2")), "Hyperholomorphic"),
        (example_pair(0.0, 0.0), "WHypermeromorphic"),
        (counterexample_pair(), "Hyperholomorphic"),
        (QFunction(Var("z2").conj(), RealConst(0.0)), "NonHyperholomorphic"),
    )
    for f, want in cases:
        label, reports = classify(f)
        assert label.label == want
        assert [r.system for r in reports] == [
            "hyperholomorphy",
            "inverse_hyperholomorphy",
            "second_component",
        ]


def test_classifier_is_inconclusive_when_the_domain_is_all_masked() -> None:
    tiny = Domain(box=((-1e-4, 1e-4),) * 4)
    with pytest.raises(InconclusiveError, match="grid points are unmasked"):
        classify(example_pair(0.0, 0.0), tiny)


def test_classification_label_validates_its_name() -> None:
    with pytest.raises(ValueError):
        ClassificationLabel("Bogus", 1e-8)
    lab = ClassificationLabel("Holomorphic", 1e-8)
    assert lab.tol == 1e-8


def test_real_scaling_preserves_inverse_residuals_and_labels() -> None:
    """Scaling by a nonzero real keeps the inverse system satisfied."""
    members = dict(curated_hyperholomorphic())
    keep = (
        "linear_example",
        "linear_example_shifted",
        "real_component_square",
        "holomorphic_product",
    )
    pts = grid_points(Domain(), 3)
    for name in keep:
        f = members[name]
        for alpha in (-3.0, 0.5, 7.0):
            fa = scale_right_qf(f, Quaternion(alpha + 0j, 0j))
            for p in pts:
                if norm_sq(eval_qfunction(f, p)) < 1e-6:
                    continue
                r = max(scalar(inverse_system_from_jets(jet_pair(f, p))))
                ra = max(scalar(inverse_system_from_jets(jet_pair(fa, p))))
                assert ra <= alpha * alpha * r * (1.0 + 1e-9)
    base, _ = classify(members["linear_example"])
    for alpha in (-3.0, 0.5, 7.0):
        fa = scale_right_qf(members["linear_example"], Quaternion(alpha + 0j, 0j))
        label, _ = classify(fa)
        assert label.label == base.label


def test_holomorphic_identification() -> None:
    """Zero first-system residual with a zero second component means both
    antiholomorphic partials of the first component vanish."""
    rng = np.random.default_rng(SEED)
    f = QFunction(parse("z1^3 + z1*z2 + 2"), RealConst(0.0))
    for _ in range(25):
        p = random_point(rng)
        assert scalar(hyperholomorphy_from_jets(jet_pair(f, p))) == (0.0, 0.0)
        j = eval_jet(f.f1, p)
        assert j.d_z1bar == 0j and j.d_z2bar == 0j


def test_sum_pde_cross_check_identity() -> None:
    """The sum PDE residual equals twice the squared norm times the
    derivative magnitude of the inverse, up to relative roundoff."""
    h = sum_qf(example_pair(0.0, 0.0), const_qf(Quaternion(1.5 + 0j, 0j)))
    for p in (Point4(1 + 1j, 1 + 0j), Point4(0.5 - 0.7j, -0.3 + 0.4j)):
        lhs = scalar(sum_pde_from_jets(jet_pair(h, p), DEFAULT_MASK_THRESHOLD))
        n = norm_sq(eval_qfunction(h, p))
        rhs = 2.0 * n * n * scalar(cauchy_fueter_from_jets(jet_pair(inverse_qf(h), p)).magnitude())
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + lhs + rhs)
