"""Zero-set scanning and order-of-vanishing estimation."""

from __future__ import annotations

import math

import pytest

from qfc.expr import Pow, RealConst, Var, parse
from qfc.jets import Point4
from qfc.lowering import QFunction, const_qf, lower
from qfc.quaternion import ONE
from qfc.zeros import estimate_order, zero_set_scan
from qfc.generators import counterexample_pair, example_pair

ORDER_TOL = 0.05
SLOPE_TOL = 0.1


def test_scan_confines_the_linear_example_zero_set_to_the_real_plane() -> None:
    clusters = zero_set_scan(example_pair(0.0, 0.0), grid_n=11, tol=0.4)
    assert len(clusters) == 1
    points = clusters[0]
    assert len(points) == 363
    spacing = 2.0 / 10.0
    assert all(abs(p.z1.real) <= 2.0 * spacing + 1e-12 for p in points)
    assert all(abs(p.z2.real) <= 2.0 * spacing + 1e-12 for p in points)
    # Every imaginary-part slice of the plane x1 = x2 = 0 is represented.
    slices = {(p.z1.imag, p.z2.imag) for p in points}
    assert len(slices) == 11 * 11


def test_scan_of_a_nonvanishing_function_is_empty() -> None:
    assert zero_set_scan(const_qf(ONE), grid_n=5) == []


def test_scan_of_the_antiholomorphic_pair_finds_the_origin() -> None:
    clusters = zero_set_scan(counterexample_pair(), grid_n=11, tol=1e-9)
    assert clusters == [[Point4(0j, 0j)]]


def test_scan_separates_distinct_zero_clusters() -> None:
    f = QFunction(Var("z1") * (Var("z1") - RealConst(0.5)), Var("z2"))
    clusters = zero_set_scan(f, grid_n=9, tol=1e-9)
    assert len(clusters) == 2
    centers = sorted(c[0].z1.real for c in clusters)
    assert centers == [0.0, 0.5]


def test_scan_is_deterministic() -> None:
    a = zero_set_scan(example_pair(0.0, 0.0), grid_n=7, tol=0.4)
    b = zero_set_scan(example_pair(0.0, 0.0), grid_n=7, tol=0.4)
    assert a == b


def test_order_of_a_simple_zero() -> None:
    est = estimate_order(QFunction(Var("z1"), Var("z2")), Point4(0j, 0j))
    assert est.kind == "zero"
    assert est.location == Point4(0j, 0j)
    assert est.order == pytest.approx(1.0, abs=ORDER_TOL)
    assert est.display_order == 1.0


def test_order_takes_the_minimum_component_exponent() -> None:
    est = estimate_order(QFunction(Pow(Var("z1"), 2), Var("z2")), Point4(0j, 0j))
    assert est.order == pytest.approx(1.0, abs=ORDER_TOL)
    assert est.per_component[0] == pytest.approx(2.0, abs=SLOPE_TOL)
    assert est.per_component[1] == pytest.approx(1.0, abs=ORDER_TOL)


def test_order_of_the_antiholomorphic_pair_zero() -> None:
    est = estimate_order(counterexample_pair(), Point4(0j, 0j))
    assert est.order == pytest.approx(1.0, abs=ORDER_TOL)
    assert est.per_component[0] == pytest.approx(1.0, abs=ORDER_TOL)
    assert est.per_component[1] == pytest.approx(1.0, abs=ORDER_TOL)


def test_identically_zero_component_reports_an_infinite_slope() -> None:
    est = estimate_order(QFunction(parse("z1*z2"), RealConst(0.0)), Point4(-1 - 1j, 0j))
    assert math.isinf(est.per_component[1])
    assert est.order == pytest.approx(1.0, abs=ORDER_TOL)


def test_pole_order_of_a_simple_reciprocal() -> None:
    est = estimate_order(lower(parse("1/z1")), Point4(0j, 0j), "pole")
    assert est.kind == "pole"
    assert est.display_order == 1.0
    assert 0.8 <= est.order <= 1.1
    assert est.per_component[1] == 0.0


def test_order_rejects_a_point_that_is_not_a_zero() -> None:
    with pytest.raises(ValueError, match="is not a zero candidate"):
        estimate_order(QFunction(Var("z1"), Var("z2")), Point4(0.5 + 0j, 0j))


def test_order_estimation_is_deterministic() -> None:
    f = counterexample_pair()
    a = estimate_order(f, Point4(0j, 0j))
    b = estimate_order(f, Point4(0j, 0j))
    assert a == b


SIMPLE = lower(parse("(z1 - 0.5) + (z2 + 0.5)*j"))  # the planted zeros of tests/golden/zeros.txt
DOUBLE = lower(parse("(z1 - 0.5)^2 + (z2 + 0.5)*j"))
PLANTED = Point4(0.5 + 0j, -0.5 + 0j)


@pytest.mark.parametrize(
    "f, q, kind, seed, order, per_component",
    [
        (SIMPLE, PLANTED, "zero", 3, "0x1.fffffffffffd4p-1", ("0x1.fffffffffffd4p-1", "0x1.fffffffffffd9p-1")),
        (SIMPLE, PLANTED, "zero", 2**64, "0x1.ffffffffffff8p-1", ("0x1.ffffffffffff8p-1", "0x1.000000000001bp+0")),
        (DOUBLE, PLANTED, "zero", 3, "0x1.fffffffffffd9p-1", ("0x1.fffffffffffd4p+0", "0x1.fffffffffffd9p-1")),
        (DOUBLE, PLANTED, "zero", 2**64, "0x1.000000000001bp+0", ("0x1.ffffffffffff8p+0", "0x1.000000000001bp+0")),
        (lower(parse("1/z1")), Point4(0j, 0j), "pole", 0, "0x1.dd374d0843d23p-1", ("0x1.dd374d0843d23p-1", "0x0.0p+0")),
        (lower(parse("1/z1")), Point4(0j, 0j), "pole", 3, "0x1.d22cb84d8d7d4p-1", ("0x1.d22cb84d8d7d4p-1", "0x0.0p+0")),
        (lower(parse("1/z1")), Point4(0j, 0j), "pole", 2**64, "0x1.f2df501e17496p-1", ("0x1.f2df501e17496p-1", "0x0.0p+0")),
    ],
)
def test_order_fits_are_pinned(f, q, kind, seed, order, per_component) -> None:
    """The fits along numpy's default_rng(seed).normal directions,
    written out: the goldens hold only seed 0 and kind "zero".  Each is
    the correctly rounded least-squares slope of its samples."""
    est = estimate_order(f, q, kind, seed=seed)
    assert (est.order.hex(), tuple(x.hex() for x in est.per_component)) == (order, per_component)
