"""Zero-set scanning and order-of-vanishing estimation."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import qfc.zeros
from qfc.expr import Pow, RealConst, Var, parse
from qfc.jets import Point4, columns_of
from qfc.lowering import QFunction, const_qf, lower
from qfc.quaternion import ONE
from qfc.zeros import _RADII, estimate_order, zero_set_scan
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
        (SIMPLE, PLANTED, "zero", 3, "0x1.fffffffffffd5p-1", ("0x1.fffffffffffdbp-1", "0x1.fffffffffffd5p-1")),
        (SIMPLE, PLANTED, "zero", 2**64, "0x1.000000000001ap+0", ("0x1.000000000002ap+0", "0x1.000000000001ap+0")),
        (DOUBLE, PLANTED, "zero", 3, "0x1.fffffffffffd5p-1", ("0x1.fffffffffffdbp+0", "0x1.fffffffffffd5p-1")),
        (DOUBLE, PLANTED, "zero", 2**64, "0x1.000000000001ap+0", ("0x1.000000000002ap+1", "0x1.000000000001ap+0")),
        (lower(parse("1/z1")), Point4(0j, 0j), "pole", 0, "0x1.ebe44e7190170p-1", ("0x1.ebe44e7190170p-1", "0x0.0p+0")),
        (lower(parse("1/z1")), Point4(0j, 0j), "pole", 3, "0x1.fd2c7e0b872acp-1", ("0x1.fd2c7e0b872acp-1", "0x0.0p+0")),
        (lower(parse("1/z1")), Point4(0j, 0j), "pole", 2**64, "0x1.f1a20bbbe30dcp-1", ("0x1.f1a20bbbe30dcp-1", "0x0.0p+0")),
    ],
)
def test_order_fits_are_pinned(f, q, kind, seed, order, per_component) -> None:
    """The fits along the directions estimate_order rejection-samples
    from SeededStream(seed)'s uniform draws, written out: the goldens hold
    only seed 0 and kind "zero".  Each is the correctly rounded
    least-squares slope of its samples."""
    est = estimate_order(f, q, kind, seed=seed)
    assert (est.order.hex(), tuple(x.hex() for x in est.per_component)) == (order, per_component)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 5]


def _directions(seed: int) -> list[tuple[complex, complex]]:
    """Sixteen points uniform in the unit ball of R^4, rejection-sampled
    from four random.Random(seed).uniform(-1, 1) draws at a time and scaled
    to unit length: the rule estimate_order states, drawn here without
    SeededStream."""
    rng = random.Random(seed)
    dirs = []
    while len(dirs) < 16:
        v = [rng.uniform(-1, 1) for _ in range(4)]
        h = math.hypot(*v)
        if 0 < h <= 1:
            dirs.append((complex(v[0] / h, v[1] / h), complex(v[2] / h, v[3] / h)))
    return dirs


def _sample_points(monkeypatch: pytest.MonkeyPatch, f: QFunction, q: Point4, seed: int) -> tuple[list[complex], list[complex]]:
    """The points estimate_order(f, q, seed=seed) evaluates f at."""
    seen = []

    def recording(z1, z2):
        seen.append((list(z1), list(z2)))
        return columns_of(z1, z2)

    monkeypatch.setattr(qfc.zeros, "columns_of", recording)
    estimate_order(f, q, seed=seed)
    (points,) = [p for p in seen if len(p[0]) > 1]  # the single-point one is the candidate check
    return points


@pytest.mark.parametrize("seed", SEEDS)
def test_order_samples_along_rejected_uniform_directions(monkeypatch: pytest.MonkeyPatch, seed: int) -> None:
    """Every sample point, bit for bit, is q + r*u over the radii _RADII
    and the directions u of _directions(seed)."""
    dirs = _directions(seed)
    z1, z2 = _sample_points(monkeypatch, SIMPLE, PLANTED, seed)
    assert z1 == [PLANTED.z1 + r * u1 for u1, _ in dirs for r in _RADII]
    assert z2 == [PLANTED.z2 + r * u2 for _, u2 in dirs for r in _RADII]


def test_order_directions_are_uniform_on_the_sphere(monkeypatch: pytest.MonkeyPatch) -> None:
    """Over 128 seeds' 2048 directions, each coordinate x of a direction
    has E[x] = 0, E[x^2] = 1/4 and E[x^4] = 1/8, as on the unit 3-sphere.
    Scaling the cube's points without rejecting those outside the ball
    gives E[x^4] of about 0.107 instead."""
    coords = []
    for seed in range(128):
        z1, z2 = _sample_points(monkeypatch, SIMPLE, PLANTED, seed)
        r = _RADII[0]
        for a, b in zip(z1[:: len(_RADII)], z2[:: len(_RADII)]):
            u1, u2 = (a - PLANTED.z1) / r, (b - PLANTED.z2) / r
            coords.append([u1.real, u1.imag, u2.real, u2.imag])
    x = np.array(coords)
    assert x.shape == (2048, 4)
    assert np.allclose(np.hypot.reduce(x, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(abs(x.mean(axis=0)) < 0.05)
    assert np.all(abs((x**2).mean(axis=0) - 0.25) < 0.02)
    assert abs((x**4).mean() - 0.125) < 0.008


@pytest.mark.parametrize("k, m", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_planted_zero_fits_do_not_depend_on_the_directions(k: int, m: int) -> None:
    """Along any direction u, |(r*u1)^k| = r^k |u1|^k, a line of slope k
    in log r: at every seed the fits are k and m to within 1e-6 and the
    order shown is min(k, m)."""
    f = lower(parse(f"(z1 - 0.5)^{k} + (z2 + 0.5)^{m}*j"))
    for seed in SEEDS:
        est = estimate_order(f, PLANTED, seed=seed)
        assert est.per_component == pytest.approx((k, m), rel=0, abs=1e-6)
        assert est.display_order == min(k, m)
