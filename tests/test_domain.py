"""Sampling domains and grid enumeration."""

from __future__ import annotations

import pytest

from qfc import Domain, Point4, grid_points


def test_default_domain_is_the_unit_box() -> None:
    d = Domain()
    assert d.box == ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    assert d.excluded_threshold == 1e-6


def test_domain_validation() -> None:
    with pytest.raises(ValueError, match=r"empty interval \(1.0, -1.0\)"):
        Domain(box=((1.0, -1.0),) * 4)
    with pytest.raises(ValueError, match="excluded_threshold must be positive"):
        Domain(excluded_threshold=0.0)


def test_from_flat_expects_eight_bounds() -> None:
    d = Domain.from_flat([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 1e-5)
    assert d.box == ((0.0, 1.0),) * 4
    assert d.excluded_threshold == 1e-5
    with pytest.raises(ValueError, match="expected eight bounds"):
        Domain.from_flat([0.0] * 7)


def test_grid_points_order_and_count() -> None:
    pts = grid_points(Domain(), 3)
    assert len(pts) == 81
    assert pts[0] == Point4(-1 - 1j, -1 - 1j)
    assert pts[1] == Point4(-1 - 1j, -1 + 0j)
    assert pts[2] == Point4(-1 - 1j, -1 + 1j)
    assert pts[-1] == Point4(1 + 1j, 1 + 1j)
    # x1 varies slowest, y2 fastest: index 27 is the first x1 step.
    assert pts[27] == Point4(0 - 1j, -1 - 1j)


def test_grid_points_respect_the_box() -> None:
    d = Domain(box=((0.0, 1.0), (0.0, 0.0), (2.0, 2.0), (-1.0, 0.0)))
    pts = grid_points(d, 2)
    assert len(pts) == 16
    assert all(p.z2.real == 2.0 for p in pts)
    assert {p.z1.imag for p in pts} == {0.0}
    assert {p.z2.imag for p in pts} == {-1.0, 0.0}

