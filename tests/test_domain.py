"""Sampling domains and grid enumeration."""

from __future__ import annotations

from itertools import product

import pytest

import qfc.domain
from qfc.domain import Domain, grid_axes, grid_blocks
from qfc.jets import Point4

from jet_oracle import grid_points


def test_default_domain_is_the_unit_box() -> None:
    d = Domain()
    assert d.box == ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    assert d.excluded_threshold == 1e-6


def test_domain_validation() -> None:
    with pytest.raises(ValueError, match=r"empty interval \(1.0, -1.0\)"):
        Domain(box=((1.0, -1.0),) * 4)
    with pytest.raises(ValueError, match="excluded_threshold must be positive"):
        Domain(excluded_threshold=0.0)


def test_a_box_whose_width_overflows_is_refused() -> None:
    """Each bound is finite but hi - lo is not: np.linspace used to give
    the coordinates [nan, inf, 1e308], with RuntimeWarnings, and a zero-set
    scan to find no cluster there without a word."""
    with pytest.raises(ValueError, match=r"interval \(-1e\+308, 1e\+308\) is too wide: its width overflows"):
        Domain(((-1e308, 1e308),) * 4)
    with pytest.raises(ValueError, match="its width overflows"):
        Domain.from_flat([-1.0, 1.0, -1.0, 1.0, 0.0, 1.0, -1e308, 1e308])
    # the widest intervals are still sampled, at finite coordinates
    axes = grid_axes(Domain(((-8.9e307, 8.9e307),) * 4), 3)
    assert axes == [[-8.9e307, 0.0, 8.9e307]] * 4


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



@pytest.mark.parametrize("grid_n, size", [(2, 16), (2, 5), (5, 625), (5, 96), (5, 1000)])
def test_grid_blocks_follow_the_lattice_order(monkeypatch: pytest.MonkeyPatch, grid_n: int, size: int) -> None:
    """x1 slowest, y2 fastest, across blocks of any size: the columns
    hold the grid_axes values at the lattice indices in product order."""
    monkeypatch.setattr(qfc.domain, "BLOCK_POINTS", size)
    d = Domain(box=((0.0, 1.0), (-2.0, 0.5), (3.0, 3.5), (-1.0, 1.0)))
    axes = grid_axes(d, grid_n)
    blocks = list(grid_blocks(d, grid_n))
    assert all(len(z) == 4 for z in blocks)
    assert [len(z[0]) for z in blocks[:-1]] == [size] * (len(blocks) - 1)
    coords = [p for z in blocks for p in zip(*(c.tolist() for c in z))]
    lattice = product(range(grid_n), repeat=4)
    assert coords == [tuple(axes[k][i] for k, i in enumerate(idx)) for idx in lattice]
    assert [Point4.from_reals(*p) for p in coords] == grid_points(d, grid_n)
