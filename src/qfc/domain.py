"""Evaluation domains and grid sampling."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .jets import Columns

Interval = tuple[float, float]

DEFAULT_BOX: tuple[Interval, Interval, Interval, Interval] = (
    (-1.0, 1.0),
    (-1.0, 1.0),
    (-1.0, 1.0),
    (-1.0, 1.0),
)

# Points evaluated together.  Each jet awaiting a user holds ten float64
# arrays of this length, so memory stays bounded on any grid; elementwise
# arithmetic makes the values independent of it.
BLOCK_POINTS = 4096

# Grid points where the function's squared norm is below this are masked,
# unless --mask gives another threshold.
DEFAULT_MASK_THRESHOLD = 1e-6


@dataclass(frozen=True)
class Domain:
    """A product of four real intervals for (x1, y1, x2, y2).

    excluded_threshold masks grid points where the function under study
    has squared norm below the given value.
    """

    box: tuple[Interval, Interval, Interval, Interval] = DEFAULT_BOX
    excluded_threshold: float = DEFAULT_MASK_THRESHOLD

    def __post_init__(self):
        if len(self.box) != 4:
            raise ValueError("box must have exactly four intervals")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("box bounds must be finite")
            if lo > hi:
                raise ValueError(f"empty interval ({lo}, {hi})")
            if not math.isfinite(hi - lo):
                raise ValueError(f"interval ({lo}, {hi}) is too wide: its width overflows")
        if not (self.excluded_threshold > 0.0):
            raise ValueError("excluded_threshold must be positive")

    @classmethod
    def from_flat(
        cls, bounds: Sequence[float], excluded_threshold: float = DEFAULT_MASK_THRESHOLD
    ) -> Domain:
        if len(bounds) != 8:
            raise ValueError("expected eight bounds: x1 lo, x1 hi, ..., y2 hi")
        box = tuple(
            (float(bounds[2 * k]), float(bounds[2 * k + 1])) for k in range(4)
        )
        return cls(box, excluded_threshold)


def grid_axes(domain: Domain, grid_n: int) -> list[list[float]]:
    """The grid_n values of each of x1, y1, x2, y2."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    return [np.linspace(lo, hi, grid_n).tolist() for (lo, hi) in domain.box]


def grid_blocks(domain: Domain, grid_n: int) -> Iterator[Columns]:
    """The grid_n**4 lattice of the box in blocks of at most BLOCK_POINTS
    points, x1 varying slowest, y2 fastest: each block's coordinate
    columns.  A point's indices into grid_axes are its position in this
    order, unravelled over (grid_n,) * 4."""
    axes = np.array(grid_axes(domain, grid_n))
    total, size = grid_n**4, BLOCK_POINTS
    for start in range(0, total, size):
        lattice = np.unravel_index(np.arange(start, min(start + size, total)), (grid_n,) * 4)
        columns = tuple(axes[k][i] for k, i in enumerate(lattice))
        del lattice  # so the block's indices are not held while it is evaluated
        yield columns
