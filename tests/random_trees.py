"""Seeded generators of raw expression trees, for the parser, jet and
lowering tests.

The trees keep the structure they are built with (no constant folding),
and draw everything from a caller-supplied numpy Generator, so a seed
reproduces a tree.
"""
from __future__ import annotations

import numpy as np

from qfc.expr import Add, Conj, ConjVar, Div, Mul, Neg, Pow, QExpr, RealConst, Sub, UnitI, UnitJ, Var

Z1 = Var("z1")
Z2 = Var("z2")
CZ1 = ConjVar("z1")
CZ2 = ConjVar("z2")


def random_scalar_tree(rng: np.random.Generator, depth: int = 4) -> QExpr:
    """A raw j-free tree with unfolded structure, for parser round trips."""
    if depth <= 0 or rng.uniform() < 0.25:
        k = int(rng.integers(0, 6))
        return (
            Z1,
            Z2,
            CZ1,
            CZ2,
            RealConst(round(float(rng.uniform(-2.0, 2.0)), 3)),
            UnitI(),
        )[k]
    k = int(rng.integers(0, 6))
    if k == 0:
        return Add(random_scalar_tree(rng, depth - 1), random_scalar_tree(rng, depth - 1))
    if k == 1:
        return Sub(random_scalar_tree(rng, depth - 1), random_scalar_tree(rng, depth - 1))
    if k == 2:
        return Mul(random_scalar_tree(rng, depth - 1), random_scalar_tree(rng, depth - 1))
    if k == 3:
        return Neg(random_scalar_tree(rng, depth - 1))
    if k == 4:
        return Conj(random_scalar_tree(rng, depth - 1))
    return Pow(random_scalar_tree(rng, depth - 1), int(rng.integers(1, 4)))


def random_surface_tree(rng: np.random.Generator, depth: int = 4) -> QExpr:
    """A raw tree that may contain j and division, for lowering checks."""
    if depth <= 0 or rng.uniform() < 0.2:
        k = int(rng.integers(0, 7))
        return (
            Z1,
            Z2,
            CZ1,
            CZ2,
            RealConst(round(float(rng.uniform(-2.0, 2.0)), 3)),
            UnitI(),
            UnitJ(),
        )[k]
    k = int(rng.integers(0, 7))
    if k == 0:
        return Add(random_surface_tree(rng, depth - 1), random_surface_tree(rng, depth - 1))
    if k == 1:
        return Sub(random_surface_tree(rng, depth - 1), random_surface_tree(rng, depth - 1))
    if k == 2:
        return Mul(random_surface_tree(rng, depth - 1), random_surface_tree(rng, depth - 1))
    if k == 3:
        return Div(
            random_surface_tree(rng, depth - 1),
            Add(random_surface_tree(rng, depth - 1), RealConst(3.0)),
        )
    if k == 4:
        return Neg(random_surface_tree(rng, depth - 1))
    if k == 5:
        return Conj(random_surface_tree(rng, depth - 1))
    return Pow(random_surface_tree(rng, depth - 1), int(rng.integers(1, 3)))
