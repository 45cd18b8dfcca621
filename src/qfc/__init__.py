"""Symbolic-numeric toolkit for quaternion-valued functions of two
complex variables: expression trees, Wirtinger forward-mode jets, the
modified Cauchy-Fueter operator, PDE residual systems, a classifier,
and zero/pole order estimation.

The package exports the names of README's Library example; everything
else is imported from its module."""
from __future__ import annotations

from .analysis import cauchy_fueter_from_jets, classify, hyperholomorphy_from_jets
from .domain import Domain
from .errors import SingularPointError
from .expr import parse
from .jets import Point4, jets_at
from .lowering import inverse_qf, lower
from .quaternion import Quaternion
from .zeros import estimate_order, zero_set_scan

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "Point4",
    "Quaternion",
    "SingularPointError",
    "cauchy_fueter_from_jets",
    "classify",
    "estimate_order",
    "hyperholomorphy_from_jets",
    "inverse_qf",
    "jets_at",
    "lower",
    "parse",
    "zero_set_scan",
]
