"""The built-in verification suite must pass at its default settings."""

from __future__ import annotations

import math

from qfc.verify import VerifyItem, run_verify

EXPECTED_ORDER = [
    "hyperholomorphy",
    "product_rule",
    "inverse_system",
    "real_linear_system",
    "sum_pde",
    "product_system",
    "real_combined",
    "meromorphic_substructure",
]


def test_default_run_passes_every_check() -> None:
    items = run_verify(seed=0, grid_n=6, tol=1e-8)
    assert [i.name for i in items] == EXPECTED_ORDER
    assert all(i.passed for i in items)
    for i in items:
        assert isinstance(i, VerifyItem)
        assert math.isfinite(i.worst_residual) and i.worst_residual >= 0.0
        assert i.detail


def test_coarse_grid_also_passes() -> None:
    items = run_verify(seed=0, grid_n=2, tol=1e-8)
    assert all(i.passed for i in items)


def test_impossible_tolerance_fails_the_roundoff_limited_checks() -> None:
    items = run_verify(seed=0, grid_n=3, tol=1e-16)
    failed = [i.name for i in items if not i.passed]
    assert failed == ["product_rule", "inverse_system"]


def test_runs_are_deterministic() -> None:
    a = run_verify(seed=0, grid_n=3, tol=1e-8)
    b = run_verify(seed=0, grid_n=3, tol=1e-8)
    assert a == b
