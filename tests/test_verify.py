"""The built-in verification suite must pass at its default settings."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import qfc
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


def test_verify_paper_does_not_import_numpy_random(tmp_path: Path) -> None:
    """In a process of its own, since other tests import numpy.random here:
    verify-paper's and order's seeded draws are replayed in Python, and
    loading numpy.random would cost each request about 6 MB of memory.
    One interpreter runs verify-paper, and order with both kinds on the
    planted zeros of tests/golden/zeros.txt and on a pole at the same node,
    so that each kind fits one."""
    src = str(Path(qfc.__file__).resolve().parents[1])
    zeros = Path(__file__).resolve().parent / "golden" / "zeros.txt"
    funcs = tmp_path / "funcs.txt"
    funcs.write_text(zeros.read_text(encoding="utf-8") + "node = 1 / ((z1 - 0.5) + (z2 + 0.5)*j)\n", encoding="utf-8")
    outs = [tmp_path / f"{name}.json" for name in ("verify", "zero", "pole")]
    code = (
        "import sys, qfc.cli\n"
        f"assert qfc.cli.main(['verify-paper', '--format', 'json', '--out', {str(outs[0])!r}]) == 0\n"
        f"for kind, out in (('zero', {str(outs[1])!r}), ('pole', {str(outs[2])!r})):\n"
        f"    args = ['order', '--input', {str(funcs)!r}, '--grid', '5', '--kind', kind, '--format', 'json', '--out', out]\n"
        "    assert qfc.cli.main(args) == 0\n"
        "assert 'numpy.random' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
    )
    alone = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False
    )
    assert (alone.returncode, alone.stderr) == (0, "")
    assert outs[0].stat().st_size > 0
    assert [out.read_text(encoding="utf-8").count('"order":') for out in outs[1:]] == [2, 1]
