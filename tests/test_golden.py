"""Golden-output guard: every command in every format, byte for byte.

The files under tests/golden/ hold gzip-compressed reports captured from
the CLI on small fixed inputs.  Any change to evaluation order, masking or
serialization that moves a single byte of a report fails here.
"""

from __future__ import annotations

import gzip
from pathlib import Path

import pytest

from qfc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# command -> arguments; each case runs in GOLDEN with relative input paths,
# since the JSON reports embed the input path.
CASES = {
    "classify": ["classify", "--input", "funcs.txt", "--grid", "3"],
    "residuals": ["residuals", "--input", "funcs.txt", "--grid", "3"],
    "verify-paper": ["verify-paper", "--seed", "0"],
    "zero-set": ["zero-set", "--input", "zeros.txt", "--grid", "5"],
    "order": ["order", "--input", "zeros.txt", "--grid", "5"],
}
FORMATS = ("text", "json", "csv")


def golden_path(command: str, fmt: str) -> Path:
    return GOLDEN / f"{command}.{fmt}.gz"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", sorted(CASES))
def test_report_matches_golden_bytes(
    capsys, monkeypatch: pytest.MonkeyPatch, command: str, fmt: str
) -> None:
    monkeypatch.chdir(GOLDEN)
    code = main([*CASES[command], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == gzip.decompress(golden_path(command, fmt).read_bytes())
