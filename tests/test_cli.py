"""Command-line interface: exit codes, formats, and determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfc
from qfc.cli import main

FUNCS = (
    "# demo functions\n"
    "holo = z1*z2\n"
    "example = z1 + conj(z1) + z2 + conj(z2) + (-z1 - conj(z1) + z2 + conj(z2))*j\n"
    "counter = conj(z1) + conj(z2)*j\n"
)
TINY_BOX = "--box=1e-9,2e-9,1e-9,2e-9,1e-9,2e-9,1e-9,2e-9"


@pytest.fixture()
def funcs_file(tmp_path: Path) -> str:
    path = tmp_path / "funcs.txt"
    path.write_text(FUNCS, encoding="utf-8")
    return str(path)


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_shape_and_labels(capsys, funcs_file: str) -> None:
    code, out, err = _run(capsys, ["classify", "--input", funcs_file, "--grid", "4", "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert sorted(doc) == ["command", "config", "functions", "schema"]
    assert doc["schema"] == "qfc-report/1"
    assert doc["command"] == "classify"
    assert sorted(doc["config"]) == ["box", "grid", "input", "mask", "seed", "tol"]
    labels = {fn["name"]: fn["label"] for fn in doc["functions"]}
    assert labels == {
        "holo": "Holomorphic",
        "example": "WHypermeromorphic",
        "counter": "Hyperholomorphic",
    }
    fn = doc["functions"][0]
    assert sorted(fn) == ["label", "name", "reports", "tolerance"]
    assert [r["system"] for r in fn["reports"]] == [
        "hyperholomorphy",
        "inverse_hyperholomorphy",
        "second_component",
    ]


def test_classify_text_output(capsys, funcs_file: str) -> None:
    code, out, err = _run(capsys, ["classify", "--input", funcs_file, "--grid", "4"])
    assert code == 0
    assert "holo: Holomorphic (tol 1e-08)" in out
    assert "example: WHypermeromorphic (tol 1e-08)" in out
    assert "counter: Hyperholomorphic (tol 1e-08)" in out
    assert "max residual" in out


def test_residuals_json_includes_real_linear_only_for_real_pairs(capsys, funcs_file: str) -> None:
    code, out, _ = _run(capsys, ["residuals", "--input", funcs_file, "--grid", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    systems = {fn["name"]: [r["system"] for r in fn["reports"]] for fn in doc["functions"]}
    assert systems["holo"] == ["hyperholomorphy", "inverse_hyperholomorphy", "sum_pde"]
    assert systems["example"] == ["hyperholomorphy", "inverse_hyperholomorphy", "sum_pde", "real_linear"]
    assert systems["counter"] == ["hyperholomorphy", "inverse_hyperholomorphy", "sum_pde"]


def test_residuals_csv_layout(capsys, funcs_file: str) -> None:
    code, out, _ = _run(capsys, ["residuals", "--input", funcs_file, "--grid", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "function,system,x1,y1,x2,y2,equation,residual,note"
    assert lines[1] == "holo,hyperholomorphy,-1.0,-1.0,-1.0,-1.0,0,0.0,"
    assert len(lines) > 100


def test_verification_command_passes_and_reports(capsys) -> None:
    code, out, err = _run(capsys, ["verify-paper", "--grid", "2", "--format", "text"])
    assert code == 0 and err == ""
    assert "8/8 checks passed" in out
    assert all(line.startswith("PASS") for line in out.splitlines() if "worst" in line)


def test_verification_command_fails_at_an_impossible_tolerance(capsys) -> None:
    code, out, err = _run(capsys, ["verify-paper", "--grid", "2", "--tol", "1e-16", "--format", "text"])
    assert code == 1
    assert err.startswith("verification failed, worst residual")
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_verification_json_is_byte_identical_across_runs(capsys) -> None:
    _, out1, _ = _run(capsys, ["verify-paper", "--grid", "2", "--seed", "3", "--format", "json"])
    _, out2, _ = _run(capsys, ["verify-paper", "--grid", "2", "--seed", "3", "--format", "json"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True
    assert sorted(doc) == ["all_passed", "command", "config", "items", "schema"]


def test_classify_json_is_byte_identical_across_runs(capsys, funcs_file: str) -> None:
    _, out1, _ = _run(capsys, ["classify", "--input", funcs_file, "--grid", "4", "--seed", "3", "--format", "json"])
    _, out2, _ = _run(capsys, ["classify", "--input", funcs_file, "--grid", "4", "--seed", "3", "--format", "json"])
    assert out1 == out2


def test_zero_set_json(capsys, funcs_file: str) -> None:
    code, out, _ = _run(capsys, ["zero-set", "--input", funcs_file, "--grid", "5", "--tol", "0.4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    entry = {fn["name"]: fn for fn in doc["functions"]}["example"]
    assert sorted(entry) == ["cluster_count", "clusters", "name"]
    assert entry["cluster_count"] == 1
    pts = entry["clusters"][0]
    assert len(pts) == 25
    assert all(p[0] == 0.0 and p[2] == 0.0 for p in pts)


def test_order_outputs(capsys, funcs_file: str) -> None:
    code, out, _ = _run(capsys, ["order", "--input", funcs_file, "--grid", "5", "--tol", "0.4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    entries = {fn["name"]: fn for fn in doc["functions"]}
    est = entries["counter"]["estimates"][0]
    assert est["kind"] == "zero"
    assert est["location"] == [0.0, 0.0, 0.0, 0.0]
    assert est["display_order"] == 1.0
    assert abs(est["order"] - 1.0) <= 0.05
    # An identically zero component serializes its infinite slope as a string.
    assert entries["holo"]["estimates"][0]["per_component"][1] == "inf"
    code, out, _ = _run(capsys, ["order", "--input", funcs_file, "--grid", "5", "--tol", "0.4"])
    assert code == 0
    assert "counter: 1 candidate cluster(s)" in out
    assert "zero order 1.0000" in out


def test_error_exit_codes(capsys, tmp_path: Path, funcs_file: str) -> None:
    code, _, err = _run(capsys, ["classify", "--input", str(tmp_path / "nope.txt")])
    assert code == 2 and err.startswith("error: cannot read input file")
    code, _, err = _run(capsys, ["classify", "--input", funcs_file, "--box=-1,1,-1,1,-1,1,-1"])
    assert code == 2 and "box needs exactly eight bounds" in err
    code, _, err = _run(capsys, ["classify", "--input", funcs_file, "--box=1,-1,1,-1,1,-1,1,-1"])
    assert code == 2 and "bad box interval" in err
    code, _, err = _run(capsys, ["classify", "--input", funcs_file, "--box=0,1,0,1,0,x,0,1"])
    assert code == 2 and "bad box bound" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("f = z1 +* 2\n", encoding="utf-8")
    code, _, err = _run(capsys, ["classify", "--input", str(bad)])
    assert code == 2 and err == "error: line 1: unexpected token '*' (at position 4)\n"


def test_inconclusive_exit_codes(capsys, funcs_file: str) -> None:
    code, _, err = _run(capsys, ["classify", "--input", funcs_file, TINY_BOX, "--grid", "2"])
    assert code == 3 and err.startswith("inconclusive:")
    code, _, err = _run(capsys, ["residuals", "--input", funcs_file, TINY_BOX, "--grid", "2"])
    assert code == 3 and "every grid point is masked" in err


def test_config_file_merging(capsys, tmp_path: Path, funcs_file: str) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 4, "tol": 1e-6}), encoding="utf-8")
    code, out, _ = _run(capsys, ["classify", "--input", funcs_file, "--config", str(cfg), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grid"] == 4
    assert doc["config"]["tol"] == 1e-6
    # Explicit flags win over config values.
    code, out, _ = _run(capsys, ["classify", "--input", funcs_file, "--config", str(cfg), "--grid", "5", "--format", "json"])
    doc = json.loads(out)
    assert doc["config"]["grid"] == 5
    bad = tmp_path / "badcfg.json"
    bad.write_text(json.dumps({"grid_n": 4}), encoding="utf-8")
    code, _, err = _run(capsys, ["classify", "--input", funcs_file, "--config", str(bad)])
    assert code == 2 and err == "error: unknown config key 'grid_n'\n"


def test_out_file_holds_the_report(capsys, tmp_path: Path, funcs_file: str) -> None:
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["residuals", "--input", funcs_file, "--grid", "2", "--out", str(out_path), "--format", "json"])
    assert code == 0 and out == ""
    text = out_path.read_text(encoding="utf-8")
    assert "NaN" not in text
    doc = json.loads(text)
    assert doc["schema"] == "qfc-report/1"



def _expected_reason(point: list[float]) -> str | None:
    """Mask reason of z1*z2 at a grid point of the overflow boxes."""
    x1, y1, x2, y2 = point
    if (x1, y1) == (0.0, 0.0) or (x2, y2) == (0.0, 0.0):
        return "norm_sq below threshold"
    if abs(x1) == 1e200 or abs(x2) == 1e200:
        return "overflow"
    return None


@pytest.mark.parametrize(
    "box, grid",
    [
        ("--box=-1e200,1e200,-1,1,-1e200,1e200,-1,1", 3),  # most points overflow
        ("--box=0.5,1e200,0.5,1,0.5,1,0.5,1", 2),  # half of the points overflow
    ],
)
@pytest.mark.parametrize("command", ["classify", "residuals"])
def test_overflowing_points_are_masked(capsys, tmp_path: Path, command: str, box: str, grid: int) -> None:
    path = tmp_path / "holo.txt"
    path.write_text("holo = z1 * z2\n", encoding="utf-8")
    argv = [command, "--input", str(path), box, "--grid", str(grid), "--format", "json"]
    code, out, err = _run(capsys, argv)
    # A command of its own prints what a run leaks to stderr, numpy's
    # RuntimeWarnings included, which pytest would capture here.
    src = str(Path(qfc.__file__).resolve().parents[1])
    alone = subprocess.run(
        [sys.executable, "-m", "qfc.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert (alone.returncode, alone.stdout, alone.stderr) == (code, out, err)
    if code == 3:
        assert command == "classify" and err.startswith("inconclusive:")
        return
    assert code == 0 and err == ""
    assert "Infinity" not in out and "NaN" not in out
    reports = json.loads(out)["functions"][0]["reports"]
    for rep in reports:
        assert len(rep["points"]) + len(rep["masked"]) == grid**4
        for row in rep["points"]:
            assert _expected_reason(row["point"]) is None
        for m in rep["masked"]:
            assert m["reason"] == _expected_reason(m["point"])
    assert any(m["reason"] == "overflow" for m in reports[0]["masked"])


def test_deeply_nested_input_is_refused(capsys, tmp_path: Path) -> None:
    deep = tmp_path / "deep.txt"
    deep.write_text("f = " + " + ".join(["z1"] * 3000) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, ["classify", "--input", str(deep), "--grid", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: expression nests too deeply")
    shallow = tmp_path / "shallow.txt"
    shallow.write_text("f = " + " + ".join(["z1"] * 200) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, ["classify", "--input", str(shallow), "--grid", "3"])
    assert code == 0 and err == ""
    assert "f: Holomorphic" in out
