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


def _run_alone(argv: list[str], cwd: Path | None = None) -> tuple[int, str, str]:
    """The command in a process of its own, which prints what a run leaks
    to stderr, numpy's RuntimeWarnings and tracebacks included."""
    src = str(Path(qfc.__file__).resolve().parents[1])
    alone = subprocess.run(
        [sys.executable, "-m", "qfc.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        cwd=cwd,
        check=False,
    )
    return alone.returncode, alone.stdout, alone.stderr


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


_UNMASKED = "inconclusive: f: only 0 of 16 grid points are unmasked\n"
_SKIPPED = "inconclusive: f: every grid point is skipped (16 overflow)\n"
# text, exit code, classify's stderr, and zero-set's and order's stderr
_NOT_FINITE = [
    ("f = 1e999 * z1", 2, *["error: line 1: number 1e999 is not a finite float (at position 0)\n"] * 2),
    ("f = -1e999", 2, *["error: line 1: number 1e999 is not a finite float (at position 1)\n"] * 2),
    ("f = 1e200 * 1e200 * z1", 3, _UNMASKED, _SKIPPED),
    ("f = 1e308 + 1e308 + z1", 3, _UNMASKED, _SKIPPED),
    ("f = 10 ^ 400 * z1", 3, _UNMASKED, _SKIPPED),
]


@pytest.mark.parametrize(
    "text, code, message, command",
    [
        (text, code, message if command == "classify" else scan_message, command)
        for text, code, message, scan_message in _NOT_FINITE
        for command in ("classify", "zero-set", "order")
    ],
)
def test_constants_that_are_not_finite_are_refused_or_masked(
    capsys, tmp_path: Path, text: str, code: int, message: str, command: str
) -> None:
    """A literal that reads as inf used to end in the parser's ValueError,
    and a constant fold that overflows in lower's ValueError or
    OverflowError, each a traceback with exit 1.  zero-set and order used
    to scan an infinite value that raised nothing as finite, and exit 0
    with no cluster."""
    path = tmp_path / "f.txt"
    path.write_text(text + "\n", encoding="utf-8")
    assert _run(capsys, [command, "--input", str(path), "--grid", "2"]) == (code, "", message)


@pytest.mark.parametrize("command", ["classify", "residuals", "zero-set", "order"])
def test_an_exponent_that_no_float_holds_is_refused(capsys, tmp_path: Path, command: str) -> None:
    """z1^(10^400) used to end in the jets' OverflowError, int too large
    to convert to float, a traceback with exit 1; one of 5,001 digits in
    int's ValueError, past the digits it reads from text.  z1^(10^300)
    stays a function whose every point is masked as overflow."""
    path = tmp_path / "f.txt"
    for digits in (400, 5000):
        path.write_text(f"f = z1^1{'0' * digits} + z2*j\n", encoding="utf-8")
        message = "error: line 1: exponent is too large for a float (at position 3)\n"
        assert _run(capsys, [command, "--input", str(path), "--grid", "2"]) == (2, "", message)
    path.write_text(f"f = z1^1{'0' * 300} + z2*j\n", encoding="utf-8")
    assert _run(capsys, [command, "--input", str(path), "--grid", "2"])[0] == 3


def test_files_that_are_not_utf8_are_refused(capsys, tmp_path: Path, funcs_file: str) -> None:
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"f = z1\xff\n")
    code, _, err = _run(capsys, ["classify", "--input", str(bad)])
    assert code == 2 and err.startswith("error: cannot read input file: 'utf-8' codec can't decode byte 0xff")
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"grid": 2}\xff')
    code, _, err = _run(capsys, ["classify", "--input", funcs_file, "--config", str(cfg)])
    assert code == 2 and err.startswith("error: cannot read config file: 'utf-8' codec can't decode byte 0xff")


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
    # A whole number runs in any spelling JSON has for it.
    for grid in (3, 3.0, "3"):
        cfg.write_text(json.dumps({"grid": grid}), encoding="utf-8")
        code, out, _ = _run(capsys, ["classify", "--input", funcs_file, "--config", str(cfg), "--format", "json"])
        assert (code, json.loads(out)["config"]["grid"]) == (0, 3)
    bad = tmp_path / "badcfg.json"
    bad.write_text(json.dumps({"grid_n": 4}), encoding="utf-8")
    code, _, err = _run(capsys, ["classify", "--input", funcs_file, "--config", str(bad)])
    assert code == 2 and err == "error: unknown config key 'grid_n'\n"


_ROUND_TRIP_BOX = "--box=-1,1,-0.5,1,-1,1,-1,0.75"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--grid", "3", "--tol", "1e-7", "--mask", "1e-5", "--seed", "2"],
        ["residuals", "--grid", "3", "--mask", "1e-5"],
        ["zero-set", "--grid", "5", "--tol", "0.4", "--seed", "1"],
        ["order", "--kind", "pole", "--grid", "4", "--tol", "0.4", "--seed", "3"],
        ["verify-paper", "--grid", "2", "--tol", "1e-7", "--seed", "5"],
    ],
)
def test_the_embedded_config_reruns_the_report(capsys, tmp_path: Path, funcs_file: str, argv: list[str]) -> None:
    """Each option has one name as a flag, a config key and an embedded
    key, so a report's config, saved as a config file, gives the report
    back."""
    inputs = [] if argv[0] == "verify-paper" else ["--input", funcs_file]
    code, out, err = _run(capsys, [*argv, *inputs, _ROUND_TRIP_BOX, "--format", "json"])
    assert (code, err) == (0, "")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads(out)["config"]), encoding="utf-8")
    assert _run(capsys, [argv[0], "--config", str(cfg), "--format", "json"]) == (0, out, "")


def test_out_file_holds_the_report(capsys, tmp_path: Path, funcs_file: str) -> None:
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["residuals", "--input", funcs_file, "--grid", "2", "--out", str(out_path), "--format", "json"])
    assert code == 0 and out == ""
    text = out_path.read_text(encoding="utf-8")
    assert "NaN" not in text
    doc = json.loads(text)
    assert doc["schema"] == "qfc-report/1"


@pytest.mark.parametrize(
    "target, reason",
    [
        (".", "it is a directory"),
        ("nope/r.json", "its directory does not exist"),
        ("funcs.txt/r.json", "its directory does not exist"),
    ],
)
def test_unwritable_out_exits_2_before_computing(
    capsys, monkeypatch: pytest.MonkeyPatch, tmp_path: Path, funcs_file: str, target: str, reason: str
) -> None:
    monkeypatch.setattr(qfc.cli, "_document", lambda cfg: pytest.fail("computed before checking --out"))
    path = tmp_path / target
    code, out, err = _run(capsys, ["classify", "--input", funcs_file, "--out", str(path)])
    assert (code, out, err) == (2, "", f"error: cannot write --out {path}: {reason}\n")


def test_out_that_fails_to_open_exits_2(capsys, tmp_path: Path, funcs_file: str) -> None:
    path = tmp_path / ("r" * 300)  # longer than a file name may be
    code, out, err = _run(capsys, ["residuals", "--input", funcs_file, "--grid", "2", "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out {path}: ")
    code, _, err = _run_alone(["verify-paper", "--grid", "2", "--out", str(tmp_path)])
    assert (code, err) == (2, f"error: cannot write --out {tmp_path}: it is a directory\n")



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
    assert _run_alone(argv) == (code, out, err)
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


@pytest.mark.parametrize("command", ["zero-set", "order"])
@pytest.mark.parametrize(
    "box, expected",
    [
        # x1 = 0 is on the grid, so the zero at the origin is still found
        ("--box=-1e10,1e10,-1,1,-1,1,-1,1", 0),
        # z1 is real and at least 1e10 at every point, so z1^40 overflows everywhere
        ("--box=1e10,2e10,0,0,-1,1,-1,1", 3),
    ],
)
def test_scans_skip_overflowing_points(capsys, tmp_path: Path, command: str, box: str, expected: int) -> None:
    path = tmp_path / "big.txt"
    path.write_text("big = z1^40 + z2*j\n", encoding="utf-8")
    argv = [command, "--input", str(path), box, "--grid", "3", "--format", "json"]
    code, out, err = _run_alone(argv)
    assert (code, out, err) == _run(capsys, argv)
    assert code == expected
    if code == 3:
        assert out == "" and err == "inconclusive: big: every grid point is skipped (81 overflow)\n"
        return
    assert err == ""
    (fn,) = json.loads(out)["functions"]
    if command == "zero-set":
        assert fn["clusters"] == [[[0.0, 0.0, 0.0, 0.0]]]
    else:
        (est,) = fn["estimates"]
        assert est["location"] == [0.0, 0.0, 0.0, 0.0] and est["display_order"] == 1.0


def test_a_pole_on_a_grid_node_has_order_one(capsys, tmp_path: Path) -> None:
    path = tmp_path / "pole.txt"
    path.write_text("f = 1 / ((z1 - 0.2) + (z2 + 0.2) * j)\n", encoding="utf-8")
    code, out, err = _run(capsys, ["order", "--input", str(path), "--kind", "pole", "--grid", "11", "--format", "json"])
    assert code == 0 and err == ""
    (est,) = json.loads(out)["functions"][0]["estimates"]
    assert est["location"] == pytest.approx([0.2, 0.0, -0.2, 0.0], abs=1e-12)
    assert est["display_order"] == 1.0


@pytest.mark.parametrize(
    "deep, short, label",
    [
        (" + ".join(["z1"] * 3_000), " + ".join(["z1"] * 300), "Holomorphic"),
        (" + ".join(["z1"] * 10_000), " + ".join(["z1"] * 300), "Holomorphic"),
        ("(" * 10_000 + "z1" + ")" * 10_000, "(" * 200 + "z1" + ")" * 200, "Holomorphic"),
        ("conj(" * 5_000 + "z1 + z2*j" + ")" * 5_000, "conj(" * 4 + "z1 + z2*j" + ")" * 4, "Hyperholomorphic"),
    ],
    ids=["sum-3000", "sum-10000", "parentheses-10000", "conj-5000"],
)
def test_deep_inputs_classify_as_their_short_versions(capsys, tmp_path: Path, deep: str, short: str, label: str) -> None:
    """No input is too deep: parsing, lowering and evaluation walk without
    recursion, so a sum or nesting far past Python's recursion limit gets
    the label of its short version."""
    for name, text in (("deep", deep), ("short", short)):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"f = {text}\n", encoding="utf-8")
        code, out, err = _run(capsys, ["classify", "--input", str(path), "--grid", "3", "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["functions"][0]["label"] == label


def test_an_order_fit_on_one_radius_is_refused(tmp_path: Path) -> None:
    """Around this pole at the box corner, the first component keeps its
    samples at one radius only, so no slope can be fitted: the cluster
    gets an error entry, and numpy prints no warning."""
    path = tmp_path / "corner.txt"
    path.write_text("g = 1 / ((z1 + 1 + i) * (z2 + 1 + i))\n", encoding="utf-8")
    code, out, err = _run_alone(["order", "--input", str(path), "--kind", "pole", "--grid", "2", "--format", "json"])
    assert code == 0 and err == ""
    (est,) = json.loads(out)["functions"][0]["estimates"]
    assert est == {"cluster": 0, "error": "valid samples around the candidate point at fewer than two radii"}


@pytest.mark.parametrize(
    "text",
    ["z1 * ((z2 * 1e300) * 1e300) + z2*j", "(z1 + (z2*1e300)*1e300 - (z2*1e300)*1e300) + z2*j"],
    ids=["infinite", "nan"],
)
def test_an_order_fit_on_non_finite_samples_is_refused(tmp_path: Path, text: str) -> None:
    """f vanishes at grid nodes on the plane z2 = 0, but off it f1 is
    infinite or NaN at every probe, with no event.  Those samples are
    dropped, as the scan skips a point whose value is not finite, so the
    cluster gets an error entry, not order 0."""
    path = tmp_path / "overflow.txt"
    path.write_text(f"f = {text}\n", encoding="utf-8")
    code, out, err = _run_alone(["order", "--input", str(path), "--grid", "5"])
    assert (code, err) == (0, "")
    assert out == "f: 1 candidate cluster(s)\n  cluster 0: too few valid samples around the candidate point\n"



@pytest.mark.parametrize(
    "argv, config",
    [
        (["classify", "--tol", "inf"], None),
        (["zero-set", "--mask", "inf"], None),
        (["residuals", "--tol=-inf"], None),
        (["classify"], '{"tol": Infinity}'),
        (["order"], '{"mask": Infinity}'),
        (["zero-set"], '{"grid": Infinity}'),
        (["verify-paper", "--seed=-1", "--grid", "2"], None),
        (["verify-paper", "--grid", "2"], '{"seed": -3}'),
        (["order", "--seed=-1"], None),
        (["classify"], '{"grid": 2.9}'),
        (["verify-paper", "--grid", "2"], '{"seed": 1.7}'),
        (["classify"], '{"tol": true}'),
        (["zero-set"], '{"mask": false}'),
        (["classify"], '{"grid": true}'),
        (["order"], '{"seed": false}'),
        (["classify"], '{"box": [true, 1, -1, 1, -1, 1, -1, 1]}'),
        (["classify"], '{"out": false}'),
        (["zero-set"], '{"out": 5}'),
        (["classify"], '{"input": 5}'),
        (["residuals"], '{"input": ["funcs.txt"]}'),
        (["classify"], '{"format": ["json"]}'),
        (["order"], '{"kind": 0}'),
        (["classify", "--grid", "55109"], None),
        (["verify-paper", "--grid", "100000000000000000000"], None),
    ],
)
def test_non_finite_options_are_refused(tmp_path: Path, funcs_file: str, argv: list[str], config: str | None) -> None:
    """Bad numeric options are refused with exit 2 and one error line.  An
    infinite tolerance or threshold used to reach the JSON writer and end
    in its ValueError traceback with exit 1; a negative seed ended in
    numpy's traceback in verify-paper, and in order as an error on every
    estimate with exit 0.  A config value the flags' types would refuse,
    a boolean or a fractional grid or seed, used to be cast and run, and
    a string option set to a non-string was cast with str(): {"out": false}
    wrote the report to a file named False.  No file is written."""
    flags = {"--input": funcs_file, "--format": "json"}
    if config is not None:
        (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        for key in json.loads(config):  # a flag would override the config's value
            flags.pop(f"--{key}", None)
    before = sorted(tmp_path.iterdir())
    code, out, err = _run_alone([*argv, *(x for flag in flags.items() for x in flag)], cwd=tmp_path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


W = "z1 + conj(z1) + z2 + conj(z2) + 1 + (-z1 - conj(z1) + z2 + conj(z2) + 2)*j"
F = "z1 + conj(z1) + z2 + conj(z2) + (-z1 - conj(z1) + z2 + conj(z2))*j"
C = "conj(z1) + conj(z2)*j"


def test_closure_is_checked_by_classifying_sums_and_products(capsys, tmp_path: Path) -> None:
    """Closure under sums and both ordered products is read off the labels
    of f + w, f*w and w*f: the linear example f and its shifted copy w stay
    WHypermeromorphic, while the antiholomorphic c and c + w, whose
    inverses fail the system, are only Hyperholomorphic."""
    defs = {
        "f": F, "w": W, "f_plus_w": f"({F}) + ({W})", "f_w": f"({F}) * ({W})", "w_f": f"({W}) * ({F})",
        "c": C, "c_plus_w": f"({C}) + ({W})",
    }
    path = tmp_path / "closure.txt"
    path.write_text("".join(f"{name} = {e}\n" for name, e in defs.items()), encoding="utf-8")
    code, out, err = _run(capsys, ["classify", "--input", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    labels = {fn["name"]: fn["label"] for fn in json.loads(out)["functions"]}
    assert labels == {
        **dict.fromkeys(["f", "w", "f_plus_w", "f_w", "w_f"], "WHypermeromorphic"),
        **dict.fromkeys(["c", "c_plus_w"], "Hyperholomorphic"),
    }


@pytest.mark.parametrize("command", ["classify", "zero-set"])
def test_a_box_whose_width_overflows_is_refused(funcs_file: str, command: str) -> None:
    """Each bound is finite, but hi - lo is not: zero-set used to print
    numpy's warnings and report 0 clusters, classify to exit 3."""
    code, out, err = _run_alone([command, "--input", funcs_file, "--box=-1e308,1e308,-1,1,-1,1,-1,1", "--grid", "3"])
    assert (code, out) == (2, "")
    assert err == "error: bad box interval (-1e+308, 1e+308): its width overflows\n"
    # the widest box whose widths are finite is still sampled
    code, out, err = _run_alone([command, "--input", funcs_file, "--box=-8e307,8e307,-1,1,-1,1,-1,1", "--grid", "3"])
    assert code in (0, 3) and "Warning" not in err and "Traceback" not in err


OUT_CASES = {
    "classify": ["classify", "--grid", "3"],
    "residuals": ["residuals", "--grid", "3"],
    "verify-paper": ["verify-paper", "--grid", "2"],
    "verify-paper-failing": ["verify-paper", "--grid", "2", "--tol", "1e-16"],
    "zero-set": ["zero-set", "--grid", "5", "--tol", "0.4"],
    "order": ["order", "--grid", "5", "--tol", "0.4"],
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("case", sorted(OUT_CASES))
def test_out_file_equals_stdout(tmp_path: Path, funcs_file: str, case: str, fmt: str) -> None:
    argv = [*OUT_CASES[case], "--input", funcs_file, "--format", fmt]
    code, out, err = _run_alone(argv)
    assert code == (1 if case.endswith("failing") else 0) and out
    out_path = tmp_path / "report"
    assert _run_alone([*argv, "--out", str(out_path)]) == (code, "", err)
    assert out_path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_pipe_ends_the_report_quietly(funcs_file: str, fmt: str) -> None:
    """Like `qfc residuals ... | head -c 100`: the reader leaves after 100
    bytes of a report of several megabytes."""
    src = str(Path(qfc.__file__).resolve().parents[1])
    argv = ["residuals", "--input", funcs_file, "--grid", "5", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qfc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b"" and len(head) == 100
