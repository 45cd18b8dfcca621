"""Tests of the benchmark's own parts: its inputs, its output checks and its
tracer.  Run from the root of the repository:

    python3 -m pytest -q qfcbench

Each check must accept the program's real output on a small grid and
reject that output once one number in it is made wrong.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qfc.cli import main as qfc_main  # noqa: E402

SMALL = 3  # grid of the small runs: odd, so the origin is a node and gets masked


def qfc_json(tmp: Path, name: str, definitions: list[tuple[str, str]] | None, *args: str) -> dict:
    argv = list(args)
    if definitions is not None:
        src = tmp / f"{name}.txt"
        src.write_text("".join(f"{n} = {e}\n" for n, e in definitions), encoding="utf-8")
        argv += ["--input", str(src)]
    out = tmp / f"{name}.json"
    assert qfc_main([*argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("outputs")


@pytest.fixture(scope="module")
def classify_doc(tmp) -> dict:
    return qfc_json(tmp, "classify", workloads.curated_definitions(), "classify", "--grid", str(SMALL))


@pytest.fixture(scope="module")
def cheap() -> list[checks.CheapFunction]:
    return workloads.cheap_functions(seed=7)


@pytest.fixture(scope="module")
def residuals_doc(tmp, cheap) -> dict:
    return qfc_json(tmp, "residuals", [(f.name, f.text) for f in cheap], "residuals", "--grid", str(SMALL))


@pytest.fixture(scope="module")
def planted() -> list[checks.PlantedZero]:
    return workloads.planted_zeros(seed=7, n=5)[:3]


@pytest.fixture(scope="module")
def order_doc(tmp, planted) -> dict:
    return qfc_json(tmp, "order", [(z.name, z.text) for z in planted], "order", "--grid", "5")


@pytest.fixture(scope="module")
def zero_set_doc(tmp, planted) -> dict:
    return qfc_json(tmp, "zero_set", [(z.name, z.text) for z in planted], "zero-set", "--grid", "5")


@pytest.fixture(scope="module")
def verify_doc(tmp) -> dict:
    return qfc_json(tmp, "verify", None, "verify-paper", "--seed", "11", "--grid", str(SMALL))


def function(doc: dict, name: str) -> dict:
    return next(f for f in doc["functions"] if f["name"] == name)


def report(doc: dict, name: str, system: str) -> dict:
    return next(r for r in function(doc, name)["reports"] if r["system"] == system)


def test_curated_definitions_round_trip_to_the_curated_pairs():
    from qfc.expr import parse, unparse
    from qfc.generators import curated_hyperholomorphic
    from qfc.lowering import lower

    curated = curated_hyperholomorphic()
    assert [n for n, _ in curated] == [n for n, _, _ in workloads.CURATED]
    for (name, f), (_, f1, f2), (_, text) in zip(
        curated, workloads.CURATED, workloads.curated_definitions()
    ):
        assert (unparse(f.f1), unparse(f.f2)) == (f1, f2), name
        assert lower(parse(text)) == f, name


def test_linspace_matches_numpy_bit_for_bit():
    import numpy as np

    for n in range(2, 30):
        assert checks.linspace(-1.0, 1.0, n) == np.linspace(-1.0, 1.0, n).tolist()


def test_inputs_depend_on_the_seed_only_through_their_numbers():
    a, b = workloads.cheap_functions(1), workloads.cheap_functions(2)
    assert [f.name for f in a] == [f.name for f in b]
    assert [f.text for f in a] != [f.text for f in b]
    assert [f.text for f in a] == [f.text for f in workloads.cheap_functions(1)]
    pa = workloads.planted_zeros(1, workloads.SCAN_GRID)
    assert sorted((z.k, z.m) for z in pa) == [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]


def test_classify_check_accepts_the_real_output_and_rejects_a_wrong_label(classify_doc):
    check = checks.classify_check(SMALL)
    assert check(classify_doc, 0) == []
    bad = copy.deepcopy(classify_doc)
    function(bad, "holomorphic_pair")["label"] = "Holomorphic"
    assert any("label" in p for p in check(bad, 0))
    assert check(classify_doc, 3) == ["exit code 3"]


def test_classify_check_rejects_a_second_component_off_by_1e6(classify_doc):
    bad = copy.deepcopy(classify_doc)
    row = report(bad, "real_component_square", "second_component")["points"][5]
    row["residuals"][0] *= 1 + 1e-6
    assert checks.classify_check(SMALL)(bad, 0)


def test_residuals_check_accepts_the_real_output(residuals_doc, cheap):
    assert checks.residuals_check(SMALL, cheap)(residuals_doc, 0) == []


@pytest.mark.parametrize(
    "name, system",
    [
        ("antiholomorphic_pair", "inverse_hyperholomorphy"),
        ("antiholomorphic_pair", "sum_pde"),
        ("control", "hyperholomorphy"),
    ],
)
def test_residuals_check_rejects_a_closed_form_off_by_1e6_relative(residuals_doc, cheap, name, system):
    bad = copy.deepcopy(residuals_doc)
    row = next(r for r in report(bad, name, system)["points"] if max(r["residuals"]) > 0.1)
    k = row["residuals"].index(max(row["residuals"]))
    row["residuals"][k] *= 1 + 1e-6
    problems = checks.residuals_check(SMALL, cheap)(bad, 0)
    assert problems == [f"{name}/{system}: 1 rows off their closed forms"]


def test_residuals_check_rejects_a_kernel_member_off_the_kernel(residuals_doc, cheap):
    bad = copy.deepcopy(residuals_doc)
    report(bad, "right_combination_1", "hyperholomorphy")["points"][0]["residuals"][1] = 1e-3
    assert checks.residuals_check(SMALL, cheap)(bad, 0)


def test_residuals_check_rejects_a_masked_count_that_does_not_match(residuals_doc, cheap):
    check = checks.residuals_check(SMALL, cheap)
    # the origin is masked for the antiholomorphic pair: unmask it ...
    bad = copy.deepcopy(residuals_doc)
    rep = report(bad, "antiholomorphic_pair", "sum_pde")
    assert len(rep["masked"]) == 1
    rep["points"].append({"point": rep["masked"].pop()["point"], "residuals": [0.0]})
    assert any("masked points" in p for p in check(bad, 0))
    # ... or mask a point whose norm is 1
    bad = copy.deepcopy(residuals_doc)
    rep = report(bad, "control", "hyperholomorphy")
    rep["masked"].append({"point": rep["points"].pop(0)["point"], "reason": "singular"})
    assert any("masked points" in p for p in check(bad, 0))
    # ... or drop a row, so rows and masked points no longer cover the grid
    bad = copy.deepcopy(residuals_doc)
    report(bad, "linear_example", "real_linear")["points"].pop()
    assert any("do not cover" in p for p in check(bad, 0))


@pytest.mark.parametrize("shift", [-1, 1])
def test_order_check_rejects_an_order_of_k_plus_or_minus_one(order_doc, planted, shift):
    check = checks.order_check(planted)
    assert check(order_doc, 0) == []
    bad = copy.deepcopy(order_doc)
    z = planted[0]
    estimate = function(bad, z.name)["estimates"][0]
    estimate["display_order"] += shift
    estimate["order"] += shift
    assert any("order" in p for p in check(bad, 0))
    bad = copy.deepcopy(order_doc)
    function(bad, z.name)["estimates"][0]["per_component"][0] = z.k + shift
    assert any("component orders" in p for p in check(bad, 0))


def test_zero_set_check_rejects_a_cluster_off_the_planted_node(zero_set_doc, planted):
    check = checks.zero_set_check(planted)
    assert check(zero_set_doc, 0) == []
    bad = copy.deepcopy(zero_set_doc)
    point = function(bad, planted[1].name)["clusters"][0][0]
    point[0] += 0.5 if point[0] < 0.5 else -0.5
    assert check(bad, 0)
    bad = copy.deepcopy(zero_set_doc)
    function(bad, planted[2].name)["clusters"].append([[0.0, 0.0, 0.0, 0.0]])
    assert check(bad, 0)


def test_off_grid_order_check_fails_today_and_accepts_the_right_answer(tmp):
    check = checks.off_grid_order_check(workloads.SCAN_GRID)
    doc = qfc_json(tmp, "off_grid", [("off_grid", checks.OFF_GRID_TEXT)], "order", "--grid", "5")
    assert check(doc, 0)  # the known fault: no cluster
    right = copy.deepcopy(doc)
    right["functions"][0]["estimates"] = [
        {"cluster": 0, "display_order": 1.0, "kind": "zero", "location": [0.3, 0.0, 0.1, 0.0],
         "order": 1.0, "per_component": [1.0, 1.0]}
    ]
    assert check(right, 0) == []


def test_verify_check_rejects_a_missing_item(verify_doc):
    check = checks.verify_check(11)
    assert check(verify_doc, 0) == []
    bad = copy.deepcopy(verify_doc)
    del bad["items"][3]
    assert any("items" in p for p in check(bad, 0))
    bad = copy.deepcopy(verify_doc)
    bad["items"][0]["passed"] = False
    assert check(bad, 0)
    assert checks.verify_check(12)(verify_doc, 0)
    assert check(verify_doc, 1) == ["exit code 1"]


def traced_counts(tmp: Path, tag: str, definitions: Path) -> dict:
    counts = {}
    for name, args in (
        ("residuals", ["residuals", "--input", str(definitions), "--grid", str(SMALL)]),
        ("verify", ["verify-paper", "--seed", "5", "--grid", str(SMALL)]),
        ("order", ["order", "--input", str(definitions), "--grid", str(SMALL)]),
    ):
        spans = tmp / f"{tag}-{name}.spans"
        out = tmp / f"{tag}-{name}.json"
        subprocess.run(
            [sys.executable, str(HERE / "tracer.py"), str(spans), *args, "--format", "json", "--out", str(out)],
            check=True, env=run.child_env(), timeout=120,
        )
        metrics, unwrapped = layers.pass_layers([spans])
        assert unwrapped == []
        counts[name] = {m: metrics[m] for m in layers.COUNTS}
        assert all(metrics[m] >= 0.0 for m in layers.SELF_TIMES)
    return counts


def test_two_traced_runs_report_identical_counts(tmp, cheap):
    definitions = tmp / "traced.txt"
    definitions.write_text(
        "".join(f"{f.name} = {f.text}\n" for f in cheap[:3]) + f"off = {checks.OFF_GRID_TEXT}\n",
        encoding="utf-8",
    )
    first = traced_counts(tmp, "a", definitions)
    assert first == traced_counts(tmp, "b", definitions)
    assert first["residuals"]["jets.jet_evals"] > 0
    assert first["residuals"]["analysis.masked"] == 17 + 9 + 1  # z1 z2, linear example, antiholomorphic pair
    assert first["verify"]["verify.items"] == len(checks.VERIFY_ITEMS)
    assert first["order"]["zeros.scan_points"] == 4 * SMALL**4
    assert first["order"]["jets.jet_evals"] == 0  # the value-only path
