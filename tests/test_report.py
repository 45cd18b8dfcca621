"""Residual report aggregation and the report writers.

The JSON writer is compared byte for byte with the encoding it replaced:
each report expanded into a dict by a copy of the old
ResidualReport.to_dict, then json.dumps(sort_keys=True, indent=2,
allow_nan=False) plus a newline.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfc.jets import Point4
from qfc.report import (
    _BATCH_ROWS,
    CSV_HEADER,
    SCHEMA,
    MaskedPoint,
    ResidualReport,
    render_text_table,
    write_report,
)

RESIDUAL_LISTS = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)


def _report(system: str, rows: list[tuple[Point4, tuple[float, ...]]], masked=(), k: int = 1) -> ResidualReport:
    points = np.array([p.reals() for p, _ in rows], dtype=float).reshape(-1, 4)
    residuals = np.array([vs for _, vs in rows], dtype=float).reshape(-1, k)
    return ResidualReport(system, points, residuals, list(masked))


def _sample() -> ResidualReport:
    return _report(
        "demo",
        [(Point4(0j, 0j), (0.5, 0.25)), (Point4(1 + 0j, 0j), (0.0, 0.25))],
        [MaskedPoint(Point4(0j, 1j), "singular")],
        k=2,
    )


def _rows(rep: ResidualReport) -> list[tuple[Point4, tuple[float, ...]]]:
    """Each unmasked point with its residual magnitudes."""
    return [(Point4.from_reals(*p), tuple(vs)) for p, vs in zip(rep.points.tolist(), rep.residuals.tolist())]


def _to_dict(rep: ResidualReport) -> dict:
    """The old ResidualReport.to_dict, with its max and mean, over rows."""
    flat = [v for _, vs in _rows(rep) for v in vs]
    return {
        "system": rep.system,
        "max_residual": max(flat, default=0.0),
        "mean_residual": sum(flat) / len(flat) if flat else 0.0,
        "points": [{"point": list(p.reals()), "residuals": list(vs)} for p, vs in _rows(rep)],
        "masked": [{"point": list(m.point.reals()), "reason": m.reason} for m in rep.masked],
    }


def _expand(obj):
    if isinstance(obj, ResidualReport):
        return _to_dict(obj)
    if isinstance(obj, dict):
        return {k: _expand(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_expand(v) for v in obj]
    return obj


def _old_json(doc: dict) -> str:
    return json.dumps(_expand(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _old_csv(doc: dict) -> list[str]:
    """The residual CSV lines as the writer made them before it shared
    coordinate text: repr of each coordinate on every row."""
    labelled = doc["command"] == "classify"
    lines = [",".join(["function", *(["label"] if labelled else []), *CSV_HEADER])]
    for fn in doc["functions"]:
        prefix = [fn["name"], fn["label"]] if labelled else [fn["name"]]
        for rep in fn["reports"]:
            for p, vs in _rows(rep):
                coords = [repr(c) for c in p.reals()]
                lines += [",".join([*prefix, rep.system, *coords, str(k), repr(v), ""]) for k, v in enumerate(vs)]
            for m in rep.masked:
                lines.append(",".join([*prefix, rep.system, *(repr(c) for c in m.point.reals()), "", "", m.reason]))
    return lines


def _write(doc: dict, fmt: str) -> str:
    out = io.StringIO()
    write_report(doc, fmt, out)
    return out.getvalue()


def _doc(command: str, functions: list[dict], **config) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config, "functions": functions}


def test_schema_name() -> None:
    assert SCHEMA == "qfc-report/1"


def test_aggregates() -> None:
    rep = _sample()
    assert rep.max_residual == 0.5
    assert rep.mean_residual == 0.25
    assert _rows(rep) == [(Point4(0j, 0j), (0.5, 0.25)), (Point4(1 + 0j, 0j), (0.0, 0.25))]
    empty = ResidualReport(system="none")
    assert empty.max_residual == 0.0
    assert empty.mean_residual == 0.0
    assert _rows(empty) == []


def test_rejects_invalid_residuals() -> None:
    with pytest.raises(ValueError, match="finite and non-negative"):
        _report("bad", [(Point4(0j, 0j), (-1.0,))])
    with pytest.raises(ValueError, match="finite and non-negative"):
        _report("bad", [(Point4(0j, 0j), (float("nan"),))])
    with pytest.raises(ValueError, match="finite and non-negative"):
        _report("bad", [(Point4(0j, 0j), (0.0, float("inf")))], k=2)


def test_mean_is_the_sequential_sum() -> None:
    """One large residual then many tiny ones: summed left to right each
    tiny one rounds away, while numpy's pairwise sum adds them up first
    and lands a bit higher."""
    values = [1.0] + [1e-16] * 15
    rep = _report("seq", [(Point4(0j, 0j), (v,)) for v in values])
    total = 0.0
    for v in values:
        total += v
    assert np.sum(rep.residuals) != total
    assert rep.mean_residual == total / 16
    assert rep.mean_residual != np.mean(rep.residuals)
    assert rep.mean_residual != np.sum(rep.residuals) / 16


def test_json_report_shape() -> None:
    doc = json.loads(_write(_doc("residuals", [{"name": "f", "reports": [_sample()]}]), "json"))
    d = doc["functions"][0]["reports"][0]
    assert sorted(d) == ["masked", "max_residual", "mean_residual", "points", "system"]
    assert d["system"] == "demo"
    assert d["max_residual"] == 0.5
    assert d["mean_residual"] == 0.25
    assert d["points"][0] == {"point": [0.0, 0.0, 0.0, 0.0], "residuals": [0.5, 0.25]}
    assert d["masked"] == [{"point": [0.0, 0.0, 0.0, 1.0], "reason": "singular"}]


def test_json_rendering_is_deterministic_and_finite() -> None:
    doc = _doc("residuals", [{"name": "f", "reports": [_sample()]}], tol=1e-8)
    text = _write(doc, "json")
    assert text == _write(doc, "json")
    assert text == _old_json(doc)
    assert text.endswith("\n")
    assert "NaN" not in text
    assert json.loads(text) == _expand(doc)
    # Keys are sorted so byte equality is meaningful.
    assert text.index('"masked"') < text.index('"max_residual"')
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write(_doc("residuals", [], tol=bad), "json")
    wide = ResidualReport("wide", np.array([[float("inf"), 0.0, 0.0, 0.0]]), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write(_doc("residuals", [{"name": "f", "reports": [wide]}]), "json")
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write(_doc("residuals", [], tol=object()), "json")


def test_csv_rows_one_line_per_point_per_equation() -> None:
    doc = _doc("residuals", [{"name": "fn", "reports": [_sample()]}])
    lines = _write(doc, "csv").splitlines()
    assert CSV_HEADER == ["system", "x1", "y1", "x2", "y2", "equation", "residual", "note"]
    assert lines == [
        "function,system,x1,y1,x2,y2,equation,residual,note",
        "fn,demo,0.0,0.0,0.0,0.0,0,0.5,",
        "fn,demo,0.0,0.0,0.0,0.0,1,0.25,",
        "fn,demo,1.0,0.0,0.0,0.0,0,0.0,",
        "fn,demo,1.0,0.0,0.0,0.0,1,0.25,",
        "fn,demo,0.0,0.0,0.0,1.0,,,singular",
    ]
    labelled = _doc("classify", [{"name": "fn", "label": "Holomorphic", "tolerance": 1e-8, "reports": [_sample()]}])
    lines = _write(labelled, "csv").splitlines()
    assert lines[0] == "function,label,system,x1,y1,x2,y2,equation,residual,note"
    assert lines[1] == "fn,Holomorphic,demo,0.0,0.0,0.0,0.0,0,0.5,"


def test_text_table_layout() -> None:
    text = render_text_table([_sample()])
    lines = text.splitlines()
    assert lines[0].split() == ["system", "points", "masked", "max", "residual", "mean", "residual"]
    assert lines[2].split() == ["demo", "2", "1", "5.000e-01", "2.500e-01"]


@given(values=RESIDUAL_LISTS)
def test_max_dominates_mean(values: list[float]) -> None:
    rep = _report("prop", [(Point4(0j, 0j), tuple(values))], k=len(values))
    # summation roundoff can push the mean a few ulp past the max
    assert 0.0 <= rep.mean_residual <= rep.max_residual * (1.0 + 1e-12)


@given(values=RESIDUAL_LISTS)
def test_masked_points_do_not_change_aggregates(values: list[float]) -> None:
    rows = [(Point4(0j, 0j), tuple(values))]
    bare = _report("prop", rows, k=len(values))
    masked = _report("prop", rows, [MaskedPoint(Point4(1j, 0j), "singular")], k=len(values))
    assert bare.max_residual == masked.max_residual
    assert bare.mean_residual == masked.mean_residual


# The writer against the old encoding.

SPECIAL = (5e-324, -5e-324, 1e308, -1e308, 0.0, -0.0, 1e16, 1e-16, 0.1, 1 / 3, 2.0**53 + 2)
COORDS = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
RESIDUALS = st.sampled_from([v for v in SPECIAL if v >= 0.0]) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False
)
NAMES = st.sampled_from(["funcs.txt", 'we"ird\\pätH ☃.txt', "", "\x00\x1f "]) | st.text()
POINTS = st.tuples(COORDS, COORDS, COORDS, COORDS).map(lambda c: Point4.from_reals(*c))
REASONS = st.sampled_from(["singular", "norm_sq below threshold", "overflow", 'a "quoted", 100%\r\nreason'])


@st.composite
def reports(draw) -> ResidualReport:
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(POINTS, st.tuples(*[RESIDUALS] * k)), max_size=6))
    masked = draw(st.lists(st.builds(MaskedPoint, POINTS, REASONS), max_size=4))
    return _report(draw(NAMES), rows, masked, k=k)


@st.composite
def documents(draw) -> dict:
    command = draw(st.sampled_from(["classify", "residuals"]))
    config = {"box": [-1.0, 1.0] * 4, "grid": draw(st.integers(2, 9)), "tol": draw(COORDS), "seed": 0}
    if draw(st.booleans()):
        config["input"] = draw(NAMES)
    functions = []
    for _ in range(draw(st.integers(0, 3))):
        fn = {"name": draw(NAMES), "reports": draw(st.lists(reports(), max_size=4))}
        if command == "classify":
            fn.update(label=draw(NAMES), tolerance=draw(COORDS))
        functions.append(fn)
    return _doc(command, functions, **config)


def _csv_writer_rows(doc: dict) -> str:
    """The residual CSV as csv.writer wrote it from one list per point per
    equation, before a report's text fields were quoted once."""
    labelled = doc["command"] == "classify"
    rows = [["function", *(["label"] if labelled else []), *CSV_HEADER]]
    for fn in doc["functions"]:
        prefix = (fn["name"], fn["label"]) if labelled else (fn["name"],)
        for rep in fn["reports"]:
            for c, values in zip(rep.points.tolist(), rep.residuals.tolist()):
                for k, v in enumerate(values):
                    rows.append([*prefix, rep.system, *map(repr, c), str(k), repr(v), ""])
            for m in rep.masked:
                rows.append([*prefix, rep.system, *(repr(c) for c in m.point.reals()), "", "", m.reason])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


_QUOTED = _report(
    'sys,"%s"\n', [(Point4(-0.0 + 1j, 5e-324 + 0j), (0.5, 1e300))], [MaskedPoint(Point4(0j, 1j), 'r,"%d"\r')], k=2
)


@settings(max_examples=50, deadline=None)
@given(doc=documents())
@example(_doc("classify", [{"name": "100% f,\"", "label": "a\nb", "tolerance": 1e-8, "reports": [_QUOTED, _QUOTED]}]))
def test_csv_writer_equals_csv_writer_rows(doc: dict) -> None:
    """Names, labels, systems and reasons that need quoting or hold "%"."""
    assert _write(doc, "csv") == _csv_writer_rows(doc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | COORDS | NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=4),
    max_leaves=20,
)


def _agrees_with_the_old_encoding(doc: dict) -> None:
    """Equal bytes, or both refuse: a mean can overflow to inf."""
    try:
        expected = _old_json(doc)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write(doc, "json")
        return
    assert _write(doc, "json") == expected


@settings(max_examples=200, deadline=None)
@given(doc=documents())
def test_json_writer_equals_the_old_encoding(doc: dict) -> None:
    _agrees_with_the_old_encoding(doc)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_json_writer_equals_json_dumps_on_plain_values(value) -> None:
    _agrees_with_the_old_encoding({"schema": SCHEMA, "command": "verify-paper", "value": value})


def test_json_writer_covers_empty_and_all_masked_reports() -> None:
    p = Point4.from_reals(-0.0, 5e-324, 1e308, 0.1)
    cases = [
        ResidualReport("empty"),
        _report("all-masked", [], [MaskedPoint(p, "overflow"), MaskedPoint(p, "singular")]),
        _report("no-masked", [(p, (1e16, 0.0, 5e-324))], k=3),
    ]
    doc = _doc("residuals", [{"name": "f", "reports": cases}], input='a"b\\c ü.txt')
    text = _write(doc, "json")
    assert text == _old_json(doc)
    assert '"masked": []' in text and '"points": []' in text
    assert '"input": "a\\"b\\\\c \\u00fc.txt"' in text


# Row batches and points arrays shared by reports.

COORD_POOL = np.array([0.0, -0.0, 0.1, -0.1, 1 / 3, 5e-324, -5e-324, 1e308, 2.0**53 + 2])


def _shared_function(name: str, rows: int, seed: int) -> dict:
    """A function whose three reports share one points array drawn from a
    few coordinates, -0.0 and 0.0 among them, as analysis.sample gives."""
    rng = np.random.default_rng(seed)
    points = rng.choice(COORD_POOL, size=(rows, 4))
    masked = [MaskedPoint(Point4.from_reals(-0.0, 0.0, 0.1, -0.0), "singular")]
    reports = [
        ResidualReport(system, points, rng.random((rows, k)), masked)
        for system, k in (("hyperholomorphy", 2), ("inverse_hyperholomorphy", 2), ("sum_pde", 1))
    ]
    return {"name": name, "label": "Holomorphic", "tolerance": 1e-8, "reports": reports}


@pytest.mark.parametrize("rows", [0, 1, _BATCH_ROWS - 1, _BATCH_ROWS, _BATCH_ROWS + 1, 2 * _BATCH_ROWS + 1])
@pytest.mark.parametrize("command", ["classify", "residuals"])
def test_row_batches_and_shared_points_equal_the_old_encoding(rows: int, command: str) -> None:
    functions = [_shared_function("f", rows, 1), _shared_function("g", rows, 2)]
    # h's reports hold f's array again after g's has replaced it in the writer
    functions.append({**functions[0], "name": "h"})
    doc = _doc(command, functions, tol=1e-8)
    assert _write(doc, "json") == _old_json(doc)
    assert _write(doc, "csv").splitlines() == _old_csv(doc)


def test_negative_zero_keeps_its_sign_in_shared_coordinates() -> None:
    points = np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]])
    rep = ResidualReport("signs", points, np.zeros((2, 1)))
    doc = _doc("residuals", [{"name": "f", "reports": [rep, rep]}])
    rows = json.loads(_write(doc, "json"))["functions"][0]["reports"][1]["points"]
    assert [[np.copysign(1.0, c) for c in row["point"]] for row in rows] == [[1, -1, 1, -1], [-1, 1, -1, 1]]
    csv_rows = ["f,signs,0.0,-0.0,0.0,-0.0,0,0.0,", "f,signs,-0.0,0.0,-0.0,0.0,0,0.0,"]
    assert _write(doc, "csv").splitlines()[1:] == csv_rows * 2
    assert _write(doc, "json") == _old_json(doc)


def _write_peak(doc: dict, fmt: str) -> int:
    """Peak bytes traced while writing doc to the null device."""
    with open(os.devnull, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            write_report(doc, fmt, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_memory_holds_one_points_array(fmt: str) -> None:
    """The writers keep the coordinate text of the last points array only,
    so eight functions peak about as high as one."""
    one = _doc("residuals", [_shared_function("f0", 1296, 0)])
    eight = _doc("residuals", [_shared_function(f"f{i}", 1296, i) for i in range(8)])
    for doc in (one, eight):  # caches the reports' aggregates
        _write(doc, fmt)
    assert _write_peak(eight, fmt) < 2 * _write_peak(one, fmt)
