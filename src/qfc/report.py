"""Residual reports and the JSON, CSV and text writers of a command's
document.

A document is the dict of JSON values one command produces, with each
residual table held as a ResidualReport.  write_report renders it a piece
at a time.  Its JSON is json's own encoder, sort_keys=True, indent=2,
allow_nan=False, plus a newline.  Only each report is laid out here and
spliced in where the encoder meets it.  Both table writers hold one batch
of _BATCH_ROWS rows at a time: they format each distinct coordinate of the
batch once, take the batch's residuals as floats, and lay out its rows
from one fixed template, so their memory does not grow with the table or
the number of functions.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import MASK_REASONS

SCHEMA = "qfc-report/1"
_BATCH_ROWS = 256


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Residual magnitudes of one PDE system over a point sample.

    points holds the unmasked points as rows (x1, y1, x2, y2) and
    residuals the per-equation residual magnitudes at each of them, one
    row per point; both are float64.  masked holds the masked points' rows
    and reasons their MASK_REASONS codes, so output never contains NaN.
    """

    system: str
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    residuals: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))
    masked: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    reasons: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))

    def __post_init__(self):
        bad = ~(np.isfinite(self.residuals) & (self.residuals >= 0.0))
        if bad.any():
            raise ValueError(
                f"residual magnitudes must be finite and non-negative, got {self.residuals[bad][0]}"
            )
        if len(self.points) != len(self.residuals) or len(self.masked) != len(self.reasons):
            raise ValueError("each point needs a row of residuals, and each masked point a reason")
        # a set, not np.isin or np.setdiff1d, whose first call adds 0.3-1 MB to a request's peak
        if unknown := set(self.reasons.tolist()) - MASK_REASONS.keys():
            raise ValueError(f"mask reasons must be MASK_REASONS codes, got {sorted(unknown)}")

    def _flat(self) -> Iterator[float]:
        """The residuals in row order, one batch's floats at a time."""
        return chain.from_iterable(batch.ravel().tolist() for batch in _batches(self.residuals))

    @cached_property
    def max_residual(self) -> float:
        return max(self._flat(), default=0.0)

    @cached_property
    def mean_residual(self) -> float:
        # One left-to-right sum: numpy's pairwise summation, or partial sums
        # added together, can move the last bit of the reported mean.
        return sum(self._flat()) / self.residuals.size if self.residuals.size else 0.0


def write_report(doc: dict, fmt: str, out: IO[str]) -> None:
    """Write a command's document to out as "json", "csv" or "text"."""
    csv_rows, text = _LAYOUTS[doc["command"]]
    if fmt == "json":
        out.writelines(chain(_json_pieces(doc), ("\n",)))
    elif fmt == "csv":
        out.writelines(csv_rows(doc))
    else:
        out.writelines(text(doc))


def _batches(rows: np.ndarray) -> Iterator[np.ndarray]:
    return (rows[start : start + _BATCH_ROWS] for start in range(0, len(rows), _BATCH_ROWS))


def _coord_text(points: np.ndarray) -> Iterator[list]:
    """Each batch of points as its four columns of coordinate reprs,
    formatting each distinct value of the batch (by bits: -0.0 is not
    0.0) once."""
    for batch in _batches(points):
        bits, inverse = np.unique(batch.view(np.int64), return_inverse=True)
        text = np.array([float.__repr__(x) for x in bits.view(np.float64).tolist()], dtype=object)
        yield text[inverse.reshape(batch.shape).T].tolist()


def _json_pieces(doc: dict) -> Iterator[str]:
    """json's encoding of doc, sort_keys=True, indent=2, allow_nan=False,
    in pieces, with each ResidualReport laid out by _report_json.

    The encoder's default returns "" for a report, and the report replaces
    the piece the encoder yields next, the encoding of that "": the call
    marks it, not its text, so a "" of the document's own stays.  This
    assumes non-one-shot iterencode is json's pure-Python generator, which
    calls default lazily, between pieces.
    """
    reports: list[ResidualReport] = []

    def default(obj):
        if isinstance(obj, ResidualReport):
            reports.append(obj)
            return ""
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    encoder = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False, default=default)
    indent = ""
    for piece in encoder.iterencode(doc):
        if reports:
            yield from _report_json(reports.pop(), indent)
            continue
        yield piece
        if "\n" in piece:  # the newline and indent before a report are a piece of their own
            indent = piece.rpartition("\n")[2]


def _row_template(indent: str, fields: tuple[tuple[str, str, int | None], ...]) -> str:
    """The layout at indent of a dict whose sorted keys are fields' names,
    each value a list of n slots or, for n None, the one slot."""
    inner, leaf = indent + "  ", indent + "    "
    body = []
    for key, slot, n in fields:
        value = slot if n is None else "".join(_json_rows([[leaf + slot] * n], inner))
        body.append(f'{inner}"{key}": {value}')
    return f"{indent}{{\n" + ",\n".join(body) + f"\n{indent}}}"


def _json_rows(batches: Iterable[Iterable[str]], indent: str) -> Iterator[str]:
    """A list at indent of rows already laid out, one batch a piece."""
    opening = "[\n"
    for batch in batches:
        yield opening + ",\n".join(batch)
        opening = ",\n"
    yield "[]" if opening == "[\n" else f"\n{indent}]"


def _report_json(rep: ResidualReport, indent: str) -> Iterator[str]:
    inner, item = indent + "  ", indent + "    "
    if not (np.isfinite(rep.points).all() and np.isfinite(rep.masked).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    max_text, mean_text = (json.dumps(x, allow_nan=False) for x in (rep.max_residual, rep.mean_residual))
    point = ("point", "%s", 4)  # coordinate reprs
    masked_row = _row_template(item, (point, ("reason", "%s", None))).__mod__
    point_row = _row_template(item, (point, ("residuals", "%r", rep.residuals.shape[1]))).__mod__
    reason = {c: _json_str(r) for c, r in MASK_REASONS.items()}.__getitem__
    masked = zip(_coord_text(rep.masked), _batches(rep.reasons))
    yield f'{{\n{inner}"masked": '
    yield from _json_rows((map(masked_row, zip(*c, map(reason, r.tolist()))) for c, r in masked), inner)
    yield (
        f',\n{inner}"max_residual": {max_text},\n'
        f'{inner}"mean_residual": {mean_text},\n'
        f'{inner}"points": '
    )
    points = zip(_coord_text(rep.points), _batches(rep.residuals))
    yield from _json_rows((map(point_row, zip(*c, *r.T.tolist())) for c, r in points), inner)
    yield f',\n{inner}"system": {_json_str(rep.system)}\n{indent}}}'


# CSV: each command's header, then its rows.

CSV_HEADER = ["system", "x1", "y1", "x2", "y2", "equation", "residual", "note"]


def _csv_row(fields: list[str]) -> str:
    """One CSV line, quoted as csv.writer quotes it."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()


def _residual_csv(doc: dict) -> Iterator[str]:
    """One row per point per equation; masked points carry the reason.
    A report's text fields are quoted once and its rows laid out from
    templates, for no repr of a number and no MASK_REASONS text needs quoting."""
    labelled = doc["command"] == "classify"
    yield _csv_row(["function", *(["label"] if labelled else []), *CSV_HEADER])
    for fn in doc["functions"]:
        prefix = (fn["name"], fn["label"]) if labelled else (fn["name"],)
        for rep in fn["reports"]:
            head = _csv_row([*prefix, rep.system])[:-1].replace("%", "%%")
            row = "".join(f"{head},%s,%s,%s,%s,{k},%r,\n" for k in range(rep.residuals.shape[1])).__mod__
            for coords, res in zip(_coord_text(rep.points), _batches(rep.residuals)):
                yield "".join(map(row, zip(*chain.from_iterable((*coords, col) for col in res.T.tolist()))))
            masked_row = f"{head},%s,%s,%s,%s,,,%s\n".__mod__
            for coords, codes in zip(_coord_text(rep.masked), _batches(rep.reasons)):
                yield "".join(map(masked_row, zip(*coords, map(MASK_REASONS.__getitem__, codes.tolist()))))


def _verify_csv(doc: dict) -> Iterator[str]:
    yield _csv_row(["item", "passed", "worst_residual", "detail"])
    for it in doc["items"]:
        yield _csv_row([it["name"], str(it["passed"]), repr(it["worst_residual"]), it["detail"]])


def _zero_set_csv(doc: dict) -> Iterator[str]:
    yield _csv_row(["function", "cluster", "x1", "y1", "x2", "y2"])
    for fn in doc["functions"]:
        for ci, cluster in enumerate(fn["clusters"]):
            for p in cluster:
                yield _csv_row([fn["name"], str(ci), *(repr(c) for c in p)])


def _order_csv(doc: dict) -> Iterator[str]:
    yield _csv_row(["function", "cluster", "order", "display_order", "comp1", "comp2", "note"])
    for fn in doc["functions"]:
        for e in fn["estimates"]:
            if "error" in e:
                yield _csv_row([fn["name"], str(e["cluster"]), "", "", "", "", e["error"]])
            else:
                values = (e["order"], e["display_order"], *e["per_component"])
                yield _csv_row([fn["name"], str(e["cluster"]), *map(str, values), ""])


# Text: summaries for reading in a terminal.


def render_text_table(reports: list[ResidualReport]) -> str:
    """Aligned summary table, one line per system."""
    header = ("system", "points", "masked", "max residual", "mean residual")
    body = [
        (
            rep.system,
            str(len(rep.points)),
            str(len(rep.masked)),
            f"{rep.max_residual:.3e}",
            f"{rep.mean_residual:.3e}",
        )
        for rep in reports
    ]
    widths = [
        max(len(header[k]), *(len(row[k]) for row in body)) if body else len(header[k])
        for k in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _residual_text(doc: dict) -> Iterator[str]:
    for fn in doc["functions"]:
        if doc["command"] == "classify":
            yield f"{fn['name']}: {fn['label']} (tol {fn['tolerance']:g})\n"
        else:
            yield f"{fn['name']}\n"
        yield render_text_table(fn["reports"])
        yield "\n"


def _verify_text(doc: dict) -> Iterator[str]:
    items = doc["items"]
    for it in items:
        yield (
            f"{'PASS' if it['passed'] else 'FAIL'}  {it['name']:<26} "
            f"worst {it['worst_residual']:.3e}  {it['detail']}\n"
        )
    yield f"{sum(it['passed'] for it in items)}/{len(items)} checks passed\n"


def _coords(p: list[float]) -> str:
    return ", ".join(f"{c:.4g}" for c in p)


def _zero_set_text(doc: dict) -> Iterator[str]:
    for fn in doc["functions"]:
        yield f"{fn['name']}: {fn['cluster_count']} cluster(s)\n"
        for ci, cluster in enumerate(fn["clusters"]):
            head = ", ".join(f"({_coords(p)})" for p in cluster[:4])
            more = "" if len(cluster) <= 4 else f" and {len(cluster) - 4} more"
            yield f"  cluster {ci}: {len(cluster)} point(s): {head}{more}\n"


def _fmt_order(x) -> str:
    return f"{x:.4f}" if isinstance(x, float) else str(x)


def _order_text(doc: dict) -> Iterator[str]:
    kind = doc["config"]["kind"]
    for fn in doc["functions"]:
        yield f"{fn['name']}: {len(fn['estimates'])} candidate cluster(s)\n"
        for e in fn["estimates"]:
            if "error" in e:
                yield f"  cluster {e['cluster']}: {e['error']}\n"
            else:
                comp1, comp2 = map(_fmt_order, e["per_component"])
                yield (
                    f"  cluster {e['cluster']} at ({_coords(e['location'])}): {kind} order "
                    f"{_fmt_order(e['display_order'])} (components {comp1}, {comp2})\n"
                )


# command -> its CSV and text writers
_LAYOUTS = {
    "classify": (_residual_csv, _residual_text),
    "residuals": (_residual_csv, _residual_text),
    "verify-paper": (_verify_csv, _verify_text),
    "zero-set": (_zero_set_csv, _zero_set_text),
    "order": (_order_csv, _order_text),
}
