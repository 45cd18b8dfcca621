"""Command line interface.

Subcommands: classify, residuals, verify-paper, zero-set, order.
Exit codes: 0 success, 1 verification failure, 2 bad input (a parse error,
a file that is not UTF-8, a bad option such as a non-finite --tol, a box
wider than a float or a grid too large to index, or an --out path that
cannot be written), 3 inconclusive (too many masked points, or every grid
point of a zero or pole scan skipped).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .analysis import DEFAULT_TOL, classify, residual_reports
from .domain import DEFAULT_MASK_THRESHOLD, Domain
from .errors import InconclusiveError, ParseError
from .expr import parse_definitions
from .lowering import QFunction, lower
from .report import SCHEMA, write_report
from .verify import run_verify
from .zeros import estimate_order, pole_set_scan, zero_set_scan

_FORMATS = ("text", "json", "csv")
_MAX_GRID = math.isqrt(math.isqrt(sys.maxsize))  # the largest grid whose grid**4 points index

_DEFAULTS: dict[str, object] = {
    "input": None,
    "box": "-1,1,-1,1,-1,1,-1,1",
    "grid": 6,
    "tol": DEFAULT_TOL,
    "mask": DEFAULT_MASK_THRESHOLD,
    "format": "text",
    "seed": 0,
    "out": None,
    "kind": "zero",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="definitions file with 'name = expression' lines")
    common.add_argument(
        "--box",
        help="eight comma-separated bounds: x1 lo,x1 hi,y1 lo,y1 hi,x2 lo,x2 hi,y2 lo,y2 hi",
    )
    common.add_argument("--grid", type=int, help="grid points per axis (default 6)")
    common.add_argument("--tol", type=float, help="residual tolerance (default 1e-8)")
    common.add_argument(
        "--mask", type=float, help="norm_sq masking threshold (default 1e-6)"
    )
    common.add_argument("--format", choices=_FORMATS, help="output format (default text)")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--config", help="JSON config file; explicit flags win")

    p = argparse.ArgumentParser(
        prog="qfc",
        description="classify and verify quaternion-valued functions of two "
        "complex variables by their first-order PDE residuals",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("classify", parents=[common], help="label each input function")
    sub.add_parser(
        "residuals", parents=[common], help="per-point residual tables per function"
    )
    sub.add_parser(
        "verify-paper", parents=[common], help="run the built-in identity checks"
    )
    sub.add_parser("zero-set", parents=[common], help="scan for zero clusters")
    po = sub.add_parser(
        "order", parents=[common], help="estimate zero or pole orders at clusters"
    )
    po.add_argument("--kind", choices=("zero", "pole"), help="candidate type")
    return p


def _resolve(args: argparse.Namespace) -> dict:
    """The options merged from _DEFAULTS, the config file and the flags,
    validated, under their own names, and the command."""
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError("config file must hold a JSON object")
        for k, v in data.items():
            if k not in cfg:
                raise ParseError(f"unknown config key {k!r}")
            cfg[k] = v
    for k in cfg:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v

    raw_box = cfg["box"]
    if isinstance(raw_box, str):
        parts = [s for s in raw_box.split(",") if s.strip()]
    elif isinstance(raw_box, (list, tuple)):
        parts = list(raw_box)
    else:
        raise ParseError("box must be a comma-separated string or a list")
    if len(parts) != 8:
        raise ParseError("box needs exactly eight bounds")
    if any(isinstance(x, bool) for x in parts):
        raise ParseError("bad box bound: a bound must be a number, not a boolean")
    try:
        cfg["box"] = box = tuple(float(x) for x in parts)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad box bound: {exc}") from exc
    for lo, hi in zip(box[0::2], box[1::2]):
        if not (lo <= hi) or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParseError(f"bad box interval ({lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ParseError(f"bad box interval ({lo}, {hi}): its width overflows")

    for k in ("grid", "tol", "mask", "seed"):
        # refuse what the flags' types refuse and int() or float() would cast
        v = cfg[k]
        fractional = k in ("grid", "seed") and isinstance(v, float) and math.isfinite(v) and not v.is_integer()
        if isinstance(v, bool) or fractional:
            raise ParseError(f"bad numeric option: {k} {json.dumps(v)}")
    try:
        for k, cast in (("grid", int), ("tol", float), ("mask", float), ("seed", int)):
            cfg[k] = cast(cfg[k])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad numeric option: {exc}") from exc
    for k in ("input", "format", "out", "kind"):
        # refuse what str() would cast: only input and out may be unset
        v = cfg[k]
        if not (isinstance(v, str) or (v is None and k in ("input", "out"))):
            raise ParseError(f"bad option: {k} {json.dumps(v)} is not a string")
    grid, tol, mask, seed = cfg["grid"], cfg["tol"], cfg["mask"], cfg["seed"]
    fmt, kind, out = cfg["format"], cfg["kind"], cfg["out"]
    if grid < 2:
        raise ParseError("grid must be at least 2")
    if grid > _MAX_GRID:
        raise ParseError(f"grid must be at most {_MAX_GRID}, so that its grid^4 points can be indexed")
    if seed < 0:
        raise ParseError("seed must be non-negative")
    if not (0.0 < tol < math.inf and 0.0 < mask < math.inf):
        raise ParseError("tol and mask must be positive and finite")
    if fmt not in _FORMATS:
        raise ParseError(f"format must be one of {', '.join(_FORMATS)}")
    if kind not in ("zero", "pole"):
        raise ParseError("kind must be zero or pole")
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        reason = "it is a directory" if os.path.isdir(out) else "its directory does not exist"
        raise ParseError(f"cannot write --out {out}: {reason}")
    cfg["command"] = args.command
    return cfg


def _embedded(cfg: dict) -> dict:
    """The reproducibility-relevant options, embedded in reports."""
    d = {"box": list(cfg["box"]), **{k: cfg[k] for k in ("grid", "tol", "mask", "seed")}}
    if cfg["input"] is not None:
        d["input"] = cfg["input"]
    if cfg["command"] == "order":
        d["kind"] = cfg["kind"]
    return d


def _load_functions(cfg: dict) -> list[tuple[str, QFunction]]:
    if not cfg["input"]:
        raise ParseError(f"--input is required for {cfg['command']}")
    try:
        text = Path(cfg["input"]).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    return [(name, lower(expr)) for name, expr in parse_definitions(text).items()]


def _finite_or_str(x: float):
    return x if math.isfinite(x) else repr(x)


def _classify(cfg: dict, f: QFunction, d: Domain) -> dict:
    label, reports = classify(f, d, cfg["grid"], cfg["tol"])
    return {"label": label.label, "tolerance": label.tol, "reports": reports}


def _residuals(cfg: dict, f: QFunction, d: Domain) -> dict:
    reports = residual_reports(f, d, cfg["grid"])
    if not len(reports[0].points):
        raise InconclusiveError("every grid point is masked")
    return {"reports": reports}


def _zero_set(cfg: dict, f: QFunction, d: Domain) -> dict:
    clusters = zero_set_scan(f, d, cfg["grid"], cfg["tol"])
    return {
        "cluster_count": len(clusters),
        "clusters": [[list(p.reals()) for p in cluster] for cluster in clusters],
    }


def _estimate(cfg: dict, f: QFunction, ci: int, q) -> dict:
    try:
        est = estimate_order(f, q, cfg["kind"], seed=cfg["seed"], zero_tol=cfg["tol"])
    except ValueError as exc:
        return {"cluster": ci, "error": str(exc)}
    return {
        "cluster": ci,
        "location": list(q.reals()),
        "kind": est.kind,
        "order": _finite_or_str(est.order),
        "display_order": _finite_or_str(est.display_order),
        "per_component": [_finite_or_str(x) for x in est.per_component],
    }


def _order(cfg: dict, f: QFunction, d: Domain) -> dict:
    scan = zero_set_scan if cfg["kind"] == "zero" else pole_set_scan
    clusters = scan(f, d, cfg["grid"], cfg["tol"])
    return {"estimates": [_estimate(cfg, f, ci, cluster[0]) for ci, cluster in enumerate(clusters)]}


# Each command but verify-paper runs once per input function, and the
# function's entry of the document is its name and what the command returns.
_PER_FUNCTION = {"classify": _classify, "residuals": _residuals, "zero-set": _zero_set, "order": _order}


def _document(cfg: dict) -> dict:
    """The command's report: the schema, the command, its embedded config
    and the command's results."""
    command = cfg["command"]
    doc = {"schema": SCHEMA, "command": command, "config": _embedded(cfg)}
    if command == "verify-paper":
        items = run_verify(seed=cfg["seed"], grid_n=cfg["grid"], tol=cfg["tol"])
        doc["all_passed"] = all(it.passed for it in items)
        doc["items"] = [asdict(it) for it in items]
        return doc
    functions, d = _load_functions(cfg), Domain.from_flat(cfg["box"], cfg["mask"])
    doc["functions"] = []
    for name, f in functions:
        try:
            doc["functions"].append({"name": name, **_PER_FUNCTION[command](cfg, f, d)})
        except InconclusiveError as exc:
            raise InconclusiveError(f"{name}: {exc}") from None
    return doc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        doc = _document(cfg)
        if cfg["out"]:
            try:
                fh = open(cfg["out"], "w", encoding="utf-8")
            except OSError as exc:
                raise ParseError(f"cannot write --out {cfg['out']}: {exc.strerror}") from exc
            with fh:
                write_report(doc, cfg["format"], fh)
        else:
            write_report(doc, cfg["format"], sys.stdout)
        sys.stdout.flush()
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # keep the interpreter's shutdown flush from reporting the pipe again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
    failed = [it["worst_residual"] for it in doc.get("items", ()) if not it["passed"]]
    if failed:
        print(f"verification failed, worst residual {max(failed):.6e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
