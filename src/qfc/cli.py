"""Command line interface.

Subcommands: classify, residuals, verify-paper, zero-set, order.
Exit codes: 0 success, 1 verification failure, 2 parse error or an
expression nested too deeply, 3 inconclusive (too many masked points, or
every grid point of a zero or pole scan skipped).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import classify, residual_reports
from .domain import Domain
from .errors import InconclusiveError, ParseError
from .expr import parse_definitions
from .lowering import QFunction, lower
from .report import (
    CSV_HEADER,
    SCHEMA,
    dumps_json,
    render_text_table,
    residual_csv_rows,
)
from .verify import run_verify
from .zeros import estimate_order, pole_set_scan, zero_set_scan

_FORMATS = ("text", "json", "csv")

_DEFAULTS: dict[str, object] = {
    "input": None,
    "box": "-1,1,-1,1,-1,1,-1,1",
    "grid": 6,
    "tol": 1e-8,
    "mask": 1e-6,
    "format": "text",
    "seed": 0,
    "out": None,
    "kind": "zero",
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None
    box: tuple[float, ...]
    grid_n: int
    tol: float
    mask_threshold: float
    output_format: str
    seed: int
    out: str | None
    kind: str

    def domain(self) -> Domain:
        return Domain.from_flat(self.box, self.mask_threshold)

    def embedded(self) -> dict:
        """The reproducibility-relevant part, embedded in reports."""
        d: dict = {
            "box": list(self.box),
            "grid": self.grid_n,
            "tol": self.tol,
            "mask": self.mask_threshold,
            "seed": self.seed,
        }
        if self.input_path is not None:
            d["input"] = self.input_path
        if self.command == "order":
            d["kind"] = self.kind
        return d


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


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
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
    try:
        box = tuple(float(x) for x in parts)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad box bound: {exc}") from exc
    for lo, hi in zip(box[0::2], box[1::2]):
        if not (lo <= hi) or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParseError(f"bad box interval ({lo}, {hi})")

    try:
        grid_n = int(cfg["grid"])
        tol = float(cfg["tol"])
        mask = float(cfg["mask"])
        seed = int(cfg["seed"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad numeric option: {exc}") from exc
    fmt = str(cfg["format"])
    kind = str(cfg["kind"])
    if grid_n < 2:
        raise ParseError("grid must be at least 2")
    if not (tol > 0.0) or not (mask > 0.0):
        raise ParseError("tol and mask must be positive")
    if fmt not in _FORMATS:
        raise ParseError(f"format must be one of {', '.join(_FORMATS)}")
    if kind not in ("zero", "pole"):
        raise ParseError("kind must be zero or pole")
    return RunConfig(
        command=args.command,
        input_path=cfg["input"] if cfg["input"] is None else str(cfg["input"]),
        box=box,
        grid_n=grid_n,
        tol=tol,
        mask_threshold=mask,
        output_format=fmt,
        seed=seed,
        out=cfg["out"] if cfg["out"] is None else str(cfg["out"]),
        kind=kind,
    )


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_functions(cfg: RunConfig) -> list[tuple[str, QFunction]]:
    if not cfg.input_path:
        raise ParseError(f"--input is required for {cfg.command}")
    try:
        text = Path(cfg.input_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    return [(name, lower(expr)) for name, expr in parse_definitions(text).items()]


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _finite_or_str(x: float):
    return x if math.isfinite(x) else repr(x)


def _fmt_order(x) -> str:
    return f"{x:.4f}" if isinstance(x, float) else str(x)


def _cmd_classify(cfg: RunConfig) -> int:
    functions = _load_functions(cfg)
    d = cfg.domain()
    results = []
    for name, f in functions:
        try:
            label, reports = classify(f, d, cfg.grid_n, cfg.tol)
        except InconclusiveError as exc:
            print(f"inconclusive: {name}: {exc}", file=sys.stderr)
            return 3
        results.append((name, label, reports))

    if cfg.output_format == "json":
        doc = {
            "schema": SCHEMA,
            "command": "classify",
            "config": cfg.embedded(),
            "functions": [
                {
                    "name": name,
                    "label": label.label,
                    "tolerance": label.tol,
                    "reports": [r.to_dict() for r in reports],
                }
                for name, label, reports in results
            ],
        }
        _emit(dumps_json(doc), cfg)
    elif cfg.output_format == "csv":
        rows = []
        for name, label, reports in results:
            rows.extend(residual_csv_rows(reports, prefix=(name, label.label)))
        _emit(_csv_text(["function", "label", *CSV_HEADER], rows), cfg)
    else:
        chunks = []
        for name, label, reports in results:
            chunks.append(f"{name}: {label.label} (tol {label.tol:g})\n")
            chunks.append(render_text_table(reports))
            chunks.append("\n")
        _emit("".join(chunks), cfg)
    return 0


def _cmd_residuals(cfg: RunConfig) -> int:
    functions = _load_functions(cfg)
    d = cfg.domain()
    results = []
    for name, f in functions:
        reports = residual_reports(f, d, cfg.grid_n)
        if not reports[0].rows:
            print(f"inconclusive: {name}: every grid point is masked", file=sys.stderr)
            return 3
        results.append((name, reports))

    if cfg.output_format == "json":
        doc = {
            "schema": SCHEMA,
            "command": "residuals",
            "config": cfg.embedded(),
            "functions": [
                {"name": name, "reports": [r.to_dict() for r in reports]}
                for name, reports in results
            ],
        }
        _emit(dumps_json(doc), cfg)
    elif cfg.output_format == "csv":
        rows = []
        for name, reports in results:
            rows.extend(residual_csv_rows(reports, prefix=(name,)))
        _emit(_csv_text(["function", *CSV_HEADER], rows), cfg)
    else:
        chunks = []
        for name, reports in results:
            chunks.append(f"{name}\n")
            chunks.append(render_text_table(reports))
            chunks.append("\n")
        _emit("".join(chunks), cfg)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    items = run_verify(seed=cfg.seed, grid_n=cfg.grid_n, tol=cfg.tol)
    all_passed = all(it.passed for it in items)

    if cfg.output_format == "json":
        doc = {
            "schema": SCHEMA,
            "command": "verify-paper",
            "config": cfg.embedded(),
            "all_passed": all_passed,
            "items": [
                {
                    "name": it.name,
                    "passed": it.passed,
                    "worst_residual": it.worst_residual,
                    "detail": it.detail,
                }
                for it in items
            ],
        }
        _emit(dumps_json(doc), cfg)
    elif cfg.output_format == "csv":
        rows = [
            [it.name, str(it.passed), repr(it.worst_residual), it.detail]
            for it in items
        ]
        _emit(_csv_text(["item", "passed", "worst_residual", "detail"], rows), cfg)
    else:
        lines = [
            f"{'PASS' if it.passed else 'FAIL'}  {it.name:<26} "
            f"worst {it.worst_residual:.3e}  {it.detail}"
            for it in items
        ]
        n_pass = sum(it.passed for it in items)
        lines.append(f"{n_pass}/{len(items)} checks passed")
        _emit("\n".join(lines) + "\n", cfg)

    if not all_passed:
        worst = max(it.worst_residual for it in items if not it.passed)
        print(f"verification failed, worst residual {worst:.6e}", file=sys.stderr)
        return 1
    return 0


def _cmd_zero_set(cfg: RunConfig) -> int:
    functions = _load_functions(cfg)
    d = cfg.domain()
    results = []
    for name, f in functions:
        try:
            results.append((name, zero_set_scan(f, d, cfg.grid_n, cfg.tol)))
        except InconclusiveError as exc:
            print(f"inconclusive: {name}: {exc}", file=sys.stderr)
            return 3

    if cfg.output_format == "json":
        doc = {
            "schema": SCHEMA,
            "command": "zero-set",
            "config": cfg.embedded(),
            "functions": [
                {
                    "name": name,
                    "cluster_count": len(clusters),
                    "clusters": [
                        [list(p.reals()) for p in cluster] for cluster in clusters
                    ],
                }
                for name, clusters in results
            ],
        }
        _emit(dumps_json(doc), cfg)
    elif cfg.output_format == "csv":
        rows = []
        for name, clusters in results:
            for ci, cluster in enumerate(clusters):
                for p in cluster:
                    rows.append([name, str(ci), *(repr(c) for c in p.reals())])
        _emit(_csv_text(["function", "cluster", "x1", "y1", "x2", "y2"], rows), cfg)
    else:
        chunks = []
        for name, clusters in results:
            chunks.append(f"{name}: {len(clusters)} cluster(s)\n")
            for ci, cluster in enumerate(clusters):
                head = ", ".join(
                    "(" + ", ".join(f"{c:.4g}" for c in p.reals()) + ")"
                    for p in cluster[:4]
                )
                more = "" if len(cluster) <= 4 else f" and {len(cluster) - 4} more"
                chunks.append(f"  cluster {ci}: {len(cluster)} point(s): {head}{more}\n")
        _emit("".join(chunks), cfg)
    return 0


def _cmd_order(cfg: RunConfig) -> int:
    functions = _load_functions(cfg)
    d = cfg.domain()
    results = []
    for name, f in functions:
        scan = zero_set_scan if cfg.kind == "zero" else pole_set_scan
        try:
            clusters = scan(f, d, cfg.grid_n, cfg.tol)
        except InconclusiveError as exc:
            print(f"inconclusive: {name}: {exc}", file=sys.stderr)
            return 3
        estimates = []
        for ci, cluster in enumerate(clusters):
            q = cluster[0]
            try:
                est = estimate_order(
                    f, q, cfg.kind, seed=cfg.seed, zero_tol=cfg.tol
                )
            except ValueError as exc:
                estimates.append({"cluster": ci, "error": str(exc)})
                continue
            estimates.append(
                {
                    "cluster": ci,
                    "location": list(q.reals()),
                    "kind": est.kind,
                    "order": _finite_or_str(est.order),
                    "display_order": _finite_or_str(est.display_order),
                    "per_component": [_finite_or_str(x) for x in est.per_component],
                }
            )
        results.append((name, estimates))

    if cfg.output_format == "json":
        doc = {
            "schema": SCHEMA,
            "command": "order",
            "config": cfg.embedded(),
            "functions": [
                {"name": name, "estimates": ests} for name, ests in results
            ],
        }
        _emit(dumps_json(doc), cfg)
    elif cfg.output_format == "csv":
        rows = []
        for name, ests in results:
            for e in ests:
                if "error" in e:
                    rows.append([name, str(e["cluster"]), "", "", "", "", e["error"]])
                else:
                    rows.append(
                        [
                            name,
                            str(e["cluster"]),
                            str(e["order"]),
                            str(e["display_order"]),
                            str(e["per_component"][0]),
                            str(e["per_component"][1]),
                            "",
                        ]
                    )
        header = ["function", "cluster", "order", "display_order", "comp1", "comp2", "note"]
        _emit(_csv_text(header, rows), cfg)
    else:
        chunks = []
        for name, ests in results:
            chunks.append(f"{name}: {len(ests)} candidate cluster(s)\n")
            for e in ests:
                if "error" in e:
                    chunks.append(f"  cluster {e['cluster']}: {e['error']}\n")
                else:
                    loc = ", ".join(f"{c:.4g}" for c in e["location"])
                    chunks.append(
                        f"  cluster {e['cluster']} at ({loc}): {cfg.kind} order "
                        f"{_fmt_order(e['display_order'])} (components "
                        f"{_fmt_order(e['per_component'][0])}, "
                        f"{_fmt_order(e['per_component'][1])})\n"
                    )
        _emit("".join(chunks), cfg)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "residuals": _cmd_residuals,
    "verify-paper": _cmd_verify,
    "zero-set": _cmd_zero_set,
    "order": _cmd_order,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        code = _COMMANDS[cfg.command](cfg)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nests too deeply to evaluate", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())
