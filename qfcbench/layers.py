"""Per-layer metrics of one traced pass, from the tracer's span files."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# metric -> span name; each is the summed self time of those spans: their
# duration minus the part their child spans cover
SELF_TIMES = {
    "expr.parse_s": "expr.parse",
    "lowering.lower_s": "lowering.lower",
    "lowering.build_s": "lowering.build",
    "jets.jet_s": "jets.jet",
    "jets.value_s": "jets.value",
    "domain.grid_s": "domain.grid",
    "analysis.classify_s": "analysis.classify",
    "analysis.residual_s": "analysis.residual",
    "zeros.scan_s": "zeros.scan",
    "zeros.order_s": "zeros.order",
    "verify.run_s": "verify.run",
    "report.serialize_s": "report.serialize",
    "cli.self_s": "cli.main",
}
# metric -> span name whose spans are counted
SPAN_COUNTS = {"lowering.builds": "lowering.build", "jets.jet_evals": "jets.jet"}
COUNTERS = (
    "lowering.tree_nodes",
    "lowering.distinct_nodes",
    "jets.value_evals",
    "domain.points",
    "analysis.masked",
    "zeros.scan_points",
    "zeros.hits",
    "zeros.clusters",
    "verify.items",
    "report.bytes",
    "report.rows",
)
COUNTS = (*SPAN_COUNTS, *COUNTERS, "jets.jets_per_point", "trace.spans")


def read_spans(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    header = json.loads(Path(f"{path}.json").read_text(encoding="utf-8"))
    n = header["spans"]
    raw = Path(path).read_bytes()
    out, offset = {}, 0
    for field, dtype in (("kind", np.uint16), ("parent", np.int32), ("start", np.float64), ("end", np.float64)):
        out[field] = np.frombuffer(raw, dtype=dtype, count=n, offset=offset)
        offset += n * np.dtype(dtype).itemsize
    return header, out


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    duration = spans["end"] - spans["start"]
    covered = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][has_parent], duration[has_parent])
    return duration - covered


def pass_layers(span_files: list[Path]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics summed over the requests of one pass, and the span
    names the tracer could not attach anywhere."""
    metrics = {m: 0.0 for m in SELF_TIMES}
    metrics.update({m: 0 for m in COUNTS})
    unwrapped: set[str] = set()
    for path in span_files:
        header, spans = read_spans(path)
        names = header["names"]
        own = self_times(spans)
        for metric, name in SELF_TIMES.items():
            metrics[metric] += float(own[spans["kind"] == names.index(name)].sum())
        for metric, name in SPAN_COUNTS.items():
            metrics[metric] += int((spans["kind"] == names.index(name)).sum())
        for c in COUNTERS:
            metrics[c] += header["counters"][c]
        metrics["trace.spans"] += header["spans"]
        unwrapped.update(header["unwrapped"])
    points = metrics["domain.points"]
    metrics["jets.jets_per_point"] = metrics["jets.jet_evals"] / points if points else 0.0
    return metrics, sorted(unwrapped)
