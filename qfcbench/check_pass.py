"""Check the outputs of one pass and sum its spans.

    python3 qfcbench/check_pass.py PASS_FILE

PASS_FILE, written by run.py, holds the workload, the seed, the run
directory, the exit code of each request and, for a traced pass, the span
files.  Prints one JSON object: operations attempted and failed, the
problems found, and for a traced pass the per-layer metrics.

run.py starts this as its own process after each pass.  Parsing the
outputs in the harness would raise the harness's peak RSS, and every
request process it forks afterwards starts from that peak in `ru_maxrss`.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workdir = Path(spec["workdir"])
    requests, _ = workloads.build(spec["workload"], spec["seed"], workdir)
    result: dict = {"attempted": 0, "failed": 0, "unexpected": [], "known": [], "layers": {}, "unwrapped": []}
    for r, code in zip(requests, spec["exits"], strict=True):
        try:
            doc = json.loads((workdir / f"{r.name}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = None
        problems = r.check(doc, code)
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["known" if r.known_fault else "unexpected"] += [f"{r.name}: {p}" for p in problems]
    if spec["spans"]:
        import layers

        result["layers"], result["unwrapped"] = layers.pass_layers([Path(s) for s in spec["spans"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
