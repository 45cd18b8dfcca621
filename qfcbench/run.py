#!/usr/bin/env python3
"""Benchmark qfc the way a user runs it: one command per fresh interpreter.

    python3 qfcbench/run.py --workload grid --seed 1 --seconds 40 --trace 0
    python3 qfcbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a qfc source tree.  A run replays the workload's fixed
request list pass after pass, one request at a time (a closed loop with one
client), for about --seconds seconds, and checks every output against
closed forms once the pass's clock has stopped.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are job_s, setup_s and peak_rss_mb; with --trace 1
untraced and traced passes alternate and the metrics are the per-layer
numbers of the traced passes plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever a child does
SETUP_SAMPLES_BEFORE = 3  # fresh-import samples taken before the first pass
SETUP_SAMPLES_AFTER = 2  # and after each pass, so they spread over the run


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QFC_THREADS", None)  # unset: serial evaluation
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass
class Exit:
    code: int
    wall_s: float
    maxrss_kb: int


def spawn(argv: list[str], log: Path, timeout: float) -> Exit:
    """Run argv to its end; its wall time and peak resident set size."""
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=err, stderr=err, env=child_env(), cwd=ROOT
        )
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_maxrss)


@dataclass
class Pass:
    traced: bool
    job_s: float
    peak_rss_mb: float
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    unwrapped: list[str] = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.requests, files = workloads.build(workload, seed, workdir)
        for path, text in files.items():
            Path(path).write_text(text, encoding="utf-8")
        self.log = workdir / "stderr.log"
        self.hard_deadline = deadline

    def remaining(self) -> float:
        return self.hard_deadline - time.perf_counter()

    def setup_sample(self) -> float:
        return spawn([sys.executable, "-c", "import qfc.cli"], self.log, self.remaining()).wall_s

    def run_pass(self, number: int, traced: bool) -> Pass:
        outs = [self.workdir / f"{r.name}.json" for r in self.requests]
        spans = [self.workdir / f"pass{number}-{r.name}.spans" for r in self.requests] if traced else []
        for out in outs:
            out.unlink(missing_ok=True)
        exits = []
        t0 = time.perf_counter()
        for k, (r, out) in enumerate(zip(self.requests, outs)):
            if traced:
                head = [sys.executable, str(HERE / "tracer.py"), str(spans[k])]
            else:
                head = [sys.executable, "-m", "qfc.cli"]
            argv = [*head, *r.args, "--format", "json", "--out", str(out)]
            exits.append(spawn(argv, self.log, self.remaining()))
        job_s = time.perf_counter() - t0

        spec = self.workdir / "pass.json"
        spec.write_text(json.dumps({
            "workload": self.workload,
            "seed": self.seed,
            "workdir": str(self.workdir),
            "exits": [e.code for e in exits],
            "spans": [str(s) for s in spans],
        }), encoding="utf-8")
        checked = subprocess.run(
            [sys.executable, str(HERE / "check_pass.py"), str(spec)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(self.remaining(), 1.0),
        )
        if checked.returncode != 0:
            raise RuntimeError(f"checking pass {number} failed: {checked.stderr[-2000:]}")
        result = Pass(traced, job_s, max(e.maxrss_kb for e in exits) / 1024.0, **json.loads(checked.stdout))
        for s in spans:
            s.unlink(missing_ok=True)
            Path(f"{s}.json").unlink(missing_ok=True)
        return result


def check_tree() -> str | None:
    if not (SRC / "qfc" / "cli.py").is_file():
        return f"no qfc source tree at {SRC}; run from the root of a qfc checkout"
    probe = subprocess.run(
        [sys.executable, "-c", "import qfc.cli, sys; sys.stdout.write(qfc.cli.__file__)"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
    )
    where = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        return f"qfc.cli does not import from {SRC}: {probe.stderr.strip()[-500:] or where}"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-t{int(trace)}-", dir=RUNS))
    try:
        runner = Runner(name, seed, workdir, t_start + HARD_LIMIT_S)
        deadline = t_start + seconds
        setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES_BEFORE)]
        passes: list[Pass] = []
        while True:
            t0 = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            passes.append(runner.run_pass(len(passes), traced))
            setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES_AFTER)]
            one_pass = time.perf_counter() - t0
            if passes[-1].unexpected or runner.remaining() < 2 * one_pass:
                break
            # start another pass only if at least half of it fits the window
            if time.perf_counter() + one_pass / 2 > deadline and (not trace or len(passes) >= 2):
                break
        return summarize(name, passes, setup, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(name: str, passes: list[Pass], setup: list[float], trace: bool) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    metrics = {}
    if trace:
        if traced:
            for m, value in traced[0].layers.items():
                if m.endswith("_s"):
                    metrics[m] = {"value": statistics.median(p.layers[m] for p in traced), "unit": "s"}
                else:
                    unit = {"jets.jets_per_point": "jets/point", "report.bytes": "bytes"}.get(m, "count")
                    metrics[m] = {"value": value, "unit": unit}
            overhead = statistics.median(p.job_s for p in traced) - statistics.median(
                p.job_s for p in plain
            )
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "job_s": {"value": statistics.median(p.job_s for p in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in plain), "unit": "MB"},
        }
    unexpected = [u for p in passes for u in p.unexpected]
    for p in passes:
        for line in p.unexpected[:5]:
            print(f"[{name}] wrong output: {line}", file=sys.stderr)
    for line in sorted({k for p in passes for k in p.known}):
        print(f"[{name}] known fault: {line}", file=sys.stderr)
    counts = [{m: v for m, v in p.layers.items() if not m.endswith("_s")} for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        print(f"[{name}] per-layer counts differ between traced passes", file=sys.stderr)
    for u in sorted({u for p in traced for u in p.unwrapped}):
        print(f"[{name}] tracer found no call site for {u}", file=sys.stderr)
    return {
        "correct": not unexpected and (not trace or bool(traced)),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        "passes": len(passes),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = check_tree()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(f"{name}: {res['passes']} passes, {res['attempted']} operations attempted, "
              f"{res['failed']} failed, correct {str(res['correct']).lower()}")
        for metric, m in res["metrics"].items():
            print(f"  {name}/{metric} = {m['value']:.6g} {m['unit']}")
        sys.stdout.flush()
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
