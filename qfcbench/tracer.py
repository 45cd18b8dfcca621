"""Run one qfc command with a span around every call into a layer.

    python3 qfcbench/tracer.py SPANS_FILE <qfc arguments>

Public functions are wrapped where the calling module imported them, so a
span marks a call that crosses a module boundary.  Recursion inside
qfc.jets goes through that module's own globals and is not wrapped, so only
top-level evaluations count.  Spans (name, start, end, parent) are kept in
arrays and written when the command ends: SPANS_FILE holds the arrays and
SPANS_FILE.json the name table, the counters and the request id.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

BUILDERS = ("inverse_qf", "norm_sq_expr", "conj_qf", "product_qf", "sum_qf", "const_qf")
RESIDUALS = (
    "cauchy_fueter",
    "hyperholomorphy_residual",
    "inverse_hyperholomorphy_residual",
    "real_linear_residual",
    "sum_pde_residual",
    "product_rule_check",
    "product_system_residual",
    "real_combined_residual",
)

# span name -> (module, attribute) call sites.  A site whose module does
# not import that name is skipped; a span name left with no site at all is
# listed in the header as "unwrapped".
SITES: dict[str, list[tuple[str, str]]] = {
    "expr.parse": [("qfc.cli", "parse_definitions"), ("qfc.verify", "parse"), ("qfc.generators", "parse")],
    "lowering.lower": [("qfc.cli", "lower"), ("qfc.verify", "lower"), ("qfc.generators", "lower")],
    "lowering.build": [
        (m, f) for m in ("qfc.analysis", "qfc.cli", "qfc.verify", "qfc.zeros") for f in BUILDERS
    ],
    "jets.jet": [("qfc.analysis", "eval_jet"), ("qfc.verify", "eval_jet")],
    "jets.value": [("qfc.cli", "eval_value"), ("qfc.zeros", "eval_value"), ("qfc.verify", "eval_qfunction")],
    "domain.grid": [("qfc.analysis", "grid_points"), ("qfc.cli", "grid_points"), ("qfc.verify", "grid_points")],
    "analysis.classify": [("qfc.cli", "classify")],
    "analysis.residual": [(m, f) for m in ("qfc.cli", "qfc.verify") for f in RESIDUALS],
    "zeros.scan": [("qfc.cli", "zero_set_scan")],
    "zeros.order": [("qfc.cli", "estimate_order")],
    "verify.run": [("qfc.cli", "run_verify")],
    "report.serialize": [("qfc.cli", "dumps_json")],
    "cli.main": [("qfc.cli", "main")],
}


class Trees:
    """Sizes of the structurally distinct component trees handed to an
    evaluator.

    Every node gets a signature, an int shared by all structurally equal
    nodes, memoized by the node's id; so a tree rebuilt at every point
    costs only its new nodes, not a walk over the whole tree.
    """

    def __init__(self, expr_type: type):
        self.expr_type = expr_type
        self.sig_of: dict[int, int] = {}
        self.alive: list = []  # keeps every signed node alive, so ids stay unique
        self.table: dict[tuple, int] = {}
        self.children: list[tuple[int, ...]] = []
        self.size: list[int] = []  # node count of each signature's tree
        self.seen: set[int] = set()
        self.nodes = 0
        self.distinct = 0

    def sig(self, node) -> int:
        s = self.sig_of.get(id(node))
        if s is not None:
            return s
        kids, leaves = [], []
        for v in vars(node).values():
            if isinstance(v, self.expr_type):
                kids.append(self.sig(v))
            else:
                leaves.append(v)
        key = (type(node).__name__, tuple(leaves), tuple(kids))
        s = self.table.get(key)
        if s is None:
            s = self.table[key] = len(self.size)
            self.children.append(tuple(kids))
            self.size.append(1 + sum(self.size[k] for k in kids))
        self.sig_of[id(node)] = s
        self.alive.append(node)
        return s

    def note(self, e) -> None:
        s = self.sig(e)
        if s in self.seen:
            return
        self.seen.add(s)
        self.nodes += self.size[s]
        subtrees: set[int] = set()
        stack = [s]
        while stack:
            x = stack.pop()
            if x not in subtrees:
                subtrees.add(x)
                stack.extend(self.children[x])
        self.distinct += len(subtrees)


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SITES)
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {
            "lowering.tree_nodes": 0,
            "lowering.distinct_nodes": 0,
            "jets.value_evals": 0,
            "domain.points": 0,
            "analysis.masked": 0,
            "zeros.scan_points": 0,
            "zeros.hits": 0,
            "zeros.clusters": 0,
            "verify.items": 0,
            "report.bytes": 0,
            "report.rows": 0,
        }
        self.unwrapped: list[str] = []
        self.trees: Trees | None = None

    def wrap(self, fn, name: str, before=None, after=None):
        k = self.names.index(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            kind.append(k)
            parent.append(stack[-1])
            end.append(0.0)
            if before is not None:
                before(args, kwargs)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from qfc.expr import QExpr

        self.trees = Trees(QExpr)
        hooks = {
            "jets.jet": (self._note_tree, None),
            "domain.grid": (None, self._count_points),
            "zeros.scan": (None, self._count_scan),
            "verify.run": (None, self._count_items),
            "report.serialize": (self._count_rows, self._count_bytes),
        }
        for name, sites in SITES.items():
            wrapped = 0
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                before, after = hooks.get(name, (None, None))
                if name == "jets.value":
                    before = self._note_pair if attr == "eval_qfunction" else self._note_value
                setattr(module, attr, self.wrap(fn, name, before, after))
                wrapped += 1
            if not wrapped:
                self.unwrapped.append(name)

    # hooks: counters measured where the work happens
    def _note_tree(self, args, kwargs):
        self.trees.note(args[0])

    def _note_value(self, args, kwargs):
        self.counters["jets.value_evals"] += 1
        self.trees.note(args[0])

    def _note_pair(self, args, kwargs):
        self.counters["jets.value_evals"] += 2
        self.trees.note(args[0].f1)
        self.trees.note(args[0].f2)

    def _count_points(self, args, kwargs, result):
        self.counters["domain.points"] += len(result)

    def _count_scan(self, args, kwargs, result):
        grid_n = args[2] if len(args) > 2 else kwargs.get("grid_n", 21)
        self.counters["zeros.scan_points"] += grid_n**4
        self.counters["zeros.clusters"] += len(result)
        self.counters["zeros.hits"] += sum(len(c) for c in result)

    def _count_items(self, args, kwargs, result):
        self.counters["verify.items"] += len(result)

    def _count_rows(self, args, kwargs):
        doc = args[0]
        rows = len(doc.get("items", []))
        for f in doc.get("functions", []):
            reports = f.get("reports", [])
            if reports:
                self.counters["analysis.masked"] += len(reports[0]["masked"])
            rows += sum(len(r["points"]) + len(r["masked"]) for r in reports)
            rows += sum(len(c) for c in f.get("clusters", []))
            rows += len(f.get("estimates", []))
        self.counters["report.rows"] += rows

    def _count_bytes(self, args, kwargs, result):
        self.counters["report.bytes"] += len(result.encode("utf-8"))

    def write(self, path: Path, code: int) -> None:
        self.counters["lowering.tree_nodes"] = self.trees.nodes
        self.counters["lowering.distinct_nodes"] = self.trees.distinct
        with open(path, "wb") as fh:
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "request": path.stem,
            "exit": code,
            "spans": len(self.start),
            "names": self.names,
            "counters": self.counters,
            "unwrapped": self.unwrapped,
        }
        Path(f"{path}.json").write_text(json.dumps(header), encoding="utf-8")


def main() -> int:
    out = Path(sys.argv[1])
    import qfc.cli

    tracer = Tracer()
    tracer.install()
    code = qfc.cli.main(sys.argv[2:])
    tracer.write(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
