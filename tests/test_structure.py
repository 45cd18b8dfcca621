"""The package's modules use one another only through public names, and
no tree walk in it recurses."""

from __future__ import annotations

import ast
from pathlib import Path

import qfc

SRC = Path(qfc.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """The _-prefixed names the module imports from another qfc module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "qfc"):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another() -> None:
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert {p.name: _private_imports(p) for p in modules} == {p.name: [] for p in modules}


def _call_graph(path: Path) -> dict[str, set[str]]:
    """The module's functions and methods (a method as Class.name) and,
    for each, those of them it calls: a function by its name, a method of
    its own class as self.name or cls.name.  A nested function's calls
    count as its enclosing function's."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners: dict[str, tuple[str, ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            owners[node.name] = ("", node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    owners[f"{node.name}.{item.name}"] = (node.name, item)
    graph: dict[str, set[str]] = {}
    for key, (cls, fn) in owners.items():
        callees = set()
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name):
                callees.add(f.id)
            elif cls and isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
                callees.add(f"{cls}.{f.attr}")
        graph[key] = callees & owners.keys()
    return graph


def _on_call_cycles(path: Path) -> list[str]:
    """The functions of the module that can reach themselves through its
    call graph: direct recursion and mutual recursion alike."""
    graph = _call_graph(path)
    cyclic = []
    for start in graph:
        seen: set[str] = set()
        todo = list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            cyclic.append(start)
    return sorted(cyclic)


def test_no_function_in_the_package_recurses() -> None:
    """A recursive walk stops at Python's recursion limit on a deep tree:
    the parser, lowering, printer, evaluator, formulas and JSON writer in
    src walk iteratively, and the recursive oracles live in
    tests/expr_oracle.py and tests/jet_oracle.py."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert {p.name: _on_call_cycles(p) for p in modules} == {p.name: [] for p in modules}


def test_the_cycle_finder_sees_direct_and_mutual_recursion(tmp_path: Path) -> None:
    path = tmp_path / "module.py"
    path.write_text(
        "def walk(e):\n    return [walk(k) for k in e]\n\n"
        "def leaf():\n    return walk(())\n\n"
        "class P:\n"
        "    def expr(self):\n        return self.atom()\n"
        "    def atom(self):\n        return self.expr() if self else leaf()\n"
        "    def alone(self):\n        return leaf()\n",
        encoding="utf-8",
    )
    assert _on_call_cycles(path) == ["P.atom", "P.expr", "walk"]
