"""The package's modules use one another only through public names, and
its evaluator and formulas do not recurse."""

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


def _self_calls(path: Path) -> list[str]:
    """The functions of the module that call themselves by name."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
            for call in ast.walk(node)
        )
    )


def test_the_evaluator_and_the_formulas_do_not_recurse() -> None:
    """A recursive evaluator stops at Python's recursion limit on a deep
    tree; the one evaluator in src walks iteratively, and the recursive
    oracle lives in tests/jet_oracle.py."""
    assert {name: _self_calls(SRC / name) for name in ("jets.py", "analysis.py")} == {
        "jets.py": [],
        "analysis.py": [],
    }
