"""The package's modules use one another only through public names."""

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
