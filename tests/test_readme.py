"""README stays in step with the code it documents."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import qfc
from qfc.analysis import LABELS, classify, residual_reports
from qfc.cli import _DEFAULTS
from qfc.domain import Domain
from qfc.generators import example_pair

README = Path(__file__).resolve().parents[1] / "README.md"


def _names(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def test_the_classify_bullet_names_every_label() -> None:
    text = README.read_text(encoding="utf-8")
    (bullet,) = re.findall(r"^\* `classify` (.*?)(?=^\* |^$)", text, re.M | re.S)
    assert sorted(_names(bullet)) == sorted(LABELS)


def test_the_config_row_names_every_config_key() -> None:
    text = README.read_text(encoding="utf-8")
    (row,) = re.findall(r"^\| `--config FILE` \| (.*) \|$", text, re.M)
    assert sorted(_names(row)) == sorted(_DEFAULTS)


def _library_code() -> str:
    """The python block under "## Library"."""
    text = README.read_text(encoding="utf-8")
    (section,) = re.findall(r"^## Library\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    return code


def test_the_library_example_runs() -> None:
    """The Library example runs as written, so the public signatures it
    shows stay callable."""
    exec(compile(_library_code(), "README.md", "exec"), {})


def test_the_package_exports_what_the_library_example_imports() -> None:
    imported = [
        a.name
        for node in ast.walk(ast.parse(_library_code()))
        if isinstance(node, ast.ImportFrom) and node.module == "qfc"
        for a in node.names
    ]
    assert sorted(qfc.__all__) == sorted(imported)


def _residual_table_items() -> dict[str, dict[str, str]]:
    """Each command's bullets under "### Residual tables": table name to
    the bullet's text."""
    text = README.read_text(encoding="utf-8")
    (section,) = re.findall(r"^### Residual tables\n(.*?)(?=^#)", text, re.M | re.S)
    lists = re.findall(r"^`(\w+)` reports these .*?:\n\n(.*?)(?=^$)", section, re.M | re.S)
    return {
        command: dict(re.findall(r"^\* `(\w+)`: (.*?)(?=^\* |\Z)", items, re.M | re.S)) for command, items in lists
    }


def test_the_residual_tables_section_names_each_commands_tables() -> None:
    """example_pair is real-valued, so residuals reports real_linear too."""
    f, d = example_pair(), Domain()
    emitted = {
        "classify": [r.system for r in classify(f, d)[1]],
        "residuals": [r.system for r in residual_reports(f, d, 6)],
    }
    items = _residual_table_items()
    assert {command: list(tables) for command, tables in items.items()} == emitted
    assert "hyperholomorphy_from_jets(inverse_jets(f))" in items["classify"]["inverse_hyperholomorphy"]
    assert "inverse_system_from_jets(f)" in items["residuals"]["inverse_hyperholomorphy"]
