"""README stays in step with the code it documents."""

from __future__ import annotations

import re
from pathlib import Path

from qfc.analysis import LABELS
from qfc.cli import _DEFAULTS

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


def test_the_library_example_runs() -> None:
    """The python block under "## Library" runs as written, so the public
    signatures it shows stay callable."""
    text = README.read_text(encoding="utf-8")
    (section,) = re.findall(r"^## Library\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    exec(compile(code, "README.md", "exec"), {})
