"""Packaging metadata: the version has one source, ``repro.__version__``."""

import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _table(text: str, name: str) -> str:
    """The body of one top-level TOML table (up to the next header)."""
    match = re.search(
        rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text,
        re.MULTILINE | re.DOTALL,
    )
    assert match, f"pyproject.toml has no [{name}] table"
    return match.group(1)


def test_pyproject_has_no_literal_version():
    text = PYPROJECT.read_text()
    project = _table(text, "project")
    assert re.search(r"^version\s*=", project, re.MULTILINE) is None
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.MULTILINE)
    dynamic = _table(text, "tool.setuptools.dynamic")
    assert 'version = {attr = "repro.__version__"}' in dynamic
