"""Every Python file of the project parses as Python 3.10, its oldest
supported version (``requires-python`` in pyproject.toml), so syntax that
needs a newer interpreter fails here on any interpreter that runs the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
)


def test_sources_are_found():
    assert {path.parent.name for path in SOURCES} >= {"ebct", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
