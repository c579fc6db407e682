"""Every module parses as Python 3.10, the oldest version pyproject.toml
accepts, so syntax from a newer version fails here on any interpreter, not
only on a 3.10 one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "boolfun").glob("*.py"), *(ROOT / "bench").glob("*.py")])


def test_sources_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/boolfun/scan.py", "bench/run.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
