"""Every module parses as Python 3.10, the oldest version pyproject.toml
accepts, so syntax from a newer version fails here on any interpreter, not
only on a 3.10 one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "boolfun").glob("*.py"), *(ROOT / "bench").glob("*.py"),
                  *(ROOT / "tools").glob("*.py")])


def test_sources_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/boolfun/scan.py", "src/boolfun/join.py", "bench/run.py",
            "tools/code_lines.py"} <= names


def test_join_imports_nothing_from_scan():
    # scan imports join, which is given its levels and so needs none of scan;
    # a from-import's names may be submodules, so each is checked as one too
    tree = ast.parse((ROOT / "src" / "boolfun" / "join.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            modules = [base, *(base + sep + alias.name for alias in node.names)]
        else:
            continue
        assert not {"boolfun.scan", ".scan"} & set(modules), ast.dump(node)


def test_scan_reads_only_the_join_entry_points():
    # join owns the halves route: the halves' statistics, the level's proof,
    # the halves' keys, degrees and records, and the block layout they are
    # kept in; scan binds the first five to its level record and reads ranges
    # through _range_extremes, and names nothing else
    tree = ast.parse((ROOT / "src" / "boolfun" / "scan.py").read_text(encoding="utf-8"))
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "join"}
    assert reads == {"_range_extremes", "_halves", "_identities_hold", "_degrees", "_keys",
                     "_key_stats"}


def test_scan_reads_no_half_statistics_and_breaks_no_identity_itself():
    # the halves' format is join's and the identity comparison is derivatives',
    # so scan reads no .halves attribute and defines no _identity_breaks
    nodes = list(ast.walk(ast.parse((ROOT / "src" / "boolfun" / "scan.py").read_text(
        encoding="utf-8"))))
    assert "halves" not in {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
    defined |= {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert "_identity_breaks" not in defined


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
