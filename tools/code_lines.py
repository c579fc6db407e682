"""Count the code lines of Python files: lines that hold a token other than
a comment, a docstring or layout (indents, line ends).  A line that holds
part of a multi-line token counts.  Docstrings are the string that opens a
module, class or function body, as ast reads them.

Usage: python tools/code_lines.py PATH...  (a directory counts every *.py
file under it).  Prints each file's count and, for more than one file, the
total.  Standard library only."""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one file's source."""
    skip, lines = docstring_lines(source), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(paths: list[str]) -> int:
    files = sorted({file for path in map(Path, paths)
                    for file in (path.rglob("*.py") if path.is_dir() else [path])})
    if not files:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d}  {file}")
    if len(files) > 1:
        print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
