"""Print the line count of each module of src/clarkekin, split into docstring, comment, blank and code lines.

Usage, from the repository root:

    python tests/src_lines.py [package directory]

For each module, and in total, it prints: its lines; its docstring lines,
every line of a module, class or function docstring, found with ast; its
comment-only lines, whose first non-blank character is "#" outside any
string; its blank lines outside any string; and the rest as code lines.
A line inside a multi-line string that is not a docstring counts as code.
So a change that only reflows docstrings, deletes comments or packs
statements denser shows up in its own column, not as fewer code lines.

This is a tool, not a test: pytest does not collect it. Standard library
only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clarkekin"
COLUMNS = ("lines", "docstring", "comment", "blank", "code")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def string_continuation_lines(tree: ast.Module) -> set[int]:
    """The line numbers after the first of every multi-line string literal in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Constant, ast.JoinedStr)) and node.end_lineno > node.lineno:
            lines.update(range(node.lineno + 1, node.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The COLUMNS counts of one module."""
    text = path.read_text()
    tree = ast.parse(text, str(path))
    docs, strings = docstring_lines(tree), string_continuation_lines(tree)
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif number in strings:
            kind = "code"
        elif stripped.startswith("#"):
            kind = "comment"
        elif not stripped:
            kind = "blank"
        else:
            kind = "code"
        counts["lines"] += 1
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    rows["total"] = {column: sum(row[column] for row in rows.values()) for column in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{column:>11}" for column in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[column]:>11,}" for column in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
