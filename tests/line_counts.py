#!/usr/bin/env python3
"""Code, docstring, comment and blank lines of each module of ``src/jeffreys/``.

    python3 tests/line_counts.py [CHECKOUT]

Counts the checkout's modules (default: the repository holding this file)
and prints one row per module, a total row and README.md's line count.  A
docstring line is a line of a module, class or function docstring, found
with ``ast``; a comment line holds only a comment, ``#:`` included; a
blank line outside a docstring is blank; every other line is code.  Not
collected by pytest: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("code", "docstring", "comment", "blank", "total")


def count(source: str) -> dict[str, int]:
    """The line counts of one module's ``source``, by :data:`COLUMNS`."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(lines, start=1):
        if number in docstring:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif line.strip().startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    counts["total"] = len(lines)
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "jeffreys").glob("*.py"))
    rows = {path.name: count(path.read_text(encoding="utf-8")) for path in modules}
    rows["total"] = {column: sum(row[column] for row in rows.values()) for column in COLUMNS}
    print(f"{'module':<16}" + "".join(f"{column:>10}" for column in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<16}" + "".join(f"{row[column]:>10}" for column in COLUMNS))
    readme = (root / "README.md").read_text(encoding="utf-8").splitlines()
    print(f"README.md {len(readme)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
