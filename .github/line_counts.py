#!/usr/bin/env python3
"""Count the lines of the program: the ``.py`` files under ``src/`` and ``scripts/``.

Prints three totals.  Physical lines are the lines of each file.  Docstring
lines are those of the leading string of a module, class or function body,
found with ``ast``.  Code lines hold a token other than a comment, a line
break or an indent, less the docstring lines.  Run from anywhere:

    python .github/line_counts.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Tokens that make no line a code line.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int, int]:
    """(physical, code, docstring) lines of one file's ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings), len(docstrings)


def main() -> None:
    files = sorted(p for d in ("src", "scripts") for p in (ROOT / d).rglob("*.py"))
    totals = [sum(column) for column in zip(*(counts(p.read_text()) for p in files))]
    print("physical {}  code {}  docstring {}".format(*totals))


if __name__ == "__main__":
    main()
