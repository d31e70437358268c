"""Print the lines and code lines of each module of src/qsd, and their totals.

A code line holds a token that is not a comment; blank lines, comment lines
and the lines of docstrings (module, class and function) do not count.  A
string that spans lines counts on every line it spans unless it is a
docstring.

    python tools/loc.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qsd"
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> int:
    total = [0, 0]
    print(f"{'module':20s} {'lines':>6s} {'code':>6s}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{path.name:20s} {lines:6d} {code:6d}")
    print(f"{'total':20s} {total[0]:6d} {total[1]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
