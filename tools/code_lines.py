"""Print the code lines of each module of src/gcf and their total.

    python3 tools/code_lines.py

A code line is a line that holds a token of code: blank lines, comment
lines and docstrings do not count.  Docstrings are found with `ast` (the
first statement of a module, class or function, when it is a string
constant), so a string that is not a docstring counts on every line it
spans.  The *.py files of src/gcf are read, not imported.  Prints one
`lines  module` line per module, sorted by name, then `lines  total`.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "gcf").glob("*.py")):
        lines = count_code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
