"""Print the code lines of each module of a Python package, and their total.

A code line holds at least one token that is not a comment and lies outside
every docstring, so blank lines, comment lines and docstring lines do not
count. A line that a multi-line expression or string spans counts once.

    python tools/code_lines.py               # src/hmmaccel of this checkout
    python tools/code_lines.py path/to/pkg   # another checkout's package

Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hmmaccel"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) where each docstring of the module begins."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {(node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(tree)
            if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None}


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and not (tok.type == tokenize.STRING
                                             and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,d}  {path.relative_to(package)}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
