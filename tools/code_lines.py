"""Count the code lines of Python files: docstrings, comments and blank lines
left out.

    python3 tools/code_lines.py                 # src/daxkernel
    python3 tools/code_lines.py src/daxkernel tests/conftest.py

A line counts when it holds a token of code.  A comment, a blank line or a
line inside a docstring (the string that opens a module, class or function
body) does not; the other lines of a string spanning several lines do.
Each file is printed with its count, the files of a directory in name
order, then the total.  Only ``ast`` and ``tokenize`` of the standard
library are used, so two checkouts can be compared on any Python 3.11.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the parsed module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source text ``source``."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def python_files(paths: list[Path]) -> list[Path]:
    """The ``.py`` files named or found under the directories named, in order."""
    out = []
    for path in paths:
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[ROOT / "src" / "daxkernel"],
                        help="files or directories (default: src/daxkernel)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
