"""Count the code lines of Python sources: every line that holds a token of
code, leaving out blank lines, comment-only lines and docstring lines.

A line counts when a token other than a comment, a newline or an
indentation change starts or runs on it; a string spanning several lines
counts each of them.  The lines of a docstring (the leading string
expression of a module, class or function, found with `ast`) do not count.
Standard library only.

    python tests/code_lines.py [PATH ...]

prints the count of each file under each PATH (a file or a directory,
searched for *.py) and the total; with no PATH, src/planeheights.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def _sources(path: Path):
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)] or [Path("src/planeheights")]
    total = 0
    for path in paths:
        for source in _sources(path):
            n = count_code_lines(source.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d} {source}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
