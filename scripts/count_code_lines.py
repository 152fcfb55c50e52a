"""Count the code lines of Python sources.

A code line holds at least one token that is not a comment; blank
lines, comment-only lines and docstrings (module, class and function)
do not count.  Prints one count per module and the total.

Usage: python3 scripts/count_code_lines.py PATH [PATH ...]
where each PATH is a .py file or a directory searched for them.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(path: Path) -> int:
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 scripts/count_code_lines.py PATH [PATH ...]",
              file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in files:
        lines = count_code_lines(path)
        total += lines
        print(f"{lines:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
