"""Count the code lines of a Python package, module by module.

A code line holds a token other than a comment or a line break, outside
the module's, classes' and functions' docstrings; a string that spans
several lines counts every line it spans.  Beside each count stands the
module's line count as `wc -l` gives it.

Usage: python3 tools/code_lines.py [DIRECTORY]   (default: src/solis)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that make no line a code line by themselves
_SILENT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SILENT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src/solis")
    total_code = total_lines = 0
    print(f"{'module':<28}{'code':>8}{'wc -l':>8}")
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, lines = code_lines(source), source.count("\n")
        total_code += code
        total_lines += lines
        print(f"{str(path.relative_to(root)):<28}{code:>8}{lines:>8}")
    print(f"{'total':<28}{total_code:>8}{total_lines:>8}")


if __name__ == "__main__":
    main(sys.argv)
