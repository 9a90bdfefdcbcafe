"""Line counts of the Python files under src/, tests/, perfbench/ and tools/.

For each directory, prints the total number of lines and the number of
code lines: lines that are not blank, hold only a comment, or belong to
a module, class or function docstring. Then prints the same two figures
for each module of the package, src/poseforge/*.py.

Usage: python tools/loc.py [ROOT]   (ROOT defaults to the repository root)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DIRS = ("src", "tests", "perfbench", "tools")


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a module and its classes
    and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(root: Path) -> None:
    for name in DIRS:
        total = code = 0
        for path in sorted((root / name).rglob("*.py")):
            t, c = count(path.read_text(encoding="utf-8"))
            total += t
            code += c
        print(f"{name + '/':<11} {total:>6,} lines {code:>6,} code")
    for path in sorted((root / "src" / "poseforge").glob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        print(f"  {path.name:<15} {t:>6,} lines {c:>6,} code")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
