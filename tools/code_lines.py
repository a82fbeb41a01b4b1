"""Count the code lines of a directory's Python files.

A code line holds a token other than a comment that is not part of a
docstring: blank lines, comment-only lines and lines that hold nothing but
docstring are left out, and a line that holds code and a docstring, such as
a one-line function with its docstring after the colon, counts. A token that spans lines, such as a
multi-line string, counts every line it spans.

Usage: python tools/code_lines.py DIRECTORY
Prints each .py file's count, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (line, column) start and end of every module, class and function docstring.

    Columns count characters, as tokenize's do; ast's count UTF-8 bytes.
    """
    lines = source.splitlines(keepends=True)

    def position(line, byte_col):
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append((position(first.lineno, first.col_offset),
                              position(first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at `path`."""
    spans = docstring_spans(path.read_bytes().decode())
    with open(path, "rb") as fh:
        lines = set()
        for token in tokenize.tokenize(fh.readline):
            if token.type in SKIPPED or any(start <= token.start and token.end <= end
                                            for start, end in spans):
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
