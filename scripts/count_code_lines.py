"""Count the code lines of Python files, in the working tree or at a git revision.

A code line is a line that is not blank, not a comment and not inside a
docstring (module, class or function).  Usage::

    python scripts/count_code_lines.py src/repro/batch
    python scripts/count_code_lines.py src/repro/batch --rev HEAD~1

Prints one ``code  total  path`` row per file and a sum for each argument.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import tokenize
from typing import Iterator, List, Optional, Set, Tuple

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> Tuple[int, int]:
    """(code lines, total lines) of one Python source text."""
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source))), len(source.splitlines())


def sources(path: str, rev: Optional[str]) -> Iterator[Tuple[str, str]]:
    """(file name, text) of every ``.py`` file under ``path``."""
    if rev is None:
        names: List[str] = (
            [path]
            if os.path.isfile(path)
            else [
                os.path.join(root, name)
                for root, _dirs, files in os.walk(path)
                for name in files
            ]
        )
        for name in sorted(n for n in names if n.endswith(".py")):
            with open(name, encoding="utf-8") as fh:
                yield name, fh.read()
        return
    listing = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", path],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    for name in sorted(n for n in listing if n.endswith(".py")):
        yield name, subprocess.run(
            ["git", "show", f"{rev}:{name}"],
            check=True, capture_output=True, text=True,
        ).stdout


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--rev", help="git revision to read, not the working tree")
    args = parser.parse_args(argv)
    for path in args.paths:
        code_sum = total_sum = 0
        for name, text in sources(path, args.rev):
            code, total = count(text)
            code_sum += code
            total_sum += total
            print(f"{code:6d} {total:6d}  {name}")
        print(f"{code_sum:6d} {total_sum:6d}  {path} (sum)")


if __name__ == "__main__":
    main()
