#!/usr/bin/env python3
"""Count the code lines of the ``nullsl2`` package, module by module.

A code line is a source line that holds at least one code token.  Blank
lines, comments and the docstrings of modules, classes and functions do
not count; a string that is not a docstring does, on every line it spans.
``ast`` finds the docstrings and ``tokenize`` the tokens, so a line that
holds a docstring and code (``def f(): "doc"; return 1``) still counts.

    python3 scripts/code_lines.py
    python3 scripts/code_lines.py --tree ../base-checkout

``--tree`` names the checkout whose ``src/nullsl2`` is counted (the one
holding this script by default).  It prints one line per module, then the
total.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree: ast.AST) -> list:
    """((line, col), (end_line, end_col)) of every module, class and
    function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                v = first.value
                spans.append(((v.lineno, v.col_offset),
                              (v.end_lineno, v.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT,
                    help="checkout whose src/nullsl2 is counted")
    args = ap.parse_args(argv)
    package = os.path.join(os.path.abspath(args.tree), "src", "nullsl2")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{name:16} {count:6}")
    print(f"{'total':16} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
