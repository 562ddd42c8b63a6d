"""Code lines of the package: the size the ROADMAP tracks.

A line of a module under src/shrinker_index counts when it carries a
token of code: blank lines, comment-only lines and the lines of
docstrings (the string that opens a module, class or function, found
with `ast`) do not count, and a statement continued over several lines
counts each of them.  Needs only the standard library:

    python tests/code_lines.py

prints one `module lines` row per module and then the total.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "shrinker_index")

#: Tokens that carry no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every docstring in the module tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of source that carry a code token."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        lines.update(line for line in range(tok.start[0], tok.end[0] + 1)
                     if line not in skip)
    return len(lines)


def main():
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        sys.stdout.write("%-16s %5d\n" % (name, n))
    sys.stdout.write("%-16s %5d\n" % ("total", total))


if __name__ == "__main__":
    main()
