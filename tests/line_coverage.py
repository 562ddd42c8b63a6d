"""Lines of the package that the test suite never runs.

Runs the suite in this process under `sys.settrace` and
`threading.settrace`, records the lines executed in files under
src/shrinker_index, and prints every executable line (the line table of
each module's code objects, nested ones included) that was never run, as
`module:line source`.  Code that runs only in a subprocess counts as not
run.  Needs only the standard library and pytest:

    python tests/line_coverage.py [pytest arguments]

Arguments go to pytest unchanged; with none it runs the whole suite.  The
exit status is pytest's.
"""

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "shrinker_index")


def executable_lines(path):
    """Line numbers that carry bytecode in the module at path."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(args):
    hits = {}
    inside = {}

    def in_package(filename):
        if filename not in inside:
            inside[filename] = os.path.realpath(filename).startswith(
                PACKAGE + os.sep)
        return inside[filename]

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not in_package(filename):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"] + args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    run = {}
    for filename, lines in hits.items():
        run.setdefault(os.path.realpath(filename), set()).update(lines)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - run.get(path, set())):
            print("%s:%d %s" % (name, line, source[line - 1].strip()))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
