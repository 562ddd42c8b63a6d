"""The output manifest: SHA-256 of everything a fixed CLI command list writes.

`COMMANDS` runs the solver, the index, the refinement study, the
asymptotics, spectra and a render, each through `cli.main` in one
process, in a scratch directory with relative paths.  For each command
the manifest records the exit code and the digests of its stdout and
stderr, and it records the digest of every file the list writes.  It
also records the platform the digests were taken on, since other numpy,
scipy or CPU builds may round differently.

    python tests/golden_outputs.py           # rewrite golden_outputs.json
    python tests/golden_outputs.py --print   # print the digests as JSON
    python tests/golden_outputs.py --print --keep DIR   # and keep the files

`--keep DIR` runs the list in DIR, which must not exist yet, instead of
a temporary directory, so that the files a change moves can be compared
with those of its parent:

    python tests/golden_outputs.py --compare OLD NEW

walks two kept trees and prints one line per file that differs: the
largest absolute and relative change over the numbers in its text, or
that its text around the numbers differs, or that it exists on one side
only.

Run it from the root of a checkout with `src` on PYTHONPATH.  A change
that moves an output regenerates the manifest and names each moved file.
`tests/test_golden_outputs.py` reruns the list with 1 and 2 OpenBLAS
threads and names every output that differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_outputs.json")

COMMANDS = [
    ["solve", "--points", "2048", "--out", "curve2048.csv"],
    # the smallest point counts, where a seed may reach another polygon
    ["solve", "--points", "18", "--out", "curve18.csv"],
    ["solve", "--points", "19", "--out", "curve19.csv"],
    ["solve", "--points", "257", "--out", "curve257.csv"],
    ["solve", "--points", "64", "--out", "curve64.csv"],
    ["index", "--points", "2048", "--out", "index2048.json"],
    ["convergence", "--out", "study"],
] + [
    ["asymptotics", "--curve", "curve2048.csv", "--k", k, "--j-max", "100",
     "--k-scan", "20", "--out", "asymptotics_k" + k] for k in "012"
] + [
    ["spectrum", "--curve", "curve257.csv", "--k", "2", "--count", "200",
     "--out", "spectrum257_k2.json", "--csv", "spectrum257_k2.csv"],
    ["spectrum", "--curve", "curve257.csv", "--k", "2", "--count", "37"],
    # labels near the smallest point counts: k = 0 and 1 carry templates
    ["spectrum", "--curve", "curve64.csv", "--k", "0",
     "--out", "spectrum64_k0.json", "--csv", "spectrum64_k0.csv"],
    ["spectrum", "--curve", "curve64.csv", "--k", "1", "--count", "40",
     "--out", "spectrum64_k1.json", "--csv", "spectrum64_k1.csv"],
    ["render", "--curve", "curve2048.csv", "--k", "2", "--j", "1",
     "--ntheta", "96", "--out", "torus"],
]


#: A decimal number, with its sign and exponent; `--compare` splits a
#: file's text at these.
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def platform_stamp():
    """What the digests depend on besides the source."""
    import numpy as np
    import scipy
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_baseline__ + umath.__cpu_dispatch__
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "machine": platform.machine(),
        "cpu_dispatch": sorted(f for f in features
                               if umath.__cpu_features__.get(f)),
    }


def run_commands(workdir):
    """Run COMMANDS in workdir; return {output name: digest or exit code}."""
    from shrinker_index.cli import main
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in COMMANDS:
            name = " ".join(argv)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                outputs[name + " | exit"] = main(argv)
            outputs[name + " | stdout"] = _sha256(out.getvalue().encode())
            outputs[name + " | stderr"] = _sha256(err.getvalue().encode())
    finally:
        os.chdir(cwd)
    for root, _, files in os.walk(workdir):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, workdir).replace(os.sep, "/")
                outputs[rel] = _sha256(fh.read())
    return dict(sorted(outputs.items()))


def digests(keep=None):
    """The manifest of COMMANDS run in keep, or in a temporary directory."""
    if keep is not None:
        os.makedirs(keep)
        return {"platform": platform_stamp(), "outputs": run_commands(keep)}
    with tempfile.TemporaryDirectory() as workdir:
        return {"platform": platform_stamp(), "outputs": run_commands(workdir)}


def _tree(root):
    """{path relative to root, with / separators: its bytes}."""
    files = {}
    for base, _, names in os.walk(root):
        for fname in names:
            path = os.path.join(base, fname)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root).replace(os.sep, "/")] = (
                    fh.read())
    return files


def compare(old, new):
    """One line per file that differs between the kept trees old and new.

    A file whose text, split at the numbers (`NUMBER`), differs only in
    the numbers is reported with how many moved and the largest absolute
    and relative change among them, relative to the larger magnitude of
    the pair; any other file that differs is reported as such.
    """
    before, after = _tree(old), _tree(new)
    lines = []
    for name in sorted(before.keys() | after.keys()):
        if name not in after or name not in before:
            lines.append("%s: only in %s"
                         % (name, old if name in before else new))
            continue
        if before[name] == after[name]:
            continue
        a, b = (NUMBER.split(text[name].decode("utf-8", "replace"))
                for text in (before, after))
        if a[0::2] != b[0::2]:
            lines.append("%s: text differs" % name)
            continue
        pairs = [(float(x), float(y)) for x, y in zip(a[1::2], b[1::2])
                 if x != y]
        lines.append(
            "%s: %d of %d numbers moved, largest change %.3g absolute, "
            "%.3g relative" % (
                name, len(pairs), len(a) // 2,
                max(abs(y - x) for x, y in pairs),
                max(abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0
                    for x, y in pairs)))
    return lines


def main(argv):
    parser = argparse.ArgumentParser(prog="python tests/golden_outputs.py")
    parser.add_argument("--print", action="store_true",
                        help="print the digests instead of rewriting "
                             "the manifest")
    parser.add_argument("--keep", metavar="DIR",
                        help="run the commands in DIR, a new directory, "
                             "and leave their files there")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print the files that differ between two "
                             "trees kept with --keep, and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        for line in compare(*args.compare):
            print(line)
        return
    result = digests(args.keep)
    if args.print:
        json.dump(result, sys.stdout, indent=1)
        print()
    else:
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
