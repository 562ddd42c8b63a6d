"""Every output of the manifest's command list, byte for byte.

`golden_outputs.py` holds the command list and regenerates the manifest;
this test reruns the list in a fresh process with 1, then 2 OpenBLAS
threads and names every output whose digest moved.
"""

import json
import os
import subprocess
import sys

import pytest

import golden_outputs
import shrinker_index

with open(golden_outputs.MANIFEST, encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_match_manifest(threads):
    src = os.path.dirname(os.path.dirname(shrinker_index.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, golden_outputs.__file__, "--print"], env=env,
        capture_output=True, text=True, check=True, timeout=600)
    got = json.loads(proc.stdout)
    assert got["platform"] == MANIFEST["platform"], (
        "the manifest's digests were taken on %r and this is %r; other "
        "builds may round differently, so regenerate the manifest with "
        "`python tests/golden_outputs.py` from a tree known to be good"
        % (MANIFEST["platform"], got["platform"]))
    want, have = MANIFEST["outputs"], got["outputs"]
    moved = sorted(name for name in want.keys() | have.keys()
                   if want.get(name) != have.get(name))
    assert not moved, "%d outputs differ from the manifest:\n%s" % (
        len(moved), "\n".join(moved))
