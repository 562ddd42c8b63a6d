"""Spectrum computation, mode labeling and the index count."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import oracles
import shrinker_index
from shrinker_index import (Pipeline, StabilityMatrix, assemble_L0,
                            assemble_Lk, compute_index, normal_field,
                            spectrum, write_curve)
from shrinker_index import cli, spectral, stability
from oracles import reflect_z
from shrinker_index.curve import DiscreteCurve, canonicalize
from shrinker_index.metric import sigma
from shrinker_index.spectral import (ExclusionMismatch, classify_modes,
                                     spectrum_report)


def test_residuals_small(pipe):
    for k in range(4):
        modes = pipe.modes(512, k, 8)
        a = oracles.dense(pipe.Lk(512, k))
        for md in modes:
            assert md.residual < 1e-10
            # residual field is honest: recompute it
            res = np.linalg.norm(a @ md.vector - md.eigenvalue * md.vector)
            assert res < 1e-10


def test_modes_sorted_normalized_canonical(pipe):
    modes = pipe.modes(256, 0, 6)
    vals = [md.eigenvalue for md in modes]
    assert vals == sorted(vals)
    for j, md in enumerate(modes):
        assert md.j == j
        assert md.k == 0
        assert np.isclose(np.linalg.norm(md.vector), 1.0, rtol=0, atol=1e-12)
        assert md.vector[np.argmax(np.abs(md.vector))] > 0.0


def test_spectrum_count_validation(pipe):
    L0 = pipe.L0(64)
    with pytest.raises(ValueError):
        spectrum(L0, 0)
    with pytest.raises(ValueError):
        spectrum(L0, 65)


def test_spectrum_matches_lapack(pipe):
    # shift-invert on the bands against a dense LAPACK solve of the same
    # operator, including the 201-mode drift spectrum and count = M - 1
    cases = [(512, k, 8) for k in range(4)] + [(512, 0, 201), (64, 0, 63)]
    for m, k, count in cases:
        a = pipe.Lk(m, k)
        lam = [md.eigenvalue for md in spectrum(a, count)]
        ref = scipy.linalg.eigvalsh(oracles.dense(a),
                                    subset_by_index=(0, count - 1))
        assert np.max(np.abs(lam - ref)) <= 1e-9
    with pytest.raises(ValueError):
        spectrum(pipe.L0(64), 64)


def test_spectrum_repeats_bitwise(pipe):
    a = pipe.Lk(512, 1)
    first = spectrum(a, 8)
    second = spectrum(a, 8)
    for p, q in zip(first, second):
        assert p.eigenvalue == q.eigenvalue
        assert p.residual == q.residual
        assert np.array_equal(p.vector, q.vector)


_SPECTRA_SCRIPT = """
import sys
import numpy as np
from shrinker_index import (assemble_L0, assemble_Lk, normal_field,
                            read_curve, spectrum)
crv = read_curve(sys.argv[1])
L0 = assemble_L0(crv, normal_field(crv))
modes = [md for k in range(4) for md in spectrum(assemble_Lk(L0, crv, k), 8)]
np.save(sys.argv[2], np.concatenate(
    [[md.eigenvalue for md in modes]] + [md.vector for md in modes]))
"""


def test_low_spectra_identical_across_thread_counts(pipe, tmp_path):
    # the 8-mode spectra carry no BLAS-order dependence; the 201-mode
    # drift spectrum is not covered by this guarantee
    curve_path = tmp_path / "curve1024.csv"
    write_curve(pipe.curve(1024), str(curve_path))
    src = os.path.dirname(os.path.dirname(shrinker_index.__file__))
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / ("spectra%s.npy" % threads)
        subprocess.run([sys.executable, "-c", _SPECTRA_SCRIPT,
                        str(curve_path), str(out)],
                       env=env, check=True, timeout=300)
        results.append(np.load(out))
    assert results[0].shape == (32 + 32 * 1024,)
    assert np.array_equal(results[0], results[1])


def test_labels_low_modes(pipe):
    crv = pipe.curve(256)
    nf = pipe.normals(256)
    modes0 = classify_modes(pipe.modes(256, 0, 3), crv, nf)
    assert [m.label for m in modes0] == [
        "generic", "dilation", "vertical_translation"]
    modes1 = classify_modes(pipe.modes(256, 1, 3), crv, nf)
    assert [m.label for m in modes1] == [
        "sigma_inverse", "horizontal_translation", "rotation"]


def test_pipeline_matches_explicit_chain(pipe):
    crv = pipe.curve(256)
    chain = Pipeline(crv)
    nf = normal_field(crv)
    L0 = assemble_L0(crv, nf)
    for k in range(4):
        got = chain.modes(k, 8)
        ref = classify_modes(spectrum(assemble_Lk(L0, crv, k), 8), crv, nf)
        assert len(got) == len(ref) == 8
        for p, q in zip(got, ref):
            assert (p.k, p.j, p.label) == (q.k, q.j, q.label)
            assert p.eigenvalue == q.eigenvalue
            assert p.residual == q.residual
            assert np.array_equal(p.vector, q.vector)


@pytest.mark.parametrize("argv,expected", [
    (["spectrum"], 1),
    (["render", "--j", "0", "--out", "{tmp}/r"], 1),
    (["asymptotics", "--j-max", "10", "--k-scan", "3", "--out", "{tmp}/a"],
     3),
])
def test_cli_spectra_pass_through_module_attribute(pipe, tmp_path,
                                                   monkeypatch, argv,
                                                   expected):
    # the benchmark collects residuals by replacing spectral.spectrum, so
    # every spectrum a subcommand computes must be looked up there; each
    # subcommand assembles -L_0 once
    curve_path = tmp_path / "curve64.csv"
    write_curve(pipe.curve(64), str(curve_path))
    original = spectral.spectrum
    original_L0 = stability.assemble_L0
    calls = []
    L0_calls = []

    def counted(matrix, count):
        calls.append(count)
        return original(matrix, count)

    def counted_L0(curve, normals):
        L0_calls.append(curve.M)
        return original_L0(curve, normals)
    monkeypatch.setattr(spectral, "spectrum", counted)
    monkeypatch.setattr(stability, "assemble_L0", counted_L0)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli.main(argv[:1] + ["--curve", str(curve_path)] + argv[1:]) == 0
    assert len(calls) == expected
    assert len(L0_calls) == 1


def test_sigma_inverse_near_kernel(pipe):
    # 1/sigma along the curve is an almost-eigenvector of -L_1 with
    # eigenvalue -1
    crv = pipe.curve(1024)
    a = oracles.dense(pipe.Lk(1024, 1))
    u = 1.0 / sigma(crv.points)
    u /= np.linalg.norm(u)
    assert np.linalg.norm(a @ u + u) < 1e-3


def test_ground_state_increases_with_k(pipe):
    lam0 = [pipe.eigenvalues(512, k, 1)[0] for k in range(6)]
    assert all(lam0[i] < lam0[i + 1] for i in range(5))


def test_eigenvalue_interlacing_in_k(pipe):
    # adding k^2/r^2 > 0 pushes every eigenvalue strictly up
    for k in range(3):
        lo = pipe.eigenvalues(512, k, 4)
        hi = pipe.eigenvalues(512, k + 1, 4)
        assert np.all(hi > lo)


def test_reflection_leaves_spectrum(pipe):
    crv = canonicalize(reflect_z(pipe.curve(256)))
    a = assemble_L0(crv, normal_field(crv))
    vals = [md.eigenvalue for md in spectrum(a, 4)]
    assert np.max(np.abs(np.array(vals)
                         - pipe.eigenvalues(256, 0, 4))) < 1e-8


def test_spectrum_report_shape(pipe):
    crv = pipe.curve(256)
    rep = spectrum_report(crv, list(pipe.modes(256, 1, 4)))
    assert rep["M"] == 256 and rep["k"] == 1
    assert len(rep["eigenvalues"]) == 4
    assert len(rep["labels"]) == len(rep["residuals"]) == 4
    with pytest.raises(ValueError):
        spectrum_report(crv, [])


def test_index_report(pipe):
    rep = compute_index(pipe.curve(256))
    assert rep.index == 5
    assert rep.total_negative == 9
    assert sum(e["multiplicity"] for e in rep.excluded) == 4
    counts = [(k, len(vals)) for k, vals in rep.per_k]
    assert counts[:4] == [(0, 3), (1, 2), (2, 1), (3, 0)]
    parsed = json.loads(rep.to_json())
    assert parsed["index"] == 5
    assert parsed["total"] == 9
    assert parsed["per_k"][0]["k"] == 0
    assert len(parsed["per_k"][0]["negative_eigenvalues"]) == 3


def test_index_raises_count_instead_of_truncating(pipe):
    # k = 0 has 3 negative modes; a count of 2 must grow, not drop one
    rep = compute_index(pipe.curve(256), count=2)
    assert rep.index == 5
    assert rep.total_negative == 9
    assert sum(e["multiplicity"] for e in rep.excluded) == 4
    assert [len(vals) for _, vals in rep.per_k][:3] == [3, 2, 1]


def test_index_refuses_when_every_mode_is_negative(pipe, monkeypatch):
    # an operator pushed far down has more negative modes than the M - 1
    # the eigensolver can return; the count must fail, not truncate
    def sunk(L0, curve, k):
        return StabilityMatrix(k=k, diag=L0.diag - 1e9, up=L0.up)
    monkeypatch.setattr(stability, "assemble_Lk", sunk)
    with pytest.raises(ExclusionMismatch):
        compute_index(pipe.curve(64))


def test_index_requires_recognizable_exclusions():
    # a random closed polygon has no dilation/translation near-kernel, so
    # the exclusion bookkeeping must refuse rather than guess
    rng = np.random.default_rng(5)
    bad = DiscreteCurve(np.column_stack([rng.uniform(0.5, 3.0, 64),
                                         rng.uniform(-1.0, 1.0, 64)]))
    with pytest.raises(ExclusionMismatch):
        compute_index(bad)
