"""Spectrum computation, mode labeling and the index count."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import shrinker_index
from shrinker_index import (Evaluation, Pipeline, StabilityMatrix,
                            assemble_Lk, compute_index, discrete_length,
                            spectrum, write_curve)
from shrinker_index import cli, metric, spectral, stability
from shrinker_index import curve as curve_mod
from oracles import reflect_z
from shrinker_index.curve import DiscreteCurve
from shrinker_index.metric import sigma
from shrinker_index.spectral import ExclusionMismatch, classify_modes


def test_residuals_small(pipe):
    for k in range(4):
        modes = pipe.modes(512, k, 8)
        a = oracles.dense(pipe.Lk(512, k))
        for md in modes:
            assert md.residual < 1e-10
            # residual field is honest: recompute it
            res = np.linalg.norm(a @ md.vector - md.eigenvalue * md.vector)
            assert res < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_drift_spectrum_residuals(pipe, k):
    # one inverse-iteration step, shifted 1e-13 above each LAPACK vector's
    # Rayleigh quotient, keeps the 201-mode residuals at M = 2048 near
    # 1.2e-11; at the bare quotient pair k = 1, j = 11 meets a zero pivot
    # and keeps its unpolished LAPACK residual of 7.9e-11
    assert max(md.residual for md in pipe.modes(2048, k, 201)) <= 2e-11


def test_scan_peak_fits_scan_bytes(pipe):
    # the polish holds the float64 LAPACK vectors of the call and the three
    # long-double buffers of one batch of at most POLISH_PAIRS pairs: 34.1
    # bytes per pair and point for the 201-mode spectrum at M = 2048 and
    # 22.1 for 1023 modes, where one batch of all measured 58.5 and 58.1
    a = pipe.Lk(2048, 1)
    spectrum([a], 8)
    for count in (201, 1023):
        tracemalloc.start()
        try:
            spectrum([a], count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * 2048 * spectral.SCAN_BYTES


def test_polish_solves_once_per_spectrum(pipe, monkeypatch):
    # the polish is one inverse-iteration step over every pair of the
    # call, one solve per batch; a second sweep over the M rows would cost
    # as much as the first
    shapes = []
    original = spectral._cyclic_solve

    def counted(diag, up, shifts, rhs):
        shapes.append(rhs.shape)
        return original(diag, up, shifts, rhs)

    monkeypatch.setattr(spectral, "_cyclic_solve", counted)
    spectrum([pipe.Lk(256, k) for k in range(3)], 8)
    assert shapes == [(3, 8, 256)]
    # more than POLISH_PAIRS pairs are polished in near-equal batches
    shapes.clear()
    spectrum([pipe.Lk(256, 0)], 201)
    assert shapes == [(1, 101, 256), (1, 100, 256)]


def test_polish_solves_a_grown_sweep_again(pipe, monkeypatch):
    # a row whose sweep grew past SWEEP_GROWTH_MAX is solved once more,
    # alone, with its shift 1e-13 higher; with the bound at 0 every row is
    a = pipe.Lk(256, 0)
    clean = spectrum([a], 8)
    shifts = []
    original = spectral._cyclic_solve

    def recorded(diag, up, shift, rhs):
        shifts.append(shift.copy())
        return original(diag, up, shift, rhs)

    monkeypatch.setattr(spectral, "_cyclic_solve", recorded)
    bound = spectral.SWEEP_GROWTH_MAX
    monkeypatch.setattr(spectral, "SWEEP_GROWTH_MAX", 0.0)
    again = spectrum([a], 8)
    assert [s.shape for s in shifts] == [(1, 8), (8,)]
    assert np.array_equal(shifts[1], shifts[0][0] + np.longdouble(1e-13))
    for old, new in zip(clean, again):
        assert new.residual <= 1e-10
        assert abs(new.eigenvalue - old.eigenvalue) <= 1e-9

    # in batches of 4, row 1 of the second batch (pair 5) grows: it alone
    # is solved again, in its own batch, and the other pairs keep the bits
    # of one batch of all
    def grown_in_batch_2(diag, up, shift, rhs):
        shifts.append(shift.copy())
        out, growth = original(diag, up, shift, rhs)
        if len(shifts) == 2:
            growth[..., 1] = np.inf
        return out, growth

    shifts.clear()
    monkeypatch.setattr(spectral, "_cyclic_solve", grown_in_batch_2)
    monkeypatch.setattr(spectral, "SWEEP_GROWTH_MAX", bound)
    monkeypatch.setattr(spectral, "POLISH_PAIRS", 4)
    later = spectrum([a], 8)
    assert [s.shape for s in shifts] == [(1, 4), (1, 4), (1,)]
    assert np.array_equal(shifts[2], shifts[1][0, 1:2] + np.longdouble(1e-13))
    assert later[5].residual <= 1e-10
    assert abs(later[5].eigenvalue - clean[5].eigenvalue) <= 1e-9
    for j in (0, 1, 2, 3, 4, 6, 7):
        assert later[j].eigenvalue == clean[j].eigenvalue
        assert later[j].residual == clean[j].residual
        assert np.array_equal(later[j].vector, clean[j].vector)


def test_polish_solves_a_lone_row_from_its_batch_bits(monkeypatch):
    # a row solved again alone starts from the bits its batch normalized
    # it to: its norm is summed along its own row, whatever rows share the
    # batch, at M = 9000 as at any M.  Any bands serve: only the
    # right-hand sides handed to the solve are compared
    m = 9000
    rng = np.random.default_rng(0)
    diag = rng.uniform(1.0, 2.0, m)
    up = rng.uniform(-1.0, -0.5, m)
    rhs = []
    original = spectral._cyclic_solve

    def grown_row_1(diag, up, shifts, work):
        rhs.append(work.copy())
        out, growth = original(diag, up, shifts, work)
        growth[...] = 0.0
        if len(rhs) == 1:
            growth[..., 1] = np.inf
        return out, growth

    monkeypatch.setattr(spectral, "_cyclic_solve", grown_row_1)
    spectral._refine_pairs(diag[None, None, :], up,
                           rng.standard_normal((1, 3, m)))
    assert len(rhs) == 2
    assert np.array_equal(rhs[1], rhs[0][:, 1])


def test_polish_batches_keep_their_bits_past_8192_points(monkeypatch):
    # each row is summed alone, so at M = 16384 129 pairs go in the plain
    # near-equal slices 65 + 64, which put rows 64 and 128 alone in their
    # blocks of `_quotients` (4 rows there), and take the bits of one batch
    # of all.  A mirror-symmetric operator near the Laplacian's serves
    m = 16384
    rng = np.random.default_rng(0)
    idx = np.arange(m // 2 + 1)
    diag = 2.0 + rng.uniform(0.0, 0.1, m)[idx]
    up = -1.0 + rng.uniform(0.0, 0.1, m)[np.minimum(idx, m - 1 - idx)]
    a = StabilityMatrix(k=0, M=m, diag=diag, up=up)
    shifts = []
    original = spectral._cyclic_solve

    def recorded(diag, up, shift, rhs):
        shifts.append(shift.copy())
        return original(diag, up, shift, rhs)

    monkeypatch.setattr(spectral, "_cyclic_solve", recorded)
    split = spectrum([a], 129)
    monkeypatch.setattr(spectral, "POLISH_PAIRS", 256)
    whole = spectrum([a], 129)
    assert [s.shape for s in shifts] == [(1, 65), (1, 64), (1, 129)]
    # the shifts are the long-double quotients, whose last bits would show
    # a row summed alone before any rounding to float64 hides them
    assert np.array_equal(np.concatenate(shifts[:2], axis=1), shifts[2])
    for p, q in zip(split, whole):
        assert p.eigenvalue == q.eigenvalue
        assert p.residual == q.residual
        assert np.array_equal(p.vector, q.vector)


@pytest.mark.parametrize("m", [9000, 16384])
def test_quotients_sum_each_row_alone(m):
    # each row's quotient and residual are the same bits taken alone, in a
    # slice, or strided; np.einsum sums a row of more than 8192 points
    # alone in its block in other bits than among other rows.  At
    # M = 16384 the blocks hold 4 rows, so row 4 of the batch is alone in
    # its block and rows[:, 1:] fills one block
    rng = np.random.default_rng(0)
    diag = rng.uniform(1.0, 2.0, m).astype(np.longdouble)
    up = rng.uniform(-1.0, -0.5, m).astype(np.longdouble)
    rows = rng.standard_normal((1, 5, m)).astype(np.longdouble)
    lam, res = spectral._quotients(diag, up, rows, residuals=True)
    for i in range(5):
        alone = spectral._quotients(diag, up, rows[:, i:i + 1],
                                    residuals=True)
        assert np.array_equal(alone[0], lam[:, i:i + 1])
        assert np.array_equal(alone[1], res[:, i:i + 1])
    for part in (slice(1, None), slice(None, None, 2), slice(3, None)):
        lam_part, res_part = spectral._quotients(diag, up, rows[:, part],
                                                 residuals=True)
        assert np.array_equal(lam_part, lam[:, part])
        assert np.array_equal(res_part, res[:, part])


def test_polish_keeps_lapack_vector_of_a_failed_solve(pipe, monkeypatch):
    # an exact zero pivot inside the forward sweep turns a pair's whole
    # solve row NaN; that pair keeps its LAPACK vector and the others are
    # untouched
    a = pipe.Lk(256, 0)
    clean = spectrum([a], 8)
    original = spectral._cyclic_solve

    def nan_row_1(diag, up, shifts, rhs):
        out, growth = original(diag, up, shifts, rhs)
        out[..., 1, :] = np.nan
        return out, growth

    monkeypatch.setattr(spectral, "_cyclic_solve", nan_row_1)
    # in one batch of 8, pair 1 fails; in batches of 4, row 1 of each
    # batch, pairs 1 and 5
    for cap, failed in ((spectral.POLISH_PAIRS, (1,)), (4, (1, 5))):
        monkeypatch.setattr(spectral, "POLISH_PAIRS", cap)
        kept = spectrum([a], 8)
        for j in range(8):
            if j in failed:
                fallback = kept[j]
                assert np.all(np.isfinite(fallback.vector))
                assert abs(np.linalg.norm(fallback.vector) - 1.0) <= 1e-12
                assert fallback.residual <= 1e-10
                assert abs(fallback.eigenvalue - clean[j].eigenvalue) <= 1e-9
            else:
                assert kept[j].eigenvalue == clean[j].eigenvalue
                assert kept[j].residual == clean[j].residual
                assert np.array_equal(kept[j].vector, clean[j].vector)


def test_modes_sorted_normalized_canonical(pipe):
    modes = pipe.modes(256, 0, 6)
    vals = [md.eigenvalue for md in modes]
    assert vals == sorted(vals)
    for j, md in enumerate(modes):
        assert md.j == j
        assert md.k == 0
        assert np.isclose(np.linalg.norm(md.vector), 1.0, rtol=0, atol=1e-12)
        assert md.vector[np.argmax(np.abs(md.vector[:129]))] > 0.0


@pytest.mark.parametrize("flip", [1.0, -1.0])
def test_odd_mode_sign_ignores_its_mirror_twin(pipe, monkeypatch, flip):
    # an odd mode's entries m and M - m are mirror images of opposite sign,
    # equal in size but for rounding; the sign comes from rows 0..M/2, so
    # a polish that leaves the twin in M/2..M one ulp larger, whatever the
    # sign it hands over, does not flip the mode
    a = pipe.Lk(256, 0)
    clean = spectrum([a], 3)
    odd = clean[2].vector  # the vertical translation
    mirror = -np.arange(256) % 256
    assert np.linalg.norm(odd[mirror] + odd) <= 1e-8
    m = int(np.argmax(np.abs(odd[:129])))
    original = spectral._refine_pairs

    def twin_larger(diag, up, vecs):
        lam, out, res = original(diag, up, vecs)
        for u in out[0]:
            if abs(abs(np.dot(u, odd)) - 1.0) <= 1e-12:
                u *= flip
                u[-m] = np.nextafter(-u[m], np.copysign(np.inf, -u[m]))
        return lam, out, res

    monkeypatch.setattr(spectral, "_refine_pairs", twin_larger)
    got = spectrum([a], 3)[2].vector
    assert abs(got[-m]) > abs(got[m]) > 0.0
    assert got[m] > 0.0
    assert np.array_equal(np.delete(got, -m % 256), np.delete(odd, -m % 256))


def test_spectrum_count_validation(pipe):
    L0 = pipe.L0(64)
    with pytest.raises(ValueError):
        spectrum([L0], 0)
    with pytest.raises(ValueError):
        spectrum([L0], 65)


def test_spectrum_matches_lapack(pipe):
    # the folded halves against a dense LAPACK solve of the same operator,
    # including the 201-mode drift spectrum, count = M - 1 and odd M
    cases = [(512, k, 8) for k in range(4)] + [
        (512, 0, 201), (64, 0, 63), (65, 0, 1), (65, 1, 64)]
    for m, k, count in cases:
        a = pipe.Lk(m, k)
        lam = [md.eigenvalue for md in spectrum([a], count)]
        ref = scipy.linalg.eigvalsh(oracles.dense(a),
                                    subset_by_index=(0, count - 1))
        assert np.max(np.abs(lam - ref)) <= 1e-9
    with pytest.raises(ValueError):
        spectrum([pipe.L0(64)], 64)


def test_spectrum_repeats_bitwise(pipe):
    a = pipe.Lk(512, 1)
    first = spectrum([a], 8)
    second = spectrum([a], 8)
    for p, q in zip(first, second):
        assert p.eigenvalue == q.eigenvalue
        assert p.residual == q.residual
        assert np.array_equal(p.vector, q.vector)


@pytest.mark.parametrize("ks,count", [((0, 1, 2, 5), 8),
                                      (tuple(range(2, 21)), 1)])
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(m=st.integers(60, 400))
@example(m=512)
def test_batched_spectrum_equals_single_calls(pipe, ks, count, m):
    # one polish over several -L_k gives each pair bitwise the result of
    # its own single-matrix call with the same count, grouped by matrix in
    # input order
    mats = [pipe.Lk(m, k) for k in ks]
    batched = spectrum(mats, count)
    single = [md for a in mats for md in spectrum([a], count)]
    # with POLISH_PAIRS at 3 the call spans several batches: 8 pairs of
    # one matrix each go 3 + 3 + 2, and 19 ground states 3 matrices at most
    pairs = []
    original = spectral._cyclic_solve

    def counted(diag, up, shifts, rhs):
        pairs.append(shifts.size)
        return original(diag, up, shifts, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "POLISH_PAIRS", 3)
        mp.setattr(spectral, "_cyclic_solve", counted)
        split = spectrum(mats, count)
    assert max(pairs) == 3
    assert len(pairs) >= len(ks) * count / 3
    for polished in (batched, split):
        assert [md.k for md in polished] == [
            k for k in ks for _ in range(count)]
        assert len(polished) == len(single)
        for p, q in zip(polished, single):
            assert (p.k, p.j) == (q.k, q.j)
            assert p.eigenvalue == q.eigenvalue
            assert p.residual == q.residual
            assert np.array_equal(p.vector, q.vector)


def test_batched_spectrum_refuses_mixed_operators(pipe):
    a = pipe.Lk(64, 1)
    with pytest.raises(ValueError):
        spectrum([], 4)
    with pytest.raises(ValueError):
        spectrum([a, pipe.Lk(128, 1)], 4)
    foreign = StabilityMatrix(k=2, M=a.M, diag=a.diag, up=2.0 * a.up)
    with pytest.raises(ValueError):
        spectrum([a, foreign], 4)


def test_spectrum_refuses_bands_that_are_not_rows_of_a_half(pipe):
    # a StabilityMatrix holds rows 0..M // 2 of its bands; whole cyclic
    # bands, or a diag of another length in any matrix of the call, would
    # be read as rows of another operator
    a = pipe.Lk(64, 1)
    assert len(a.diag) == len(a.up) == 33
    whole = StabilityMatrix(1, 64, *a.bands())
    rows = "matrices must hold rows 0..M // 2 of their bands"
    with pytest.raises(ValueError, match=rows):
        spectrum([whole], 4)
    short = StabilityMatrix(1, 64, a.diag[:-1], a.up)
    with pytest.raises(ValueError, match=rows):
        spectrum([pipe.Lk(64, 0), short], 4)


@pytest.mark.parametrize("m,k,count,asked", [
    (2048, 0, 201, [(1025, (0, 100)), (1023, (0, 99))]),
    (2048, 1, 201, [(1025, (0, 100)), (1023, (0, 99))]),
    (257, 3, 63, [(129, (0, 31)), (128, (0, 30))]),
    (64, 0, 5, [(33, (0, 2)), (31, (0, 1))]),
    (64, 2, 1, [(33, (0, 0))])],
    ids=["0", "1", "257-3-63", "64-0-5", "64-2-1"])
def test_drift_spectrum_asks_each_half_for_half_the_pairs(pipe, m, k, count,
                                                          asked):
    # stein's cost grows about quadratically with the pairs it is asked
    # for, and interlacing bounds what the merge can keep of each half:
    # 201 modes at M = 2048 ask the even half for 201 // 2 + 1 = 101 pairs
    # and the odd half for 100, once; a ground state asks the odd half for
    # none and does not call it.  Each half bisects one value more than it
    # asks for, to the coarse tolerance alone
    with oracles.lapack_requests() as requests:
        spectrum([pipe.Lk(m, k)], count)
    assert requests["stein"] == asked
    assert [(rows, last) for rows, (_, last), _ in requests["stebz"]] == [
        (rows, min(last + 1, rows - 1)) for rows, (_, last) in asked]
    assert min(tol for _, _, tol in requests["stebz"]) > 0.0


def test_benchmark_spectra_take_coarse_shifts(pipe):
    # the solved torus keeps the lowest values of each half 0.5 apart at
    # least (the sigma^-1 and horizontal-translation pair at k = 1), 7.8
    # times the 100 BISECT_TOL separation at M = 2048, so every spectrum
    # of the drift, the k-scan, index, render and convergence bisects
    # stein's shifts to the coarse tolerance alone
    with oracles.lapack_requests() as requests:
        for k in range(3):
            spectrum([pipe.Lk(2048, k)], 201)
        spectrum([pipe.Lk(2048, k) for k in range(2, 21)], 1)
        spectrum([pipe.Lk(2048, k) for k in range(1, 4)], 2)
        compute_index(pipe.curve(2048))
        for m in (128, 256, 512, 1024, 2048):
            spectrum([pipe.Lk(m, k) for k in range(4)], 4)
    assert len(requests["stebz"]) == len(requests["stein"]) == 77
    assert min(tol for _, _, tol in requests["stebz"]) > 0.0


def test_exactly_tied_pairs_keep_the_lapack_order(pipe):
    # the polished 201-mode k = 0 spectrum at M = 2048 has bit-identical
    # eigenvalues (j = 127/128, 173/174 and 183/184 on x86-64, numpy
    # 2.4.6); only the stable final sort decides which vector takes which
    # j, and it keeps the merge order: mode j is the polish of LAPACK row j
    modes = pipe.modes(2048, 0, 201)
    lam = np.array([md.eigenvalue for md in modes])
    ties = np.flatnonzero(lam[1:] == lam[:-1])
    assert ties.size
    raw = spectral._folded_pairs(pipe.Lk(2048, 0), 201)
    for j in ties:
        overlap = np.abs(np.array([modes[j].vector, modes[j + 1].vector])
                         @ raw[[j, j + 1]].T)
        assert np.all(np.diag(overlap) > 0.999)
        assert np.all(np.diag(overlap[::-1]) < 0.01)


def test_spectrum_refuses_narrow_long_double(pipe, monkeypatch, tmp_path,
                                             capsys):
    # where long double is float64 (Windows, macOS arm64) the polish cannot
    # reach its residuals, so spectrum refuses before any work
    monkeypatch.setattr(spectral, "LONGDOUBLE_BITS", 52)
    with pytest.raises(spectral.NarrowLongDouble,
                       match="63 mantissa bits, and numpy's has 52 here"):
        spectrum([pipe.L0(64)], 4)
    curve = tmp_path / "curve64.csv"
    write_curve(pipe.curve(64), str(curve))
    out = tmp_path / "f.json"
    assert cli.main(["spectrum", "--curve", str(curve),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: runtime: ") and err.count("\n") == 1
    assert "52" in err and "63" in err
    assert not out.exists()


_SPECTRA_SCRIPT = """
import sys
import numpy as np
from shrinker_index import Pipeline, assemble_Lk, read_curve, spectrum
ev = Pipeline(read_curve(sys.argv[1])).evaluation
modes = spectrum([assemble_Lk(ev, int(k)) for k in sys.argv[4:]],
                 int(sys.argv[3]))
np.save(sys.argv[2], np.concatenate(
    [[md.eigenvalue for md in modes]] + [md.vector for md in modes]))
"""


def _spectra_per_thread_count(curve, tmp_path, ks, count):
    """One `spectrum` call in a fresh process with 1, then 2 BLAS threads."""
    curve_path = tmp_path / "curve.csv"
    write_curve(curve, str(curve_path))
    src = os.path.dirname(os.path.dirname(shrinker_index.__file__))
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / ("spectra%s.npy" % threads)
        subprocess.run([sys.executable, "-c", _SPECTRA_SCRIPT,
                        str(curve_path), str(out), str(count)]
                       + [str(k) for k in ks],
                       env=env, check=True, timeout=300)
        results.append(np.load(out))
    return results


def test_low_spectra_identical_across_thread_counts(pipe, tmp_path):
    # the 8-mode spectra carry no BLAS-order dependence
    one, two = _spectra_per_thread_count(pipe.curve(1024), tmp_path,
                                         range(4), 8)
    assert one.shape == (32 + 32 * 1024,)
    assert np.array_equal(one, two)


def test_drift_spectra_identical_across_thread_counts(pipe, tmp_path):
    # neither do the 201-mode drift spectra, values and vectors, at
    # M = 2048: a size where shift-invert Lanczos (ARPACK) gives different
    # bits under 1 and 2 threads
    one, two = _spectra_per_thread_count(pipe.curve(2048), tmp_path,
                                         range(2), 201)
    assert one.shape == (402 + 402 * 2048,)
    assert np.array_equal(one, two)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@example(m=18)
@example(m=59)
@given(m=st.integers(18, 129))
def test_full_count_scan_labels_one_mode_per_template(pipe, m):
    # the label bound 1/sqrt(2) passes at most one of a k's orthonormal
    # modes per template; at M = 18..129 each template of k = 0 and 1
    # finds its mode, and k = 2, 3 have none
    modes = Pipeline(pipe.curve(m)).scan(range(4), m - 1)
    for k, labels in enumerate([["dilation", "vertical_translation"],
                                ["horizontal_translation", "rotation",
                                 "sigma_inverse"], [], []]):
        got = sorted(md.label for md in modes
                     if md.k == k and md.label != "generic")
        assert got == labels, (m, k)


def test_labels_low_modes(pipe):
    crv = pipe.curve(256)
    nf = pipe.normals(256)
    modes0 = classify_modes(pipe.modes(256, 0, 3), crv, nf)
    assert [m.label for m in modes0] == [
        "generic", "dilation", "vertical_translation"]
    modes1 = classify_modes(pipe.modes(256, 1, 3), crv, nf)
    assert [m.label for m in modes1] == [
        "sigma_inverse", "horizontal_translation", "rotation"]


def test_low_modes_have_template_parity(pipe):
    # each low mode is even or odd under m -> -m mod M, as its template is
    parity = {"dilation": 1.0, "horizontal_translation": 1.0,
              "sigma_inverse": 1.0, "vertical_translation": -1.0,
              "rotation": -1.0}
    mirror = -np.arange(256) % 256
    labels = []
    for k in (0, 1):
        for md in pipe.modes(256, k, 3):
            u = md.vector
            if md.label == "generic":
                assert min(np.linalg.norm(u[mirror] - u),
                           np.linalg.norm(u[mirror] + u)) <= 1e-8
            else:
                labels.append(md.label)
                assert np.linalg.norm(
                    u[mirror] - parity[md.label] * u) <= 1e-8
    assert sorted(labels) == sorted(parity)


def test_pipeline_refuses_normals_that_do_not_mirror(pipe):
    # at M = 12 the normal picked at the two axis points is the tangent,
    # which the reflection reverses, so -L_k does not split into halves;
    # solve_geodesic refuses M < 18, and the solver's folded Newton step
    # needs mirrored normals, so resample a solved curve to 12 points
    points = oracles.resample_points(pipe.curve(64).points, 12)
    crv = DiscreteCurve(0.5 * (points + curve_mod.mirror_points(points)))
    with pytest.raises(ExclusionMismatch, match="normal at point"):
        Pipeline(crv)


def test_pipeline_matches_explicit_chain(pipe):
    crv = pipe.curve(256)
    chain = Pipeline(crv)
    ev = Evaluation(crv.points[:129], 256).unfold()
    for k in range(4):
        got = chain.scan([k], 8)
        ref = classify_modes(spectrum([assemble_Lk(ev, k)], 8), crv,
                             ev.normals)
        assert len(got) == len(ref) == 8
        for p, q in zip(got, ref):
            assert (p.k, p.j, p.label) == (q.k, q.j, q.label)
            assert p.eigenvalue == q.eigenvalue
            assert p.residual == q.residual
            assert np.array_equal(p.vector, q.vector)


def _calls_to(names, tree):
    """(line, name) of each call in tree to a function or method in names."""
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                calls.add((node.lineno, name))
    return calls


def test_spectra_are_taken_only_in_pipeline_scan():
    # one curve -> normals -> L0 -> L_k -> modes chain: scan is the one
    # public method of Pipeline, and no module of the library calls
    # spectrum or classify_modes outside it
    names = {"spectrum", "classify_modes"}
    outside = {}
    scans = 0
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = _calls_to(names, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Pipeline":
                methods = {f.name: f for f in node.body
                           if isinstance(f, ast.FunctionDef)}
                assert [name for name in methods
                        if not name.startswith("_")] == ["scan"]
                scan = methods["scan"]
                in_scan = _calls_to(names, scan)
                assert {name for _, name in in_scan} == names
                calls -= in_scan
                scans += 1
        if calls:
            outside[path.name] = sorted(calls)
    assert scans == 1
    assert outside == {}

    # one eigensolver path: only spectrum folds -L_k for pairs, and only
    # the fold (bisection and inverse iteration) and the index count call
    # LAPACK on the mirror halves; scipy's eigh_tridiagonal, which
    # bisects to full precision, is called nowhere
    for names, owners in [
            ({"_folded_pairs"}, {"spectrum"}),
            ({"dstebz", "dstein", "eigvalsh_tridiagonal"},
             {"_folded_pairs", "compute_index"}),
            ({"eigh_tridiagonal"}, set())]:
        seen = set()
        for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            calls = _calls_to(names, tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in owners:
                    inside = _calls_to(names, node)
                    seen |= {name for _, name in inside}
                    calls -= inside
            if calls:
                outside[path.name] = sorted(calls)
        assert seen == (names if owners else set())
        assert outside == {}


@pytest.mark.parametrize("ks,count", [((0,), 8), ((0, 1, 2, 3), 8),
                                      ((0,), 201)])
def test_cyclic_solve_matches_pair_leading_sweep(pipe, ks, count):
    # the M-leading sweep does the reference's operations in its order, so
    # it must agree bit for bit; the polish's reductions sum in memory
    # order, so the result must also come back C-contiguous, pair-leading
    ld = np.longdouble
    mats = [pipe.Lk(512, k) for k in ks]
    diag = np.array([a.bands()[0] for a in mats], dtype=ld)[:, None, :]
    up = mats[0].bands()[1].astype(ld)
    rhs = np.array([spectral._folded_pairs(a, count) for a in mats],
                   dtype=ld)
    # shifted as the polish shifts: 1e-13 above each row's Rayleigh quotient
    rhs /= np.sqrt(np.einsum("...m,...m->...", rhs, rhs))[..., None]
    shifts = np.einsum("...m,...m->...", rhs,
                       spectral._band_matvec(diag, up, rhs)) + ld(1e-13)
    # the solve consumes its rhs and hands the result back in its buffer
    arg = rhs.copy()
    with np.errstate(all="ignore"):
        got = spectral._cyclic_solve(diag, up, shifts, arg)[0]
        ref = oracles.cyclic_solve_pair_leading(diag, up, shifts, rhs)
    assert got.shape == rhs.shape == (len(ks), count, 512)
    assert got.dtype == ld
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref)
    assert np.shares_memory(got, arg)


def test_sweep_walks_contiguous_rows(pipe, monkeypatch):
    # the sweep gets its pivots as (M, pairs) and its work as (M, pairs, 2),
    # both C-contiguous, so each step walks one contiguous row of every
    # pair of the batch
    seen = []
    original = spectral._sweep

    def recorded(piv, work, upl):
        seen.append((piv.shape, piv.flags.c_contiguous,
                     work.shape, work.flags.c_contiguous))
        return original(piv, work, upl)

    monkeypatch.setattr(spectral, "_sweep", recorded)
    spectrum([pipe.Lk(512, k) for k in range(4)], 8)
    assert seen == [((512, 32), True, (512, 32, 2), True)]


#: Least distance of a drawn shift from the dense spectrum.
_SHIFT_GAP = 1e-2


@st.composite
def separated_systems(draw):
    """Whole cyclic bands (diag, up) at M = 18..200, not mirror-symmetric,
    shifts away from their spectrum, rhs."""
    m = draw(st.integers(18, 200))
    entry = st.floats(-4.0, 4.0, allow_subnormal=False)
    a = (draw(arrays(float, m, elements=entry)),
         draw(arrays(float, m, elements=entry)))
    lam = scipy.linalg.eigvalsh(oracles.dense_bands(*a))
    # the stretches of the real line at least _SHIFT_GAP from every
    # eigenvalue: both sides of the spectrum and each wide enough gap
    lo = np.concatenate([[lam[0] - 4.0], lam + _SHIFT_GAP])
    hi = np.concatenate([lam - _SHIFT_GAP, [lam[-1] + 4.0]])
    usable = np.flatnonzero(hi >= lo)
    count = draw(st.integers(1, 4))
    shifts = []
    for _ in range(count):
        i = usable[draw(st.integers(0, len(usable) - 1))]
        shifts.append(lo[i] + draw(st.floats(0.0, 1.0)) * (hi[i] - lo[i]))
    rhs = draw(arrays(float, (count, m), elements=st.floats(-1.0, 1.0)))
    return a, lam, np.array(shifts), rhs


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(system=separated_systems())
def test_cyclic_solve_matches_dense_solve(system):
    (diag, up), lam, shifts, rhs = system
    ld = np.longdouble
    got = spectral._cyclic_solve(diag.astype(ld)[None, :],
                                 up.astype(ld), shifts.astype(ld),
                                 rhs.astype(ld))[0]
    eps = np.finfo(float).eps
    for x, s, b in zip(got, shifts, rhs):
        ref = np.linalg.solve(oracles.dense_bands(diag, up)
                              - s * np.eye(len(diag)), b)
        dist = np.abs(lam - s)
        cond = dist.max() / dist.min()
        assert (np.linalg.norm(x.astype(float) - ref)
                <= 100.0 * eps * cond * np.linalg.norm(ref))


@pytest.mark.parametrize("argv,expected", [
    (["spectrum"], 1),
    (["render", "--j", "0", "--out", "{tmp}/r"], 1),
    (["asymptotics", "--j-max", "10", "--k-scan", "3", "--out", "{tmp}/a"],
     2),
    (["index"], 1),
])
def test_cli_spectra_pass_through_module_attribute(pipe, tmp_path,
                                                   monkeypatch, argv,
                                                   expected):
    # the benchmark collects residuals by replacing spectral.spectrum, so
    # every spectrum a subcommand computes must be looked up there; each
    # subcommand evaluates the curve's point blocks once, renders included,
    # index polishes all its k in one call, and asymptotics polishes its
    # k-scan in one call after the drift spectrum
    curve_path = tmp_path / "curve64.csv"
    write_curve(pipe.curve(64), str(curve_path))
    original = spectral.spectrum
    original_evaluation = stability.Evaluation
    original_blocks = metric.segment_blocks
    calls = []
    evaluations = []
    blocks = []

    def counted(matrices, count):
        calls.append(count)
        return original(matrices, count)

    def counted_evaluation(half, m):
        evaluations.append(m)
        return original_evaluation(half, m)

    def counted_blocks(a, b):
        blocks.append(len(a))
        return original_blocks(a, b)
    monkeypatch.setattr(spectral, "spectrum", counted)
    monkeypatch.setattr(stability, "Evaluation", counted_evaluation)
    monkeypatch.setattr(metric, "segment_blocks", counted_blocks)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli.main(argv[:1] + ["--curve", str(curve_path)] + argv[1:]) == 0
    assert len(calls) == expected
    assert len(evaluations) == 1
    assert len(blocks) == 1


@pytest.mark.parametrize("m", [18, 19, 64, 65, 257, 2048, 2049])
def test_pipeline_state_is_its_own_mirror(pipe, m):
    # Pipeline unfolds the evaluation of rows 0..M // 2 exactly: the
    # points and normals mirror bit for bit, and -L_0 keeps the evaluated
    # rows of the bands, scaled by M / l, which, summed on the half, is the
    # whole curve's to rounding
    crv, ev = pipe.curve(m), pipe.evaluation(m)
    j = np.arange(m)
    assert np.array_equal(ev.points, crv.points)
    assert np.array_equal(ev.normals[-j % m], ev.normals * [1.0, -1.0])
    half = Evaluation(crv.points[:m // 2 + 1], m)
    assert ev.L0.M == m
    assert len(ev.L0.diag) == len(ev.L0.up) == m // 2 + 1
    scaled = m / discrete_length(crv) * half.diag
    rel = np.abs(ev.L0.diag - scaled) / np.abs(scaled)
    assert rel.max() <= 1e-15


def test_pipeline_evaluates_the_point_blocks_once(pipe, monkeypatch):
    # the normals, -L_0 and the solved-geodesic test all come from one
    # evaluation of the segment blocks, over the M // 2 + 2 segments of
    # rows 0..M // 2 padded across the axis
    crv = pipe.curve(64)
    original = metric.segment_blocks
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return original(a, b)
    monkeypatch.setattr(metric, "segment_blocks", counted)
    Pipeline(crv)
    assert calls == [34]


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
    # the solved curve is its own mirror image, so its reflection is the
    # same point set traversed clockwise
    crv = reflect_z(pipe.curve(256))
    a = Pipeline(crv).evaluation.L0
    vals = [md.eigenvalue for md in spectrum([a], 4)]
    assert np.max(np.abs(np.array(vals)
                         - pipe.eigenvalues(256, 0, 4))) < 1e-8


def test_spectrum_report_shape(pipe, tmp_path, capsys):
    path = str(tmp_path / "curve.csv")
    shrinker_index.write_curve(pipe.curve(256), path)
    assert cli.main(["spectrum", "--curve", path, "--k", "1",
                     "--count", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["M"] == 256 and rep["k"] == 1
    assert len(rep["eigenvalues"]) == 4
    assert len(rep["labels"]) == len(rep["residuals"]) == 4
    assert cli.main(["spectrum", "--curve", path, "--k", "1",
                     "--count", "0"]) == 3


def test_index_report(pipe):
    rep = compute_index(pipe.curve(256))
    assert rep.index == 5
    assert rep.total_negative == 9
    assert sum(e["multiplicity"] for e in rep.excluded) == 4
    counts = [(k, len(vals)) for k, vals in rep.per_k]
    assert counts[:4] == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_index_pairs_equal_per_k_modes(pipe):
    # the index polishes every k in one batch; a pair's polish does not
    # depend on its batch, so each k's counted eigenvalues are bitwise
    # those of its own one-k Pipeline.scan
    crv = pipe.curve(256)
    rep = compute_index(crv)
    chain = Pipeline(crv)
    assert [k for k, _ in rep.per_k] == [0, 1, 2, 3]
    for k, vals in rep.per_k:
        ref = [m.eigenvalue for m in chain.scan([k], 8)
               if m.eigenvalue < 0.0 and m.label != "rotation"]
        assert vals == ref


def test_index_counts_every_negative_mode(pipe, monkeypatch):
    # -L_0 shifted down by 20 has 11 negative modes, more than any fixed
    # guess of 8; the bisection count must polish them all in one spectrum
    original = stability.assemble_Lk
    original_spectrum = spectral.spectrum
    sunk0 = []
    calls = []

    def sunk(ev, k):
        a = original(ev, k)
        if k == 0:
            a = StabilityMatrix(k=0, M=a.M, diag=a.diag - 20.0, up=a.up)
            sunk0.append(a)
        return a

    def counted(matrices, count):
        calls.append(count)
        return original_spectrum(matrices, count)
    monkeypatch.setattr(stability, "assemble_Lk", sunk)
    monkeypatch.setattr(spectral, "spectrum", counted)
    rep = compute_index(pipe.curve(256))
    a = sunk0[0]
    dense = np.linalg.eigvalsh(oracles.dense(a))
    assert len(rep.per_k[0][1]) == np.sum(dense < 0.0) == 11
    assert len(calls) == 1


def test_index_skips_rotation_mode_of_either_sign(pipe, monkeypatch):
    # the rotation mode is 0 in the continuum and +2.5e-4 at M = 256; the
    # index must not change when the discretisation error is negative
    original = spectral.spectrum
    flipped = []

    def rotation_below_zero(matrices, count):
        modes = original(matrices, count)
        for m in modes:
            if m.k == 1 and abs(m.eigenvalue) < 1e-3:
                m.eigenvalue = -m.eigenvalue
                flipped.append(m.eigenvalue)
        return modes
    monkeypatch.setattr(spectral, "spectrum", rotation_below_zero)
    rep = compute_index(pipe.curve(256))
    assert flipped and all(lam < 0.0 for lam in flipped)
    assert rep.index == 5
    assert rep.total_negative == 9


def test_index_refuses_when_every_mode_is_negative(pipe, monkeypatch):
    # -L_0 pushed far down has all M modes negative, more than the M - 1
    # the eigensolver can return; the count must fail, not truncate
    original = stability.assemble_Lk

    def sunk(ev, k):
        a = original(ev, k)
        if k == 0:
            a = StabilityMatrix(k=0, M=a.M, diag=a.diag - 1e9, up=a.up)
        return a
    monkeypatch.setattr(stability, "assemble_Lk", sunk)
    with pytest.raises(ExclusionMismatch,
                       match="all 64 modes at k = 0 are below 0.001"):
        compute_index(pipe.curve(64))


def test_index_walk_ends_by_the_weyl_bound(pipe, monkeypatch):
    # -L_k is -L_0 plus k^2 / r^2 on the diagonal, so by Weyl's inequality
    # its eigenvalues rise with k; with every -L_k lowered by 400 at M = 64
    # the walk runs on until the first k whose whole spectrum clears the
    # stop margin, and that k lies within ceil(max r sqrt(margin - lambda_min))
    original = stability.assemble_Lk

    def sunk(ev, k):
        a = original(ev, k)
        return StabilityMatrix(k=a.k, M=a.M, diag=a.diag - 400.0, up=a.up)
    monkeypatch.setattr(stability, "assemble_Lk", sunk)
    ev = pipe.evaluation(64)
    lowest = [np.linalg.eigvalsh(oracles.dense(sunk(ev, k)))[0]
              for k in range(80)]
    first_clear = next(k for k, lam in enumerate(lowest)
                       if lam > spectral.INDEX_STOP_MARGIN)
    bound = np.ceil(ev.points[:, 0].max()
                    * np.sqrt(spectral.INDEX_STOP_MARGIN - lowest[0]))
    rep = compute_index(pipe.curve(64))
    assert len(rep.per_k) - 1 == first_clear == 66
    assert first_clear <= bound == 67


@pytest.mark.parametrize("fault,below", [("drop", 0), ("double", 2)])
def test_index_refuses_a_dropped_or_doubled_pair(pipe, monkeypatch, tmp_path,
                                                 capsys, fault, below):
    # k = 2 has one mode below the stop margin, its one negative mode; a
    # merge that drops it or doubles it keeps every exclusion label and
    # would give index 4 or 6, so only the walk's Sturm count can catch it
    original = spectral._folded_pairs

    def faulty(a, count):
        if a.k != 2:
            return original(a, count)
        if fault == "drop":
            return original(a, count + 1)[1:]
        rows = original(a, count)
        rows[1] = rows[0]
        return rows
    monkeypatch.setattr(spectral, "_folded_pairs", faulty)
    path = tmp_path / "curve64.csv"
    write_curve(pipe.curve(64), str(path))
    assert cli.main(["index", "--curve", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: consistency: %d polished eigenvalues at k = 2 are below "
        "0.001, but its Sturm count is 1 (M = 64)\n" % below)


def test_index_refuses_unlabelled_exclusions(pipe, monkeypatch, tmp_path,
                                             capsys):
    # with a cosine bound of 1 no mode takes a label, so the dilation and
    # the translations cannot be found and the index must not be guessed
    monkeypatch.setattr(spectral, "CLASSIFY_COSINE", 1.0)
    with pytest.raises(ExclusionMismatch) as info:
        compute_index(pipe.curve(64))
    assert str(info.value) == (
        "expected one dilation and three translation modes, found "
        "{'dilation': 0, 'vertical_translation': 0, "
        "'horizontal_translation': 0} at M = 64")
    path = tmp_path / "curve64.csv"
    write_curve(pipe.curve(64), str(path))
    assert cli.main(["index", "--curve", str(path)]) == 4
    assert capsys.readouterr().err == "error: consistency: %s\n" % info.value


def test_index_requires_recognizable_exclusions():
    # a random closed polygon is no solved geodesic; it is not even its own
    # mirror image, so the Pipeline refuses it before any spectrum is taken
    rng = np.random.default_rng(5)
    bad = DiscreteCurve(np.column_stack([rng.uniform(0.5, 3.0, 64),
                                         rng.uniform(-1.0, 1.0, 64)]))
    with pytest.raises(ExclusionMismatch,
                       match="curve is not mirror-symmetric: point 14 "):
        compute_index(bad)
