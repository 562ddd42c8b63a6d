"""Property tests of the mirror fold on random mirror-symmetric bands.

Any cyclic tridiagonal matrix that commutes with the reflection
m -> -m mod M splits into the even and odd `mirror_halves`; their spectra
together are the spectrum of the full matrix, and the even half, with
the unfold weight, solves the full system for an even right-hand side,
as the solver's Newton step does.  The bands drawn here are rows
0..M // 2, as a StabilityMatrix holds them, and otherwise arbitrary, at
odd and even M.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from shrinker_index import StabilityMatrix, spectral
from shrinker_index.stability import mirror_halves

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=60)

_ENTRY = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)


@st.composite
def mirror_bands(draw, sizes=st.integers(18, 300)):
    """A StabilityMatrix of random rows 0..M // 2; up[M // 2] at even M
    is the mirror image up[M // 2 - 1], as `StabilityMatrix.bands` reads
    it."""
    m = draw(sizes)
    d = draw(arrays(float, m // 2 + 1, elements=_ENTRY))
    u = draw(arrays(float, (m + 1) // 2, elements=_ENTRY))
    idx = np.arange(m // 2 + 1)
    return StabilityMatrix(k=0, M=m, diag=d,
                           up=u[np.minimum(idx, m - 1 - idx)])


@_SETTINGS
@given(data=st.data(), a=mirror_bands())
def test_folded_pairs_match_dense_spectrum(data, a):
    count = data.draw(st.integers(1, a.M - 1), label="count")
    dense = oracles.dense(a)
    rows = spectral._folded_pairs(a, count)
    assert rows.shape == (count, a.M)
    # the rows come in the order of the lowest eigenvalues, ascending
    vals = np.einsum("jm,jm->j", rows, rows @ dense)
    assert np.allclose(vals, scipy.linalg.eigvalsh(dense)[:count],
                       rtol=0, atol=1e-11)
    # the unfolded vectors are orthonormal eigenvectors of the full matrix
    assert np.allclose(rows @ rows.T, np.eye(count), rtol=0, atol=1e-11)
    assert np.linalg.norm(rows @ dense - vals[:, None] * rows,
                          axis=1).max() < 1e-11


@st.composite
def lowered_odd_bands(draw):
    """A mirror band at odd M = 19..89 with up[M // 2] > 0, where the fold
    lowers the odd half's last diagonal entry."""
    a = draw(mirror_bands(st.integers(9, 44).map(lambda n: 2 * n + 1)))
    up = a.up.copy()
    up[a.M // 2] = draw(st.floats(1e-3, 4.0))
    return StabilityMatrix(k=0, M=a.M, diag=a.diag, up=up)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(a=lowered_odd_bands())
def test_folded_pairs_match_dense_spectrum_at_every_count_of_odd_m(a):
    # at odd M with up[M // 2] > 0 the odd half is the even half's interior
    # lowered by a rank-one term, so it can hold count // 2 + 1 of the
    # lowest count and is asked for that many.  Asked for count // 2, as
    # elsewhere, it dropped a pair in 783 of 15,120 (M, count) cases of four
    # random mirror bands (entries uniform in -4..4) per M = 18..89, all at
    # odd M with up[M // 2] > 0; the 60 examples above miss that
    dense = oracles.dense(a)
    lam = scipy.linalg.eigvalsh(dense)
    for count in range(1, a.M):
        rows = spectral._folded_pairs(a, count)
        vals = np.einsum("jm,jm->j", rows, rows @ dense)
        assert np.allclose(vals, lam[:count], rtol=0, atol=1e-11), count
        assert np.allclose(rows @ rows.T, np.eye(count), rtol=0, atol=1e-11)
        assert np.linalg.norm(rows @ dense - vals[:, None] * rows,
                              axis=1).max() < 1e-11


@_SETTINGS
@given(data=st.data(), a=st.one_of(mirror_bands(), lowered_odd_bands()))
def test_weighted_even_half_solves_the_cyclic_system(data, a):
    # the solver's step: for an even right-hand side b, the even half S of
    # `stability.mirror_halves` gives x = w S^-1 (b / w) on rows 0..M // 2,
    # the solution of the full cyclic system
    m, h = a.M, a.M // 2
    dense = oracles.dense(a)
    assume(np.linalg.cond(dense) < 1e6)
    b = data.draw(arrays(float, h + 1, elements=_ENTRY), label="b")
    assume(np.any(b))
    rows = np.arange(h + 1)
    weight = np.where((rows == 0) | (2 * rows == m), 1.0, np.sqrt(0.5))
    (d, e), _ = mirror_halves(a.diag, a.up, m)
    half = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    got = weight * np.linalg.solve(half, b / weight)
    idx = np.arange(m)
    want = np.linalg.solve(dense, b[np.minimum(idx, m - idx)])
    assert np.max(np.abs(got - want[:h + 1])) <= 1e-9 * np.max(np.abs(want))


@_SETTINGS
@given(a=mirror_bands(), cut=st.floats(-13.0, 13.0))
def test_halves_bisection_count_matches_dense(a, cut):
    lam = scipy.linalg.eigvalsh(oracles.dense(a))
    assume(np.abs(lam - cut).min() > 1e-9)
    n = sum(len(scipy.linalg.eigvalsh_tridiagonal(
        d, e, select="v", select_range=(-np.inf, cut)))
        for d, e in mirror_halves(a.diag, a.up, a.M))
    assert n == int(np.count_nonzero(lam < cut))


@_SETTINGS
@given(a=mirror_bands())
def test_halves_nest_the_odd_half_in_the_even_half(a):
    # `_folded_pairs` asks the even half for count // 2 + 1 pairs and the
    # odd half for count // 2 (count // 2 + 1 at odd M with up[M // 2] > 0)
    # because, by Cauchy interlacing, neither holds more of the lowest
    # count; that rests on this nesting, bit for bit
    (d_even, e_even), (d_odd, e_odd) = mirror_halves(a.diag, a.up, a.M)
    assert np.array_equal(e_odd, e_even[1:len(e_odd) + 1])
    h = a.M // 2
    if a.M % 2:
        # the reflection swaps points h and h + 1 and maps segment h onto
        # itself; the pair adds +-up[h] to the halves' last entries
        assert np.array_equal(d_odd[:-1], d_even[1:-1])
        assert d_even[-1] == a.diag[h] + a.up[h]
        assert d_odd[-1] == a.diag[h] - a.up[h]
    else:
        assert np.array_equal(d_odd, d_even[1:len(d_odd) + 1])


@st.composite
def tied_diagonal_bands(draw):
    """A diagonal mirror band of small integers: every value of the odd
    half is also a value of the even half, bit for bit."""
    m = draw(st.integers(18, 300))
    d = draw(arrays(float, m // 2 + 1, elements=st.integers(-3, 3)))
    return StabilityMatrix(k=0, M=m, diag=d, up=np.zeros(m // 2 + 1))


@_SETTINGS
@given(data=st.data(), a=tied_diagonal_bands())
def test_folded_pairs_ask_each_half_once_at_ties(data, a):
    # each half is asked once, the even half for count // 2 + 1 pairs and
    # the odd half for count // 2 (up is 0 here).  Here every value of the
    # odd half ties one of the even half exactly, and the merge takes the
    # even copy of a tie first, so at these counts it keeps every pair the
    # even half returned and fills the rest with odd copies of the same
    # values
    halves = mirror_halves(a.diag, a.up, a.M)
    rows = [len(d) for d, _ in halves]
    lam = np.concatenate([np.sort(d) for d, _ in halves])
    from_even = np.cumsum(np.argsort(lam, kind="stable") < rows[0])
    wide = [count for count in range(5, a.M)
            if count // 2 + 1 < min(from_even[count - 1], rows[0])]
    assume(wide)
    count = data.draw(st.sampled_from(wide), label="count")
    with oracles.lapack_requests() as requests:
        rows_out = spectral._folded_pairs(a, count)
    assert requests["stein"] == [(n, (0, min(count // 2 + extra, n) - 1))
                                 for n, extra in zip(rows, (1, 0))]
    # the even copy of a tie is kept first, as at full precision
    assert np.array_equal(rows_out, oracles.eigh_folded_pairs(a, count))
    dense = oracles.dense(a)
    vals = np.einsum("jm,jm->j", rows_out, rows_out @ dense)
    assert np.allclose(vals, scipy.linalg.eigvalsh(dense)[:count],
                       rtol=0, atol=1e-11)
    assert np.allclose(rows_out @ rows_out.T, np.eye(count), rtol=0,
                       atol=1e-11)
    assert np.linalg.norm(rows_out @ dense - vals[:, None] * rows_out,
                          axis=1).max() < 1e-11


def _wells(m, depths):
    """Mirror bands of zero diagonal and couplings 1 but for one-row wells
    of the given depths.  A well off the fixed points holds a value of
    each half, the two equal to rounding; two such wells hold values of
    one half about exp(-1.66 distance) apart; a well on point 0 holds a
    value of the even half alone."""
    diag = np.zeros(m // 2 + 1)
    for row, depth in depths.items():
        diag[row] = depth
    return StabilityMatrix(k=0, M=m, diag=diag, up=np.ones(m // 2 + 1))


@pytest.mark.parametrize("depths,count,crowded", [
    ({8: -5.0, 22: -5.0}, 4, True),
    ({8: -5.0, 22: -5.0}, 1, True),
    ({0: -8.0, 15: -5.0}, 2, True),
    ({15: -5.0}, 1, False)],
    ids=["in-half", "next-value", "cut", "apart"])
def test_crowded_shifts_take_full_precision(depths, count, crowded):
    # stein needs each shift far closer to its own eigenvalue than to any
    # other, so values within 100 times the coarse tolerance send both
    # halves to LAPACK's full precision: two values a half asks for
    # (in-half), a ground state's next value (next-value), or the copies
    # of a well in the two halves, one kept and one dropped by the merge
    # (cut).  Each then gives the full-precision fold bit for bit; a lone
    # well's ground state keeps its coarse shift
    a = _wells(60, depths)
    tol = spectral.BISECT_TOL * (np.abs(a.diag).max() + 2.0)
    (d, e), (d_odd, e_odd) = mirror_halves(a.diag, a.up, a.M)
    even = scipy.linalg.eigvalsh_tridiagonal(d, e)
    odd = scipy.linalg.eigvalsh_tridiagonal(d_odd, e_odd)
    gap = {1: even[1] - even[0], 2: abs(odd[0] - even[1]),
           4: even[1] - even[0]}[count]
    assert (gap < 100 * tol) == crowded
    with oracles.lapack_requests() as requests:
        rows = spectral._folded_pairs(a, count)
    halves = len(requests["stein"])
    assert [t for _, _, t in requests["stebz"]] == (
        [tol] * halves + [0.0] * halves if crowded else [tol] * halves)
    full = oracles.eigh_folded_pairs(a, count)
    assert np.array_equal(rows, full) == crowded
    assert np.abs(np.abs(np.einsum("jm,jm->j", rows, full)) - 1.0).max() \
        < 1e-12


@_SETTINGS
@given(data=st.data(), a=st.one_of(mirror_bands(), lowered_odd_bands()))
def test_folded_pairs_at_full_precision_are_the_full_fold(data, a):
    # wherever the coarse shifts crowd, the fold runs LAPACK's
    # full-precision bisection, and that path is bit for bit the fold
    # through scipy.linalg.eigh_tridiagonal
    count = data.draw(st.integers(1, a.M - 1), label="count")
    with oracles.lapack_requests() as requests:
        rows = spectral._folded_pairs(a, count)
    if requests["stebz"][-1][-1] == 0.0:
        assert np.array_equal(rows, oracles.eigh_folded_pairs(a, count))


def test_folded_pairs_take_full_precision_where_stein_fails():
    # stein scales its start vector by max(eps, last pivot): eps absolute,
    # the pivot in the units of the half.  On couplings of 1e-8 it does
    # not converge at the coarse shift, 1e-9 of the norm off, and the
    # fold takes the full-precision path instead
    a = StabilityMatrix(k=0, M=18, diag=np.zeros(10), up=np.full(10, 1e-8))
    with oracles.lapack_requests() as requests:
        rows = spectral._folded_pairs(a, 1)
    assert [t for _, _, t in requests["stebz"]] == [
        spectral.BISECT_TOL * 2e-8, 0.0]
    assert requests["stein"] == [(10, (0, 0))] * 2
    assert np.array_equal(rows, oracles.eigh_folded_pairs(a, 1))


@pytest.mark.parametrize("m", [3, 4])
def test_folded_pairs_of_a_one_row_half(m):
    # at M = 3 and 4 the odd half is one row, which LAPACK's wrapper
    # takes only with one entry of e
    a = StabilityMatrix(k=0, M=m, diag=np.array([1.0, -2.0, 0.5][:m // 2 + 1]),
                        up=np.array([0.7, -0.3, 0.4][:m // 2 + 1]))
    rows = spectral._folded_pairs(a, m - 1)
    dense = oracles.dense(a)
    vals = np.einsum("jm,jm->j", rows, rows @ dense)
    assert np.allclose(vals, scipy.linalg.eigvalsh(dense)[:m - 1],
                       rtol=0, atol=1e-14)
    assert np.allclose(rows @ rows.T, np.eye(m - 1), rtol=0, atol=1e-14)


def test_folded_pairs_refuse_bands_that_are_not_finite():
    a = _wells(60, {15: -5.0})
    a.diag[3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectral._folded_pairs(a, 4)


@pytest.mark.parametrize("routine,message", [
    ("dstebz", "bisection \\(stebz\\) failed"),
    ("dstein", "stein: 1 eigenvectors failed to converge")])
def test_folded_pairs_raise_where_lapack_fails(monkeypatch, routine,
                                               message):
    # LAPACK's info: stebz > 0 where its bisection did not converge, stein
    # the number of vectors that did not, at the coarse shifts and then at
    # full precision
    lapack = scipy.linalg.lapack
    original = getattr(lapack, routine)

    def failing(*args):
        return original(*args)[:-1] + (1,)
    monkeypatch.setattr(lapack, routine, failing)
    with pytest.raises(np.linalg.LinAlgError, match=message):
        spectral._folded_pairs(_wells(60, {15: -5.0}), 4)
