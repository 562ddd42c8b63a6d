"""Property tests of the mirror fold on random mirror-symmetric bands.

Any cyclic tridiagonal matrix that commutes with the reflection
m -> -m mod M splits into the even and odd `_halves`; their spectra
together are the spectrum of the full matrix, and the even half, with
the unfold weight, solves the full system for an even right-hand side,
as the solver's Newton step does.  The bands drawn here are
their own mirror image but otherwise arbitrary, at odd and even M.
"""

import numpy as np
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
    """A StabilityMatrix with diag[m] = diag[-m] and up[m] = up[M-1-m]."""
    m = draw(sizes)
    d = draw(arrays(float, m // 2 + 1, elements=_ENTRY))
    u = draw(arrays(float, (m + 1) // 2, elements=_ENTRY))
    idx = np.arange(m)
    return StabilityMatrix(k=0, diag=d[np.minimum(idx, m - idx)],
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
    return StabilityMatrix(k=0, diag=a.diag, up=up)


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
        for d, e in spectral._halves(a))
    assert n == int(np.count_nonzero(lam < cut))


@_SETTINGS
@given(a=mirror_bands())
def test_halves_nest_the_odd_half_in_the_even_half(a):
    # `_folded_pairs` asks the even half for count // 2 + 1 pairs and the
    # odd half for count // 2 (count // 2 + 1 at odd M with up[M // 2] > 0)
    # because, by Cauchy interlacing, neither holds more of the lowest
    # count; that rests on this nesting, bit for bit
    (d_even, e_even), (d_odd, e_odd) = spectral._halves(a)
    assert np.array_equal(e_odd, e_even[1:len(e_odd) + 1])
    h = a.M // 2
    if a.M % 2:
        # the reflection swaps points h and h + 1 and maps segment h onto
        # itself; the pair adds +-up[h] to the halves' last entries
        assert np.array_equal(d_odd[:-1], d_even[1:-1])
        diag_h = 0.5 * (a.diag[h] + a.diag[a.M - h])
        up_h = 0.5 * (a.up[h] + a.up[a.M - 1 - h])
        assert d_even[-1] == diag_h + up_h
        assert d_odd[-1] == diag_h - up_h
    else:
        assert np.array_equal(d_odd, d_even[1:len(d_odd) + 1])


@st.composite
def tied_diagonal_bands(draw):
    """A diagonal mirror band of small integers: every value of the odd
    half is also a value of the even half, bit for bit."""
    m = draw(st.integers(18, 300))
    d = draw(arrays(float, m // 2 + 1, elements=st.integers(-3, 3)))
    idx = np.arange(m)
    return StabilityMatrix(k=0, diag=d[np.minimum(idx, m - idx)],
                           up=np.zeros(m))


@_SETTINGS
@given(data=st.data(), a=tied_diagonal_bands())
def test_folded_pairs_ask_each_half_once_at_ties(data, a):
    # each half is asked once, the even half for count // 2 + 1 pairs and
    # the odd half for count // 2 (up is 0 here).  Here every value of the
    # odd half ties one of the even half exactly, and the merge takes the
    # even copy of a tie first, so at these counts it keeps every pair the
    # even half returned and fills the rest with odd copies of the same
    # values
    halves = spectral._halves(a)
    rows = [len(d) for d, _ in halves]
    lam = np.concatenate([np.sort(d) for d, _ in halves])
    from_even = np.cumsum(np.argsort(lam, kind="stable") < rows[0])
    wide = [count for count in range(5, a.M)
            if count // 2 + 1 < min(from_even[count - 1], rows[0])]
    assume(wide)
    count = data.draw(st.sampled_from(wide), label="count")
    with oracles.lapack_requests() as requests:
        rows_out = spectral._folded_pairs(a, count)
    assert requests == [(n, (0, min(count // 2 + extra, n) - 1))
                        for n, extra in zip(rows, (1, 0))]
    dense = oracles.dense(a)
    vals = np.einsum("jm,jm->j", rows_out, rows_out @ dense)
    assert np.allclose(vals, scipy.linalg.eigvalsh(dense)[:count],
                       rtol=0, atol=1e-11)
    assert np.allclose(rows_out @ rows_out.T, np.eye(count), rtol=0,
                       atol=1e-11)
    assert np.linalg.norm(rows_out @ dense - vals[:, None] * rows_out,
                          axis=1).max() < 1e-11
