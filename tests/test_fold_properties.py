"""Property tests of the mirror fold on random mirror-symmetric bands.

Any cyclic tridiagonal matrix that commutes with the reflection
m -> -m mod M splits into the even and odd `_halves`; their spectra
together are the spectrum of the full matrix.  The bands drawn here are
their own mirror image but otherwise arbitrary, at odd and even M.
"""

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from shrinker_index import StabilityMatrix, spectral

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=60)

_ENTRY = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)


@st.composite
def mirror_bands(draw):
    """A StabilityMatrix with diag[m] = diag[-m] and up[m] = up[M-1-m]."""
    m = draw(st.integers(18, 300))
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
    vals, vecs = spectral._folded_pairs(a, count)
    assert vals.shape == (count,) and vecs.shape == (a.M, count)
    assert np.allclose(vals, scipy.linalg.eigvalsh(dense)[:count],
                       rtol=0, atol=1e-11)
    # the unfolded vectors are orthonormal eigenvectors of the full matrix
    assert np.allclose(vecs.T @ vecs, np.eye(count), rtol=0, atol=1e-11)
    assert np.linalg.norm(dense @ vecs - vecs * vals, axis=0).max() < 1e-11


@_SETTINGS
@given(a=mirror_bands(), cut=st.floats(-13.0, 13.0))
def test_halves_bisection_count_matches_dense(a, cut):
    lam = scipy.linalg.eigvalsh(oracles.dense(a))
    assume(np.abs(lam - cut).min() > 1e-9)
    n = sum(len(scipy.linalg.eigvalsh_tridiagonal(
        d, e, select="v", select_range=(-np.inf, cut)))
        for d, e in spectral._halves(a))
    assert n == int(np.count_nonzero(lam < cut))
