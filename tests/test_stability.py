"""Stability operator assembly checks.

The blockwise cyclic tridiagonal assembly is compared against an explicit
dense 2M x 2M construction (oracles.full_L0) and against an independent
arc-length ODE discretization.
"""

import numpy as np
import pytest
import scipy.linalg

import oracles
from shrinker_index import Evaluation, assemble_Lk, discrete_length
from oracles import assemble_Lk_ode, point_block, reflect_z
from shrinker_index.metric import segment_blocks, segment_distance
from shrinker_index.spectral import _halves
from shrinker_index.stability import AmbiguousNormal, _normals, mirror_halves


def test_matches_full_hessian_assembly(pipe):
    crv = pipe.curve(128)
    full = oracles.full_L0(crv, pipe.normals(128))
    fast = oracles.dense(pipe.L0(128))
    rel = np.linalg.norm(full - fast) / np.linalg.norm(full)
    assert rel < 1e-13


@pytest.mark.parametrize("m", [18, 19, 64, 257, 2048])
def test_evaluation_matches_row_arithmetic_bitwise(pipe, m):
    # the column arithmetic sums in the order np.roll, np.linalg.norm and
    # np.einsum did, on the solved curve and on curves off it
    pts = pipe.curve(m).points
    h = np.mean(np.hypot(*(np.roll(pts, -1, axis=0) - pts).T))
    rng = np.random.default_rng(m)
    for points in [pts] + [pts + rng.normal(scale=0.1 * h, size=pts.shape)
                           for _ in range(3)]:
        nxt = np.roll(points, -1, axis=0)
        want = oracles.evaluation_rows(points)
        ev = Evaluation(points)
        got = {name: getattr(ev, name) for name in want}
        want.update(oracles.segment_blocks_rows(points, nxt),
                    distance=oracles.segment_distance_rows(points, nxt))
        got.update(segment_blocks(points, nxt),
                   distance=segment_distance(points, nxt))
        for name, value in want.items():
            assert (np.asarray(got[name]).tobytes()
                    == np.asarray(value).tobytes()), name


def test_operator_symmetric_bitwise(pipe):
    a = oracles.dense(pipe.L0(128))
    assert np.array_equal(a, a.T)


def test_operator_is_cyclic_tridiagonal(pipe):
    a = oracles.dense(pipe.L0(64))
    m = 64
    mask = np.zeros((m, m), dtype=bool)
    i = np.arange(m)
    for shift in (-1, 0, 1):
        mask[i, (i + shift) % m] = True
    assert np.all(a[~mask] == 0.0)
    assert np.all(a[mask] != 0.0)


def test_mode_shift_structure(pipe):
    crv = pipe.curve(128)
    ev = Evaluation(crv.points)
    L0 = ev.L0
    L1 = assemble_Lk(ev, 1)
    L2 = assemble_Lk(ev, 2)
    i = np.arange(128)
    off1 = oracles.dense(L1).copy()
    off2 = oracles.dense(L2).copy()
    off1[i, i] = 0.0
    off2[i, i] = 0.0
    # off-diagonals never change with k
    assert np.array_equal(off1, off2)
    assert np.array_equal(off1, oracles.dense(L0)
                          - np.diag(np.diag(oracles.dense(L0))))
    # diagonal moves by (k^2 - k'^2) / r^2
    shift = np.diag(oracles.dense(L2)) - np.diag(oracles.dense(L1))
    assert np.allclose(shift, 3.0 / crv.r**2, rtol=1e-12, atol=0)
    assert L2.k == 2 and L1.k == 1 and L0.k == 0


def test_mode_zero_returns_same_object(pipe):
    ev = Evaluation(pipe.curve(64).points)
    assert assemble_Lk(ev, 0) is ev.L0


def test_assembly_validation(pipe):
    crv = pipe.curve(64)
    ev = Evaluation(crv.points)
    with pytest.raises(ValueError):
        assemble_Lk(ev, -1)
    with pytest.raises(ValueError):
        assemble_Lk(ev, 1.5)
    with pytest.raises(ValueError):
        assemble_Lk_ode(crv, -3)


def test_point_block_matches_segment_sum(pipe):
    crv = pipe.curve(64)
    pts = crv.points
    blocks = segment_blocks(pts, np.roll(pts, -1, axis=0))
    for m in (0, 7, 63):
        expected = blocks["h_aa"][m] + blocks["h_bb"][(m - 1) % 64]
        assert np.array_equal(point_block(crv, m), expected)


def test_point_blocks_strongly_anisotropic(pipe):
    # the soft (tangential) eigenvalue is tiny next to the stiff (normal) one
    crv = pipe.curve(256)
    worst = 0.0
    for m in range(256):
        lam = np.linalg.eigvalsh(point_block(crv, m))
        worst = max(worst, abs(lam[0]) / abs(lam[1]))
    assert worst < 1e-1


def test_normals_unit_and_orthogonal(pipe):
    crv = pipe.curve(256)
    n = pipe.normals(256)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, rtol=0, atol=1e-14)
    pts = crv.points
    tangent = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    tangent /= np.linalg.norm(tangent, axis=1)[:, None]
    cos = np.abs(np.einsum("mi,mi->m", n, tangent))
    assert np.max(cos) < 1e-2


def test_normal_at_widest_point_is_radial(pipe):
    # the curve starts at its largest radius, where the normal points in +r
    n0 = pipe.normals(128)[0]
    assert np.linalg.norm(n0 - np.array([1.0, 0.0])) < 1e-3


def test_reflection_flips_normals_bitwise(pipe):
    crv = pipe.curve(128)
    n = pipe.normals(128)
    n_ref = Evaluation(reflect_z(crv).points).normals
    assert np.array_equal(n_ref, n * np.array([1.0, -1.0]))


def test_reflection_preserves_operator_bitwise(pipe):
    crv = pipe.curve(128)
    mirrored = reflect_z(crv)
    a_ref = oracles.dense(Evaluation(mirrored.points).L0)
    assert np.array_equal(a_ref, oracles.dense(pipe.L0(128)))


@pytest.mark.parametrize("m", [18, 19, 64, 65, 512, 513, 2048])
def test_newton_matrix_is_minus_L0(pipe, m):
    # the solver's Newton matrix N^T H N on the mirror half of the solved
    # curve, folded and scaled by M / l, is the even and odd half of -L_0
    # that the spectra fold from the whole curve
    crv = pipe.curve(m)
    ev = Evaluation(crv.points[:m // 2 + 1], m)
    scale = m / discrete_length(crv)
    want = _halves(pipe.L0(m))
    for (d, e), (d_want, e_want) in zip(mirror_halves(ev.diag, ev.up, m),
                                        want):
        for got, band in ((scale * d, d_want), (scale * e, e_want)):
            assert (np.max(np.abs(got - band))
                    <= 1e-14 * np.max(np.abs(band)))


def test_ambiguous_normal_raises():
    pts = np.column_stack([np.full(8, 2.0), np.linspace(-1, 1, 8)])
    h_m = np.tile(np.eye(2), (8, 1, 1))
    with pytest.raises(AmbiguousNormal):
        _normals(h_m, pts, pts.mean(axis=0))


def test_ode_stencil_on_constant_input(pipe):
    from shrinker_index.metric import sigma
    crv = pipe.curve(128)
    k = 1
    a = assemble_Lk_ode(crv, k)
    s = sigma(crv.points)
    dt = discrete_length(crv) / crv.M
    lap = (np.roll(s, -1) - 2.0 * s + np.roll(s, 1)) / dt**2
    expected = -s * lap - 1.0 - (1.0 - k * k) / crv.r**2
    assert np.allclose(oracles.dense(a) @ np.ones(crv.M), expected,
                       rtol=0, atol=1e-9)


def test_ode_cross_check_eigenvalues(pipe):
    # two independent discretizations of the same operator agree at the
    # bottom of the spectrum
    for k in range(4):
        ode = assemble_Lk_ode(pipe.curve(512), k)
        lam_ode = scipy.linalg.eigh(oracles.dense(ode), eigvals_only=True,
                                    subset_by_index=(0, 3))
        lam_hess = pipe.eigenvalues(512, k, 4)
        assert np.max(np.abs(lam_ode - lam_hess)) < 5e-3
