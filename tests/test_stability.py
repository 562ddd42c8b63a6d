"""Stability operator assembly checks.

The blockwise cyclic tridiagonal assembly is compared against an explicit
dense 2M x 2M construction (oracles.full_L0) and against an independent
arc-length ODE discretization.
"""

import numpy as np
import pytest
import scipy.linalg

import oracles
from shrinker_index import assemble_L0, assemble_Lk, normal_field
from oracles import point_block, reflect_z
from shrinker_index.metric import segment_blocks
from shrinker_index.stability import (AmbiguousNormal, _normals,
                                      assemble_Lk_ode)


def test_matches_full_hessian_assembly(pipe):
    crv = pipe.curve(128)
    full = oracles.full_L0(crv, pipe.normals(128))
    fast = oracles.dense(pipe.L0(128))
    rel = np.linalg.norm(full - fast) / np.linalg.norm(full)
    assert rel < 1e-13


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
    L0 = pipe.L0(128)
    L1 = assemble_Lk(L0, crv, 1)
    L2 = assemble_Lk(L0, crv, 2)
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
    L0 = pipe.L0(64)
    assert assemble_Lk(L0, pipe.curve(64), 0) is L0


def test_assembly_validation(pipe):
    crv = pipe.curve(64)
    L0 = pipe.L0(64)
    with pytest.raises(ValueError):
        assemble_Lk(L0, crv, -1)
    with pytest.raises(ValueError):
        assemble_Lk(L0, crv, 1.5)
    L1 = assemble_Lk(L0, crv, 1)
    with pytest.raises(ValueError):
        assemble_Lk(L1, crv, 2)
    with pytest.raises(ValueError):
        assemble_Lk(L0, pipe.curve(128), 1)
    with pytest.raises(ValueError):
        assemble_L0(pipe.curve(128), pipe.normals(64))
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
    n_ref = normal_field(reflect_z(crv))
    assert np.array_equal(n_ref, n * np.array([1.0, -1.0]))


def test_reflection_preserves_operator_bitwise(pipe):
    crv = pipe.curve(128)
    mirrored = reflect_z(crv)
    a_ref = oracles.dense(assemble_L0(mirrored, normal_field(mirrored)))
    assert np.array_equal(a_ref, oracles.dense(pipe.L0(128)))


def test_ambiguous_normal_raises():
    pts = np.column_stack([np.full(8, 2.0), np.linspace(-1, 1, 8)])
    h_m = np.tile(np.eye(2), (8, 1, 1))
    with pytest.raises(AmbiguousNormal):
        _normals(h_m, pts)


def test_ode_stencil_on_constant_input(pipe):
    from shrinker_index import discrete_length
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
