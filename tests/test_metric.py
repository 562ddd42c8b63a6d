"""Weight function and segment derivative checks.

Closed-form gradients and Hessians are compared against high precision
finite differences from oracles.py; symmetries that hold in exact
arithmetic are asserted bitwise.
"""

import math

import numpy as np
import pytest

import oracles
from oracles import segment_derivatives
from shrinker_index.metric import (DegenerateSegmentError, segment_blocks,
                                   segment_distance, sigma, sigma_jet)


def test_sigma_values():
    # on the axis the weight vanishes, whatever z is
    assert sigma(np.array([0.0, 1.7])) == 0.0
    assert np.isclose(sigma(np.array([2.0, 0.0])), math.exp(-1.0),
                      rtol=0, atol=1e-15)
    r2 = math.sqrt(2.0)
    assert np.isclose(sigma(np.array([r2, r2])), 0.5 * r2 * math.exp(-1.0),
                      rtol=0, atol=1e-15)


def test_sigma_vectorized_shape():
    pts = np.array([[1.0, 0.0], [2.0, 1.0], [0.5, -0.3]])
    vals = sigma(pts)
    assert vals.shape == (3,)
    for i in range(3):
        assert vals[i] == sigma(pts[i])


def test_sigma_z_reflection_bitwise():
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(0.1, 3.0, 64),
                           rng.uniform(-2.0, 2.0, 64)])
    flipped = pts * np.array([1.0, -1.0])
    assert np.array_equal(sigma(pts), sigma(flipped))
    _, g, _ = sigma_jet(pts)
    _, gf, _ = sigma_jet(flipped)
    assert np.array_equal(g[:, 0], gf[:, 0])
    assert np.array_equal(g[:, 1], -gf[:, 1])


def test_sigma_gradient_hessian_closed_forms():
    # spot check against the explicit formulas at one generic point
    r, z = 1.3, -0.7
    e = math.exp(-(r * r + z * z) / 4.0)
    s, g, h = sigma_jet(np.array([r, z]))
    assert s == sigma(np.array([r, z]))
    assert np.isclose(s, r * e / 2.0, rtol=0, atol=1e-15)
    assert np.allclose(g, [e * (2 - r * r) / 4.0, -r * z * e / 4.0],
                       rtol=0, atol=1e-15)
    expected = np.array([
        [-r * e * (6 - r * r) / 8.0, -z * e * (2 - r * r) / 8.0],
        [-z * e * (2 - r * r) / 8.0, -r * e * (2 - z * z) / 8.0],
    ])
    assert np.allclose(h, expected, rtol=0, atol=1e-15)


def test_segment_distance_example():
    a = np.array([2.0, 0.0])
    b = np.array([2.0, 0.2])
    expected = 0.2 * math.exp(-1.0025)
    assert np.isclose(segment_distance(a, b), expected, rtol=0, atol=1e-15)


def test_segment_distance_symmetries_bitwise():
    rng = np.random.default_rng(12)
    a = np.column_stack([rng.uniform(0.1, 3.0, 32), rng.uniform(-2, 2, 32)])
    b = a + rng.normal(scale=0.2, size=(32, 2))
    b[:, 0] = np.abs(b[:, 0]) + 0.05
    assert np.array_equal(segment_distance(a, b), segment_distance(b, a))
    flip = np.array([1.0, -1.0])
    assert np.array_equal(segment_distance(a, b),
                          segment_distance(a * flip, b * flip))


def test_degenerate_segment_raises():
    a = np.array([[1.0, 0.5]])
    with pytest.raises(DegenerateSegmentError):
        segment_blocks(a, a.copy())
    with pytest.raises(DegenerateSegmentError):
        segment_derivatives([2.0, 0.1], [2.0, 0.1])


def test_hessian_symmetric_bitwise():
    for a, b in oracles.random_segments(50, 313):
        d = segment_derivatives(a, b)
        assert np.array_equal(d.hessian, d.hessian.T)


def test_swap_is_exact_block_permutation():
    # exchanging endpoints permutes (a_r, a_z, b_r, b_z) -> (b_r, b_z, a_r, a_z)
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    for a, b in oracles.random_segments(50, 314):
        d_ab = segment_derivatives(a, b)
        d_ba = segment_derivatives(b, a)
        assert d_ab.value == d_ba.value
        assert np.array_equal(perm @ d_ab.gradient, d_ba.gradient)
        assert np.array_equal(perm @ d_ab.hessian @ perm.T, d_ba.hessian)


def test_symmetric_segment_gradient_pairing():
    # segment straddling the z = 0 axis: mirror symmetry ties the endpoints
    d = segment_derivatives([2.0, -0.1], [2.0, 0.1])
    grad = d.gradient
    assert grad[1] == -grad[3]
    assert grad[0] == grad[2]


def test_blocks_match_single_segment_path():
    rng = np.random.default_rng(15)
    a = np.column_stack([rng.uniform(0.2, 3.0, 8), rng.uniform(-1, 1, 8)])
    b = a + 0.1 * rng.standard_normal((8, 2))
    blocks = segment_blocks(a, b)
    for i in range(8):
        d = segment_derivatives(a[i], b[i])
        assert d.value == blocks["dist"][i]
        assert np.array_equal(d.gradient[:2], blocks["grad_a"][i])
        assert np.array_equal(d.gradient[2:], blocks["grad_b"][i])
        assert np.array_equal(d.hessian[:2, 2:], blocks["h_ab"][i])


def test_finite_difference_spot_checks():
    # two representative segments, one short and one moderate
    for a, b in [(np.array([2.0, 0.0]), np.array([2.0, 0.2])),
                 (np.array([0.8, -1.1]), np.array([1.4, -0.6]))]:
        rel_g, rel_h = oracles.fd_compare(a, b)
        assert rel_g < 1e-7
        assert rel_h < 1e-7


def test_long_double_stencils_match_mpmath():
    # on the survey's first ten segments its stencils in long double are
    # mpmath's at 40 digits up to long-double rounding, about 1e-19 / h^2
    # relative in the Hessian
    a, b = np.array(oracles.random_segments(10, 20240817)).transpose(1, 0, 2)
    grad, hess = oracles.fd_segment_derivative_rows(a, b)
    for i in range(10):
        g_mp, h_mp = oracles.fd_segment_derivatives(a[i], b[i])
        assert np.max(np.abs(grad[i] - g_mp)) <= 1e-12 * np.max(np.abs(g_mp))
        assert np.max(np.abs(hess[i] - h_mp)) <= 1e-8 * np.max(np.abs(h_mp))


def test_finite_difference_survey(fd_survey):
    assert fd_survey["count"] == 1000
    assert fd_survey["max_rel_grad"] < 1e-6
    assert fd_survey["max_rel_hess"] < 1e-6
