"""Geodesic solver invariants.

Criticality and spacing are re-measured from scratch with the metric
primitives rather than trusting the solver's own reported residuals.
"""

import numpy as np
import pytest

from shrinker_index import (DiscreteCurve, SolveConfig, discrete_length,
                            solve_geodesic)
from oracles import reflect_z
from shrinker_index.curve import canonicalize, spacing_deviation
from shrinker_index.metric import segment_blocks
from shrinker_index.solver import CurveCollapse, NonConvergence


def _length_gradient(curve):
    """Gradient of the discrete length at every vertex, recomputed here."""
    pts = curve.points
    nxt = np.roll(pts, -1, axis=0)
    blocks = segment_blocks(pts, nxt)
    grad = blocks["grad_a"] + np.roll(blocks["grad_b"], 1, axis=0)
    return grad


@pytest.mark.parametrize("m", [128, 256])
def test_solution_is_critical_and_uniform(pipe, m):
    # critical in the normal direction; the tangential gradient components
    # are pinned by the uniform-spacing constraint instead and stay O(1/M^2)
    crv = pipe.curve(m)
    grad = _length_gradient(crv)
    normals = pipe.normals(m)
    assert np.max(np.abs(np.einsum("mi,mi->m", normals, grad))) < 1e-10
    assert np.max(np.linalg.norm(grad, axis=1)) < 1e-3
    assert spacing_deviation(crv) < 1e-8


def test_determinism_bitwise():
    a = solve_geodesic(SolveConfig(M=96))
    b = solve_geodesic(SolveConfig(M=96))
    assert np.array_equal(a.points, b.points)


def test_reflection_symmetry(pipe):
    crv = pipe.curve(128)
    mirrored = canonicalize(reflect_z(crv))
    assert np.max(np.abs(mirrored.points - crv.points)) < 1e-8


def test_one_point_criticality(pipe):
    # move a single vertex along its normal: the length change must be even
    crv = pipe.curve(128)
    normal = pipe.normals(128)[7]
    h = 1e-6
    plus = crv.points.copy()
    plus[7] += h * normal
    minus = crv.points.copy()
    minus[7] -= h * normal
    odd = abs(discrete_length(DiscreteCurve(plus))
              - discrete_length(DiscreteCurve(minus))) / 2.0
    assert odd < 1e-13


def test_cross_resolution_consistency(pipe):
    from shrinker_index import resample_uniform
    devs = []
    for big, small in [(256, 128), (512, 256), (1024, 512)]:
        down = resample_uniform(pipe.curve(big), small)
        devs.append(np.max(np.linalg.norm(
            down.points - pipe.curve(small).points, axis=1)))
    # quadratic convergence: each halving cuts the deviation by about 4
    assert devs[0] / devs[1] == pytest.approx(4.0, abs=1.5)
    assert devs[1] / devs[2] == pytest.approx(4.0, abs=1.5)
    assert devs[0] < 1e-2


def test_entropy_ballpark(pipe):
    assert abs(discrete_length(pipe.curve(128)) - 1.8512185858) < 5e-3


def test_max_iters_exhaustion_raises():
    with pytest.raises(NonConvergence):
        solve_geodesic(SolveConfig(M=64, max_iters=1))


def test_collapsed_seed_raises():
    with pytest.raises(CurveCollapse):
        solve_geodesic(SolveConfig(M=128, seed_radius=1e-13))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(M=4)
    with pytest.raises(ValueError):
        SolveConfig(seed_radius=0.0)
    with pytest.raises(ValueError):
        SolveConfig(seed_center=(0.3, 0.0), seed_radius=0.5)
    with pytest.raises(ValueError):
        SolveConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
