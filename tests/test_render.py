"""SVG and OBJ output checks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from shrinker_index import DiscreteCurve, render
from shrinker_index.render import (default_epsilon, obj_surface,
                                   svg_cross_section)


def _parse_obj(text):
    verts = []
    faces = []
    for line in text.strip().split("\n"):
        if line.startswith("v "):
            verts.append([float(t) for t in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(t) for t in line.split()[1:]])
    return np.array(verts), faces


def test_obj_mesh_counts(pipe):
    crv = pipe.curve(128)
    verts, faces = _parse_obj(obj_surface(crv, ntheta=16))
    assert verts.shape == (128 * 16, 3)
    assert len(faces) == 2 * 128 * 16
    assert all(len(f) == 3 for f in faces)
    flat = [i for f in faces for i in f]
    assert min(flat) == 1 and max(flat) == 128 * 16


def test_obj_faces_close_a_torus_and_normals_default():
    # every directed edge of a closed, consistently oriented mesh appears
    # once, and so does its reverse
    theta = 2.0 * np.pi * np.arange(8) / 8
    crv = DiscreteCurve(np.column_stack([1.0 + 0.5 * np.cos(theta),
                                         0.5 * np.sin(theta)]))
    _, faces = _parse_obj(obj_surface(crv, ntheta=5))
    edges = [(f[i], f[(i + 1) % 3]) for f in faces for i in range(3)]
    assert len(set(edges)) == len(edges)
    assert set(edges) == {(b, a) for a, b in edges}
    assert {i for f in faces for i in f} == set(range(1, 8 * 5 + 1))


def test_obj_rings_are_circles(pipe):
    crv = pipe.curve(128)
    verts, _ = _parse_obj(obj_surface(crv, ntheta=16))
    rings = verts.reshape(128, 16, 3)
    radius = np.hypot(rings[:, :, 0], rings[:, :, 1])
    assert np.allclose(radius, crv.r[:, None], rtol=1e-12, atol=0)
    assert np.allclose(rings[:, :, 2], crv.z[:, None], rtol=0, atol=1e-15)


def test_obj_axisymmetric_mode_displaces_rings(pipe):
    crv = pipe.curve(128)
    mode = pipe.modes(128, 0, 2)[1].vector
    eps = 0.05
    verts, _ = _parse_obj(obj_surface(crv, mode=mode, k=0, ntheta=16,
                                      epsilon=eps,
                                      normals=pipe.normals(128)))
    rings = verts.reshape(128, 16, 3)
    radius = np.hypot(rings[:, :, 0], rings[:, :, 1])
    # k = 0 with cos phase keeps every ring circular, at a shifted radius
    expected = crv.r + eps * mode * pipe.normals(128)[:, 0]
    assert np.allclose(radius, expected[:, None], rtol=1e-10, atol=1e-12)


def test_obj_sin_phase_vanishes_at_zero_angle(pipe):
    crv = pipe.curve(128)
    mode = pipe.modes(128, 1, 1)[0].vector
    plain, _ = _parse_obj(obj_surface(crv, ntheta=8))
    bent, _ = _parse_obj(obj_surface(crv, mode=mode, k=1, ntheta=8,
                                     phase="sin", normals=pipe.normals(128)))
    plain_rings = plain.reshape(128, 8, 3)
    bent_rings = bent.reshape(128, 8, 3)
    # sin(k theta) = 0 along theta = 0, so that meridian is untouched
    assert np.allclose(bent_rings[:, 0], plain_rings[:, 0],
                       rtol=0, atol=1e-15)
    assert not np.allclose(bent_rings[:, 2], plain_rings[:, 2])


def test_obj_validation(pipe):
    crv = pipe.curve(128)
    normals = pipe.normals(128)
    with pytest.raises(ValueError):
        obj_surface(crv, ntheta=2)
    with pytest.raises(ValueError):
        obj_surface(crv, mode=np.ones(7), normals=normals)
    with pytest.raises(ValueError):
        obj_surface(crv, mode=np.ones(128), phase="tan", normals=normals)
    # a mode is drawn along normals the caller gives, one per curve point
    with pytest.raises(ValueError, match="normals"):
        obj_surface(crv, mode=np.ones(128))
    with pytest.raises(ValueError, match="normals"):
        obj_surface(crv, mode=np.ones(128), normals=normals[:-1])


def test_svg_refuses_coincident_points():
    # no span to scale by: the SVG would carry width="nan"
    crv = DiscreteCurve(np.tile([1.0, 0.0], (3, 1)))
    with pytest.raises(ValueError, match="coincide"):
        svg_cross_section(crv)


def test_svg_paths(pipe):
    crv = pipe.curve(128)
    plain = svg_cross_section(crv)
    assert plain.startswith("<svg ")
    assert plain.count("<path") == 1
    assert "dasharray" not in plain

    mode = pipe.modes(128, 0, 2)[1].vector
    normals = pipe.normals(128)
    overlay = svg_cross_section(crv, mode=mode, normals=normals)
    assert overlay.count("<path") == 2
    assert 'stroke="#1f4e9c"' in overlay
    assert 'stroke="#d2691e"' in overlay
    assert 'stroke-dasharray="8 5"' in overlay
    with pytest.raises(ValueError):
        svg_cross_section(crv, mode=np.ones(3), normals=normals)
    with pytest.raises(ValueError, match="normals"):
        svg_cross_section(crv, mode=mode)
    with pytest.raises(ValueError, match="normals"):
        svg_cross_section(crv, mode=mode, normals=normals[:-1])


def test_outputs_deterministic(pipe):
    crv = pipe.curve(128)
    mode = pipe.modes(128, 0, 2)[1].vector
    normals = pipe.normals(128)
    kwargs = dict(mode=mode, k=2, ntheta=12, normals=normals)
    assert obj_surface(crv, **kwargs) == obj_surface(crv, **kwargs)
    assert svg_cross_section(crv, mode=mode, normals=normals) == (
        svg_cross_section(crv, mode=mode, normals=normals))


def test_default_epsilon_scale(pipe):
    crv = pipe.curve(128)
    eps = default_epsilon(crv)
    spread = np.hypot(crv.r.max() - crv.r.min(), crv.z.max() - crv.z.min())
    assert eps == pytest.approx(0.15 * spread, rel=1e-12)
    assert eps > 0.0


def _assert_matches_oracles(crv, mode, k, ntheta, epsilon, phase, normals):
    got = obj_surface(crv, mode=mode, k=k, ntheta=ntheta, epsilon=epsilon,
                      phase=phase, normals=normals)
    assert got == oracles.obj_surface_per_line(
        crv, mode=mode, k=k, ntheta=ntheta, epsilon=epsilon, phase=phase,
        normals=normals)
    svg = svg_cross_section(crv, mode=mode, epsilon=epsilon, normals=normals)
    with mock.patch.object(render, "_polyline", oracles.polyline_per_point):
        assert svg == svg_cross_section(crv, mode=mode, epsilon=epsilon,
                                        normals=normals)


@st.composite
def ellipse_curves(draw):
    """An ellipse of M = 8..64 points, anywhere in r > 0."""
    m = draw(st.integers(8, 64))
    r0 = draw(st.floats(0.5, 4.0))
    a_r = draw(st.floats(0.05, 0.9)) * r0
    a_z = draw(st.floats(0.05, 3.0))
    t = draw(st.floats(0.0, 2.0 * np.pi)) + 2.0 * np.pi * np.arange(m) / m
    return DiscreteCurve(np.column_stack([r0 + a_r * np.cos(t),
                                          a_z * np.sin(t)]))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data(), crv=ellipse_curves(), ntheta=st.integers(3, 24),
       k=st.integers(0, 6), phase=st.sampled_from(["cos", "sin"]),
       epsilon=st.one_of(st.none(), st.floats(-10.0, 10.0)))
def test_writers_match_per_line_oracles(data, crv, ntheta, k, phase,
                                        epsilon):
    # the writers format whole rings and paths at once; the bytes must be
    # those of formatting one line or one point at a time
    mode = data.draw(st.one_of(st.none(), arrays(
        float, crv.M, elements=st.floats(-1e3, 1e3))), label="mode")
    _assert_matches_oracles(crv, mode, k, ntheta, epsilon, phase,
                            oracles.evaluation_rows(crv.points)["normals"])


def test_writers_match_oracles_on_solved_curve(pipe):
    mode = pipe.modes(256, 2, 2)[1].vector
    _assert_matches_oracles(pipe.curve(256), mode, 2, 96, None, "cos",
                            pipe.normals(256))
