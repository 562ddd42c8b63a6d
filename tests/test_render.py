"""SVG and OBJ output checks."""

import numpy as np
import pytest

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
    verts, _ = _parse_obj(obj_surface(crv, mode=mode,
                                      normals=pipe.normals(128),
                                      k=0, ntheta=16, epsilon=eps))
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
                                     phase="sin"))
    plain_rings = plain.reshape(128, 8, 3)
    bent_rings = bent.reshape(128, 8, 3)
    # sin(k theta) = 0 along theta = 0, so that meridian is untouched
    assert np.allclose(bent_rings[:, 0], plain_rings[:, 0],
                       rtol=0, atol=1e-15)
    assert not np.allclose(bent_rings[:, 2], plain_rings[:, 2])


def test_obj_validation(pipe):
    crv = pipe.curve(128)
    with pytest.raises(ValueError):
        obj_surface(crv, ntheta=2)
    with pytest.raises(ValueError):
        obj_surface(crv, mode=np.ones(7))
    with pytest.raises(ValueError):
        obj_surface(crv, mode=np.ones(128), phase="tan")


def test_svg_paths(pipe):
    crv = pipe.curve(128)
    plain = svg_cross_section(crv)
    assert plain.startswith("<svg ")
    assert plain.count("<path") == 1
    assert "dasharray" not in plain

    mode = pipe.modes(128, 0, 2)[1].vector
    overlay = svg_cross_section(crv, mode=mode, normals=pipe.normals(128))
    assert overlay.count("<path") == 2
    assert 'stroke="#1f4e9c"' in overlay
    assert 'stroke="#d2691e"' in overlay
    assert 'stroke-dasharray="8 5"' in overlay
    with pytest.raises(ValueError):
        svg_cross_section(crv, mode=np.ones(3))


def test_outputs_deterministic(pipe):
    crv = pipe.curve(128)
    mode = pipe.modes(128, 0, 2)[1].vector
    kwargs = dict(mode=mode, normals=pipe.normals(128), k=2, ntheta=12)
    assert obj_surface(crv, **kwargs) == obj_surface(crv, **kwargs)
    assert svg_cross_section(crv, mode=mode) == svg_cross_section(
        crv, mode=mode)


def test_default_epsilon_scale(pipe):
    crv = pipe.curve(128)
    eps = default_epsilon(crv)
    spread = np.hypot(crv.r.max() - crv.r.min(), crv.z.max() - crv.z.min())
    assert eps == pytest.approx(0.15 * spread, rel=1e-12)
    assert eps > 0.0
