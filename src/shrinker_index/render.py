"""Cross-section SVG plots and surface-of-revolution OBJ meshes.

A mode is drawn along the normals the caller passes.  Outputs are plain
text with fixed 17-significant-digit float formatting, so identical inputs
give byte-identical files.

The OBJ text is held at most twice: `obj_surface` formats one string per
ring and frees its vertex and face arrays before it joins them, so the
ring strings and the joined str are the peak, and `cli.main` writes every
file in 1 MiB slices (`cli.WRITE_SLICE`), so the encoder copies one slice
at a time.
"""

import numpy as np

#: Default perturbation amplitude as a fraction of the cross-section diameter.
EPSILON_FRACTION = 0.15

#: Size of the SVG's larger side, in SVG user units.
SVG_SIZE = 640.0


def default_epsilon(curve):
    """0.15 times the bounding-box diameter of the cross-section."""
    spread_r = curve.r.max() - curve.r.min()
    spread_z = curve.z.max() - curve.z.min()
    return EPSILON_FRACTION * float(np.hypot(spread_r, spread_z))


def _amplitude(curve, mode, normals, epsilon):
    """Displacement epsilon u_m per curve point, to be drawn along normals."""
    mode = np.asarray(mode, dtype=float)
    if mode.shape != (curve.M,):
        raise ValueError("mode must have one value per curve point")
    if np.shape(normals) != (curve.M, 2):
        raise ValueError("normals must have shape (M, 2)")
    if epsilon is None:
        epsilon = default_epsilon(curve)
    return epsilon * mode


def _polyline(points, scale, origin):
    xs = (points[:, 0] - origin[0]) * scale
    ys = (origin[1] - points[:, 1]) * scale
    template = "M%.17g,%.17g" + " L%.17g,%.17g" * (len(xs) - 1) + " Z"
    return template % tuple(np.column_stack([xs, ys]).ravel().tolist())


def svg_cross_section(curve, mode=None, epsilon=None, normals=None):
    """SVG of the cross-section, optionally with a perturbed copy (dashed).

    `mode` is an eigenfunction u over the curve points, drawn along the
    (M, 2) `normals` n_m; the overlay is q_m + epsilon u_m n_m.  Raises
    ValueError if all the points drawn coincide, which leaves no span to
    scale.
    """
    pts = curve.points
    curves = [pts]
    if mode is not None:
        amp = _amplitude(curve, mode, normals, epsilon)
        curves.append(pts + amp[:, None] * normals)

    allpts = np.vstack(curves)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    if not span > 0.0:
        raise ValueError("the cross-section has no extent: its points "
                         "coincide")
    margin = 0.06 * span
    scale = SVG_SIZE / (span + 2.0 * margin)
    origin = (lo[0] - margin, hi[1] + margin)

    body = ['<path d="%s" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
            % _polyline(pts, scale, origin)]
    if mode is not None:
        body.append('<path d="%s" fill="none" stroke="#d2691e" '
                    'stroke-width="2" stroke-dasharray="8 5"/>'
                    % _polyline(curves[1], scale, origin))
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%.17g" '
            'height="%.17g">\n%s\n</svg>\n'
            % ((hi[0] - lo[0] + 2.0 * margin) * scale,
               (hi[1] - lo[1] + 2.0 * margin) * scale, "\n".join(body)))


def obj_surface(curve, mode=None, k=0, ntheta=64, epsilon=None,
                phase="cos", normals=None):
    """OBJ mesh of the surface of revolution, optionally displaced.

    The displacement field is epsilon u_m g(k theta) along the surface
    normal (n_r cos theta, n_r sin theta, n_z), with g = cos or sin per
    `phase` and (n_r, n_z) a row of `normals`.  The text holds M * ntheta
    `v x y z` lines, one ring of ntheta per curve point in curve order,
    theta = 2 pi i / ntheta ascending within a ring; then 2 M ntheta
    `f a b c` lines with 1-based vertex indices: the triangles (a, b, c)
    and (a, c, d) of each quad, m outer and i inner, with a = (m, i),
    b = (m + 1, i), c = (m + 1, i + 1) and d = (m, i + 1), indices taken
    mod M and mod ntheta, so the mesh is closed in both directions.
    """
    if ntheta < 3:
        raise ValueError("ntheta must be at least 3")
    if phase not in ("cos", "sin"):
        raise ValueError("phase must be 'cos' or 'sin'")
    rings = _vertex_rings(curve, mode, k, ntheta, epsilon, phase, normals)
    # ring m's faces are ring 0's shifted by m rings, wrapped mod the mesh
    size = curve.M * ntheta
    i = np.arange(ntheta)
    i1 = (i + 1) % ntheta
    template = np.stack([i, ntheta + i, ntheta + i1, i, ntheta + i1, i1],
                        axis=-1).ravel()
    f_ring = "f %d %d %d\n" * (2 * ntheta)
    rings.extend(f_ring % tuple(((template + m * ntheta) % size + 1).tolist())
                 for m in range(curve.M))
    return "".join(rings)


def _vertex_rings(curve, mode, k, ntheta, epsilon, phase, normals):
    """The `v` lines of `obj_surface`, one string per ring.

    The vertex arrays live only inside this call, so they are gone before
    the caller joins the text.
    """
    pts = curve.points
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta

    # rows are curve points, columns the ntheta angles of a ring
    r = pts[:, :1]
    z = pts[:, 1:]
    if mode is not None:
        amp = _amplitude(curve, mode, normals, epsilon)
        g = np.cos(k * theta) if phase == "cos" else np.sin(k * theta)
        amp = amp[:, None] * g
        r = r + amp * normals[:, :1]
        z = z + amp * normals[:, 1:]

    verts = np.stack(np.broadcast_arrays(r * np.cos(theta),
                                         r * np.sin(theta), z), axis=-1)
    v_ring = "v %.17g %.17g %.17g\n" * ntheta
    # one format operation per ring keeps the Python objects to one ring
    return [v_ring % tuple(row.tolist())
            for row in verts.reshape(curve.M, 3 * ntheta)]
