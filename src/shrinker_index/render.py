"""Cross-section SVG plots and surface-of-revolution OBJ meshes.

Outputs are plain text with fixed 17-significant-digit float formatting,
so identical inputs give byte-identical files.
"""

import numpy as np

from . import stability

#: Default perturbation amplitude as a fraction of the cross-section diameter.
EPSILON_FRACTION = 0.15

#: Size of the SVG's larger side, in SVG user units.
SVG_SIZE = 640.0


def _fmt(x):
    return "%.17g" % x


def default_epsilon(curve):
    """0.15 times the bounding-box diameter of the cross-section."""
    spread_r = curve.r.max() - curve.r.min()
    spread_z = curve.z.max() - curve.z.min()
    return EPSILON_FRACTION * float(np.hypot(spread_r, spread_z))


def _polyline(points, scale, origin):
    steps = []
    for m in range(points.shape[0]):
        x = (points[m, 0] - origin[0]) * scale
        y = (origin[1] - points[m, 1]) * scale
        steps.append("%s%s,%s" % ("M" if m == 0 else "L", _fmt(x), _fmt(y)))
    return " ".join(steps) + " Z"


def svg_cross_section(curve, mode=None, normals=None, epsilon=None):
    """SVG of the cross-section, optionally with a perturbed copy (dashed).

    `mode` is an eigenfunction u over the curve points; the overlay is
    q_m + epsilon u_m n_m.  Normals are computed if not supplied.
    """
    pts = curve.points
    curves = [pts]
    if mode is not None:
        mode = np.asarray(mode, dtype=float)
        if mode.shape != (curve.M,):
            raise ValueError("mode must have one value per curve point")
        if normals is None:
            normals = stability.normal_field(curve)
        if epsilon is None:
            epsilon = default_epsilon(curve)
        curves.append(pts + epsilon * mode[:, None] * normals)

    allpts = np.vstack(curves)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    margin = 0.06 * span
    scale = SVG_SIZE / (span + 2.0 * margin)
    origin = (lo[0] - margin, hi[1] + margin)

    body = ['<path d="%s" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
            % _polyline(pts, scale, origin)]
    if mode is not None:
        body.append('<path d="%s" fill="none" stroke="#d2691e" '
                    'stroke-width="2" stroke-dasharray="8 5"/>'
                    % _polyline(curves[1], scale, origin))
    width = _fmt((hi[0] - lo[0] + 2.0 * margin) * scale)
    height = _fmt((hi[1] - lo[1] + 2.0 * margin) * scale)
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s">\n'
            '%s\n</svg>\n' % (width, height, "\n".join(body)))


def obj_surface(curve, mode=None, normals=None, k=0, ntheta=64,
                epsilon=None, phase="cos"):
    """OBJ mesh of the surface of revolution, optionally displaced.

    The displacement field is epsilon u_m g(k theta) along the surface
    normal (n_r cos theta, n_r sin theta, n_z), with g = cos or sin per
    `phase`.  Mesh has M * ntheta vertices and 2 M ntheta triangles, both
    directions closed.
    """
    if ntheta < 3:
        raise ValueError("ntheta must be at least 3")
    if phase not in ("cos", "sin"):
        raise ValueError("phase must be 'cos' or 'sin'")
    pts = curve.points
    m_count = curve.M
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta

    r = np.repeat(pts[:, 0], ntheta)
    z = np.repeat(pts[:, 1], ntheta)
    th = np.tile(theta, m_count)
    if mode is not None:
        mode = np.asarray(mode, dtype=float)
        if mode.shape != (m_count,):
            raise ValueError("mode must have one value per curve point")
        if normals is None:
            normals = stability.normal_field(curve)
        if epsilon is None:
            epsilon = default_epsilon(curve)
        g = np.cos(k * th) if phase == "cos" else np.sin(k * th)
        amp = epsilon * np.repeat(mode, ntheta) * g
        r = r + amp * np.repeat(normals[:, 0], ntheta)
        z = z + amp * np.repeat(normals[:, 1], ntheta)

    lines = []
    x = r * np.cos(th)
    y = r * np.sin(th)
    for idx in range(m_count * ntheta):
        lines.append("v %s %s %s" % (_fmt(x[idx]), _fmt(y[idx]),
                                     _fmt(z[idx])))
    for m in range(m_count):
        m1 = (m + 1) % m_count
        for i in range(ntheta):
            i1 = (i + 1) % ntheta
            a = m * ntheta + i + 1
            b = m1 * ntheta + i + 1
            c = m1 * ntheta + i1 + 1
            d = m * ntheta + i1 + 1
            lines.append("f %d %d %d" % (a, b, c))
            lines.append("f %d %d %d" % (a, c, d))
    return "\n".join(lines) + "\n"
