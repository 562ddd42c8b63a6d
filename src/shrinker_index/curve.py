"""Closed discrete curves in the weighted half-plane.

A curve is M points q_0 .. q_{M-1} with r > 0, indices mod M, traversed
counterclockwise by convention.  The discrete weighted length is the sum of
midpoint-rule segment distances; resampling redistributes points along the
piecewise-linear interpolant so consecutive segment distances come out equal.
"""

import numpy as np

from . import metric


class CurveFileError(ValueError):
    """Raised for malformed curve CSV files."""


class DiscreteCurve:
    """Closed polygon in {r > 0}.

    points: (M, 2) float array, columns (r, z).  M is typically a power of
    two but that is only a convention.
    """

    def __init__(self, points):
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (M, 2)")
        if points.shape[0] < 3:
            raise ValueError("a closed curve needs at least 3 points")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if np.any(points[:, 0] <= 0.0):
            raise ValueError("curve leaves the half-plane: r <= 0")
        self.points = points

    @property
    def M(self):
        return self.points.shape[0]

    @property
    def r(self):
        return self.points[:, 0]

    @property
    def z(self):
        return self.points[:, 1]

    def __repr__(self):
        return "DiscreteCurve(M=%d)" % self.M


def discrete_length(curve):
    """Total discrete weighted length: sum of segment distances."""
    pts = curve.points
    return float(metric.segment_distance(pts, np.roll(pts, -1, axis=0)).sum())


def _resample_points(points, m_new):
    """Equal-segment-distance resampling on the input interpolant.

    Places m_new points on the piecewise-linear interpolant of `points`,
    anchored at the input's first vertex, such that the recomputed
    midpoint-rule segment distances of the output are equal.  A single
    accumulated-length placement leaves O(h^2) unevenness, so the target
    parameters are corrected a few times; the points stay on the original
    polygon throughout.
    """
    d = metric.segment_distance(points, np.roll(points, -1, axis=0))
    if np.any(d <= 0.0):
        raise ValueError("curve has a zero-length segment")
    cum = np.concatenate([[0.0], np.cumsum(d)])
    total = cum[-1]
    seg_len = np.diff(cum)
    step = np.roll(points, -1, axis=0) - points

    t = np.arange(m_new) * (total / m_new)
    for _ in range(61):  # the first placement and up to 60 corrections
        idx = np.clip(np.searchsorted(cum, t, side="right") - 1,
                      0, len(points) - 1)
        alpha = (t - cum[idx]) / seg_len[idx]
        out = points[idx] + alpha[:, None] * step[idx]
        d_new = metric.segment_distance(out, np.roll(out, -1, axis=0))
        e = np.concatenate([[0.0], np.cumsum(d_new[:-1])])
        target = np.arange(m_new) * (d_new.sum() / m_new)
        err = target - e
        if np.max(np.abs(err)) <= 1e-14 * total:
            break
        t = np.mod(t + err, total)
        t[0] = 0.0
    return out


def mirror_points(points):
    """The reflection z -> -z of points, read at indices -m mod M.

    Row m is (r, -z) of point -m mod M.  A solved curve is its own mirror
    image: q_0 lies on the axis, and so does q_{M/2} for even M.
    """
    out = np.roll(points[::-1], 1, axis=0)
    out[:, 1] = -out[:, 1]
    return out


def write_curve(curve, path):
    """Write CSV with header m,r,z and 17 significant digits."""
    cells = np.column_stack([np.arange(curve.M), curve.points])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,r,z\n" + "%d,%.17g,%.17g\n" * curve.M
                 % tuple(cells.ravel().tolist()))


def read_curve(path):
    """Read a curve CSV written by write_curve."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "m,r,z":
        raise CurveFileError("expected header 'm,r,z' in %s" % path)
    rows = []
    for ln in lines[1:]:
        try:
            m, r, z = ln.split(",")
            rows.append((int(m), float(r), float(z)))
        except ValueError as exc:
            raise CurveFileError("malformed row %r in %s" % (ln, path)) from exc
    if [m for m, _, _ in rows] != list(range(len(rows))):
        raise CurveFileError("row indices must run 0..M-1 in %s" % path)
    try:
        return DiscreteCurve([(r, z) for _, r, z in rows])
    except ValueError as exc:
        raise CurveFileError("invalid curve in %s: %s" % (path, exc)) from exc
