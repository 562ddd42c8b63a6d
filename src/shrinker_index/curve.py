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

    def copy(self):
        return DiscreteCurve(self.points.copy())

    def __repr__(self):
        return "DiscreteCurve(M=%d)" % self.M


def segment_distances(curve):
    """Weighted distances of the M segments (q_m, q_{m+1}), shape (M,)."""
    pts = curve.points
    return metric.segment_distance(pts, np.roll(pts, -1, axis=0))


def discrete_length(curve):
    """Total discrete weighted length: sum of segment distances."""
    return float(segment_distances(curve).sum())


def spacing_deviation(curve):
    """max/min segment distance ratio minus 1 (0 for perfectly even)."""
    d = segment_distances(curve)
    return float(d.max() / d.min() - 1.0)


def _interpolate(points, cum, t):
    """Points on the closed polygon at accumulated-length parameters t."""
    seg_len = np.diff(cum)
    idx = np.searchsorted(cum, t, side="right") - 1
    idx = np.clip(idx, 0, len(seg_len) - 1)
    alpha = (t - cum[idx]) / seg_len[idx]
    nxt = np.roll(points, -1, axis=0)
    return points[idx] + alpha[:, None] * (nxt[idx] - points[idx])


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

    t = np.arange(m_new) * (total / m_new)
    out = _interpolate(points, cum, t)
    for _ in range(60):
        d_new = metric.segment_distance(out, np.roll(out, -1, axis=0))
        e = np.concatenate([[0.0], np.cumsum(d_new[:-1])])
        target = np.arange(m_new) * (d_new.sum() / m_new)
        err = target - e
        if np.max(np.abs(err)) <= 1e-14 * total:
            break
        t = np.mod(t + err, total)
        t[0] = 0.0
        out = _interpolate(points, cum, t)
    return out


def resample_uniform(curve, m_new):
    """Resample to m_new points with equal segment distances.

    The output points lie on the piecewise-linear interpolant of the input
    and the first output point is the input's q_0.  Applying this to an
    already uniform curve with m_new = M reproduces it.
    """
    if m_new < 3:
        raise ValueError("m_new must be at least 3")
    return DiscreteCurve(_resample_points(curve.points, m_new))


def canonicalize(curve):
    """Roll so q_0 is the max-r point and orient counterclockwise.

    Counterclockwise here means z increases leaving q_0 (the curve ascends
    on the outer side).
    """
    pts = curve.points
    start = int(np.argmax(pts[:, 0]))
    pts = np.roll(pts, -start, axis=0)
    if pts[1, 1] < pts[-1, 1]:
        pts = np.roll(pts[::-1], 1, axis=0)
    return DiscreteCurve(pts)


def write_curve(curve, path):
    """Write CSV with header m,r,z and 17 significant digits."""
    lines = ["m,r,z"]
    for m in range(curve.M):
        lines.append("%d,%.17g,%.17g" % (m, curve.points[m, 0],
                                         curve.points[m, 1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve(path):
    """Read a curve CSV written by write_curve."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "m,r,z":
        raise CurveFileError("expected header 'm,r,z' in %s" % path)
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise CurveFileError("malformed row %r in %s" % (ln, path))
        try:
            m = int(parts[0])
            r = float(parts[1])
            z = float(parts[2])
        except ValueError as exc:
            raise CurveFileError("malformed row %r in %s" % (ln, path)) from exc
        rows.append((m, r, z))
    if [m for m, _, _ in rows] != list(range(len(rows))):
        raise CurveFileError("row indices must run 0..M-1 in %s" % path)
    try:
        return DiscreteCurve([(r, z) for _, r, z in rows])
    except ValueError as exc:
        raise CurveFileError("invalid curve in %s: %s" % (path, exc)) from exc
