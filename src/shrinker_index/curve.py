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
    return float(metric.segment_distance(
        pts, np.concatenate((pts[1:], pts[:1]))).sum())


def _resample_points(points, m_new):
    """Equal-segment-distance resampling on the input interpolant.

    Places m_new points on the piecewise-linear interpolant of `points`,
    anchored at the input's first vertex, such that the recomputed
    midpoint-rule segment distances of the output are equal.  A single
    accumulated-length placement leaves O(h^2) unevenness, so the target
    parameters are corrected a few times; the points stay on the original
    polygon throughout.
    """
    nxt = np.concatenate((points[1:], points[:1]))
    d = metric.segment_distance(points, nxt)
    if np.any(d <= 0.0):
        raise ValueError("curve has a zero-length segment")
    cum = np.concatenate([[0.0], np.cumsum(d)])
    total = cum[-1]
    seg_len = np.diff(cum)
    # (2, M) columns: each placement gathers from contiguous arrays
    base, step = points.T.copy(), (nxt - points).T.copy()

    grid = np.arange(m_new)
    t = grid * (total / m_new)
    out = np.empty((m_new, 2))
    for _ in range(61):  # the first placement and up to 60 corrections
        # t >= 0 = cum[0], so only the upper end needs a bound
        idx = np.minimum(np.searchsorted(cum, t, side="right") - 1,
                         len(points) - 1)
        alpha = (t - cum[idx]) / seg_len[idx]
        for c in range(2):
            out[:, c] = base[c][idx] + alpha * step[c][idx]
        d_new = metric.segment_distance(
            out, np.concatenate((out[1:], out[:1])))
        e = np.concatenate([[0.0], np.cumsum(d_new[:-1])])
        target = grid * (d_new.sum() / m_new)
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
    out = np.concatenate((points[:1], points[:0:-1]))
    out[:, 1] = -out[:, 1]
    return out


def write_curve(curve, path):
    """Write CSV with header m,r,z and 17 significant digits."""
    cells = np.column_stack([np.arange(curve.M), curve.points])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,r,z\n" + "%d,%.17g,%.17g\n" * curve.M
                 % tuple(cells.ravel().tolist()))


def _parse_rows(lines):
    """The stripped data lines of a curve CSV as a structured array with
    fields m, r and z."""
    row = [("m", np.int64), ("r", np.float64), ("z", np.float64)]
    if not lines:  # np.loadtxt warns on an empty input
        return np.empty(0, row)
    return np.loadtxt(lines, dtype=row, delimiter=",", comments=None,
                      ndmin=1)


def read_curve(path):
    """Read a curve CSV written by write_curve.

    The rows are parsed by numpy in one call; only when that fails are they
    parsed one at a time, to name the first row it refuses.  Each field is
    parsed on its own, so the row that fails the batch also fails alone.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in map(str.strip, fh) if ln]
    if not lines or lines[0] != "m,r,z":
        raise CurveFileError("expected header 'm,r,z' in %s" % path)
    body = lines[1:]
    try:
        rows = _parse_rows(body)
    except ValueError:
        for ln in body:
            try:
                _parse_rows([ln])
            except ValueError as exc:
                raise CurveFileError(
                    "malformed row %r in %s" % (ln, path)) from exc
    if not np.array_equal(rows["m"], np.arange(len(rows))):
        raise CurveFileError("row indices must run 0..M-1 in %s" % path)
    try:
        return DiscreteCurve(np.column_stack((rows["r"], rows["z"])))
    except ValueError as exc:
        raise CurveFileError("invalid curve in %s: %s" % (path, exc)) from exc
