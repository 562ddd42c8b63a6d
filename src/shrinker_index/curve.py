"""Closed discrete curves in the weighted half-plane.

A curve is M points q_0 .. q_{M-1} with r > 0, indices mod M, traversed
counterclockwise by convention.  The discrete weighted length is the sum of
midpoint-rule segment distances.  A curve that is its own mirror image
under z -> -z (point -m mod M is (r_m, -z_m)) is held by its rows
0 .. M // 2: `mirror_pad` reads the neighbours across the axis and
`unfold` restores the whole curve.  Resampling redistributes the points of
such a half along the piecewise-linear interpolant so consecutive segment
distances of the whole curve come out equal.
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


def mirror_pad(half, m):
    """Rows -1 .. m // 2 + 1 of the mirror-symmetric m-point curve whose
    rows 0 .. m // 2 are `half`.

    The two rows across the axis are mirror images, (r, -z), of rows in
    `half`: q_{-1} of q_1, and q_{m//2+1} of q_{m/2-1} for even m or of
    q_{m//2} for odd m.
    """
    out = np.concatenate((half[1:2], half, half[len(half) - 2 + m % 2:][:1]))
    out[0, 1], out[-1, 1] = -out[0, 1], -out[-1, 1]
    return out


def unfold(half, m):
    """The m points of the mirror-symmetric curve whose rows 0 .. m // 2
    are `half`: row m - j is (r_j, -z_j)."""
    tail = half[m - len(half):0:-1].copy()
    tail[:, 1] = -tail[:, 1]
    return np.concatenate((half, tail))


def _half_arc(half, m):
    """Displacements and weighted distances of the pieces of the arc from
    q_0 to the inner axis crossing, for rows 0 .. m // 2 of a
    mirror-symmetric m-point curve.

    For even m the crossing is q_{m/2}.  For odd m it is the midpoint of
    the segment from q_{m//2} to its mirror image, so that segment counts
    as half, in displacement and in distance.
    """
    padded = mirror_pad(half, m)
    step = padded[2:] - padded[1:-1]
    d = metric.segment_distance(padded[1:-1], padded[2:])
    if m % 2 == 0:
        return step[:-1], d[:-1]
    step[-1] *= 0.5
    d[-1] *= 0.5
    return step, d


def _resample_half(half, m, m_new):
    """Equal-segment-distance resampling of a mirror-symmetric curve, on
    its half.

    `half` holds rows 0 .. m // 2 of an m-point curve that is its own
    mirror image.  Returns rows 0 .. m_new // 2 of the m_new-point curve on
    the piecewise-linear interpolant, anchored at the input's q_0, whose
    recomputed midpoint-rule segment distances are equal: the points
    spread evenly over the arc from q_0 to the inner axis crossing (see
    `_half_arc`).  A single accumulated-length placement leaves O(h^2)
    unevenness, so the target parameters are corrected a few times; the
    points stay on the original polygon throughout.  q_0 is the input's,
    on the axis as that is, and for even m_new the inner axis point, placed
    at the crossing to rounding, is then put on z = 0.
    """
    step, d = _half_arc(half, m)
    cum = np.concatenate([[0.0], np.cumsum(d)])
    total = cum[-1]
    # (2, pieces) columns: each placement gathers from contiguous arrays
    base, step = half[:len(d)].T.copy(), step.T.copy()

    grid = np.arange(m_new // 2 + 1)
    t = grid * (2.0 * total / m_new)
    out = np.empty((len(grid), 2))
    for _ in range(61):  # the first placement and up to 60 corrections
        # t >= 0 = cum[0], so only the upper end needs a bound
        idx = np.minimum(np.searchsorted(cum, t, side="right") - 1,
                         len(d) - 1)
        alpha = (t - cum[idx]) / d[idx]
        for c in range(2):
            out[:, c] = base[c][idx] + alpha * step[c][idx]
        d_new = _half_arc(out, m_new)[1]
        e = np.concatenate([[0.0], np.cumsum(d_new[:len(grid) - 1])])
        err = grid * (2.0 * d_new.sum() / m_new) - e
        if np.max(np.abs(err)) <= 1e-14 * total:
            break
        t += err  # err[0] is 0: q_0 stays the anchor
    if m_new % 2 == 0:
        out[-1, 1] = 0.0
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
