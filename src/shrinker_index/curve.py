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


#: Rows of text that `_text_blocks` lays out at once.
_TEXT_ROWS = 2048

#: "0000" .. "9999" as uint32 words of four ASCII digits (48 .. 57).
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()

#: 5^k for the scale factors 10^k = 2^k 5^k of `_scaled`, k = 1 .. 21.
_POW5 = 5 ** np.arange(22, dtype=np.uint64)

#: The slots `%d` writes of 8 digit slots, by leading zeros, as one uint64
#: word each.
_INT_KEEP = (np.arange(8) >= np.arange(8)[:, None]).view(np.uint64)

#: The slots of a `%.17g` cell in fixed notation: the sign, "0." and three
#: zeros (for |x| < 1), then the 17 digits, each followed by a slot for the
#: point.  A cell keeps the slots its value needs, a row of _FIXED_KEEP.
_FIXED = np.frombuffer(b"-0.000" + b"0." * 17, np.uint8)


def _fixed_keep():
    """Which `_FIXED` slots `%.17g` writes, by sign (2), decade -4..15 (20)
    and significant digits 1..17 (17), as rows of 40 bools viewed as 5
    uint64 words, row (neg 20 + d + 4) 17 + sig - 1."""
    neg, d, sig = (g[..., None] for g in np.meshgrid(
        [False, True], np.arange(-4, 16), np.arange(1, 18), indexing="ij"))
    keep = np.zeros(d.shape[:-1] + _FIXED.shape, bool)
    keep[..., :1] = neg
    keep[..., 1:3] = d < 0
    keep[..., 3:6] = np.arange(3) < -d - 1
    # digits up to the last nonzero one and through the units, and the
    # point if a nonzero digit follows the units
    keep[..., 6::2] = np.arange(17) < np.maximum(sig, d + 1)
    keep[..., 7::2] = (np.arange(17) == d) & (sig > d + 1)
    return keep.reshape(-1, len(_FIXED)).view(np.uint64)


_FIXED_KEEP = _fixed_keep()


def _scaled(a, d):
    """floor(a 10^(16 - d)) for 1e-4 <= a < 1e15 and a decade d near
    log10(a), and whether rounding half-even adds one.

    a = m 2^(e - 53) with a 53-bit integer m, so a 10^k is m 5^k shifted
    right by 53 - e - k bits, k = 16 - d: the product, below 2^102, is
    formed exactly in 64-bit words from 32-bit halves.
    """
    mant, e = np.frexp(a)
    m = (mant * 2.0 ** 53).astype(np.uint64)
    k = 16 - d
    s = (53 - e - k).astype(np.uint64)  # 1 .. 47 here
    p = _POW5[k]
    m_hi, m_lo = m >> 32, m & 0xFFFFFFFF
    p_hi, p_lo = p >> 32, p & 0xFFFFFFFF
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    lo = low + (mid << 32)
    hi = m_hi * p_hi + (mid >> 32) + (lo < low)
    q = (hi << (64 - s)) | (lo >> s)
    rest = lo & ((1 << s) - 1)
    half = 1 << (s - 1)
    return q, (rest > half) | ((rest == half) & (q & 1).astype(bool))


def _fixed_cells(x):
    """The slots of `_FIXED` and which of them `%.17g` writes for each
    1e-4 <= |x| < 1e15, as (len(x), 40) arrays."""
    a = np.abs(x)
    d = np.floor(np.log10(a)).astype(np.int64)
    q, up = _scaled(a, d)
    # log10 can miss the decade by one next to a power of ten
    off = (q >= 10 ** 17).astype(np.int64) - (q < 10 ** 16)
    wrong = np.flatnonzero(off)
    if wrong.size:
        d[wrong] += off[wrong]
        q[wrong], up[wrong] = _scaled(a[wrong], d[wrong])
    # the rounding never carries into the next decade here: the largest
    # double below each power of ten from 1e-3 to 1e15 is more than half
    # a unit of the 17th digit below it
    n = q + up
    top = n // 10 ** 16
    hi, lo = np.divmod(n - top * 10 ** 16, 10 ** 8)
    chars = np.empty((len(x), len(_FIXED)), np.uint8)
    chars[:] = _FIXED
    chars[:, 6] += top.astype(np.uint8)
    quads = np.stack(np.divmod(hi, 10 ** 4) + np.divmod(lo, 10 ** 4), axis=1)
    chars[:, 8::2] = np.take(_QUADS, quads).view(np.uint8)
    sig = 17 - np.argmax(chars[:, 38:5:-2] != ord("0"), axis=1)
    row = ((x < 0.0) * 20 + d + 4) * 17 + sig - 1
    return chars, np.take(_FIXED_KEEP, row, axis=0).view(bool)


def _int_cells(v):
    """The 8 digit slots of each 0 <= v < 10^8 and which `%d` writes."""
    chars = np.take(_QUADS, np.stack(np.divmod(v, 10 ** 4), axis=1))
    chars = chars.view(np.uint8)
    lead = chars != ord("0")
    lead[:, 7] = True
    keep = np.take(_INT_KEEP, np.argmax(lead, axis=1), axis=0)
    return chars, keep.view(bool)


def _cells(column):
    """(chars, keep) for one column: the text of value i is chars[i][keep[i]].

    Values outside the fast paths are formatted by `%` itself: floats 0,
    below 1e-4 or from 1e15 up in size, and not finite; ints below 0 or
    from 10^8 up.
    """
    if column.dtype.kind == "f":
        a = np.abs(column)
        other = ~((a >= 1e-4) & (a < 1e15))
        chars, keep = _fixed_cells(np.where(other, 1.0, column))
        code = "%.17g"
    else:
        other = (column < 0) | (column >= 10 ** 8)
        chars, keep = _int_cells(np.where(other, 0, column))
        code = "%d"
    rows = np.flatnonzero(other)
    if rows.size:
        text = np.frombuffer(((code + "\n") * rows.size % tuple(
            column[rows].tolist())).encode("ascii"), np.uint8)
        ends = np.flatnonzero(text == ord("\n"))
        starts = np.concatenate(([0], ends[:-1] + 1))
        # a `%` cell is wider only as an int: a %.17g one never is
        width = int((ends - starts).max())
        if width > chars.shape[1]:
            pad = ((0, 0), (0, width - chars.shape[1]))
            chars, keep = np.pad(chars, pad), np.pad(keep, pad)
        slot = np.arange(chars.shape[1])
        keep[rows] = slot < (ends - starts)[:, None]
        chars[rows] = text[np.minimum(starts[:, None] + slot, len(text) - 1)]
    return chars, keep


def _text_blocks(columns, literals):
    """The rows literals[0] + cell 0 + literals[1] + ... + literals[-1],
    one per index of the equal-length float64 or integer `columns`, as
    one str per _TEXT_ROWS rows.

    A float cell is exactly `"%.17g" % value` and an int cell `"%d" %
    value`, but the digits are made in numpy: the 17-digit decimal of a
    float is its binary value scaled by a power of ten in exact integer
    arithmetic and rounded half-even, as the correctly rounded conversion
    of `%` does (Gay, "Correctly rounded binary-decimal and decimal-binary
    conversions", 1990).
    """
    literals = [np.frombuffer(lit.encode("ascii"), np.uint8)
                for lit in literals]
    pieces = []
    for start in range(0, len(columns[0]), _TEXT_ROWS):
        cells = [_cells(c[start:start + _TEXT_ROWS]) for c in columns]
        width = sum(map(len, literals)) + sum(c.shape[1] for c, _ in cells)
        chars = np.empty((len(cells[0][0]), width), np.uint8)
        keep = np.ones(chars.shape, bool)
        at = 0
        for lit, cell in zip(literals, cells + [None]):
            chars[:, at:at + len(lit)] = lit
            at += len(lit)
            if cell is not None:
                end = at + cell[0].shape[1]
                chars[:, at:end], keep[:, at:end] = cell
                at = end
        pieces.append(np.compress(keep.ravel(), chars).tobytes().decode())
    return pieces


def write_curve(curve, path):
    """Write CSV with header m,r,z and 17 significant digits, the rows
    laid out by `_text_blocks`."""
    blocks = _text_blocks([np.arange(curve.M), curve.r, curve.z],
                          ["", ",", ",", "\n"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,r,z\n")
        fh.writelines(blocks)


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
