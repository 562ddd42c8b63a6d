"""Independent oracles and test-only views used only by the tests.

Eleven oracles live here: a high-precision finite-difference evaluation of
the segment-distance derivatives (mpmath, so truncation error dominates and
the 1e-6 comparison is meaningful; the survey of 1000 segments runs the
same stencils vectorized in a 63-bit long double), a deliberately naive
full-size assembly of -L_0 that materializes the 2M x 2M Hessian the
production code avoids, a second discretization of -L_k from the geodesic ODE in weighted arc
length, whose low eigenvalues must agree with the Hessian-based assembly,
the Liouville potential by nested central differences in that parameter,
whose distance from the closed form must fall as M^-2,
the dense M x M form of a banded operator, from its whole cyclic bands
or the rows 0..M // 2 a StabilityMatrix holds, so the tests can check the
bands and the folded eigensolver against a dense LAPACK solve, the pair-leading
form of the extended-precision cyclic Thomas sweep, which the production
sweep must match bit for bit, the OBJ and SVG path writers that format
one line or one point at a time, whose bytes the production writers must
reproduce exactly, the segment distances and point-block evaluation
written with np.roll, np.linalg.norm and np.einsum on (M, 2) rows and
(M, 2, 2) blocks, whose bits the column arithmetic of the production code
must reproduce, and a curve CSV reader that parses one row at a time with
Python's int and float, whose points numpy's one-call reader must match,
and the equal-spacing resampling of a whole closed curve, which the
solver's resampling on the mirror half must match once unfolded and
mirror-averaged.  Alongside them sit small
views the package itself never needs: the 4-coordinate derivatives of one
segment, the 2x2 point block at one point, the mirror image of a curve, the
spacing deviation of a curve and its resampling to another point count,
a record of the LAPACK bisections and inverse iterations a block makes,
and the folded eigensolver with LAPACK's full-precision bisection, which
the coarse shifts must reproduce bit for bit wherever values crowd.
"""

import contextlib
import dataclasses

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from shrinker_index import (DiscreteCurve, StabilityMatrix, discrete_length,
                            sigma)
from shrinker_index.curve import CurveFileError
from shrinker_index.metric import segment_blocks, segment_distance
from shrinker_index.render import _amplitude
from shrinker_index.stability import (_point_blocks, fold_index,
                                      mirror_halves, unfold_weight)

FD_STEP = 1e-5
FD_DPS = 40

# 5-point stencils with integer weights (exact; divide by 12 h or 12 h^2
# only at the end, otherwise coefficient rounding pollutes the 1/h^2 term)
_C1 = {-2: 1, -1: -8, 1: 8, 2: -1}
_C2 = {-2: -1, -1: 16, 0: -30, 1: 16, 2: -1}


def _dist_mp(coords):
    a_r, a_z, b_r, b_z = coords
    mr = (a_r + b_r) / 2
    mz = (a_z + b_z) / 2
    sig = mr / 2 * mp.exp(-(mr * mr + mz * mz) / 4)
    return sig * mp.sqrt((b_r - a_r) ** 2 + (b_z - a_z) ** 2)


@dataclasses.dataclass
class SegmentDerivatives:
    """Value, gradient (4,) and Hessian (4, 4) of dist(a, b).

    Coordinates are ordered (a_r, a_z, b_r, b_z).
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def segment_derivatives(a, b):
    """Exact gradient and Hessian of dist(a, b) for a single segment.

    Returns SegmentDerivatives with the (a_r, a_z, b_r, b_z) ordering.
    """
    dist, grad, hess = segment_derivative_rows(
        np.asarray(a, float)[None, :], np.asarray(b, float)[None, :])
    return SegmentDerivatives(value=float(dist[0]), gradient=grad[0],
                              hessian=hess[0])


def segment_derivative_rows(a, b):
    """dist (n,), gradients (n, 4) and Hessians (n, 4, 4) of the segments
    from the rows of a to those of b, (n, 2) each, in the closed form."""
    blocks = segment_blocks(a, b)
    grad = np.concatenate([blocks["grad_a"], blocks["grad_b"]], axis=1)
    hess = np.empty((len(grad), 4, 4))
    hess[:, :2, :2] = blocks["h_aa"]
    hess[:, :2, 2:] = blocks["h_ab"]
    hess[:, 2:, :2] = np.swapaxes(blocks["h_ab"], 1, 2)
    hess[:, 2:, 2:] = blocks["h_bb"]
    return blocks["dist"], grad, hess


def point_block(curve, m):
    """The 2x2 second-derivative block of the discrete length at point m."""
    pts = curve.points
    h_m, _ = _point_blocks(np.concatenate((pts[-1:], pts, pts[:1])))
    return h_m[m % curve.M]


def reflect_z(curve):
    """Mirror image across the z = 0 axis (same traversal order)."""
    pts = curve.points.copy()
    pts[:, 1] = -pts[:, 1]
    return DiscreteCurve(pts)


def spacing_deviation(curve):
    """max/min segment distance ratio minus 1 (0 for perfectly even)."""
    pts = curve.points
    d = segment_distance(pts, np.roll(pts, -1, axis=0))
    return float(d.max() / d.min() - 1.0)


def resample_points(points, m_new):
    """Equal-segment-distance resampling on the input interpolant.

    Places m_new points on the piecewise-linear interpolant of `points`,
    anchored at the input's first vertex, such that the recomputed
    midpoint-rule segment distances of the output are equal.  A single
    accumulated-length placement leaves O(h^2) unevenness, so the target
    parameters are corrected a few times; the points stay on the original
    polygon throughout.
    """
    nxt = np.concatenate((points[1:], points[:1]))
    d = segment_distance(points, nxt)
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
        d_new = segment_distance(out, np.concatenate((out[1:], out[:1])))
        e = np.concatenate([[0.0], np.cumsum(d_new[:-1])])
        target = grid * (d_new.sum() / m_new)
        err = target - e
        if np.max(np.abs(err)) <= 1e-14 * total:
            break
        t = np.mod(t + err, total)
        t[0] = 0.0
    return out


def resample_uniform(curve, m_new):
    """Resample to m_new points with equal segment distances.

    The output points lie on the piecewise-linear interpolant of the input
    and the first output point is the input's q_0.  Applying this to an
    already uniform curve with m_new = M reproduces it.
    """
    if m_new < 3:
        raise ValueError("m_new must be at least 3")
    return DiscreteCurve(resample_points(curve.points, m_new))


def fd_segment_derivatives(a, b, step=FD_STEP, dps=FD_DPS):
    """Central-difference gradient and Hessian of the segment distance.

    All stencil evaluations run in mpmath at `dps` digits; cross second
    derivatives compose the first-derivative stencil with itself.
    """
    with mp.workdps(dps):
        h = mp.mpf(step)
        x0 = [mp.mpf(repr(float(v))) for v in (a[0], a[1], b[0], b[1])]

        def f(off):
            return _dist_mp([x0[i] + off.get(i, 0) * h for i in range(4)])

        grad = np.empty(4)
        hess = np.empty((4, 4))
        for i in range(4):
            grad[i] = float(sum(c * f({i: o})
                                for o, c in _C1.items()) / (12 * h))
            hess[i, i] = float(sum(c * f({i: o})
                                   for o, c in _C2.items()) / (12 * h * h))
        for i in range(4):
            for j in range(i + 1, 4):
                acc = mp.mpf(0)
                for oi, ci in _C1.items():
                    for oj, cj in _C1.items():
                        acc += ci * cj * f({i: oi, j: oj})
                hess[i, j] = hess[j, i] = float(acc / (144 * h * h))
        return grad, hess


def fd_compare(a, b, step=FD_STEP, dps=FD_DPS):
    """Max relative gradient/Hessian error of the closed forms vs the FD.

    Errors are normalized by the largest FD entry of the same object, so a
    segment with a uniformly small gradient is not penalized for its scale.
    """
    d = segment_derivatives(a, b)
    g_fd, h_fd = fd_segment_derivatives(a, b, step=step, dps=dps)
    rel_g = np.max(np.abs(d.gradient - g_fd)) / np.max(np.abs(g_fd))
    rel_h = np.max(np.abs(d.hessian - h_fd)) / np.max(np.abs(h_fd))
    return float(rel_g), float(rel_h)


def _dist_ld(x):
    a_r, a_z, b_r, b_z = np.moveaxis(x, -1, 0)
    mr = (a_r + b_r) / 2
    mz = (a_z + b_z) / 2
    sig = mr / 2 * np.exp(-(mr * mr + mz * mz) / 4)
    return sig * np.sqrt((b_r - a_r) ** 2 + (b_z - a_z) ** 2)


def fd_segment_derivative_rows(a, b, step=FD_STEP):
    """The stencils of `fd_segment_derivatives` on the (n, 2) rows a and b
    at once, in numpy's long double: gradients (n, 4), Hessians (n, 4, 4).

    Its rounding, about 1e-19 / h^2 relative in the Hessian, stays far
    below the stencil's truncation at h = 1e-5 only with a 63-bit mantissa,
    so a narrower long double raises ValueError.
    """
    ld = np.longdouble
    if np.finfo(ld).nmant < 63:
        raise ValueError("the long-double stencils need a 63-bit mantissa, "
                         "numpy's long double has %d" % np.finfo(ld).nmant)
    x0 = np.concatenate([a, b], axis=1).astype(ld)
    h = ld(step)
    unit = np.eye(4, dtype=ld)

    def f(off):
        return _dist_ld(x0 + sum(o * h * unit[i] for i, o in off.items()))

    grad = np.empty((len(x0), 4), dtype=ld)
    hess = np.empty((len(x0), 4, 4), dtype=ld)
    for i in range(4):
        grad[:, i] = sum(c * f({i: o}) for o, c in _C1.items()) / (12 * h)
        hess[:, i, i] = (sum(c * f({i: o}) for o, c in _C2.items())
                         / (12 * h * h))
        for j in range(i + 1, 4):
            acc = sum(ci * cj * f({i: oi, j: oj})
                      for oi, ci in _C1.items() for oj, cj in _C1.items())
            hess[:, i, j] = hess[:, j, i] = acc / (144 * h * h)
    return grad, hess


def fd_compare_rows(a, b, step=FD_STEP):
    """`fd_compare` of every row segment at once, against the long-double
    stencils: the max relative gradient and Hessian errors, (n,) each."""
    _, grad, hess = segment_derivative_rows(a, b)
    g_fd, h_fd = fd_segment_derivative_rows(a, b, step=step)
    rel_g = (np.max(np.abs(grad - g_fd), axis=1)
             / np.max(np.abs(g_fd), axis=1))
    rel_h = (np.max(np.abs(hess - h_fd), axis=(1, 2))
             / np.max(np.abs(h_fd), axis=(1, 2)))
    return rel_g.astype(float), rel_h.astype(float)


def random_segments(count, seed):
    """Segments with log-uniform lengths in [1e-3, 1], staying in r > 0."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.uniform([0.1, -2.5], [3.0, 2.5])
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        b = a + 10.0 ** rng.uniform(-3.0, 0.0) * direction
        if b[0] > 0.05:
            out.append((a, b))
    return out


def full_L0(curve, normals):
    """-L_0 through the explicit 2M x 2M Hessian and the dense N matrix.

    Production assembles the reduced tridiagonal directly; this path exists
    so the tests can confirm the blockwise bookkeeping against the matrix
    product (M / l) N^T H N written out literally.
    """
    pts = curve.points
    m_count = curve.M
    H = np.zeros((2 * m_count, 2 * m_count))
    total = 0.0
    for m in range(m_count):
        m1 = (m + 1) % m_count
        d = segment_derivatives(pts[m], pts[m1])
        total += d.value
        sl_a = slice(2 * m, 2 * m + 2)
        sl_b = slice(2 * m1, 2 * m1 + 2)
        H[sl_a, sl_a] += d.hessian[:2, :2]
        H[sl_a, sl_b] += d.hessian[:2, 2:]
        H[sl_b, sl_a] += d.hessian[2:, :2]
        H[sl_b, sl_b] += d.hessian[2:, 2:]
    N = np.zeros((2 * m_count, m_count))
    for m in range(m_count):
        N[2 * m:2 * m + 2, m] = normals[m]
    A = (m_count / total) * (N.T @ H @ N)
    return 0.5 * (A + A.T)


def assemble_Lk_ode(curve, k):
    """Independent -L_k discretization from the arc-length ODE.

    In the weighted arc-length parameter t (equal increments dt = l / M
    along the solved curve) the stability operator reads

        (-L_k u)_m = -sigma_m (sigma_{m+1} u_{m+1} - 2 sigma_m u_m
                               + sigma_{m-1} u_{m-1}) / dt^2
                     - (1 + (1 - k^2) / r_m^2) u_m,

    which is symmetric as written.  Second order accurate, like the
    Hessian-based assembly, but with a different error constant; agreement
    of low eigenvalues to ~1e-3 at M = 2048 is the cross-check.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError("mode number k must be a nonnegative integer")
    points = curve.points
    m_count = curve.M
    s = sigma(points)
    dt = discrete_length(curve) / m_count
    r = curve.r

    diag = 2.0 * s * s / dt**2 - 1.0 - (1.0 - k * k) / (r * r)
    up = -s * np.roll(s, -1) / dt**2
    # on a mirror-symmetric curve the bands are their own mirror images
    h = m_count // 2
    return StabilityMatrix(k=int(k), M=m_count, diag=diag[:h + 1],
                           up=up[:h + 1])


def potential_fd(points, k):
    """Liouville potential V_k of a solved geodesic by finite differences.

    w = sigma^{-1/2} is differentiated twice by central differences in the
    weighted arc-length parameter t (equal increments dt = l / M), through
    d/ds = sigma d/dt, and V_k = w'' sigma^{1/2} - 1 + (k^2 - 1) / r^2.
    Second order accurate in M.
    """
    s_weight = sigma(points)
    dt = discrete_length(DiscreteCurve(points)) / len(points)

    def central(arr):
        return (np.roll(arr, -1) - np.roll(arr, 1)) / (2.0 * dt)

    w = s_weight ** (-0.5)
    w_prime = s_weight * central(w)
    w_second = s_weight * central(w_prime)
    return (w_second * np.sqrt(s_weight) - 1.0
            + (k * k - 1.0) / points[:, 0] ** 2)


def segment_distance_rows(a, b):
    """metric.segment_distance with the length from np.linalg.norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return sigma(0.5 * (a + b)) * np.linalg.norm(b - a, axis=-1)


def segment_blocks_rows(a, b):
    """metric.segment_blocks on C-ordered (M, 2) rows and (M, 2, 2)
    blocks, built by broadcasting."""
    diff = b - a
    dist_e = np.linalg.norm(diff, axis=-1)
    mid = 0.5 * (a + b)
    r, z = mid[:, 0], mid[:, 1]
    e = np.exp(-0.25 * (r * r + z * z))
    s = 0.5 * r * e
    g = np.column_stack([0.25 * e * (2.0 - r * r), -0.25 * r * z * e])
    hess_s = np.empty((len(r), 2, 2))
    hess_s[:, 0, 0] = -0.125 * r * e * (6.0 - r * r)
    hess_s[:, 0, 1] = hess_s[:, 1, 0] = -0.125 * z * e * (2.0 - r * r)
    hess_s[:, 1, 1] = -0.125 * r * e * (2.0 - z * z)
    u = diff / dist_e[:, None]
    guT = g[:, :, None] * u[:, None, :]
    ugT = u[:, :, None] * g[:, None, :]
    uuT = u[:, :, None] * u[:, None, :]
    proj = (np.eye(2) - uuT) / dist_e[:, None, None]
    sym = 0.5 * (guT + ugT)
    skew = 0.5 * (guT - ugT)
    quarter = 0.25 * dist_e[:, None, None] * hess_s
    s_proj = s[:, None, None] * proj
    half_gd = 0.5 * g * dist_e[:, None]
    su = s[:, None] * u
    return {"dist": s * dist_e, "grad_a": half_gd - su,
            "grad_b": half_gd + su, "h_aa": quarter - sym + s_proj,
            "h_ab": quarter + skew - s_proj, "h_bb": quarter + sym + s_proj}


def evaluation_rows(points):
    """The closed-curve evaluation of `points`: normals (oriented away from
    the centroid), grad_normal, diag, up, residual and spacing, from
    np.roll neighbours, np.linalg.norm lengths and np.einsum dot products
    and quadratic forms.  On rows 0..M // 2 of a mirror-symmetric curve it
    is stability.Evaluation of those rows, bit for bit (up on the rows
    `StabilityMatrix.bands` reads)."""
    blocks = segment_blocks_rows(points, np.roll(points, -1, axis=0))
    h_m = blocks["h_aa"] + np.roll(blocks["h_bb"], 1, axis=0)
    a, b, c = h_m[:, 0, 0], h_m[:, 0, 1], h_m[:, 1, 1]
    half_diff = 0.5 * (a - c)
    lam_min = 0.5 * (a + c) - np.sqrt(half_diff * half_diff + b * b)
    col1 = np.stack([a - lam_min, b], axis=1)
    col2 = np.stack([b, c - lam_min], axis=1)
    use1 = (np.einsum("mi,mi->m", col1, col1)
            >= np.einsum("mi,mi->m", col2, col2))
    n = np.where(use1[:, None], col1, col2)
    n = n / np.linalg.norm(n, axis=1)[:, None]
    outward = np.einsum("mi,mi->m", n, points - points.mean(axis=0))
    n[outward < 0.0] *= -1.0
    n_next = np.roll(n, -1, axis=0)
    grad = blocks["grad_a"] + np.roll(blocks["grad_b"], 1, axis=0)
    grad_normal = np.einsum("mi,mi->m", n, grad)
    d_b = np.einsum("mi,mij,mj->m", n_next, blocks["h_bb"], n_next)
    dist = blocks["dist"]
    return {
        "normals": n, "grad_normal": grad_normal,
        "diag": (np.einsum("mi,mij,mj->m", n, blocks["h_aa"], n)
                 + np.roll(d_b, 1)),
        "up": np.einsum("mi,mij,mj->m", n, blocks["h_ab"], n_next),
        "residual": float(np.max(np.abs(grad_normal))),
        "spacing": float(dist.max() / dist.min() - 1.0),
    }


def read_curve_per_row(path):
    """The points of a curve CSV, each row split at commas and parsed
    with int and float, under the checks and messages of curve.read_curve."""
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
    return np.array([(r, z) for _, r, z in rows], dtype=float)


def dense(matrix):
    """The M x M array of a StabilityMatrix, built from the whole cyclic
    bands its rows 0..M // 2 unfold to (`StabilityMatrix.bands`)."""
    return dense_bands(*matrix.bands())


def dense_bands(diag, up):
    """The M x M cyclic tridiagonal array with bands diag[m] = A[m, m] and
    up[m] = A[m, m + 1 mod M]."""
    m_count = len(diag)
    a = np.zeros((m_count, m_count))
    i = np.arange(m_count)
    j = (i + 1) % m_count
    a[i, i] = diag
    a[i, j] = up
    a[j, i] = up
    return a


@contextlib.contextmanager
def lapack_requests():
    """The LAPACK calls made inside the block, by name, in call order:
    "stebz" holds (rows, (first, last), tol) of each bisection of the
    values first..last (from 0) of a tridiagonal, "stein" holds (rows,
    (0, pairs - 1)) of each inverse iteration for that many pairs.  The
    functions are restored after the block."""
    requests = {"stebz": [], "stein": []}
    lapack = scipy.linalg.lapack
    stebz, stein = lapack.dstebz, lapack.dstein

    def bisect(d, e, rng, vl, vu, il, iu, tol, order):
        requests["stebz"].append((len(d), (il - 1, iu - 1), tol))
        return stebz(d, e, rng, vl, vu, il, iu, tol, order)

    def iterate(d, e, w, iblock, isplit):
        requests["stein"].append((len(d), (0, len(w) - 1)))
        return stein(d, e, w, iblock, isplit)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lapack, "dstebz", bisect)
        patch.setattr(lapack, "dstein", iterate)
        yield requests


def eigh_folded_pairs(a, count):
    """`spectral._folded_pairs` with LAPACK's full precision: each half
    asked for the same pairs, but through scipy.linalg.eigh_tridiagonal,
    whose bisection runs to eps ||T||, and merged and unfolded alike."""
    m, h = a.M, a.M // 2
    asks = (count // 2 + 1, count // 2 + (m % 2 == 1 and a.up[h] > 0.0))
    found = []
    for (d, e), ask in zip(mirror_halves(a.diag, a.up, m), asks):
        ask = min(ask, len(d))
        found.append(scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(0, ask - 1)) if ask
            else (np.empty(0), np.empty((len(d), 0))))
    (lam_even, x), (lam_odd, y) = found
    keep = np.argsort(np.concatenate([lam_even, lam_odd]),
                      kind="stable")[:count]
    fold = fold_index(m)
    weight = unfold_weight(m)[fold]
    y = np.pad(y, ((1, h - len(y)), (0, 0)))
    vecs = np.concatenate(
        [x[fold] * weight[:, None],
         y[fold] * np.where(np.arange(m) > h, -weight, weight)[:, None]],
        axis=1)
    return vecs[:, keep].T


def cyclic_solve_pair_leading(diag, up, shifts, rhs):
    """The pair-leading form of spectral._cyclic_solve, as the reference.

    The same Thomas elimination and Sherman-Morrison corner, with the same
    operations in the same order, but indexed [..., row, :] on pair-leading
    arrays; the production sweep runs with the M axis leading instead and
    must agree with this bit for bit.  As there, pivots are bumped only
    after the forward sweep, so an exact zero pivot inside it gives an
    all-NaN row.
    """
    ld = np.longdouble
    m = rhs.shape[-1]
    b = diag - shifts[..., None]
    corner = up[-1]
    gamma = np.where(np.abs(b[..., 0]) > 1e-300, -b[..., 0], ld(-1.0))
    b[..., 0] -= gamma
    b[..., -1] -= (corner * corner) / gamma

    work = np.empty(rhs.shape + (2,), dtype=ld)
    work[..., 0] = rhs
    work[..., 1] = 0.0
    work[..., 0, 1] = gamma
    work[..., -1, 1] = corner

    piv = b
    for row in range(1, m):
        factor = up[row - 1] / piv[..., row - 1]
        piv[..., row] -= factor * up[row - 1]
        work[..., row, :] -= factor[..., None] * work[..., row - 1, :]
    piv[np.abs(piv) < 1e-300] = 1e-300

    work[..., -1, :] /= piv[..., -1, None]
    for row in range(m - 2, -1, -1):
        work[..., row, :] -= up[row] * work[..., row + 1, :]
        work[..., row, :] /= piv[..., row, None]

    y = work[..., 0]
    q = work[..., 1]
    v_y = y[..., 0] + (corner / gamma) * y[..., -1]
    v_q = q[..., 0] + (corner / gamma) * q[..., -1]
    return y - q * (v_y / (1.0 + v_q))[..., None]


def obj_surface_per_line(curve, mode=None, k=0, ntheta=64, epsilon=None,
                         phase="cos", normals=None):
    """render.obj_surface formatted one line at a time, as the reference.

    The same vertices, from the same operations, and the faces counted out
    quad by quad; the production writer formats whole rings at once and
    must give exactly this string.
    """
    pts = curve.points
    m_count = curve.M
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta

    r = np.repeat(pts[:, 0], ntheta)
    z = np.repeat(pts[:, 1], ntheta)
    th = np.tile(theta, m_count)
    if mode is not None:
        amp = _amplitude(curve, mode, normals, epsilon)
        g = np.cos(k * th) if phase == "cos" else np.sin(k * th)
        amp = np.repeat(amp, ntheta) * g
        r = r + amp * np.repeat(normals[:, 0], ntheta)
        z = z + amp * np.repeat(normals[:, 1], ntheta)

    lines = ["v %.17g %.17g %.17g" % v
             for v in zip(r * np.cos(th), r * np.sin(th), z)]
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


def polyline_per_point(points, scale, origin):
    """render._polyline formatted one point at a time, as the reference."""
    xs = (points[:, 0] - origin[0]) * scale
    ys = (origin[1] - points[:, 1]) * scale
    return "M" + " L".join("%.17g,%.17g" % xy for xy in zip(xs, ys)) + " Z"
