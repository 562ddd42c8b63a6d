"""Independent oracles and test-only views used only by the tests.

Three oracles live here: a high-precision finite-difference evaluation of
the segment-distance derivatives (mpmath, so truncation error dominates and
the 1e-6 comparison is meaningful), a deliberately naive full-size assembly
of -L_0 that materializes the 2M x 2M Hessian the production code avoids,
and the dense M x M form of a banded operator, so the tests can check the
bands and the sparse eigensolver against LAPACK.  Alongside them sit small
views the package itself never needs: the 4-coordinate derivatives of one
segment, the 2x2 point block at one point, and the mirror image of a curve.
"""

import dataclasses

import mpmath as mp
import numpy as np

from shrinker_index import DiscreteCurve
from shrinker_index.metric import segment_blocks
from shrinker_index.stability import _point_blocks

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
    blocks = segment_blocks(np.asarray(a, float)[None, :],
                            np.asarray(b, float)[None, :])
    grad = np.concatenate([blocks["grad_a"][0], blocks["grad_b"][0]])
    hess = np.empty((4, 4))
    hess[:2, :2] = blocks["h_aa"][0]
    hess[:2, 2:] = blocks["h_ab"][0]
    hess[2:, :2] = blocks["h_ab"][0].T
    hess[2:, 2:] = blocks["h_bb"][0]
    return SegmentDerivatives(value=float(blocks["dist"][0]),
                              gradient=grad, hessian=hess)


def point_block(curve, m):
    """The 2x2 second-derivative block of the discrete length at point m."""
    h_m, _ = _point_blocks(curve.points)
    return h_m[m % curve.M]


def reflect_z(curve):
    """Mirror image across the z = 0 axis (same traversal order)."""
    pts = curve.points.copy()
    pts[:, 1] = -pts[:, 1]
    return DiscreteCurve(pts)


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


def dense(matrix):
    """The M x M array of a StabilityMatrix, built from its two bands."""
    m_count = matrix.M
    a = np.zeros((m_count, m_count))
    i = np.arange(m_count)
    j = (i + 1) % m_count
    a[i, i] = matrix.diag
    a[i, j] = matrix.up
    a[j, i] = matrix.up
    return a
