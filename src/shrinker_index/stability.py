"""Discrete stability operators of a closed weighted geodesic.

The Hessian H of the discrete length couples each point to its two
neighbours through the 2x2 endpoint blocks of the segment-distance Hessian.
Restricting H to moves along a unit normal field n_m and weighting by
M / length gives the discrete stability operator of the surface of
revolution at rotational mode k = 0,

    -L_0 = (M / l) N^T H N,

a symmetric cyclic tridiagonal operator, stored as its two bands (N is the
2M x M block-diagonal matrix of the normals).  Higher Fourier modes shift
the diagonal:

    -L_k = -L_0 + k^2 diag(1 / r_m^2).

The normal at a point is read off the 2x2 point block

    H_m = h_bb(q_{m-1}, q_m) + h_aa(q_m, q_{m+1})

as the eigenvector of the larger eigenvalue, oriented outward (away from
the curve centroid); normal_field returns them as an (M, 2) array.  The
normal direction is stiff (the |b - a|^{-1} projector term dominates), so
the two eigenvalues are well separated and the eigenvector is stable even
far from the solved curve.

An independent second-order discretization of the same operators via the
geodesic ODE in weighted arc length is provided for cross-checking.
"""

import dataclasses

import numpy as np
import scipy.sparse

from . import curve as curve_mod
from . import metric

#: Below this eigenvalue gap of the 2x2 point block the normal direction is
#: not meaningfully defined.
NORMAL_GAP_CUTOFF = 1e-12


class AmbiguousNormal(RuntimeError):
    """Raised when a point block's eigenvalues are too close to pick a normal."""


@dataclasses.dataclass
class StabilityMatrix:
    """Bands of -L_k at mode k: diag[m] = A[m, m], up[m] = A[m, m+1 mod M]."""

    k: int
    diag: np.ndarray
    up: np.ndarray

    @property
    def M(self):
        return len(self.diag)


def cyclic_csc(diag, up):
    """The symmetric cyclic tridiagonal bands (diag, up) as a csc matrix."""
    m = len(diag)
    i = np.arange(m)
    j = (i + 1) % m
    return scipy.sparse.csc_matrix(
        (np.concatenate([diag, up, up]),
         (np.concatenate([i, i, j]), np.concatenate([i, j, i]))),
        shape=(m, m))


def _point_blocks(points):
    """2x2 blocks H_m for all points; also returns the segment blocks."""
    blocks = metric.segment_blocks(points, np.roll(points, -1, axis=0))
    h_m = blocks["h_aa"] + np.roll(blocks["h_bb"], 1, axis=0)
    return h_m, blocks


def _normals(h_m, points):
    """Unit outward eigenvector of the larger eigenvalue of each H_m."""
    a = h_m[:, 0, 0]
    b = h_m[:, 0, 1]
    c = h_m[:, 1, 1]
    half_diff = 0.5 * (a - c)
    disc = np.sqrt(half_diff * half_diff + b * b)
    if np.any(2.0 * disc < NORMAL_GAP_CUTOFF):
        raise AmbiguousNormal(
            "point block eigenvalue gap below %.1e" % NORMAL_GAP_CUTOFF)
    lam_min = 0.5 * (a + c) - disc
    # (H - lam_min I) has rank one; its larger column spans the top
    # eigenvector.  Pick per point for stability.
    col1 = np.stack([a - lam_min, b], axis=1)
    col2 = np.stack([b, c - lam_min], axis=1)
    use1 = (np.einsum("mi,mi->m", col1, col1)
            >= np.einsum("mi,mi->m", col2, col2))
    vec = np.where(use1[:, None], col1, col2)
    vec = vec / np.linalg.norm(vec, axis=1)[:, None]
    centroid = points.mean(axis=0)
    outward = np.einsum("mi,mi->m", vec, points - centroid)
    vec[outward < 0.0] *= -1.0
    return vec


def normal_field(curve):
    """Outward unit normals n_m of a discrete curve, shape (M, 2)."""
    h_m, _ = _point_blocks(curve.points)
    return _normals(h_m, curve.points)


def _reduced_tridiagonal(blocks, normals):
    """Diagonal and upper cyclic off-diagonal of N^T H N (unscaled)."""
    n = normals
    n_next = np.roll(n, -1, axis=0)
    d_a = np.einsum("mi,mij,mj->m", n, blocks["h_aa"], n)
    d_b = np.einsum("mi,mij,mj->m", n_next, blocks["h_bb"], n_next)
    off = np.einsum("mi,mij,mj->m", n, blocks["h_ab"], n_next)
    diag = d_a + np.roll(d_b, 1)
    return diag, off


def assemble_L0(curve, normals):
    """-L_0 = (M / l) N^T H N, assembled segment by segment.

    Never materializes the 2M x 2M Hessian: each segment contributes its
    four 2x2 endpoint blocks, reduced through the normals, to the diagonal
    and the first cyclic off-diagonals.
    """
    points = curve.points
    m_count = curve.M
    if normals.shape != (m_count, 2):
        raise ValueError("normal field does not match curve size")
    _, blocks = _point_blocks(points)
    diag, off = _reduced_tridiagonal(blocks, normals)
    scale = m_count / blocks["dist"].sum()
    return StabilityMatrix(k=0, diag=scale * diag, up=scale * off)


def assemble_Lk(L0, curve, k):
    """-L_k from -L_0 by the diagonal shift k^2 / r_m^2.

    k = 0 returns L0 unchanged; otherwise the result shares L0's `up` band.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError("mode number k must be a nonnegative integer")
    if L0.k != 0:
        raise ValueError("base operator must have k = 0")
    if L0.M != curve.M:
        raise ValueError("operator size does not match curve")
    if k == 0:
        return L0
    return StabilityMatrix(k=int(k), diag=L0.diag + (k * k) / curve.r ** 2,
                           up=L0.up)


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
    s = metric.sigma(points)
    dt = curve_mod.discrete_length(curve) / m_count
    r = curve.r

    diag = 2.0 * s * s / dt**2 - 1.0 - (1.0 - k * k) / (r * r)
    up = -s * np.roll(s, -1) / dt**2
    return StabilityMatrix(k=int(k), diag=diag, up=up)
