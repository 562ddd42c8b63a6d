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
the curve centroid).  One Evaluation reads them, an (M, 2) array, off the
same blocks as the normal gradient, the bands of N^T H N and -L_0, for
the solver, the spectra and the renders; its `solved` test is the one
definition of a solved geodesic, and assemble_Lk shifts its -L_0.
The normal direction is stiff (the |b - a|^{-1} projector term
dominates), so the two eigenvalues are well separated and the
eigenvector is stable even far from the solved curve.
"""

import dataclasses

import numpy as np

from . import metric

#: Below this eigenvalue gap of the 2x2 point block the normal direction is
#: not meaningfully defined.
NORMAL_GAP_CUTOFF = 1e-12
#: Largest max/min - 1 of the segment distances of a solved curve.
SPACING_TOL = 1e-8
#: Largest normal component of the length gradient of a solved curve.
GRAD_TOL = 1e-10


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


def _next(x):
    """x[m + 1 mod M] along the first axis."""
    return np.concatenate((x[1:], x[:1]))


def _prev(x):
    """x[m - 1 mod M] along the first axis."""
    return np.concatenate((x[-1:], x[:-1]))


def _quadratic_form(a, h, b):
    """a_m^T h_m b_m for (M, 2) columns a, b and (M, 2, 2) blocks h, summed
    in the order np.einsum("mi,mij,mj->m", a, h, b) sums."""
    a0, a1, b0, b1 = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    return ((a0 * h[:, 0, 0]) * b0 + (a0 * h[:, 0, 1]) * b1
            + (a1 * h[:, 1, 0]) * b0 + (a1 * h[:, 1, 1]) * b1)


def _point_blocks(points):
    """2x2 blocks H_m for all points; also returns the segment blocks."""
    blocks = metric.segment_blocks(points, _next(points))
    return blocks["h_aa"] + _prev(blocks["h_bb"]), blocks


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
    a_shift = a - lam_min
    c_shift = c - lam_min
    use1 = a_shift * a_shift + b * b >= b * b + c_shift * c_shift
    v0 = np.where(use1, a_shift, b)
    v1 = np.where(use1, b, c_shift)
    norm = np.sqrt(v0 * v0 + v1 * v1)
    vec = np.empty(points.shape)
    vec[:, 0] = v0 / norm
    vec[:, 1] = v1 / norm
    centroid = points.mean(axis=0)
    outward = (vec[:, 0] * (points[:, 0] - centroid[0])
               + vec[:, 1] * (points[:, 1] - centroid[1]))
    vec[outward < 0.0] *= -1.0
    return vec


class Evaluation:
    """The point blocks of `points`, shape (M, 2), evaluated once: the
    outward normals, grad_normal = n_m . grad_m, the unscaled bands diag
    and up of N^T H N (each segment's 2x2 endpoint blocks reduced through
    the normals; no 2M x 2M Hessian is built), residual = max |grad_normal|,
    spacing = max/min - 1 of the segment distances, and L0 = -L_0, the
    bands scaled by M / l; `solved` tests both tolerances."""

    def __init__(self, points):
        h_m, blocks = _point_blocks(points)
        self.points = points
        self.normals = n = _normals(h_m, points)
        n_next = _next(n)
        grad = blocks["grad_a"] + _prev(blocks["grad_b"])
        self.grad_normal = n[:, 0] * grad[:, 0] + n[:, 1] * grad[:, 1]
        self.diag = (_quadratic_form(n, blocks["h_aa"], n)
                     + _prev(_quadratic_form(n_next, blocks["h_bb"], n_next)))
        self.up = _quadratic_form(n, blocks["h_ab"], n_next)
        self.residual = float(np.max(np.abs(self.grad_normal)))
        dist = blocks["dist"]
        self.spacing = float(dist.max() / dist.min() - 1.0)
        scale = len(points) / dist.sum()
        self.L0 = StabilityMatrix(0, scale * self.diag, scale * self.up)

    @property
    def solved(self):
        return self.residual <= GRAD_TOL and self.spacing <= SPACING_TOL


def assemble_Lk(evaluation, k):
    """-L_k from the evaluation's -L_0 by the diagonal shift k^2 / r_m^2.

    k = 0 returns evaluation.L0; otherwise the result shares its `up` band.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError("mode number k must be a nonnegative integer")
    L0, r = evaluation.L0, evaluation.points[:, 0]
    if k == 0:
        return L0
    return StabilityMatrix(int(k), L0.diag + (k * k) / r ** 2, L0.up)
