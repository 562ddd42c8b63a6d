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
the spectra and the renders, and for the solver on the mirror half of
its iterate; its `solved` test is the one definition of a solved
geodesic, and assemble_Lk shifts its -L_0.
The normal direction is stiff (the |b - a|^{-1} projector term
dominates), so the two eigenvalues are well separated and the
eigenvector is stable even far from the solved curve.

On a curve symmetric under z -> -z, with mirrored normals, N^T H N and
every -L_k commute with the reflection m -> -m mod M.  mirror_halves
folds such an operator, from its rows 0..M // 2 alone, onto an even half
(points 0..M // 2) and an odd half (points 1..(M - 1) // 2): the
operator in orthonormal bases of the even and the odd vectors, symmetric
tridiagonal matrices with no cyclic corner.  An even vector x is
x_m = w_m y_m on rows 0..M // 2 for a vector y of the even half, with
the weight w = 1 on the fixed points 0 and (even M) M/2 and sqrt(1/2)
elsewhere (unfold_weight).  So the couplings to the fixed points carry
a factor sqrt(2), and at odd M the pair M // 2, M // 2 + 1 adds +-up[M // 2] to
the halves' last diagonal entries.  The spectra take both halves
(`spectral`), and the solver's Newton step, whose right-hand side g is
even, the even half S alone (even_half): S y = -g / w, step w y.
"""

import dataclasses

import numpy as np

from . import curve as curve_mod
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


def _quadratic_form(a, h, b):
    """a_m^T h_m b_m for (M, 2) columns a, b and (M, 2, 2) blocks h, summed
    in the order np.einsum("mi,mij,mj->m", a, h, b) sums."""
    a0, a1, b0, b1 = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    return ((a0 * h[:, 0, 0]) * b0 + (a0 * h[:, 0, 1]) * b1
            + (a1 * h[:, 1, 0]) * b0 + (a1 * h[:, 1, 1]) * b1)


def _point_blocks(padded):
    """2x2 blocks H_m of the points padded[1:-1], whose neighbours are the
    rows around them; also returns the blocks of the segments, segment j
    running from padded[j] to padded[j + 1]."""
    blocks = metric.segment_blocks(padded[:-1], padded[1:])
    return blocks["h_aa"][1:] + blocks["h_bb"][:-1], blocks


def _normals(h_m, points, centre):
    """Unit eigenvector of the larger eigenvalue of each H_m, oriented away
    from the point `centre`."""
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
    outward = (vec[:, 0] * (points[:, 0] - centre[0])
               + vec[:, 1] * (points[:, 1] - centre[1]))
    vec[outward < 0.0] *= -1.0
    return vec


class Evaluation:
    """The point blocks of `points` evaluated once.

    `points` is a closed curve, shape (M, 2); or, with m given, rows
    0 .. m // 2 of a mirror-symmetric m-point curve (row -j mod m is
    (r_j, -z_j)), as the solver iterates.  Either way the points are
    padded with their two neighbours, cyclically or by reflection
    (`curve.mirror_pad`), and each segment's 2x2 endpoint blocks are
    reduced through the normals once; no 2M x 2M Hessian is built.  Per
    row of `points` it holds the outward normals (away from the centroid,
    or on a half from (mean r, 0), on the axis), grad_normal = n_m .
    grad_m, and the unscaled bands diag and up of N^T H N (up[m] couples
    rows m and m + 1, the last one to the padded neighbour); residual =
    max |grad_normal| and spacing = max/min - 1 of the segment distances,
    which on a half are those of the whole curve; and, for a closed curve
    only, L0 = -L_0, the bands scaled by M / l.  `solved` tests both
    tolerances.
    """

    def __init__(self, points, m=None):
        if m is None:
            def pad(x):
                return np.concatenate((x[-1:], x, x[:1]))
            centre = points.mean(axis=0)
        else:
            def pad(x):
                return curve_mod.mirror_pad(x, m)
            centre = (points[:, 0].mean(), 0.0)
        h_m, blocks = _point_blocks(pad(points))
        h_aa, h_bb = blocks["h_aa"][1:], blocks["h_bb"][:-1]
        self.points = points
        self.normals = n = _normals(h_m, points, centre)
        n_next = pad(n)[2:]
        grad = blocks["grad_a"][1:] + blocks["grad_b"][:-1]
        self.grad_normal = n[:, 0] * grad[:, 0] + n[:, 1] * grad[:, 1]
        self.diag = (_quadratic_form(n, h_aa, n)
                     + _quadratic_form(n, h_bb, n))
        self.up = _quadratic_form(n, blocks["h_ab"][1:], n_next)
        self.residual = float(np.max(np.abs(self.grad_normal)))
        dist = blocks["dist"]
        self.spacing = float(dist.max() / dist.min() - 1.0)
        if m is None:
            scale = len(points) / dist[1:].sum()
            self.L0 = StabilityMatrix(0, scale * self.diag, scale * self.up)

    @property
    def solved(self):
        return self.residual <= GRAD_TOL and self.spacing <= SPACING_TOL


def mirror_halves(diag, up, m):
    """The even and odd mirror halves, each (d, e), of the m-point cyclic
    tridiagonal with bands diag and up that commutes with j -> -j mod m.

    Only rows 0 .. m // 2 of the bands are read, so they may be a whole
    operator's or those of a mirror half, as `Evaluation` with m gives
    them.  Each half is a symmetric tridiagonal matrix, its diagonal d and
    off-diagonal e; the module docstring states the fold.  `even_half`
    gives the even half alone.
    """
    d_odd = diag[1:(m + 1) // 2].copy()
    e_odd = up[1:(m - 1) // 2]
    if m % 2:
        d_odd[-1] -= up[m // 2]
    return even_half(diag, up, m), (d_odd, e_odd)


def even_half(diag, up, m):
    """The even mirror half (d, e) alone, as `mirror_halves` gives it: the
    solver's Newton step needs no odd half."""
    h = m // 2
    d = diag[:h + 1].copy()
    e = up[:h].copy()
    e[0] *= np.sqrt(2.0)
    if m % 2:
        d[h] += up[h]
    else:
        e[h - 1] *= np.sqrt(2.0)
    return d, e


def unfold_weight(m):
    """The unfold weight w on rows 0 .. m // 2 of an m-point curve: 1 on
    the fixed points of j -> -j mod m, and sqrt(1/2) elsewhere."""
    rows = np.arange(m // 2 + 1)
    return np.where((rows == 0) | (2 * rows == m), 1.0, np.sqrt(0.5))


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
