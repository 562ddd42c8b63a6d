"""Discrete stability operators of a closed weighted geodesic.

The Hessian H of the discrete length couples each point to its two
neighbours through the 2x2 endpoint blocks of the segment-distance Hessian.
Restricting H to moves along a unit normal field n_m and weighting by
M / length gives the discrete stability operator of the surface of
revolution at rotational mode k = 0,

    -L_0 = (M / l) N^T H N,

a symmetric cyclic tridiagonal operator (N is the 2M x M block-diagonal
matrix of the normals).  Higher Fourier modes shift the diagonal:

    -L_k = -L_0 + k^2 diag(1 / r_m^2).

The normal at a point is read off the 2x2 point block

    H_m = h_bb(q_{m-1}, q_m) + h_aa(q_m, q_{m+1})

as the eigenvector of the larger eigenvalue, oriented outward.  Every
curve evaluated here is symmetric under z -> -z, as the solved torus is
(Angenent, "Shrinking doughnuts", 1992), and is evaluated on that
symmetry's half: one Evaluation reads, on rows 0..M // 2 padded across
the axis by reflection, the normals (oriented away from (mean r, 0), on
the axis) off the same blocks as the normal gradient and the bands of
N^T H N.  The solver evaluates each iterate so, and `spectral.Pipeline`
its solved curve, whose points and normals `Evaluation.unfold` builds
exactly mirrored; its `solved` test is the one definition of a solved
geodesic.  The normal direction is stiff (the |b - a|^{-1} projector term
dominates), so the two eigenvalues are well separated and the
eigenvector is stable even far from the solved curve.

On a curve symmetric under z -> -z, with mirrored normals, N^T H N and
every -L_k commute with the reflection m -> -m mod M, so rows 0..M // 2
hold the whole operator.  A StabilityMatrix, the -L_0 of
`Evaluation.unfold` or an -L_k that assemble_Lk shifts from it, holds
just those rows of its two bands: point j reads row fold_index(M)[j],
and `StabilityMatrix.bands` gathers the whole cyclic bands, which only
the spectra's extended-precision polish needs.  mirror_halves folds such
an operator, from its rows 0..M // 2, onto an even half
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
    """-L_k at mode k of an M-point mirror-symmetric curve, held as rows
    0 .. M // 2 of its bands: diag[m] = A[m, m], up[m] = A[m, m+1 mod M].

    The other rows are their mirror images; `bands` gathers the whole
    cyclic bands.
    """

    k: int
    M: int
    diag: np.ndarray
    up: np.ndarray

    def bands(self):
        """The whole cyclic bands (diag, up) on points 0 .. M - 1: point j
        reads row fold_index(M)[j] of diag, and the pair j, j + 1, the
        mirror image of the pair -j - 1, -j, row min(j, M - 1 - j) of up."""
        fold = fold_index(self.M)
        return (self.diag[fold],
                self.up[np.minimum(fold, self.M - 1 - np.arange(self.M))])


def fold_index(m):
    """The row of rows 0 .. m // 2 that holds each point j = 0 .. m - 1 of
    an m-point mirror-symmetric curve: j or its mirror image m - j."""
    j = np.arange(m)
    return np.minimum(j, m - j)


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


def _normals(h_m, points):
    """Unit eigenvector of the larger eigenvalue of each H_m, oriented away
    from the point (mean r, 0) of `points`."""
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
    outward = (vec[:, 0] * (points[:, 0] - points[:, 0].mean())
               + vec[:, 1] * points[:, 1])
    vec[outward < 0.0] *= -1.0
    return vec


class Evaluation:
    """The point blocks of rows 0 .. m // 2 of a mirror-symmetric m-point
    curve, evaluated once.

    `half` holds those rows (row -j mod m of the curve is (r_j, -z_j)), as
    the solver iterates and as `spectral.Pipeline` reads a solved curve.
    They are padded with their two neighbours across the axis, read as
    mirror images (`curve.mirror_pad`), and each segment's 2x2 endpoint
    blocks are reduced through the normals once; no 2M x 2M Hessian is
    built.  Per row of `half` it holds the normals, oriented away from
    (mean r, 0), on the axis; grad_normal = n_m . grad_m; and the unscaled
    bands diag and up of N^T H N, up[m] coupling rows m and m + 1, the
    last one to the padded neighbour.  residual = max |grad_normal| and
    spacing = max/min - 1 of the segment distances, which are those of
    the whole curve; `solved` tests both tolerances.  `unfold` gives the
    whole curve's points and normals, and -L_0 on these rows.
    """

    def __init__(self, half, m):
        h_m, blocks = _point_blocks(curve_mod.mirror_pad(half, m))
        h_aa, h_bb = blocks["h_aa"][1:], blocks["h_bb"][:-1]
        self.points, self.m = half, m
        self.normals = n = _normals(h_m, half)
        n_next = curve_mod.mirror_pad(n, m)[2:]
        grad = blocks["grad_a"][1:] + blocks["grad_b"][:-1]
        self.grad_normal = n[:, 0] * grad[:, 0] + n[:, 1] * grad[:, 1]
        self.diag = (_quadratic_form(n, h_aa, n)
                     + _quadratic_form(n, h_bb, n))
        self.up = _quadratic_form(n, blocks["h_ab"][1:], n_next)
        self.residual = float(np.max(np.abs(self.grad_normal)))
        self.dist = dist = blocks["dist"]
        self.spacing = float(dist.max() / dist.min() - 1.0)

    @property
    def solved(self):
        return self.residual <= GRAD_TOL and self.spacing <= SPACING_TOL

    def unfold(self):
        """The whole m-point curve's `Unfolded` state.

        Row m - j of the points and normals is (r, -z) and (n_r, -n_z) of
        row j.  -L_0 keeps the half's rows of the bands, scaled by m / l,
        the length l summed from the half's segment distances, twice each
        segment of rows 0 .. m // 2 and an odd m's crossing segment once.
        """
        m, h, dist = self.m, self.m // 2, self.dist
        scale = m / (2.0 * dist[1:h + 1].sum() + m % 2 * dist[-1])
        return Unfolded(curve_mod.unfold(self.points, m),
                        curve_mod.unfold(self.normals, m),
                        StabilityMatrix(0, m, scale * self.diag,
                                        scale * self.up))


@dataclasses.dataclass
class Unfolded:
    """A whole mirror-symmetric curve's points and normals, (M, 2) arrays,
    and L0 = -L_0 on rows 0 .. M // 2, from `Evaluation.unfold`: what
    `assemble_Lk`, the spectra, the potentials and the renders read."""

    points: np.ndarray
    normals: np.ndarray
    L0: StabilityMatrix


def mirror_halves(diag, up, m):
    """The even and odd mirror halves, each (d, e), of the m-point cyclic
    tridiagonal with bands diag and up that commutes with j -> -j mod m.

    Only rows 0 .. m // 2 of the bands are read, as `Evaluation` and
    StabilityMatrix hold them.  Each half is a symmetric tridiagonal
    matrix, its diagonal d and off-diagonal e; the module docstring states
    the fold.  `even_half` gives the even half alone.
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


def assemble_Lk(unfolded, k):
    """-L_k from the `Unfolded` state's -L_0 by the diagonal shift
    k^2 / r_m^2 on its rows 0 .. M // 2.

    k = 0 returns unfolded.L0; otherwise the result shares its `up` band.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError("mode number k must be a nonnegative integer")
    L0 = unfolded.L0
    if k == 0:
        return L0
    r = unfolded.points[:len(L0.diag), 0]
    return StabilityMatrix(int(k), L0.M, L0.diag + (k * k) / r ** 2, L0.up)
