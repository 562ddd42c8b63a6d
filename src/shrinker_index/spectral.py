"""Spectra of the discrete stability operators and the Morse index.

Eigenvalues follow the geometer's sign convention -L u = lambda u, so
instabilities are negative.  Low-lying modes of the solved curve recover
the geometric variations exactly known for self-shrinkers:

    k = 0   dilation              <q_m, n_m> / 2      lambda = -1
    k = 0   vertical translation  n_{m,z}             lambda = -1/2
    k = 1   horizontal translation n_{m,r}            lambda = -1/2
    k = 1   rotation               z_m n_{m,r} - r_m n_{m,z}   lambda = 0
    k = 1   1/sigma                sigma(q_m)^{-1}     lambda = -1

The Morse index counts negative eigenvalues over all Fourier modes (modes
with k >= 1 count twice, for the cos and sin branches) and then excludes
the one dilation and the three translations, which are negative directions
of every self-shrinker and carry no geometric information.

The solved curve is symmetric under z -> -z, which maps point m to point
-m mod M, so each -L_k splits into an even and an odd symmetric
tridiagonal matrix with no cyclic corner.  LAPACK finds the low pairs of
each half; an extended-precision polish on the full cyclic bands then
brings every pair to the residual a float64 vector can carry.  Each mode
is even or odd: dilation, horizontal translation and 1/sigma are even,
vertical translation and rotation odd.
"""

import dataclasses

import numpy as np
import scipy.linalg

from . import curve as curve_mod
from . import metric
from . import stability

#: |cosine| threshold for matching an eigenfunction to a known template.
CLASSIFY_COSINE = 0.999

#: The index computation polishes, at each k, the modes below this margin
#: and stops at the first k that has none; eigenvalues grow with k.
INDEX_STOP_MARGIN = 1e-3

#: Largest k the index computation walks before giving up.
INDEX_K_CAP = 64


class ExclusionMismatch(RuntimeError):
    """Raised when a curve is not mirror-symmetric or lacks the expected
    dilation/translation modes."""


@dataclasses.dataclass
class EigenMode:
    """One eigenpair of -L_k: unit eigenvector, canonical sign."""

    k: int
    j: int
    eigenvalue: float
    vector: np.ndarray
    residual: float
    label: str = "generic"


def _band_matvec(diag, up, vecs):
    """A @ v for each row v of vecs, on the cyclic tridiagonal bands.

    Sums diag v + up v_{+1} + up_{-1} v_{-1} in that order, in one output
    buffer plus one buffer for the shifted copies of vecs.
    """
    out = diag * vecs
    shifted = np.empty_like(out)
    shifted[..., :-1] = vecs[..., 1:]
    shifted[..., -1] = vecs[..., 0]
    shifted *= up
    out += shifted
    shifted[..., 1:] = vecs[..., :-1]
    shifted[..., 0] = vecs[..., -1]
    shifted *= np.roll(up, 1)
    out += shifted
    return out


def _cyclic_solve(diag, up, shifts, rhs):
    """Solve (A - shift I) x = rhs for each row of rhs, extended precision.

    Thomas elimination plus a Sherman-Morrison correction for the cyclic
    corner; near-zero pivots are bumped (the shifts sit on eigenvalues, so
    the systems are deliberately near singular and the solutions are only
    used as inverse-iteration directions).  rhs is (..., M) with one shift
    per row, and diag has one axis per axis of rhs.  The sweep runs with
    the M axis leading, so each of its Python steps touches one contiguous
    row of every pair; the result comes back C-contiguous and pair-leading,
    which the callers' reductions sum over in a fixed order.
    """
    ld = np.longdouble
    m = rhs.shape[-1]
    piv = np.moveaxis(diag, -1, 0) - shifts
    upl = list(up)
    corner = upl[-1]
    gamma = np.where(np.abs(piv[0]) > 1e-300, -piv[0], ld(-1.0))
    piv[0] -= gamma
    piv[-1] -= (corner * corner) / gamma

    work = np.empty(piv.shape + (2,), dtype=ld)
    work[..., 0] = np.moveaxis(rhs, -1, 0)
    work[..., 1] = 0.0
    work[0, ..., 1] = gamma
    work[-1, ..., 1] = corner

    for row in range(1, m):
        factor = upl[row - 1] / piv[row - 1]
        piv[row] -= factor * upl[row - 1]
        work[row] -= factor[..., None] * work[row - 1]
    # |piv| < 1e-300 without an extended-precision copy of piv
    piv[(piv < 1e-300) & (piv > -1e-300)] = 1e-300

    work[-1] /= piv[-1][..., None]
    for row in range(m - 2, -1, -1):
        work[row] -= upl[row] * work[row + 1]
        work[row] /= piv[row][..., None]

    y = work[..., 0]
    q = work[..., 1]
    v_y = y[0] + (corner / gamma) * y[-1]
    v_q = q[0] + (corner / gamma) * q[-1]
    q *= v_y / (1.0 + v_q)
    del piv  # one batch-sized buffer fewer while the result is allocated
    return np.subtract(np.moveaxis(y, 0, -1), np.moveaxis(q, 0, -1),
                       out=np.empty(rhs.shape, dtype=ld))


def _refine_pairs(diag, up, vals, vecs):
    """Polish eigenpairs by inverse iteration in extended precision.

    The LAPACK pairs of the folded halves carry residual ~ eps ||A||, which
    at M = 2048 exceeds the 1e-10 contract (||A|| ~ 1e6 there).  Two
    inverse-iteration steps on the full cyclic tridiagonal bands in 80-bit
    arithmetic, the first shifted just above the LAPACK value and the
    second at the Rayleigh quotient of the first step's iterate, push the
    pair to the limit a float64 vector can represent.  The reported
    eigenvalue is the Rayleigh quotient of the returned float64 vector and
    the residual its true residual, both evaluated in extended precision.
    The pairs are the rows of vecs (..., M); diag broadcasts against them
    and `up` is shared.  Each pair sums along its own row, so no batch
    changes it.  Each step normalizes its solve in place, so the peak is
    about four extended-precision copies of the batch: the iterate and the
    three buffers of `_cyclic_solve`.
    """
    ld = np.longdouble
    diag_ld = diag.astype(ld)
    up_ld = up.astype(ld)
    work = np.ascontiguousarray(vecs, dtype=ld)
    shifts = vals.astype(ld) + ld(1e-13)
    for step in range(2):
        if step:
            shifts = np.einsum("...m,...m->...", work,
                               _band_matvec(diag_ld, up_ld, work))
        # the solves are deliberately near singular; a row that blows up
        # keeps its previous iterate
        with np.errstate(all="ignore"):
            trial = _cyclic_solve(diag_ld, up_ld, shifts, work)
            norms = np.sqrt(np.einsum("...m,...m->...", trial, trial))
            good = np.isfinite(norms) & (norms > 0.0)
            good &= np.all(np.isfinite(trial), axis=-1)
            trial /= norms[..., None]
            trial[~good] = work[~good]
            work = trial
    out = work.astype(float)
    out = out / np.linalg.norm(out, axis=-1)[..., None]
    out_ld = out.astype(ld)
    av = _band_matvec(diag_ld, up_ld, out_ld)
    lam = np.einsum("...m,...m->...", out_ld, av)
    av -= lam[..., None] * out_ld
    res = av.astype(float)
    return lam.astype(float), out, np.linalg.norm(res, axis=-1)


def _halves(a):
    """The even and odd mirror halves of one StabilityMatrix, as (d, e).

    -L_k of a mirror-symmetric curve commutes with the reflection
    m -> -m mod M.  On its mirror-averaged bands it splits into an even
    half (points 0..M//2) and an odd half (points 1..(M-1)//2), symmetric
    tridiagonal matrices with no cyclic corner; the couplings to the fixed
    points 0 and M/2 carry a factor sqrt(2), and for odd M the pair
    M//2, M//2 + 1 adds +-up[M//2] to the last diagonal entry.  Each half
    is its diagonal d and off-diagonal e.
    """
    m = a.M
    h = m // 2
    diag = 0.5 * (a.diag + np.roll(a.diag[::-1], 1))
    up = 0.5 * (a.up + a.up[::-1])
    d_even = diag[:h + 1].copy()
    e_even = up[:h].copy()
    d_odd = diag[1:(m + 1) // 2].copy()
    e_odd = up[1:(m - 1) // 2]
    e_even[0] *= np.sqrt(2.0)
    if m % 2:
        d_even[h] += up[h]
        d_odd[-1] -= up[h]
    else:
        e_even[h - 1] *= np.sqrt(2.0)
    return (d_even, e_even), (d_odd, e_odd)


def _folded_pairs(a, count):
    """Lowest `count` eigenpairs of one StabilityMatrix, unpolished.

    LAPACK's bisection and inverse iteration (stebz/stein) give the lowest
    pairs of each of the mirror `_halves`, which are unfolded to length M
    and merged.  Returns (eigenvalues ascending, eigenvectors as columns),
    with residuals ~ eps ||A||.
    """
    m = a.M
    h = m // 2
    (lam_even, x), (lam_odd, y) = [
        scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(0, min(count, len(d)) - 1))
        for d, e in _halves(a)]
    # point m unfolds from row fold[m] of a half; the odd rows, padded with
    # zeros on the fixed points, change sign past M/2
    idx = np.arange(m)
    fold = np.minimum(idx, m - idx)
    weight = np.where((fold == 0) | (2 * fold == m), 1.0, np.sqrt(0.5))
    y = np.pad(y, ((1, h - len(y)), (0, 0)))
    vals = np.concatenate([lam_even, lam_odd])
    vecs = np.concatenate(
        [x[fold] * weight[:, None],
         y[fold] * np.where(idx > h, -weight, weight)[:, None]], axis=1)
    order = np.argsort(vals, kind="stable")[:count]
    return vals[order], vecs[:, order]


def spectrum(matrices, count):
    """Lowest `count` (1..M-1) eigenpairs of each StabilityMatrix, in one list.

    The list is grouped by matrix in input order, ascending within each.
    The matrices must share M and the `up` band, as the -L_k of one curve
    do, and commute with the reflection m -> -m mod M, as those of a
    mirror-symmetric curve do (`Pipeline` checks the curve).
    `_folded_pairs` on each matrix, then one extended-precision polish of
    all pairs on the full cyclic bands, O(M) per mode.  Calls are bitwise
    repeatable on any BLAS thread count, and a pair's result does not
    depend on the batch.  Eigenvectors are unit norm with the
    largest-magnitude entry positive; residual is the true
    ||A u - lambda u||_2 of the returned pair.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("spectrum needs at least one matrix")
    m, up = matrices[0].M, matrices[0].up
    if any(a.M != m or not np.array_equal(a.up, up) for a in matrices):
        raise ValueError("matrices must share M and the up band")
    if count < 1 or count >= m:
        raise ValueError("count must be in 1..M-1")
    pairs = [_folded_pairs(a, count) for a in matrices]
    vals, vecs, resids = _refine_pairs(
        np.array([a.diag for a in matrices])[:, None, :], up,
        np.array([p[0] for p in pairs]), np.array([p[1].T for p in pairs]))
    modes = []
    for a, lam, vec, res in zip(matrices, vals, vecs, resids):
        for j, row in enumerate(np.argsort(lam, kind="stable")):
            u = vec[row]
            if u[np.argmax(np.abs(u))] < 0.0:
                u = -u
            modes.append(EigenMode(k=a.k, j=j, eigenvalue=float(lam[row]),
                                   vector=u, residual=float(res[row])))
    return modes


def _templates(k, curve, n):
    """Known eigenfunction shapes at Fourier mode k, from the normals n."""
    pts = curve.points
    if k == 0:
        return {
            "dilation": 0.5 * np.einsum("mi,mi->m", pts, n),
            "vertical_translation": n[:, 1],
        }
    if k == 1:
        return {
            "horizontal_translation": n[:, 0],
            "rotation": pts[:, 1] * n[:, 0] - pts[:, 0] * n[:, 1],
            "sigma_inverse": 1.0 / metric.sigma(pts),
        }
    return {}


def classify_modes(modes, curve, normals):
    """Label modes in place by cosine against the known geometric variations.

    Labels are dilation, vertical_translation, horizontal_translation,
    rotation, sigma_inverse and generic.  Templates are matched only within
    each mode's own k and are built once per k.  Returns the list.
    """
    per_k = {}
    for mode in modes:
        if mode.k not in per_k:
            per_k[mode.k] = [
                (label, shape, np.linalg.norm(shape))
                for label, shape in _templates(mode.k, curve, normals).items()]
        mode.label = "generic"
        best_cos = CLASSIFY_COSINE
        for label, shape, norm in per_k[mode.k]:
            cos = abs(float(np.dot(mode.vector, shape))) / norm
            if cos >= best_cos:
                best_cos = cos
                mode.label = label
    return modes


class Pipeline:
    """One solved curve's chain: normals and -L_0, then `scan` for modes.

    The curve must be its own mirror image bit for bit (point -m mod M is
    (r_m, -z_m), as `solve_geodesic` returns it), and so must the sides
    its normals point to, because the spectra are taken on the mirror
    halves of -L_k; any other curve raises ExclusionMismatch naming the
    largest mismatch.  The normals fail this on a curve of fewer than 18
    points, such as one read from a file, where the larger eigenvector of
    the point block at the axis points is the tangent; `solve_geodesic`
    refuses such M.
    """

    def __init__(self, curve):
        gap = np.abs(curve.points - curve_mod.mirror_points(curve.points))
        if gap.max() > 0.0:
            m = int(np.argmax(gap.max(axis=1)))
            raise ExclusionMismatch(
                "curve is not mirror-symmetric: point %d is off the mirror "
                "image of point %d by %.3e" % (m, -m % curve.M, gap[m].max()))
        self.curve = curve
        self.normals = stability.normal_field(curve)
        facing = np.einsum("mi,mi->m", self.normals,
                           curve_mod.mirror_points(self.normals))
        if facing.min() <= 0.0:
            m = int(np.argmin(facing))
            raise ExclusionMismatch(
                "the normal at point %d is not the mirror image of the "
                "normal at point %d" % (m, -m % curve.M))
        self.L0 = stability.assemble_L0(curve)

    def scan(self, ks, count):
        """Lowest `count` eigenpairs of -L_k for each k in ks, labelled.

        One `spectrum` call; the list is grouped by k in the order of ks,
        ascending within each k.
        """
        mats = [stability.assemble_Lk(self.L0, self.curve, k) for k in ks]
        return classify_modes(spectrum(mats, count), self.curve, self.normals)


@dataclasses.dataclass
class IndexReport:
    """Morse index bookkeeping across Fourier modes.

    per_k: list of (k, negative eigenvalues at that k).
    excluded: dilation/translation modes removed from the count, with the
    multiplicity they carry (2 for k >= 1).
    total_negative: negatives counted with multiplicity.
    index: total_negative minus the excluded multiplicities.
    """

    per_k: list
    excluded: list
    total_negative: int
    index: int


def compute_index(curve):
    """Morse index of the solved curve, excluding dilation and translations.

    Walks k = 0, 1, 2, ..., counting the eigenvalues of -L_k below
    INDEX_STOP_MARGIN by bisection on its mirror `_halves`, and stops at
    the first k with none (the values are monotone in k); a k whose M
    modes all lie below the margin raises ExclusionMismatch.  The counts
    are exact to ~eps ||A||, far inside the margin, so one `Pipeline.scan`
    of the largest count at every k before the stop polishes and labels
    every mode that can be negative.  Negative polished eigenvalues are
    counted with multiplicity.  The rotation mode (k = 1) is exactly 0 in
    the continuum, so it is never counted, whatever the sign of its
    discrete value.  Raises ExclusionMismatch for a curve that is not
    exactly mirror-symmetric (see Pipeline), and unless exactly one
    negative dilation mode (k = 0), one negative vertical translation
    (k = 0) and one negative horizontal translation (k = 1, multiplicity
    2) are found.
    """
    pipe = Pipeline(curve)
    counts = []
    for k in range(INDEX_K_CAP + 1):
        a = stability.assemble_Lk(pipe.L0, curve, k)
        n = sum(len(scipy.linalg.eigvalsh_tridiagonal(
            d, e, select="v", select_range=(-np.inf, INDEX_STOP_MARGIN)))
            for d, e in _halves(a))
        if n == 0:
            break
        if n == curve.M:
            raise ExclusionMismatch("all %d modes at k = %d are below %g"
                                    % (n, k, INDEX_STOP_MARGIN))
        counts.append(n)
    else:
        raise ExclusionMismatch("negative modes persist beyond k = %d" % k)
    modes = pipe.scan(range(k), max(counts)) if counts else []

    per_k = [(i, []) for i in range(k + 1)]
    excluded = []
    found = {"dilation": 0, "vertical_translation": 0,
             "horizontal_translation": 0}
    total = 0
    for m in modes:
        if m.eigenvalue < 0.0 and m.label != "rotation":
            mult = 1 if m.k == 0 else 2
            per_k[m.k][1].append(m.eigenvalue)
            total += mult
            if m.label in found:
                found[m.label] += 1
                excluded.append({"k": m.k, "j": m.j,
                                 "eigenvalue": m.eigenvalue,
                                 "label": m.label, "multiplicity": mult})

    if (found["dilation"] != 1 or found["vertical_translation"] != 1
            or found["horizontal_translation"] != 1):
        raise ExclusionMismatch(
            "expected one dilation and three translation modes, found %r "
            "at M = %d" % (found, curve.M))
    excluded_mult = sum(e["multiplicity"] for e in excluded)
    return IndexReport(per_k=per_k, excluded=excluded,
                       total_negative=total, index=total - excluded_mult)
