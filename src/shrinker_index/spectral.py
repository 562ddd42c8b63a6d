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
each half, about half the wanted count from each, which Cauchy
interlacing of the nested halves makes enough, at shifts bisected only to
BISECT_TOL of the norm unless values crowd; one extended-precision
inverse-iteration step on the whole cyclic bands, gathered from the
operator's rows 0..M // 2, shifted at the Rayleigh quotient of each
LAPACK vector, then brings every pair to the residual a float64 vector
can carry (this needs a long double of 63 mantissa bits, as x86's 80-bit
one has).  The step runs over batches of at most POLISH_PAIRS pairs, so
its long-double buffers are O(M) whatever the count.  Each mode is even
or odd: dilation, horizontal translation and 1/sigma are even, vertical
translation and rotation odd.
"""

import dataclasses
import itertools
import os

import numpy as np
import scipy.linalg

from . import curve as curve_mod
from . import metric
from . import stability

#: |cosine| a mode must exceed to take a template's label: 1/sqrt(2).
CLASSIFY_COSINE = np.sqrt(0.5)

#: Most pairs that `spectrum` polishes in one batch.  The sweep's Python
#: overhead per step and its work per pair both grow with M, so the share
#: of the overhead depends on pairs per batch alone: from about 100 pairs
#: on, a batch costs no more per pair than one batch of all.
POLISH_PAIRS = 128

#: Peak bytes per pair and point of a `Pipeline.scan`: the float64 vectors
#: of the call and the three long-double buffers of one batch of the
#: polish's solve (tracemalloc at M = 2048, k = 0: 34.1 with 201 modes,
#: 22.1 with 1023, 22.0 with 2047).
SCAN_BYTES = 35

#: Bytes of physical memory; a `Pipeline.scan` that needs more is refused.
PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

#: The index computation polishes, at each k, the modes below this margin
#: and stops at the first k that has none; eigenvalues grow with k.
INDEX_STOP_MARGIN = 1e-3

#: Largest growth of a row's sweep in the polish's cyclic solve (see
#: `_cyclic_solve`) that keeps its step: 2^11, the bits a long double
#: carries beyond float64.  A row past it is solved again with its shift
#: 1e-13 higher.
SWEEP_GROWTH_MAX = 2.0 ** 11

#: Mantissa bits of numpy's long double on this platform.  The polish needs
#: the 63 of x87 extended precision; on platforms where long double is
#: float64 it would miss the 1e-10 residual contract at M = 2048.
LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant

#: Tolerance to which `_folded_pairs` bisects stein's shifts, relative to
#: max |diag| + 2 max |up| of the operator, a bound on the infinity norm of
#: either mirror half: 6.4e-4 at M = 2048, where LAPACK's default eps ||T||
#: is 1.4e-10 and its bisection takes 2.2 times as long.  Values closer than
#: 100 times it are bisected to eps ||T||.
BISECT_TOL = 1e-9


class ExclusionMismatch(RuntimeError):
    """Raised when a curve is not mirror-symmetric, is not a solved geodesic
    or lacks the expected dilation/translation modes."""


class NarrowLongDouble(RuntimeError):
    """Raised by `spectrum` where numpy's long double has fewer than 63
    mantissa bits."""


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
    buffer plus one buffer that each shifted product is written into.
    """
    out = diag * vecs
    shifted = np.empty_like(out)
    np.multiply(vecs[..., 1:], up[:-1], out=shifted[..., :-1])
    np.multiply(vecs[..., :1], up[-1:], out=shifted[..., -1:])
    out += shifted
    np.multiply(vecs[..., :-1], up[:-1], out=shifted[..., 1:])
    np.multiply(vecs[..., -1:], up[-1:], out=shifted[..., :1])
    out += shifted
    return out


def _cyclic_solve(diag, up, shifts, rhs):
    """Solve (A - shift I) x = rhs for each row of rhs, extended precision.

    Thomas elimination plus a Sherman-Morrison correction for the cyclic
    corner.  The shifts sit on eigenvalues, so the systems are deliberately
    near singular and only give inverse-iteration directions.  Pivots are
    bumped off zero after the forward sweep, which guards only the back
    substitution: an exact zero pivot inside the sweep makes the row all NaN.
    rhs is a C-contiguous long-double (..., M) with one shift per row, and
    diag has one axis per axis of rhs.  The call consumes rhs: it is copied
    into the sweep's (M, ..., 2) buffer of y and the Sherman-Morrison
    column, its memory then holds the pivots, viewed with the M axis
    leading, and last the result, so the solve holds three long-double
    copies of the batch.  The sweep (`_sweep`) takes its buffers
    C-contiguous with the M axis leading and the pair axes flattened, so
    each Python step touches one contiguous row of every pair, walked by
    zip with no per-row indexing.  The result is rhs itself, pair-leading,
    which the callers' reductions sum over in a fixed order.  With it
    comes, per row, the growth max |y| / max |x| of the sweep's solution y
    over the corrected one x: the correction cancels that factor, and the
    digits with it, when the non-cyclic system it splits off is near
    singular too.
    """
    ld = np.longdouble
    m = rhs.shape[-1]
    work = np.empty((m,) + rhs.shape[:-1] + (2,), dtype=ld)
    work[..., 0] = np.moveaxis(rhs, -1, 0)
    work[..., 1] = 0.0
    piv = np.subtract(np.moveaxis(diag, -1, 0), shifts,
                      out=rhs.reshape(work.shape[:-1]))
    upl = list(up)
    corner = upl[-1]
    gamma = np.where(np.abs(piv[0]) > 1e-300, -piv[0], ld(-1.0))
    piv[0] -= gamma
    piv[-1] -= (corner * corner) / gamma
    work[0, ..., 1] = gamma
    work[-1, ..., 1] = corner

    _sweep(piv.reshape(m, -1), work.reshape(m, -1, 2), upl)
    y = work[..., 0]
    q = work[..., 1]
    v_y = y[0] + (corner / gamma) * y[-1]
    v_q = q[0] + (corner / gamma) * q[-1]
    q *= v_y / (1.0 + v_q)
    # max |.| by reductions alone, with no batch-sized temporary
    growth = np.maximum(y.max(axis=0), -y.min(axis=0))
    out = np.subtract(np.moveaxis(y, 0, -1), np.moveaxis(q, 0, -1), out=rhs)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero row
        growth /= np.maximum(out.max(axis=-1), -out.min(axis=-1))
    return out, growth


def _sweep(piv, work, upl):
    """Thomas elimination of work (M, P, 2) in place, pivots piv (M, P).

    zip walks the rows of piv and work as views, and each row is carried
    into the next step, so no step indexes a row; each product goes into a
    preallocated row and is subtracted in place.  The views hold piv, so
    they live only in this call.
    """
    cols = piv[..., None]
    factor = np.empty(cols.shape[1:], dtype=piv.dtype)
    piv_prod = np.empty_like(factor)
    work_prod = np.empty(work.shape[1:], dtype=work.dtype)
    p_prev, w_prev = cols[0], work[0]
    for u, p, w in zip(upl, cols[1:], work[1:]):
        np.divide(u, p_prev, out=factor)
        p -= np.multiply(factor, u, out=piv_prod)
        w -= np.multiply(factor, w_prev, out=work_prod)
        p_prev, w_prev = p, w
    # |piv| < 1e-300 without an extended-precision copy of piv
    piv[(piv < 1e-300) & (piv > -1e-300)] = 1e-300

    w_next = work[-1]
    w_next /= cols[-1]
    for u, p, w in zip(upl[-2::-1], cols[-2::-1], work[-2::-1]):
        w -= np.multiply(u, w_next, out=work_prod)
        w /= p
        w_next = w


def _quotients(diag, up, rows, residuals=False):
    """Rayleigh quotients u . A u of the rows u of rows (..., M), at least
    2-D, in long double, and with residuals=True the float64 norms of
    A u - (u . A u) u as well (else None).

    Taken over blocks of about 2^16 points, a block being some rows of one
    index of rows' leading axes, so `_band_matvec`'s two buffers and a
    float64 rows' long-double copy are one block's; diag broadcasts
    against rows as a view.  np.vecdot sums each row alone, so a row takes
    the same bits in any block and any batch, at every M.
    """
    ld = np.longdouble
    size = max(1, 2 ** 16 // rows.shape[-1])
    diag = np.broadcast_to(diag, rows.shape)
    lam = np.empty(rows.shape[:-1], dtype=ld)
    res = np.empty(rows.shape[:-1]) if residuals else None
    for lead in np.ndindex(rows.shape[:-2]):
        for start in range(0, rows.shape[-2], size):
            block = lead + (slice(start, start + size),)
            u = rows[block].astype(ld, copy=False)
            au = _band_matvec(diag[block], up, u)
            lam[block] = np.vecdot(u, au)
            if residuals:
                au -= lam[block][..., None] * u
                res[block] = np.linalg.norm(au.astype(float), axis=-1)
    return lam, res


def _refine_pairs(diag, up, vecs):
    """Polish eigenpairs by one inverse-iteration step in extended precision.

    The LAPACK pairs of the folded halves carry residual ~ eps ||A||, which
    at M = 2048 exceeds the 1e-10 contract (||A|| ~ 1e6 there).  The
    LAPACK vectors, normalized in 80-bit arithmetic, have a Rayleigh
    quotient on the full cyclic tridiagonal bands that is already accurate
    to long-double rounding, so one inverse-iteration step shifted there
    pushes the pair to the limit a float64 vector can represent.  The
    shift sits 1e-13 above the quotient: at the bare quotient a pair can
    meet an exact zero pivot (k = 1, j = 11 of the 201-mode scan at
    M = 2048 does), its solve is not finite, and a row whose solve is not
    finite keeps its unpolished LAPACK vector (residual 7.9e-11 there,
    against 1.2e-11 polished).  A row whose sweep grew past
    SWEEP_GROWTH_MAX is solved once more with its shift 1e-13 higher: in a
    near-degenerate pair the non-cyclic system split off by the
    Sherman-Morrison correction can be near singular at the shift too
    (k = 1, j = 124 of the 201-mode scan at M = 2048, growth 3.9e3,
    residual 3.9e-11 against 1.2e-11 at the higher shift).  The reported
    eigenvalue is the Rayleigh quotient of the returned float64 vector and
    the residual its true residual, both evaluated in extended precision.
    The pairs are the rows of vecs (..., M), at least 2-D; diag broadcasts
    against them and `up` is shared.  Each pair sums along its own row
    alone (np.vecdot), so at every M the other rows of the batch do not
    change it.  The solve consumes the long-double vectors, and the rows
    that the retry or the fallback need are normalized again from vecs by
    their norms, to the same bits; the quotients are taken block by block
    (`_quotients`) and the step normalizes its solve in place, so the
    peak is the three long-double buffers of `_cyclic_solve`, all of the
    batch's size.  `spectrum` hands it batches of at most POLISH_PAIRS
    pairs and writes the float64 vectors it returns back over vecs.
    """
    ld = np.longdouble
    diag_ld = diag.astype(ld)
    up_ld = up.astype(ld)
    work = np.ascontiguousarray(vecs, dtype=ld)
    scale = np.sqrt(np.vecdot(work, work))[..., None]
    work /= scale
    shifts = _quotients(diag_ld, up_ld, work)[0] + ld(1e-13)
    # the solve is deliberately near singular; a row that blows up keeps
    # the LAPACK vector
    with np.errstate(all="ignore"):
        # consumes work: trial is its buffer
        trial, growth = _cyclic_solve(diag_ld, up_ld, shifts, work)
        again = growth > SWEEP_GROWTH_MAX
        if again.any():
            trial[again] = _cyclic_solve(
                np.broadcast_to(diag_ld, trial.shape)[again], up_ld,
                shifts[again] + ld(1e-13), vecs[again] / scale[again])[0]
        norms = np.sqrt(np.vecdot(trial, trial))
        good = np.isfinite(norms) & (norms > 0.0)
        trial /= norms[..., None]
        trial[~good] = vecs[~good] / scale[~good]
    out = trial.astype(float)
    del trial
    out /= np.linalg.norm(out, axis=-1)[..., None]
    lam, res = _quotients(diag_ld, up_ld, out, residuals=True)
    return lam.astype(float), out, res


def _folded_pairs(a, count):
    """Lowest `count` eigenpairs of one StabilityMatrix, unpolished.

    LAPACK's bisection and inverse iteration (stebz/stein) give the lowest
    pairs of each of the `stability.mirror_halves` of its rows, which are
    unfolded to length M by `stability.fold_index` and merged.  stein's
    cost grows about quadratically with the pairs it is asked for, so each
    half is asked once, for no more pairs than Cauchy interlacing lets it
    hold among the lowest `count` (Horn & Johnson, Matrix Analysis), or
    all its rows if it has fewer: the even half for count // 2 + 1, the
    odd half for count // 2.  The odd half is the even half without its
    fixed-point rows (0, and M/2 at even M) and, at odd M, with its last
    diagonal entry moved by -2 up[M // 2]; where that lowers it
    (up[M // 2] > 0) the interlacing loosens by one and the odd half is
    asked for count // 2 + 1 too.  A half asked for no pairs is not
    called.  The polish takes every eigenvalue from its vector, so stebz's
    values serve only as stein's shifts: each half's lowest ask + 1 are
    bisected only to BISECT_TOL times max |diag| + 2 max |up|, and the
    Rayleigh quotients of stein's vectors order the merge.  Inverse
    iteration needs each shift far closer to its own eigenvalue than to
    any other, and stein scales its iterates by an absolute eps, so where
    two of those values lie within 100 times that tolerance, or the
    merge's cut falls between values that close, or stein does not
    converge at them, both halves are solved again at LAPACK's default
    tolerance eps ||T||, bit for bit as scipy.linalg.eigh_tridiagonal
    solves them.  The solved torus keeps the lowest values of a half 0.5
    apart at least.  Where values of the two halves tie at the cut the
    merge may keep either copy; the copies' values agree to rounding.
    Raises ValueError on bands that are not finite and LinAlgError where
    LAPACK fails at full precision.
    Returns the unit eigenvectors as the rows of a (count, M) array,
    ordered by ascending value; their residuals are about eps ||A||, and
    `_refine_pairs` takes the eigenvalues from them.
    """
    m = a.M
    h = m // 2
    half = count // 2
    # f2py wants an entry of e even for a half of one row
    halves = [(np.asarray_chkfinite(d),
               np.asarray_chkfinite(e if len(e) else np.zeros(1)))
              for d, e in stability.mirror_halves(a.diag, a.up, m)]
    asks = [min(ask, len(d)) for (d, _), ask in zip(
        halves, (half + 1, half + (m % 2 == 1 and a.up[h] > 0.0)))]

    def pairs(tol):
        """Each asked half's (values, vectors), ascending, from stein at
        stebz's shifts within tol (0: eps ||T||); None where tol > 0 and
        the shifts crowd or stein does not converge at them."""
        runs = [scipy.linalg.lapack.dstebz(
            d, e, 2, 0.0, 1.0, 1, min(ask + (tol > 0.0), len(d)), tol, "B")
            for (d, e), ask in zip(halves, asks) if ask]
        if any(run[-1] for run in runs):
            raise np.linalg.LinAlgError("LAPACK's bisection (stebz) failed")
        # the ask + 1 values of each half and the two around the cut
        lows = [np.sort(w[:n]) for n, w, _, _, _ in runs]
        cut = np.sort(np.concatenate(
            [w[:ask] for w, ask in zip(lows, asks)]))[count - 1:count + 1]
        if tol and min(np.diff(w).min(initial=np.inf)
                       for w in lows + [cut]) < 100 * tol:
            return None
        found = []
        for (d, e), ask, (n, w, iblock, isplit, _) in zip(halves, asks, runs):
            # the lowest ask of the n values, still grouped by block
            lowest = np.sort(np.argsort(w[:n], kind="stable")[:ask])
            lam = w[lowest]
            iblock[:ask] = iblock[lowest]
            z, info = scipy.linalg.lapack.dstein(d, e, lam, iblock, isplit)
            if info and tol:
                return None
            if info:
                raise np.linalg.LinAlgError(
                    "stein: %d eigenvectors failed to converge" % info)
            if tol:
                # coarse shifts misorder near ties of the two halves; the
                # vectors' Rayleigh quotients are as exact as LAPACK's values
                lam = (np.vecdot(z, d[:, None] * z, axis=0)
                       + 2.0 * np.vecdot(z[1:], e[:, None] * z[:-1], axis=0))
            order = np.argsort(lam)
            found.append((lam[order], z[:, order]))
        return found

    found = pairs(BISECT_TOL * (np.abs(a.diag).max()
                                + 2.0 * np.abs(a.up).max())) or pairs(0.0)
    found += [(np.empty(0), np.empty((0, 0)))] * (2 - len(found))
    (lam_even, x), (lam_odd, y) = found
    keep = np.argsort(np.concatenate([lam_even, lam_odd]),
                      kind="stable")[:count]
    # point m unfolds from row fold[m] of a half; the odd rows, padded with
    # zeros on the fixed points, change sign past M/2
    fold = stability.fold_index(m)
    weight = stability.unfold_weight(m)[fold]
    y = np.pad(y, ((1, h - len(y)), (0, 0)))
    vecs = np.concatenate(
        [x[fold] * weight[:, None],
         y[fold] * np.where(np.arange(m) > h, -weight, weight)[:, None]],
        axis=1)
    return vecs[:, keep].T


def spectrum(matrices, count):
    """Lowest `count` (1..M-1) eigenpairs of each StabilityMatrix, in one list.

    The list is grouped by matrix in input order, ascending within each;
    pairs whose polished eigenvalues are bit for bit equal (at M = 2048
    the 201-mode k = 0 spectrum has three such) keep the merge order of
    `_folded_pairs`, since the final sort is stable.
    The matrices must share M and the `up` band, as the -L_k of one curve
    do, and hold rows 0..M // 2 of their bands, M // 2 + 1 entries each,
    else ValueError.  `_folded_pairs` on each matrix, then one
    extended-precision polish of all pairs on the whole cyclic bands
    (`StabilityMatrix.bands`), O(M) per mode, in batches of at
    most POLISH_PAIRS pairs: near-equal slices of count (201 pairs go
    101 + 100), each over as many matrices as fit.  Each batch writes
    its polished vectors back over the LAPACK vectors, so the call holds
    one float64 copy of its pairs and the long-double buffers of one
    batch.  Calls are bitwise repeatable on any BLAS thread count, and,
    since each pair sums along its own row alone at every M, a pair's
    result does not depend on which other matrices share the call or on
    how the call is cut into batches.  It can depend on
    `count`: each mirror half is asked once, the even half for
    count // 2 + 1 pairs and the odd half for count // 2 (count // 2 + 1 at
    odd M with up[M // 2] > 0), or all its rows if it has fewer, and
    LAPACK's bisection, to BISECT_TOL of the norm, and inverse iteration
    run over that index range and the value above it, so the same pair
    taken with another count may differ in the last bits of its value and
    vector.  Eigenvectors are unit norm, with the
    largest-magnitude entry among rows 0..M//2 positive: an odd mode's
    entries m and M - m are equal in size but opposite in sign, so over
    all rows rounding would pick which of the two sets the sign.
    residual is the true ||A u - lambda u||_2 of the returned pair.
    Raises NarrowLongDouble where numpy's long double has fewer than 63
    mantissa bits (`LONGDOUBLE_BITS`), too few for the polish.
    """
    if LONGDOUBLE_BITS < 63:
        raise NarrowLongDouble(
            "the extended-precision polish needs a long double with 63 "
            "mantissa bits, and numpy's has %d here" % LONGDOUBLE_BITS)
    matrices = list(matrices)
    if not matrices:
        raise ValueError("spectrum needs at least one matrix")
    m, up = matrices[0].M, matrices[0].up
    if any(a.M != m or not np.array_equal(a.up, up) for a in matrices):
        raise ValueError("matrices must share M and the up band")
    if len(up) != m // 2 + 1 or any(len(a.diag) != len(up)
                                    for a in matrices):
        raise ValueError("matrices must hold rows 0..M // 2 of their bands")
    if count < 1 or count >= m:
        raise ValueError("count must be in 1..M-1")
    diags = np.array([a.bands()[0] for a in matrices])[:, None, :]
    up = matrices[0].bands()[1]
    vecs = np.array([_folded_pairs(a, count) for a in matrices])
    vals, resids = np.empty((2,) + vecs.shape[:-1])
    # near-equal slices of count (201 pairs: 101 + 100), and as many
    # matrices to a batch as keep it within POLISH_PAIRS
    cuts = [slice(s[0], s[-1] + 1) for s in np.array_split(
        np.arange(count), -(-count // POLISH_PAIRS))]
    group = max(1, POLISH_PAIRS // (cuts[0].stop - cuts[0].start))
    for mats in np.array_split(np.arange(len(matrices)),
                               -(-len(matrices) // group)):
        rows = slice(mats[0], mats[-1] + 1)
        for cut in cuts:
            vals[rows, cut], vecs[rows, cut], resids[rows, cut] = (
                _refine_pairs(diags[rows], up, vecs[rows, cut]))
    modes = []
    for a, lam, vec, res in zip(matrices, vals, vecs, resids):
        for j, row in enumerate(np.argsort(lam, kind="stable")):
            u = vec[row]
            if u[np.argmax(np.abs(u[:m // 2 + 1]))] < 0.0:
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
    each mode's own k.  A mode takes its best template's label at |cosine|
    > CLASSIFY_COSINE = 1/sqrt(2): orthonormal modes have squared cosines
    to a unit template that sum to at most 1, so at most one mode of a k
    passes.  On solved curves of M = 18 to 2048 points the best |cosine|
    is at least 0.9553 and the runner-up at most 0.1936.  Returns the list.
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
            if cos > best_cos:
                best_cos = cos
                mode.label = label
    return modes


class Pipeline:
    """One solved curve's chain: its evaluation, then `scan` for modes.

    The curve must be its own mirror image bit for bit (point -m mod M is
    (r_m, -z_m), as `solve_geodesic` returns it), because the spectra are
    taken on the mirror halves of -L_k; any other curve raises
    ExclusionMismatch naming the largest mismatch.  Its rows 0..M // 2
    are evaluated once, as the solver evaluates its iterates
    (`stability.Evaluation`), and `evaluation` holds the state unfolded
    from them (`stability.Unfolded`): the whole curve's normals, exactly
    mirrored, which the labels and renders use, and -L_0 on those rows,
    which the spectra take as it is.  The normals at the
    axis points, 0 and (even M) M/2, must be their own mirror images too,
    which they are not on a curve of fewer than 18 points, such as one
    read from a file: there the larger eigenvector of their point block is
    the tangent, and ExclusionMismatch names the point; `solve_geodesic`
    refuses such M.  The index is defined at a critical point only, so a
    curve that fails the evaluation's `solved` test raises it too.
    """

    def __init__(self, curve):
        m = curve.M
        gap = np.abs(curve.points - curve_mod.mirror_points(curve.points))
        if gap.max() > 0.0:
            j = int(np.argmax(gap.max(axis=1)))
            raise ExclusionMismatch(
                "curve is not mirror-symmetric: point %d is off the mirror "
                "image of point %d by %.3e" % (j, -j % m, gap[j].max()))
        ev = stability.Evaluation(curve.points[:m // 2 + 1], m)
        # the other points' normals unfold exactly mirrored
        for j in [0] if m % 2 else [0, m // 2]:
            if abs(ev.normals[j, 0]) <= abs(ev.normals[j, 1]):
                raise ExclusionMismatch(
                    "the normal at point %d is not its own mirror image" % j)
        if not ev.solved:
            raise ExclusionMismatch(
                "curve is not a solved geodesic: normal gradient %.3e "
                "(tolerance %g), spacing %.3e (tolerance %g)"
                % (ev.residual, stability.GRAD_TOL, ev.spacing,
                   stability.SPACING_TOL))
        self.curve, self.evaluation = curve, ev.unfold()

    def scan(self, ks, count):
        """Lowest `count` eigenpairs of -L_k for each k in ks, labelled.

        One `spectrum` call, which polishes in batches of at most
        POLISH_PAIRS pairs; the list is grouped by k in the order of ks,
        ascending within each k.  Raises MemoryError, before allocating,
        where len(ks) * count * M * SCAN_BYTES exceeds PHYSICAL_MEMORY.
        """
        need = len(ks) * count * self.curve.M * SCAN_BYTES
        if need > PHYSICAL_MEMORY:
            raise MemoryError(
                "%d values of k with %d modes each at M = %d need about "
                "%.3g GB, more than the %.3g GB of physical memory"
                % (len(ks), count, self.curve.M, need / 1e9,
                   PHYSICAL_MEMORY / 1e9))
        mats = [stability.assemble_Lk(self.evaluation, k) for k in ks]
        return classify_modes(spectrum(mats, count), self.curve,
                              self.evaluation.normals)


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
    INDEX_STOP_MARGIN by bisection on its `stability.mirror_halves`, and
    stops at the first k with none; a k whose M modes all lie below the
    margin raises ExclusionMismatch.  -L_k is -L_0 plus k^2 diag(1/r^2),
    r > 0, so by Weyl's inequality (Horn & Johnson, Matrix Analysis, Thm
    4.3.1) the counts never grow with k and the walk stops by the ceiling
    of max(r) sqrt(margin - lambda_min(-L_0)), which is 7 for the torus at
    M = 64 and 2048; it stops at k = 3.  The counts are exact to
    ~eps ||A||, far inside the margin, so one `Pipeline.scan` of the
    largest count at every k before the stop polishes and labels every
    mode that can be negative, and at each k the polished values below
    the margin must number its count, else ExclusionMismatch names k and
    both counts.  Negative polished eigenvalues are counted with
    multiplicity.  The rotation mode (k = 1) is exactly 0 in the continuum,
    so it is never counted, whatever the sign of its discrete value.
    Raises ExclusionMismatch for a curve that is not exactly
    mirror-symmetric or not a solved geodesic (see Pipeline), and unless
    the labels find exactly one negative dilation and one vertical
    translation (k = 0) and one horizontal translation (k = 1,
    multiplicity 2); their 1/sqrt(2) bound finds them at every M >= 18.
    """
    pipe = Pipeline(curve)
    sturm = []
    for k in itertools.count():
        a = stability.assemble_Lk(pipe.evaluation, k)
        # only the count is kept, and LAPACK's stebz takes it from the
        # Sturm counts at the interval ends, whatever the tolerance the
        # values themselves are bisected to; tol=1.0 stops that early
        n = sum(len(scipy.linalg.eigvalsh_tridiagonal(
            d, e, select="v", select_range=(-np.inf, INDEX_STOP_MARGIN),
            tol=1.0)) for d, e in stability.mirror_halves(a.diag, a.up, a.M))
        if n == 0:
            break
        if n == curve.M:
            raise ExclusionMismatch("all %d modes at k = %d are below %g"
                                    % (n, k, INDEX_STOP_MARGIN))
        sturm.append(n)
    modes = pipe.scan(range(k), max(sturm)) if sturm else []
    # the walk's counts certify the scan: a pair dropped or doubled on the
    # way to the polish changes how many polished values lie below the margin
    for i, n in enumerate(sturm):
        below = sum(m.k == i and m.eigenvalue < INDEX_STOP_MARGIN
                    for m in modes)
        if below != n:
            raise ExclusionMismatch(
                "%d polished eigenvalues at k = %d are below %g, but its "
                "Sturm count is %d (M = %d)"
                % (below, i, INDEX_STOP_MARGIN, n, curve.M))
    negative = [m for m in modes
                if m.eigenvalue < 0.0 and m.label != "rotation"]
    found = {label: sum(m.label == label for m in negative)
             for label in ("dilation", "vertical_translation",
                           "horizontal_translation")}
    if set(found.values()) != {1}:
        raise ExclusionMismatch(
            "expected one dilation and three translation modes, found %r "
            "at M = %d" % (found, curve.M))
    excluded = [{"k": m.k, "j": m.j, "eigenvalue": m.eigenvalue,
                 "label": m.label, "multiplicity": 1 if m.k == 0 else 2}
                for m in negative if m.label in found]
    total = sum(1 if m.k == 0 else 2 for m in negative)
    return IndexReport(
        per_k=[(i, [m.eigenvalue for m in negative if m.k == i])
               for i in range(k + 1)],
        excluded=excluded, total_negative=total,
        index=total - sum(e["multiplicity"] for e in excluded))
