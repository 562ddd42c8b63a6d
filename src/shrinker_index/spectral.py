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
"""

import dataclasses
import json

import numpy as np
import scipy.sparse.linalg

from . import metric
from . import stability

#: |cosine| threshold for matching an eigenfunction to a known template.
CLASSIFY_COSINE = 0.999

#: Seed of ARPACK's restart vectors, fixed for bitwise-repeatable spectra.
ARPACK_SEED = 20240817

#: The k loop of the index computation stops once the smallest eigenvalue
#: clears this margin; eigenvalues grow monotonically with k.
INDEX_STOP_MARGIN = 1e-3

#: Largest k the index computation walks before giving up.
INDEX_K_CAP = 64


class ExclusionMismatch(RuntimeError):
    """Raised when the expected dilation/translation modes are not found."""


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
    """A @ vecs for the cyclic tridiagonal bands, any dtype."""
    return (diag[:, None] * vecs
            + up[:, None] * np.roll(vecs, -1, axis=0)
            + np.roll(up, 1)[:, None] * np.roll(vecs, 1, axis=0))


def _cyclic_solve(diag, up, shifts, rhs):
    """Solve (A - shift_j I) x_j = rhs_j for each column, extended precision.

    Thomas elimination plus a Sherman-Morrison correction for the cyclic
    corner; near-zero pivots are bumped (the shifts sit on eigenvalues, so
    the systems are deliberately near singular and the solutions are only
    used as inverse-iteration directions).
    """
    ld = np.longdouble
    m = len(diag)
    b = diag[:, None] - shifts[None, :]
    corner = up[-1]
    gamma = np.where(np.abs(b[0]) > 1e-300, -b[0], ld(-1.0))
    b_mod = b.copy()
    b_mod[0] = b[0] - gamma
    b_mod[-1] = b[-1] - (corner * corner) / gamma

    work = np.empty((m,) + rhs.shape[1:] + (2,), dtype=ld)
    work[..., 0] = rhs
    work[..., 1] = 0.0
    work[0, :, 1] = gamma
    work[-1, :, 1] = corner

    piv = np.empty_like(b)
    piv[0] = b_mod[0]
    for row in range(1, m):
        factor = up[row - 1] / piv[row - 1]
        piv[row] = b_mod[row] - factor * up[row - 1]
        work[row] -= factor[:, None] * work[row - 1]
    piv = np.where(np.abs(piv) < 1e-300, ld(1e-300), piv)

    sol = np.empty_like(work)
    sol[-1] = work[-1] / piv[-1][:, None]
    for row in range(m - 2, -1, -1):
        sol[row] = (work[row] - up[row] * sol[row + 1]) / piv[row][:, None]

    y = sol[..., 0]
    q = sol[..., 1]
    v_y = y[0] + (corner / gamma) * y[-1]
    v_q = q[0] + (corner / gamma) * q[-1]
    return y - q * (v_y / (1.0 + v_q))[None, :]


def _refine_pairs(diag, up, vals, vecs):
    """Polish eigenpairs by inverse iteration in extended precision.

    ARPACK pairs carry residual ~ eps ||A||, which at M = 2048 exceeds the
    1e-10 contract (||A|| ~ 1e6 there).  Two inverse-iteration steps on the
    cyclic tridiagonal bands in 80-bit arithmetic push the pair to the
    limit a float64 vector can represent; the reported eigenvalue is the
    Rayleigh quotient of the returned float64 vector and the residual its
    true residual, both evaluated in extended precision.
    """
    ld = np.longdouble
    diag_ld = diag.astype(ld)
    up_ld = up.astype(ld)
    work = vecs.astype(ld)
    shifts = vals.astype(ld) + ld(1e-13)
    for _ in range(2):
        # the solves are deliberately near singular; a column that blows
        # up keeps its previous iterate
        with np.errstate(all="ignore"):
            trial = _cyclic_solve(diag_ld, up_ld, shifts, work)
            norms = np.sqrt(np.einsum("mj,mj->j", trial, trial))
            good = np.isfinite(norms) & (norms > 0.0)
            good &= np.all(np.isfinite(trial), axis=0)
            work = np.where(good[None, :], trial / norms[None, :], work)
        shifts = np.einsum("mj,mj->j", work,
                           _band_matvec(diag_ld, up_ld, work))
    out = work.astype(float)
    out = out / np.linalg.norm(out, axis=0)
    out_ld = out.astype(ld)
    av = _band_matvec(diag_ld, up_ld, out_ld)
    lam = np.einsum("mj,mj->j", out_ld, av)
    resid = np.linalg.norm((av - lam[None, :] * out_ld).astype(float), axis=0)
    return lam.astype(float), out, resid


def spectrum(matrix, count):
    """Lowest `count` (1..M-1) eigenpairs of a StabilityMatrix, ascending.

    Shift-invert Lanczos (ARPACK) on the bands, shifted one below the
    Gershgorin bound so the modes nearest the shift are the lowest, then
    an extended-precision polish, O(M) per mode.  A fixed start vector and
    restart seed make repeated calls bitwise identical.  Eigenvectors are
    unit norm with the largest-magnitude entry positive; residual is the
    true ||A u - lambda u||_2 of the returned pair.
    """
    m = matrix.M
    if count < 1 or count >= m:
        raise ValueError("count must be in 1..M-1")
    diag, up = matrix.diag, matrix.up
    shift = float(np.min(diag - np.abs(up) - np.abs(np.roll(up, 1)))) - 1.0
    vals, vecs = scipy.sparse.linalg.eigsh(
        stability.cyclic_csc(diag, up), k=count, sigma=shift, which="LM",
        v0=np.ones(m), rng=ARPACK_SEED)
    vals, vecs, resids = _refine_pairs(diag, up, vals, vecs)
    order = np.argsort(vals, kind="stable")
    modes = []
    for j, col in enumerate(order):
        u = vecs[:, col]
        if u[np.argmax(np.abs(u))] < 0.0:
            u = -u
        modes.append(EigenMode(k=matrix.k, j=j, eigenvalue=float(vals[col]),
                               vector=u, residual=float(resids[col])))
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
    """One solved curve's chain: normals, -L_0, then labelled modes per k."""

    def __init__(self, curve):
        self.curve = curve
        self.normals = stability.normal_field(curve)
        self.L0 = stability.assemble_L0(curve, self.normals)

    def modes(self, k, count):
        """Lowest `count` eigenpairs of -L_k, ascending and labelled."""
        Lk = stability.assemble_Lk(self.L0, self.curve, k)
        return classify_modes(spectrum(Lk, count), self.curve, self.normals)


def spectrum_report(curve, modes):
    """JSON-ready dict for one k: eigenvalues, labels, residuals."""
    if not modes:
        raise ValueError("empty spectrum")
    return {
        "M": curve.M,
        "k": modes[0].k,
        "eigenvalues": [m.eigenvalue for m in modes],
        "labels": [m.label for m in modes],
        "residuals": [m.residual for m in modes],
    }


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

    def to_json(self):
        return json.dumps({
            "per_k": [{"k": k, "negative_eigenvalues": vals}
                      for k, vals in self.per_k],
            "excluded": self.excluded,
            "total": self.total_negative,
            "index": self.index,
        }, indent=2)


def compute_index(curve, count=8):
    """Morse index of the solved curve, excluding dilation and translations.

    Walks k = 0, 1, 2, ... until the smallest eigenvalue exceeds
    INDEX_STOP_MARGIN (they are monotone in k), counting negative eigenvalues
    with multiplicity.  While the last of the `count` modes at a k is
    negative the count doubles (up to M - 1, else ExclusionMismatch), so
    no negative mode is dropped.  Raises ExclusionMismatch unless exactly one
    negative dilation mode (k = 0), one negative vertical translation
    (k = 0) and one negative horizontal translation (k = 1, multiplicity
    2) are found.
    """
    pipe = Pipeline(curve)
    cap = curve.M - 1
    per_k = []
    excluded = []
    found = {"dilation": 0, "vertical_translation": 0,
             "horizontal_translation": 0}
    total = 0
    for k in range(INDEX_K_CAP + 1):
        n = min(count, cap)
        modes = pipe.modes(k, n)
        while modes[-1].eigenvalue < 0.0:
            if n == cap:
                raise ExclusionMismatch(
                    "all %d computed modes at k = %d are negative" % (n, k))
            n = min(2 * n, cap)
            modes = pipe.modes(k, n)
        mult = 1 if k == 0 else 2
        negative = [m for m in modes if m.eigenvalue < 0.0]
        per_k.append((k, [m.eigenvalue for m in negative]))
        total += mult * len(negative)
        for m in negative:
            if m.label in found:
                found[m.label] += 1
                excluded.append({"k": k, "j": m.j,
                                 "eigenvalue": m.eigenvalue,
                                 "label": m.label, "multiplicity": mult})
        if modes[0].eigenvalue >= INDEX_STOP_MARGIN:
            break
    else:
        raise ExclusionMismatch("negative modes persist beyond k = %d" % k)

    if (found["dilation"] != 1 or found["vertical_translation"] != 1
            or found["horizontal_translation"] != 1):
        raise ExclusionMismatch(
            "expected one dilation and three translation modes, found %r"
            % found)
    excluded_mult = sum(e["multiplicity"] for e in excluded)
    return IndexReport(per_k=per_k, excluded=excluded,
                       total_negative=total, index=total - excluded_mult)
