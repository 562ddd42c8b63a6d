"""Closed geodesics of the weighted half-plane by damped Newton iteration.

The solved curve satisfies two conditions simultaneously:

  * the gradient of the discrete weighted length, projected on the point
    normals, vanishes (max |n_m . grad_m| <= stability.GRAD_TOL), and
  * consecutive segment distances are equal (max/min - 1 <=
    stability.SPACING_TOL): the `solved` test of a `stability.Evaluation`.

Only the normal projection of the gradient is driven to zero.  The
tangential component of an equally spaced critical polygon is O(h^3) and
does not vanish: the discrete length is not stationary under tangential
reparametrization, so asking for the full gradient to vanish would fight
the equal-spacing constraint.  The iteration therefore alternates a Newton
step in the normal directions (reduced cyclic tridiagonal system
N^T H N  delta = -N^T grad) with resampling to equal segment distances.

The torus is symmetric under z -> -z, and the iteration runs on that
symmetry's half: its state is points 0..M // 2, from the outer axis point
q_0 to the inner axis point q_{M/2} (even M) or to the last point before
the inner axis crossing (odd M).  The axis points stay on z = 0.  Each
iterate is evaluated with its neighbours across the axis read as mirror
images, q_{-1} = (r_1, -z_1) (`stability.Evaluation`), and each is
resampled on the arc from q_0 to the inner axis crossing
(`curve._resample_half`).  From M = 18, where the normals mirror too,
N^T H N of the whole curve commutes with the reflection m -> -m mod M and
N^T grad is even, so the step is even and is solved on the even mirror
half (`stability.even_half`), one symmetric tridiagonal system with no
cyclic corner.  The solved half is unfolded once per level, so the
returned curve has point -m mod M equal to (r_m, -z_m) bit for bit.

The seed is a circle of radius 1.1 around (1.6, 0).  It lies across the
torus's cross-section, which spans r from about 0.44 to 3.31 and |z| up to
about 0.92 (Angenent, "Shrinking doughnuts", 1992): its inner axis point
is near the torus's and it reaches a little above and below it.  Newton
takes 5 steps and 6 evaluations from it at every M from 105 to 512, each
full step accepted, and at most 9 steps below that.  The cylinder's
cross-section, radius 0.5 around (sqrt(2), 0), lies inside the torus's,
and from it Newton takes 8 steps and 12 evaluations at M = 128, 256 and
512.  The Newton step starts at 1.0 and is halved whenever the trial
residual increases.  Directly from the seed the step count grows with M
(7 at 2048, 9 at 4096 and 15 at 8192, with 12, 21 and 48 evaluations), so
the solve uses nested iteration: it divides M by 8 with ceiling while the
count is above COARSE_M, solves that coarsest level from the seed, and
climbs back to M level by level, each level resampled from the canonical
curve of the level below and polished by the same Newton loop.  Newton's
step count on a discretization does not depend on the mesh (Allgower,
Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986), and from a
level 8 times coarser the top level takes 2 to 4 steps: 8192 climbs
128 -> 1024 -> 8192 in 5, 3 and 2 steps, and 2048 climbs 256 -> 2048 in 5
and 3.  M <= COARSE_M is a single level solved from the seed.  The
returned curve is canonical, with no step that reorders points: q_0 is
the outer axis point and the curve rises after it, since the seed starts
at angle 0 counterclockwise and each resampling is anchored at its
input's q_0, which the step moves along its normal, horizontal there to
the bit because its two segments are mirror images.  Each level is
bitwise the standalone solve at its count, so a caller solving several M
can share the levels through `solve_geodesic`'s `solved` dict.  The point
count M is the only input that shapes the curve: the seed (SEED_CENTER,
SEED_RADIUS), the iteration cap per level (MAX_ITERS) and COARSE_M are
module constants, read at call time, as are the tolerances in
`stability`.
"""

import numpy as np
import scipy.sparse.linalg

from . import curve as curve_mod
from . import metric
from . import stability

#: Newton iterations allowed before NonConvergence.
MAX_ITERS = 200
#: Center and radius of the seed circle.
SEED_CENTER = (1.6, 0.0)
SEED_RADIUS = 1.1
#: Largest point count solved from the seed; larger M climb from a level at
#: or below it, each level 8 times coarser than the next.
COARSE_M = 512


class NonConvergence(RuntimeError):
    """Raised when the iteration fails to reach the tolerances."""


class CurveCollapse(RuntimeError):
    """Raised when the iterate degenerates (r <= 0 or a vanishing segment)."""


def seed_circle(m):
    """Seed polygon: circle traversed counterclockwise from angle 0."""
    theta = 2.0 * np.pi * np.arange(m) / m
    pts = np.empty((m, 2))
    pts[:, 0] = SEED_CENTER[0] + SEED_RADIUS * np.cos(theta)
    pts[:, 1] = SEED_CENTER[1] + SEED_RADIUS * np.sin(theta)
    return pts


def _check_alive(half, m):
    """Raise CurveCollapse unless `half`, rows 0 .. m // 2 of a
    mirror-symmetric m-point curve, is finite, at r > 0, and has no
    collapsed segment, those across the axis included."""
    points = curve_mod.mirror_pad(half, m)
    if np.any(points[:, 0] <= 0.0) or not np.all(np.isfinite(points)):
        raise CurveCollapse("iterate left the half-plane at M = %d" % m)
    diff = points[1:] - points[:-1]
    d = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
    if d.min() < metric.DEGENERACY_CUTOFF:
        raise CurveCollapse("segment collapsed during iteration at M = %d"
                            % m)


def _state(half, m):
    """The `stability.Evaluation` of one iterate, rows 0 .. m // 2."""
    _check_alive(half, m)
    return stability.Evaluation(half, m)


def solve_geodesic(m, solved=None):
    """Solve for the closed m-point geodesic; returns a canonical DiscreteCurve.

    Canonical: q_0 is the outer axis point and the curve rises after it,
    as the seed and the resampling anchor leave it.

    solved, if given, is a dict owned by the caller that maps a point count
    to the polished points of that ladder level.  The descent stops at the
    first level found there and climbs from its points instead of the
    seed, and every level polished is stored in it.  A level is bitwise the
    standalone solve at its count, since the ladder below it is the same,
    so the returned curve does not depend on what the dict holds, as long
    as it was filled under the same module constants.

    Raises ValueError below 18 points, where the normal picked at the two
    axis points is the tangent, so stability.GRAD_TOL there would bound the
    gradient along the curve and the returned curve would not be critical.
    Raises NonConvergence if a ladder level does not meet the tolerances
    within MAX_ITERS and CurveCollapse if an iterate degenerates; both
    messages name the level's point count.
    Deterministic: the same m gives a bitwise identical curve.
    """
    if m < 18:
        raise ValueError("M must be at least 18")
    if solved is None:
        solved = {}
    levels = [m]
    while levels[-1] not in solved and levels[-1] > COARSE_M:
        levels.append((levels[-1] + 7) // 8)
    if levels[-1] in solved:
        points = solved[levels.pop()]
    else:
        points = seed_circle(levels[-1])
    for level in reversed(levels):
        points = solved[level] = _polish(points, level)
    return curve_mod.DiscreteCurve(points)


def _polish(points, m):
    """Damped Newton iteration from points resampled to m; returns the
    points of a canonical solved curve.

    The iteration runs on the mirror half, rows 0 .. m // 2: the first
    iterate and every line-search trial are resampled to m on the half
    (`curve._resample_half`), which keeps the axis points on z = 0, and
    each is evaluated with its neighbours across the axis read as mirror
    images.  The solved half is unfolded once, so the returned points have
    row -j mod m equal to (r_j, -z_j) bitwise, as the symmetry-reduced
    spectra need.  points must be a closed curve that is its own mirror
    image up to rounding, with q_0 the outer axis point and the curve
    rising after it, as on the seed and every solved level; only its rows
    0 .. len(points) // 2 are read.

    Each Newton step solves the even half S of N^T H N
    (`stability.even_half`; `stability` states the fold): S y = -g / w for
    the normal gradient g and the unfold weight w, and delta = w y.  It is
    the half of the full cyclic step only while the normals mirror, which
    needs m >= 18, as solve_geodesic checks.
    """
    # S has d on its diagonal and e on both off-diagonals; its CSC
    # structure is fixed per level, with entry (j, j) at data[3j],
    # (j + 1, j) at data[3j + 1] and (j, j + 1), the first entry of column
    # j + 1, at data[3j + 2]
    n = m // 2 + 1
    rows = np.arange(n)
    weight = stability.unfold_weight(m)
    indices = np.empty(3 * n - 2, dtype=rows.dtype)
    indices[0::3], indices[1::3], indices[2::3] = rows, rows[1:], rows[:-1]
    indptr = np.clip(np.arange(-1, 3 * n, 3), 0, 3 * n - 2)
    newton = scipy.sparse.csc_matrix(
        (np.empty(3 * n - 2), indices, indptr), shape=(n, n))
    data = newton.data
    m_in = len(points)
    state = _state(
        curve_mod._resample_half(points[:m_in // 2 + 1], m_in, m), m)
    for n_steps in range(1, MAX_ITERS + 1):
        if state.solved:
            return curve_mod.unfold(state.points, m)
        d, e = stability.even_half(state.diag, state.up, m)
        data[0::3], data[1::3], data[2::3] = d, e, e
        delta = weight * scipy.sparse.linalg.spsolve(
            newton, -state.grad_normal / weight, permc_spec="NATURAL")
        for step in 0.5 ** np.arange(40):
            trial = state.points + step * delta[:, None] * state.normals
            try:
                _check_alive(trial, m)
                trial_state = _state(curve_mod._resample_half(trial, m, m), m)
            except CurveCollapse:
                continue
            if trial_state.residual < state.residual:
                break
        else:
            raise NonConvergence(
                "line search stalled at residual %.3e after %d Newton steps "
                "at M = %d" % (state.residual, n_steps, m))
        state = trial_state

    raise NonConvergence(
        "no convergence in %d iterations (residual %.3e, spacing %.3e) "
        "at M = %d" % (MAX_ITERS, state.residual, state.spacing, m))
