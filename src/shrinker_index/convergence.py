"""Mesh-refinement studies of eigenvalues and entropy.

A study covers a fixed grid: the eigenvalues lambda(k, j) of -L_k for
k = 0..k_max and j = 0..3, then the entropy (the discrete weighted
length).  Each is recomputed at every resolution (fresh assembly, and a
curve bitwise equal to the standalone solve at that M; the study polishes
each solver ladder level once, since a level shared by the ladders of two
resolutions is the same bits in both: the default study's 1024 and 2048
climb from its own 128 and 256, each 8 times coarser), errors against the
true value follow c / M^2, and the fitted slope of log10 |error| against
log10 M certifies the quadratic rate.  True values are exact where a geometric
variation pins them down:

    (k, j) = (0, 1) -> -1      dilation
    (k, j) = (0, 2) -> -1/2    vertical translation
    (k, j) = (1, 0) -> -1      1/sigma
    (k, j) = (1, 1) -> -1/2    horizontal translation
    (k, j) = (1, 2) ->  0      rotation

For the remaining quantities (the "fitted" rows) the true value is the
Richardson extrapolation of an O(M^-2) error from the two finest
resolutions M_prev < M_last:

    true = e_last + (e_last - e_prev) / ((M_last / M_prev)^2 - 1)

and the slope is regressed against that value like against an exact one.
"""

import dataclasses

import numpy as np

from . import curve as curve_mod
from . import solver
from . import spectral

#: Default resolutions of a study.
DEFAULT_M = (128, 256, 512, 1024, 2048)

#: Quantities with exactly known eigenvalues.
KNOWN_TRUE = {
    (0, 1): -1.0,
    (0, 2): -0.5,
    (1, 0): -1.0,
    (1, 1): -0.5,
    (1, 2): 0.0,
}


class DegenerateFit(RuntimeError):
    """Raised when an estimate coincides with the true value."""


@dataclasses.dataclass
class ConvergenceStudy:
    """One quantity across resolutions with its log-log fit.

    quantity is either the string "entropy" or a (k, j) pair; errors are
    signed, estimate - true.
    """

    quantity: object
    M_values: tuple
    estimates: tuple
    true_value: float
    true_known: bool
    slope: float

    @property
    def errors(self):
        return tuple(e - self.true_value for e in self.estimates)


def fit_loglog(m_values, estimates, true_value=None):
    """Slope of log10|estimate - true| vs log10 M, and the true value.

    With true_value None the true value is extrapolated from the two
    finest resolutions, assuming an error c / M^2 (see module docstring).
    Returns (slope, true_value); raises DegenerateFit when an error
    vanishes exactly and ValueError when the two finest resolutions
    coincide.
    """
    m_values = tuple(int(m) for m in m_values)
    estimates = tuple(float(e) for e in estimates)
    if len(m_values) != len(estimates) or len(m_values) < 3:
        raise ValueError("need at least 3 (M, estimate) pairs")

    if true_value is None:
        prev, last = np.argsort(m_values)[-2:]
        if m_values[prev] == m_values[last]:
            raise ValueError("the two finest resolutions must differ")
        e_prev, e_last = estimates[prev], estimates[last]
        true_value = e_last + (e_last - e_prev) / (
            (m_values[last] / m_values[prev]) ** 2 - 1.0)

    diffs = np.abs(np.asarray(estimates) - true_value)
    if np.any(diffs == 0.0):
        raise DegenerateFit("an estimate equals the true value exactly")
    slope, _ = np.polyfit(np.log10(np.asarray(m_values, float)),
                          np.log10(diffs), 1)
    return float(slope), float(true_value)


def run_study(k_max, m_values=DEFAULT_M, progress=None):
    """Convergence studies of lambda(k, j) for k <= k_max, j < 4, and entropy.

    One pass over the sorted resolutions: at each M a solve, one
    `Pipeline.scan` of k = 0..k_max with 4 modes each, and the discrete
    length; `progress(M)` is called after each.  The solves share one dict
    of polished ladder levels, so each level is polished once per study and
    each curve is bitwise `solver.solve_geodesic(M)`.  Returns a list of
    ConvergenceStudy ordered (0, 0), (0, 1), ..., (k_max, 3), then
    "entropy".
    """
    m_values = tuple(sorted(int(m) for m in m_values))
    estimates = {}
    solved = {}
    for m in m_values:
        crv = solver.solve_geodesic(m, solved)
        for mode in spectral.Pipeline(crv).scan(range(k_max + 1), 4):
            estimates.setdefault((mode.k, mode.j), []).append(mode.eigenvalue)
        estimates.setdefault("entropy", []).append(
            curve_mod.discrete_length(crv))
        if progress is not None:
            progress(m)
    studies = []
    for q, est in estimates.items():
        slope, true_value = fit_loglog(m_values, est, KNOWN_TRUE.get(q))
        studies.append(ConvergenceStudy(
            quantity=q, M_values=m_values, estimates=tuple(est),
            true_value=true_value, true_known=q in KNOWN_TRUE, slope=slope))
    return studies

