"""Mesh-refinement studies of eigenvalues and entropy.

Each quantity is recomputed from scratch at every resolution (fresh solve,
fresh assembly), errors against the true value follow c / M^2, and the
fitted slope of log10 |error| against log10 M certifies the quadratic
rate.  True values are exact where a geometric variation pins them down:

    (k, j) = (0, 1) -> -1      dilation
    (k, j) = (0, 2) -> -1/2    vertical translation
    (k, j) = (1, 0) -> -1      1/sigma
    (k, j) = (1, 1) -> -1/2    horizontal translation
    (k, j) = (1, 2) ->  0      rotation

For the remaining quantities the true value is fitted: a one-dimensional
search over candidate values minimizing the least-squares residual of the
same log-log regression.  The search must be localized before golden
section is safe: the residual has a pole at every estimate (the log of a
vanishing error) and flattens out far away (all log-errors equal, so a
horizontal line fits), so the global basin is bracketed first with a
Richardson extrapolation from the two finest resolutions.
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

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class DegenerateFit(RuntimeError):
    """Raised when a candidate true value coincides with an estimate."""


@dataclasses.dataclass
class FitResult:
    slope: float
    intercept: float
    true_value: float
    residual: float


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
    intercept: float
    fit_residual: float

    @property
    def errors(self):
        return tuple(e - self.true_value for e in self.estimates)


def _regress(m_values, errors_abs):
    x = np.log10(np.asarray(m_values, float))
    y = np.log10(errors_abs)
    slope, intercept = np.polyfit(x, y, 1)
    ssr = float(np.sum((y - (slope * x + intercept)) ** 2))
    return float(slope), float(intercept), ssr


def _ssr_at(m_values, estimates, candidate):
    diffs = np.abs(np.asarray(estimates, float) - candidate)
    if np.any(diffs == 0.0):
        raise DegenerateFit(
            "candidate true value coincides with an estimate")
    return _regress(m_values, diffs)[2]


def fit_loglog(m_values, estimates, true_value=None):
    """Slope/intercept of log10|estimate - true| vs log10 M.

    With true_value None the true value is fitted by minimizing the
    regression residual over candidates: Richardson extrapolation from the
    two finest resolutions brackets the basin, golden section refines it.
    Returns FitResult; raises DegenerateFit when an error vanishes exactly.
    """
    m_values = tuple(int(m) for m in m_values)
    estimates = tuple(float(e) for e in estimates)
    if len(m_values) != len(estimates) or len(m_values) < 3:
        raise ValueError("need at least 3 (M, estimate) pairs")

    if true_value is None:
        order = np.argsort(m_values)
        e_prev = estimates[order[-2]]
        e_last = estimates[order[-1]]
        gap = e_last - e_prev
        if gap == 0.0:
            raise DegenerateFit("finest two estimates coincide")
        anchor = e_last + gap / 3.0
        lo = anchor - abs(gap) / 4.0
        hi = anchor + abs(gap) / 4.0
        # golden section; the SSR basin around the true value is smooth
        # and the bracket excludes every estimate pole.
        a, b = lo, hi
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc = _ssr_at(m_values, estimates, c)
        fd = _ssr_at(m_values, estimates, d)
        for _ in range(120):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - GOLDEN * (b - a)
                fc = _ssr_at(m_values, estimates, c)
            else:
                a, c, fc = c, d, fd
                d = a + GOLDEN * (b - a)
                fd = _ssr_at(m_values, estimates, d)
            if b - a <= 1e-15 * max(1.0, abs(anchor)):
                break
        true_value = 0.5 * (a + b)

    diffs = np.abs(np.asarray(estimates) - true_value)
    if np.any(diffs == 0.0):
        raise DegenerateFit("an estimate equals the true value exactly")
    slope, intercept, ssr = _regress(m_values, diffs)
    return FitResult(slope=slope, intercept=intercept,
                     true_value=float(true_value), residual=ssr)


def _eig_tables(m_values, k_list, j_max, progress):
    """Fresh solve + spectra per resolution: {M: {k: eigenvalues}}, lengths."""
    tables = {}
    lengths = {}
    for m in m_values:
        crv = solver.solve_geodesic(solver.SolveConfig(M=m))
        lengths[m] = curve_mod.discrete_length(crv)
        pipe = spectral.Pipeline(crv)
        tables[m] = {k: [md.eigenvalue for md in pipe.modes(k, j_max + 1)]
                     for k in k_list}
        if progress is not None:
            progress(m)
    return tables, lengths


def run_study(quantities, m_values=DEFAULT_M, progress=None):
    """Convergence studies for eigenvalue quantities (k, j) and "entropy".

    Every resolution is solved independently.  Returns a list of
    ConvergenceStudy in the order of `quantities`.
    """
    m_values = tuple(sorted(int(m) for m in m_values))
    quantities = list(quantities)
    eig_q = [q for q in quantities if q != "entropy"]
    k_list = sorted({k for k, _ in eig_q})
    j_max = max((j for _, j in eig_q), default=0)
    tables, lengths = _eig_tables(m_values, k_list, j_max, progress)

    studies = []
    for q in quantities:
        if q == "entropy":
            estimates = tuple(lengths[m] for m in m_values)
            known = False
            fit = fit_loglog(m_values, estimates)
        else:
            k, j = q
            estimates = tuple(float(tables[m][k][j]) for m in m_values)
            known = q in KNOWN_TRUE
            fit = fit_loglog(m_values, estimates,
                             KNOWN_TRUE.get(q))
        studies.append(ConvergenceStudy(
            quantity=q, M_values=m_values, estimates=estimates,
            true_value=fit.true_value, true_known=known,
            slope=fit.slope, intercept=fit.intercept,
            fit_residual=fit.residual))
    return studies


def quantity_name(quantity):
    if quantity == "entropy":
        return "entropy"
    k, j = quantity
    return "lambda_k%d_j%d" % (k, j)


def table_report(studies):
    """Eigenvalue table: computed at the finest M, true value, signed error.

    Returns (text, csv) renderings; the error column is
    computed(finest M) - true.
    """
    rows = []
    for st in studies:
        if st.quantity == "entropy":
            continue
        k, j = st.quantity
        computed = st.estimates[-1]
        rows.append((k, j, computed, st.true_value,
                     computed - st.true_value, st.true_known, st.slope))
    rows.sort(key=lambda row: (row[0], row[1]))

    csv_lines = ["k,j,computed,true_value,error,true_known,slope"]
    for k, j, comp, true, err, known, slope in rows:
        csv_lines.append("%d,%d,%.17g,%.17g,%.17g,%s,%.17g"
                         % (k, j, comp, true, err,
                            "exact" if known else "fitted", slope))

    text_lines = [
        "  k  j      computed          true        error      source  slope",
        "  -  -  ------------  ------------  -----------  ----------  -----",
    ]
    for k, j, comp, true, err, known, slope in rows:
        text_lines.append(
            "  %d  %d  %12.8f  %12.8f  %+.2e  %10s  %5.2f"
            % (k, j, comp, true, err, "exact" if known else "fitted", slope))
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"


def study_csv(studies):
    """Flat CSV of all study data: quantity,M,estimate,true_value,abs_error."""
    lines = ["quantity,M,estimate,true_value,abs_error"]
    for st in studies:
        name = quantity_name(st.quantity)
        for m, est, err in zip(st.M_values, st.estimates, st.errors):
            lines.append("%s,%d,%.17g,%.17g,%.17g"
                         % (name, m, est, st.true_value, abs(err)))
    return "\n".join(lines) + "\n"


def loglog_csv(study):
    """Per-quantity log-log data for external plotting."""
    lines = ["M,log10_M,abs_error,log10_abs_error"]
    for m, err in zip(study.M_values, study.errors):
        lines.append("%d,%.17g,%.17g,%.17g"
                     % (m, np.log10(m), abs(err), np.log10(abs(err))))
    return "\n".join(lines) + "\n"
