"""Schroedinger-operator asymptotics of the stability spectra.

In unweighted arc length s along the solved cross-section, conjugating the
stability operator by sigma^{1/2} (a Liouville transform) turns -L_k into
-d^2/ds^2 + V_k with the potential

    V_k = (sigma^{-1/2})'' sigma^{1/2} - 1 + (k^2 - 1) / r^2,

primes denoting d/ds.  Two classical eigenvalue laws follow and serve as
independent checks on the computed spectra:

  * high j, fixed k: eigenvalues pair up and grow like free modes on a
    circle of the curve's Euclidean length l(Gamma), shifted by the mean
    of V in arc length,

        lambda_{2j-1} ~ lambda_{2j} ~ (2 pi / l(Gamma))^2 j^2 + avg(V);

    the discrete spectrum falls below this law at large j, with the
    deviation growing like j^4 (the quadratic spectrum of the discrete
    second difference bends down at wavelengths near the grid spacing).

  * high k, low j: V_k develops a single quadratic well near the point of
    largest r, and the low eigenvalues follow the harmonic-oscillator
    ladder

        lambda_j ~ V(s0) + (2j + 1) sqrt(V''(s0) / 2).

On a solved geodesic of sigma^2 |dx|^2 (the CLI checks it through
`spectral.Pipeline`) the Euclidean curvature is d_n log sigma, so V_k is
exact in the `stability.Evaluation`'s unit normal n and the tangent t:

    V_k = ((3/4 |grad sigma|^2 - 5/4 (grad sigma . n)^2) / sigma
           - 1/2 t^T (hess sigma) t) / sigma - 1 + (k^2 - 1) / r^2.
"""

import dataclasses

import numpy as np

from . import metric


class NoWell(RuntimeError):
    """Raised when the potential has no quadratic well (V'' <= 0)."""


@dataclasses.dataclass
class SchrodingerProfile:
    """Potential V_k along the curve with its well and average data.

    s holds accumulated Euclidean arc length from q_0; V_avg is the
    arc-length average of V; V0, Vpp0 describe the quadratic well at the
    discrete argmin of V (Vpp0 from a three-point fit in s).
    """

    s: np.ndarray
    V: np.ndarray
    V_avg: float
    euclidean_length: float
    V0: float
    Vpp0: float


def potential_profile(evaluation, k):
    """Liouville potential V_k at the points of a solved `Evaluation`."""
    return potential_profiles(evaluation, [k])[0]


def potential_profiles(evaluation, ks):
    """`potential_profile(evaluation, k)` for each k in ks, in order.

    The part of V that does not depend on k (sigma's jet along the normals
    and tangents), the arc length s, the length and the 1/sigma weights
    are computed once, and each k adds (k^2 - 1) / r^2 to it last, as the
    closed form above sums; a profile does not depend on the other ks.
    The profiles share their array s.
    """
    pts = evaluation.points
    n0, n1 = evaluation.normals.T
    s_weight, g, h = metric.sigma_jet(pts)
    g_n = g[:, 0] * n0 + g[:, 1] * n1
    # t^T (hess sigma) t for the tangent t = (-n1, n0)
    tht = (n1 * n1 * h[:, 0, 0] - 2.0 * n0 * n1 * h[:, 0, 1]
           + n0 * n0 * h[:, 1, 1])
    g_sq = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]
    v_base = ((0.75 * g_sq - 1.25 * g_n * g_n) / s_weight
              - 0.5 * tht) / s_weight - 1.0
    r_sq = pts[:, 0] ** 2

    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    euclid = float(seg.sum())
    inv = 1.0 / s_weight
    inv_sum = np.sum(inv)

    profiles = []
    for k in ks:
        V = v_base + (k * k - 1.0) / r_sq
        m0 = int(np.argmin(V))
        ds_prev, ds_next = seg[m0 - 1], seg[m0]
        v_prev, v_next = V[m0 - 1], V[(m0 + 1) % len(V)]
        # leading coefficient of the parabola through the three points
        lead = (((v_next - V[m0]) / ds_next + (v_prev - V[m0]) / ds_prev)
                / (ds_prev + ds_next))
        profiles.append(SchrodingerProfile(
            s=s, V=V, V_avg=float(np.sum(V * inv) / inv_sum),
            euclidean_length=euclid, V0=float(V[m0]), Vpp0=float(2.0 * lead)))
    return profiles


def high_j_estimate(profile, j):
    """Free-circle law (2 pi j / l)^2 + avg(V) for the pair at level j."""
    return (2.0 * np.pi * j / profile.euclidean_length) ** 2 + profile.V_avg


def high_k_estimate(profile, j):
    """Harmonic-oscillator law V0 + (2j + 1) sqrt(V''/2).

    Raises NoWell when the fitted well curvature is not positive.
    """
    if profile.Vpp0 <= 0.0:
        raise NoWell("potential well curvature %.3e is not positive"
                     % profile.Vpp0)
    return profile.V0 + (2 * j + 1) * np.sqrt(profile.Vpp0 / 2.0)


def drift_diagnostic(profile, eigenvalues):
    """Deviation of lambda_{2j} from the free-circle law, and its growth.

    `eigenvalues` is the ascending spectrum of -L_k for the k of the
    potential `profile`; j runs to j_max = (len(eigenvalues) - 1) // 2,
    which must be at least 10 for the decade fit (21 eigenvalues).
    Returns (rows, exponent): rows are (j, eigenvalue, estimate,
    deviation) for j = 1..j_max, and exponent is the log-log slope of
    |deviation| against j over the largest decade [j_max // 10, j_max],
    where the grid-scale bending dominates.
    """
    j_max = (len(eigenvalues) - 1) // 2
    if j_max < 10:
        raise ValueError("need at least 21 eigenvalues for the decade fit")

    rows = []
    for j in range(1, j_max + 1):
        est = high_j_estimate(profile, j)
        lam = float(eigenvalues[2 * j])
        rows.append((j, lam, est, lam - est))

    j_lo = max(1, j_max // 10)
    pts = [(j, abs(dev)) for j, _, _, dev in rows
           if j >= j_lo and dev != 0.0]
    x = np.log10([j for j, _ in pts])
    y = np.log10([d for _, d in pts])
    return rows, float(np.polyfit(x, y, 1)[0])

