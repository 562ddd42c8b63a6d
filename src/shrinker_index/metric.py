"""Gaussian-weighted half-plane metric.

The weight on the open half-plane {r > 0} is

    sigma(r, z) = (r / 2) * exp(-(r^2 + z^2) / 4).

Curve length measured in the conformal metric sigma^2 (dr^2 + dz^2) equals
the Gaussian-weighted area of the surface of revolution swept by the curve,
so closed geodesics of this metric are cross-sections of rotationally
symmetric self-shrinkers of mean curvature flow.

A closed polygon is measured with the midpoint rule, one segment at a time:

    dist(a, b) = sigma((a + b) / 2) * |b - a|.

This module supplies sigma, its jet `sigma_jet` (value, gradient and
Hessian), and the exact gradient and Hessian of dist(a, b) as per-endpoint
blocks with (r, z) ordering, built from the jet at each midpoint.  Every
derivative of sigma downstream (solve, stability operators, Liouville
potential) comes from here, so the coordinate ordering is load-bearing.

Points are numpy arrays whose last axis holds (r, z); all functions
broadcast over leading axes.
"""

import numpy as np

#: Segments shorter than this are treated as degenerate: the direction
#: vector (b - a)/|b - a| that enters the derivatives is no longer defined.
DEGENERACY_CUTOFF = 1e-14


class DegenerateSegmentError(ValueError):
    """Raised when derivatives are requested for a segment of length ~ 0."""


def sigma(points):
    """Weight sigma(r, z) = (r/2) exp(-(r^2 + z^2)/4).

    `points` has shape (..., 2); returns shape (...).  Well defined for
    r <= 0 too (vanishes at r = 0), though curves must stay at r > 0.
    """
    points = np.asarray(points, dtype=float)
    r = points[..., 0]
    z = points[..., 1]
    return 0.5 * r * np.exp(-0.25 * (r * r + z * z))


def sigma_jet(points):
    """sigma, its gradient (..., 2) and Hessian (..., 2, 2) from one exp.

    The gradient and Hessian are Fortran-ordered, so each entry g[..., i]
    and h[..., i, j] is one contiguous column.
    """
    r = points[..., 0]
    z = points[..., 1]
    e = np.exp(-0.25 * (r * r + z * z))
    g = np.empty(points.shape, order="F")
    g[..., 0] = 0.25 * e * (2.0 - r * r)
    g[..., 1] = -0.25 * r * z * e
    h = np.empty(points.shape + (2,), order="F")
    h[..., 0, 0] = -0.125 * r * e * (6.0 - r * r)
    h[..., 0, 1] = -0.125 * z * e * (2.0 - r * r)
    h[..., 1, 0] = h[..., 0, 1]
    h[..., 1, 1] = -0.125 * r * e * (2.0 - z * z)
    return 0.5 * r * e, g, h


def segment_distance(a, b):
    """Midpoint-rule weighted length sigma((a+b)/2) |b - a|.

    Broadcasts over leading axes; coincident endpoints give 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    return sigma(0.5 * (a + b)) * np.sqrt(d[..., 0] * d[..., 0]
                                          + d[..., 1] * d[..., 1])


def segment_blocks(a, b):
    """Derivative blocks of dist(a, b) for stacked segments.

    `a`, `b` have shape (M, 2).  Returns a dict with

        dist   (M,)      segment distances
        grad_a (M, 2)    d dist / d a
        grad_b (M, 2)    d dist / d b
        h_aa   (M, 2, 2) d^2 dist / da da
        h_ab   (M, 2, 2) d^2 dist / da db   (h_ba is its transpose)
        h_bb   (M, 2, 2) d^2 dist / db db

    The gradients and blocks are views in which each entry [:, i] or
    [:, i, j] is one contiguous (M,) column, as the arithmetic runs.

    With c = (a+b)/2, D = |b-a|, u = (b-a)/D, g = grad sigma(c),
    S = hess sigma(c) (sigma, g and S from one Gaussian evaluation per
    midpoint) and P = (I - u u^T)/D:

        grad_a = g D / 2 - sigma(c) u
        grad_b = g D / 2 + sigma(c) u
        h_aa   = S D / 4 - (g u^T + u g^T)/2 + sigma(c) P
        h_ab   = S D / 4 + (g u^T - u g^T)/2 - sigma(c) P
        h_bb   = S D / 4 + (g u^T + u g^T)/2 + sigma(c) P

    Raises DegenerateSegmentError if any segment is shorter than the cutoff.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # entry first: diff[i], g[i] and every [i, j] below are (M,) columns
    diff = np.ascontiguousarray((b - a).T)
    dist_e = np.sqrt(diff[0] * diff[0] + diff[1] * diff[1])
    if np.any(dist_e < DEGENERACY_CUTOFF):
        raise DegenerateSegmentError(
            "segment length below %.1e" % DEGENERACY_CUTOFF)
    s, g, hess_s = sigma_jet(0.5 * (a + b))
    g, hess_s = g.T, hess_s.transpose(1, 2, 0)
    u = diff / dist_e

    guT = g[:, None] * u[None, :]
    ugT = u[:, None] * g[None, :]
    uuT = u[:, None] * u[None, :]
    proj = (np.eye(2)[:, :, None] - uuT) / dist_e
    sym = 0.5 * (guT + ugT)
    skew = 0.5 * (guT - ugT)
    quarter = 0.25 * dist_e * hess_s
    s_proj = s * proj
    half_gd = 0.5 * g * dist_e
    su = s * u

    return {
        "dist": s * dist_e,
        "grad_a": (half_gd - su).T,
        "grad_b": (half_gd + su).T,
        "h_aa": (quarter - sym + s_proj).transpose(2, 0, 1),
        "h_ab": (quarter + skew - s_proj).transpose(2, 0, 1),
        "h_bb": (quarter + sym + s_proj).transpose(2, 0, 1),
    }
