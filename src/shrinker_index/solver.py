"""Closed geodesics of the weighted half-plane by damped Newton iteration.

The solved curve satisfies two conditions simultaneously:

  * the gradient of the discrete weighted length, projected on the point
    normals, vanishes (max |n_m . grad_m| <= grad_tol), and
  * consecutive segment distances are equal (max/min - 1 <= spacing_tol).

Only the normal projection of the gradient is driven to zero.  The
tangential component of an equally spaced critical polygon is O(h^3) and
does not vanish: the discrete length is not stationary under tangential
reparametrization, so asking for the full gradient to vanish would fight
the equal-spacing constraint.  The iteration therefore alternates a Newton
step in the normal directions (reduced cyclic tridiagonal system
N^T H N  delta = -N^T grad) with resampling to equal segment distances.

The seed is a circle of radius 0.5 around (sqrt(2), 0), the cross-section
radius and axis distance of the self-shrinking cylinder; the Newton damping
starts at 1.0 and is halved whenever the trial residual increases.
"""

import dataclasses
import math

import numpy as np
import scipy.sparse.linalg

from . import curve as curve_mod
from . import metric
from . import stability


class NonConvergence(RuntimeError):
    """Raised when the iteration fails to reach the tolerances."""


class CurveCollapse(RuntimeError):
    """Raised when the iterate degenerates (r <= 0 or a vanishing segment)."""


@dataclasses.dataclass
class SolveConfig:
    """Parameters of the geodesic solve."""

    M: int = 2048
    seed_center: tuple = (math.sqrt(2.0), 0.0)
    seed_radius: float = 0.5
    grad_tol: float = 1e-10
    spacing_tol: float = 1e-8
    max_iters: int = 200
    damping: float = 1.0

    def __post_init__(self):
        if self.M < 8:
            raise ValueError("M must be at least 8")
        if self.seed_radius <= 0.0:
            raise ValueError("seed_radius must be positive")
        if self.seed_center[0] - self.seed_radius <= 0.0:
            raise ValueError("seed circle must stay inside r > 0")
        if self.grad_tol <= 0.0 or self.spacing_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")


def seed_circle(config):
    """Seed polygon: circle traversed counterclockwise from angle 0."""
    theta = 2.0 * np.pi * np.arange(config.M) / config.M
    pts = np.empty((config.M, 2))
    pts[:, 0] = config.seed_center[0] + config.seed_radius * np.cos(theta)
    pts[:, 1] = config.seed_center[1] + config.seed_radius * np.sin(theta)
    return pts


def _check_alive(points):
    if np.any(points[:, 0] <= 0.0) or not np.all(np.isfinite(points)):
        raise CurveCollapse("iterate left the half-plane")
    d = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
    if d.min() < metric.DEGENERACY_CUTOFF:
        raise CurveCollapse("segment collapsed during iteration")


class _State:
    """Everything evaluated at one iterate: blocks, normals, residuals."""

    def __init__(self, points):
        _check_alive(points)
        self.points = points
        h_m, blocks = stability._point_blocks(points)
        self.blocks = blocks
        self.normals = stability._normals(h_m, points)
        grad = blocks["grad_a"] + np.roll(blocks["grad_b"], 1, axis=0)
        self.grad_normal = np.einsum("mi,mi->m", self.normals, grad)
        self.residual = float(np.max(np.abs(self.grad_normal)))
        d = blocks["dist"]
        self.spacing = float(d.max() / d.min() - 1.0)


def _newton_direction(state):
    """Solve the reduced cyclic tridiagonal system N^T H N delta = -g."""
    diag, off = stability._reduced_tridiagonal(state.blocks, state.normals)
    return scipy.sparse.linalg.spsolve(stability.cyclic_csc(diag, off),
                                       -state.grad_normal)


def solve_geodesic(config=None):
    """Solve for the closed geodesic; returns a canonicalized DiscreteCurve.

    Raises NonConvergence if the tolerances are not met within max_iters
    and CurveCollapse if an iterate degenerates.  Deterministic: identical
    configs give bitwise identical curves.
    """
    if config is None:
        config = SolveConfig()
    points = curve_mod._resample_points(seed_circle(config), config.M)
    state = _State(points)

    for _ in range(config.max_iters):
        if (state.residual <= config.grad_tol
                and state.spacing <= config.spacing_tol):
            c = curve_mod.canonicalize(curve_mod.DiscreteCurve(state.points))
            return c
        delta = _newton_direction(state)
        step = config.damping
        accepted = None
        for _ in range(40):
            try:
                trial = state.points + step * delta[:, None] * state.normals
                _check_alive(trial)
                trial = curve_mod._resample_points(trial, config.M)
                trial_state = _State(trial)
            except CurveCollapse:
                step *= 0.5
                continue
            if trial_state.residual < state.residual:
                accepted = trial_state
                break
            step *= 0.5
        if accepted is None:
            raise NonConvergence(
                "line search stalled at residual %.3e" % state.residual)
        state = accepted

    raise NonConvergence(
        "no convergence in %d iterations (residual %.3e, spacing %.3e)"
        % (config.max_iters, state.residual, state.spacing))
