"""Geodesic solver invariants.

Criticality and spacing are re-measured from scratch with the metric
primitives rather than trusting the solver's own reported residuals.
"""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from shrinker_index import (DiscreteCurve, Pipeline, compute_index,
                            discrete_length, solve_geodesic)
from shrinker_index import curve as curve_mod
from shrinker_index import solver, stability
from oracles import resample_points, resample_uniform, spacing_deviation
from shrinker_index.metric import segment_blocks
from shrinker_index.solver import CurveCollapse, NonConvergence


def _length_gradient(curve):
    """Gradient of the discrete length at every vertex, recomputed here."""
    pts = curve.points
    nxt = np.roll(pts, -1, axis=0)
    blocks = segment_blocks(pts, nxt)
    grad = blocks["grad_a"] + np.roll(blocks["grad_b"], 1, axis=0)
    return grad


@pytest.mark.parametrize("m", [128, 256])
def test_solution_is_critical_and_uniform(pipe, m):
    # critical in the normal direction; the tangential gradient components
    # are pinned by the uniform-spacing constraint instead and stay O(1/M^2)
    crv = pipe.curve(m)
    grad = _length_gradient(crv)
    normals = pipe.normals(m)
    assert np.max(np.abs(np.einsum("mi,mi->m", normals, grad))) < 1e-10
    assert np.max(np.linalg.norm(grad, axis=1)) < 1e-3
    assert spacing_deviation(crv) < 1e-8


def test_determinism_bitwise():
    a = solve_geodesic(96)
    b = solve_geodesic(96)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("m", [64, 65, 128, 2049, 8192])
def test_solution_is_mirror_symmetric(pipe, m):
    # point -m mod M is (r_m, -z_m) bit for bit, within both tolerances
    crv = pipe.curve(m)
    mirror = -np.arange(m) % m
    assert np.array_equal(crv.r[mirror], crv.r)
    assert np.array_equal(crv.z[mirror], -crv.z)
    state = stability.Evaluation(crv.points)
    assert state.residual <= stability.GRAD_TOL
    assert state.spacing <= stability.SPACING_TOL


def test_one_point_criticality(pipe):
    # move a single vertex along its normal: the length change must be even
    crv = pipe.curve(128)
    normal = pipe.normals(128)[7]
    h = 1e-6
    plus = crv.points.copy()
    plus[7] += h * normal
    minus = crv.points.copy()
    minus[7] -= h * normal
    odd = abs(discrete_length(DiscreteCurve(plus))
              - discrete_length(DiscreteCurve(minus))) / 2.0
    assert odd < 1e-13


def test_cross_resolution_consistency(pipe):
    devs = []
    for big, small in [(256, 128), (512, 256), (1024, 512)]:
        down = resample_uniform(pipe.curve(big), small)
        devs.append(np.max(np.linalg.norm(
            down.points - pipe.curve(small).points, axis=1)))
    # quadratic convergence: each halving cuts the deviation by about 4
    assert devs[0] / devs[1] == pytest.approx(4.0, abs=1.5)
    assert devs[1] / devs[2] == pytest.approx(4.0, abs=1.5)
    assert devs[0] < 1e-2


def test_entropy_ballpark(pipe):
    assert abs(discrete_length(pipe.curve(128)) - 1.8512185858) < 5e-3


def test_max_iters_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    with pytest.raises(NonConvergence, match="at M = 64$"):
        solve_geodesic(64)


@pytest.fixture
def counted(monkeypatch):
    """Counts of the solver's Newton steps (sparse solves) and evaluations
    (`stability.Evaluation`s: the first iterate and every trial)."""
    counts = {"steps": 0, "evals": 0}
    spsolve, evaluation = scipy.sparse.linalg.spsolve, stability.Evaluation

    def counted_spsolve(*args, **kwargs):
        counts["steps"] += 1
        return spsolve(*args, **kwargs)

    def counted_evaluation(*args):
        counts["evals"] += 1
        return evaluation(*args)

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counted_spsolve)
    monkeypatch.setattr(stability, "Evaluation", counted_evaluation)
    return counts


def test_coarse_solve_step_counts(counted):
    # the seed circle lies across the torus's cross-section, so Newton
    # solves the coarse level, M = 512, in 5 steps with 6 evaluations,
    # every full step accepted; from the cylinder's circle, inside it,
    # Newton takes 8 steps and 12 evaluations
    solve_geodesic(512)
    assert (counted["steps"], counted["evals"]) == (5, 6)


@pytest.mark.parametrize("m, steps", [(2049, 8), (8192, 10)])
def test_ladder_step_counts(counted, m, steps):
    # Newton steps over every level of the ladder; a wrong corner of the
    # folded step still converges, only in more steps
    solve_geodesic(m)
    assert counted["steps"] == steps


def _cyclic_step(state):
    """The Newton step of the full cyclic system N^T H N, solved dense."""
    m = len(state.diag)
    i = np.arange(m)
    hessian = np.diag(state.diag)
    hessian[i, (i + 1) % m] = hessian[(i + 1) % m, i] = state.up
    return np.linalg.solve(hessian, -state.grad_normal)


@pytest.mark.parametrize("m, level", [
    (m, level) for m, below in [(18, 19), (19, 18), (64, 32), (65, 33),
                                (512, 256), (513, 257)]
    for level in (None, below)])
def test_folded_step_is_the_cyclic_step(monkeypatch, m, level):
    # on a mirror-symmetric iterate N^T H N commutes with m -> -m mod M and
    # the gradient is even, so the step solved on the even mirror half,
    # y weighted by w, and unfolded is the step of the full cyclic system;
    # the iterates are the seed and a solved level resampled to m (the
    # level below, or a neighbour where that would be under 18 points)
    if level is None:
        points = solver.seed_circle(m)
    else:
        points = solve_geodesic(level).points
    halves = []
    spsolve = scipy.sparse.linalg.spsolve

    def recorded(*args, **kwargs):
        halves.append(spsolve(*args, **kwargs))
        return halves[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", recorded)
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    with pytest.raises(NonConvergence):
        solver._polish(points, m)
    # the solver's iterate, resampled on the half, is this closed one to
    # rounding
    resampled = resample_points(points, m)
    want = _cyclic_step(stability.Evaluation(
        0.5 * (resampled + curve_mod.mirror_points(resampled))))
    assert len(halves) == 1 and len(halves[0]) == m // 2 + 1
    rows = np.arange(m // 2 + 1)
    weight = np.where((rows == 0) | (2 * rows == m), 1.0, np.sqrt(0.5))
    got = (weight * halves[0])[np.minimum(np.arange(m), m - np.arange(m))]
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_line_search_stall_raises(monkeypatch, counted):
    # with no gradient tolerance to meet, the iteration runs on until no
    # step of the line search lowers the residual; the message names the
    # Newton steps run at the level, the stalled one included
    monkeypatch.setattr(stability, "GRAD_TOL", 0.0)
    with pytest.raises(NonConvergence) as raised:
        solve_geodesic(64)
    stalled = (r"^line search stalled at residual \S+ after %d Newton steps "
               r"at M = 64$" % counted["steps"])
    assert raised.match(stalled)


def test_line_search_rejects_a_trial_off_the_half_plane(monkeypatch):
    # from the cylinder's circle, radius 0.5 around (sqrt(2), 0), one full
    # Newton step at M = 64 crosses r = 0; the line search halves that
    # step instead of failing, and the solve reaches the default seed's
    # polygon
    want = solve_geodesic(64)
    collapsed = []
    check_alive = solver._check_alive

    def recorded(*args):
        try:
            check_alive(*args)
        except CurveCollapse as exc:
            collapsed.append(str(exc))
            raise

    monkeypatch.setattr(solver, "_check_alive", recorded)
    monkeypatch.setattr(solver, "SEED_CENTER", (np.sqrt(2.0), 0.0))
    monkeypatch.setattr(solver, "SEED_RADIUS", 0.5)
    got = solve_geodesic(64)
    assert collapsed == ["iterate left the half-plane at M = 64"]
    assert np.max(np.abs(got.points - want.points)) < 1e-8


def test_collapsed_seed_raises(monkeypatch):
    monkeypatch.setattr(solver, "SEED_RADIUS", 1e-13)
    with pytest.raises(CurveCollapse):
        solve_geodesic(128)


def test_config_validation():
    # the point count is the solve's only input
    with pytest.raises(ValueError):
        solve_geodesic(4)
    with pytest.raises(ValueError):
        solve_geodesic(7)
    with pytest.raises(ValueError):
        solve_geodesic(9)
    with pytest.raises(ValueError, match="at least 18"):
        solve_geodesic(17)


@pytest.mark.parametrize("m", range(18, 130))
def test_axis_points_are_critical(m):
    # below 18 points the normal at the axis points is the tangent, so the
    # solve would bound the gradient along the curve there, not across it
    crv = solve_geodesic(m)
    axis = [0] if m % 2 else [0, m // 2]
    assert np.all(crv.z[axis] == 0.0)
    # canonical: q_0 is the outer axis point and the curve rises after it
    assert np.argmax(crv.r) == 0 and crv.z[1] > 0.0
    assert np.max(np.abs(_length_gradient(crv)[axis, 0])) <= stability.GRAD_TOL
    # and the spectra take it: it passes Pipeline's solved-geodesic test
    assert Pipeline(crv).curve is crv


@pytest.mark.parametrize("m", [3001, 4096, 8192])
def test_ladder_solve_converges(pipe, m):
    # above solver.COARSE_M the solve climbs from a level 8 times coarser:
    # 8192 takes 5 Newton steps at 128, 3 at 1024 and 2 at 8192; from the
    # seed circle alone, 4096 and 8192 would take 9 and 15 steps
    crv = pipe.curve(m)
    assert crv.M == m
    state = stability.Evaluation(crv.points)
    assert state.residual <= stability.GRAD_TOL
    assert state.spacing <= stability.SPACING_TOL
    assert abs(discrete_length(crv) - 1.851216671682) < 1e-6
    assert np.argmax(crv.r) == 0 and crv.z[1] > 0.0
    assert np.array_equal(solve_geodesic(m).points, crv.points)


@pytest.mark.parametrize("m", [513, 1000, 1025, 2047, 2049, 3001, 4097,
                               5003, 8191, 12001])
def test_ladder_top_level_takes_few_steps(counted, monkeypatch, m):
    # Newton's step count does not grow with M (mesh independence), so from
    # a solved level 8 times coarser the top level takes at most 4 steps,
    # at any M and either parity, and the curve passes the spectra's tests
    starts = []
    polish = solver._polish

    def recorded(points, level):
        starts.append(counted["steps"])
        return polish(points, level)

    monkeypatch.setattr(solver, "_polish", recorded)
    crv = solve_geodesic(m)
    assert counted["steps"] - starts[-1] <= 4
    assert Pipeline(crv).curve is crv


def test_index_at_8192(pipe):
    assert compute_index(pipe.curve(8192)).index == 5


def test_ladder_levels_are_polished_resamplings(pipe):
    # 2048 climbs 256 -> 2048, so its last step is this polish
    assert np.array_equal(solver._polish(pipe.curve(256).points, 2048),
                          pipe.curve(2048).points)


@functools.lru_cache(maxsize=None)
def _standalone(m):
    """The points of a solve at m that shares no level with another."""
    return solve_geodesic(m).points


@pytest.mark.parametrize("m", [1025, 1100, 2049, 4097])
def test_ladder_levels_are_standalone_solves(polished, m):
    # every level the ladder of m polishes is bitwise the solve at that
    # count, which is what lets a study polish a shared level once
    crv = solve_geodesic(m)
    ladder = list(polished)
    assert ladder[-1][0] == m
    assert np.array_equal(ladder[-1][1], crv.points)
    for level, points in ladder:
        assert np.array_equal(points, _standalone(level))


def test_solved_levels_are_reused(polished, pipe):
    # the descent stops at the first level found in the dict, stores what
    # it polishes there, and a count found there is returned unpolished
    solved = {256: pipe.curve(256).points}
    pipe.curve(2048)
    polished.clear()
    crv = solve_geodesic(2048, solved)
    assert [level for level, _ in polished] == [2048]
    assert np.array_equal(crv.points, pipe.curve(2048).points)
    assert sorted(solved) == [256, 2048]
    assert np.array_equal(solved[2048], crv.points)
    assert np.array_equal(solve_geodesic(256, solved).points,
                          pipe.curve(256).points)
    assert len(polished) == 1


def _private_uses(path, modules):
    """(module, name) of each private name path takes from the modules."""
    tree = ast.parse(path.read_text())
    aliases = {}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif node.module in modules and alias.name.startswith("_"):
                    uses.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            uses.add((aliases[node.value.id], node.attr))
    return uses


def test_private_functions_stay_in_their_module():
    # each step of the chain has one owner: across modules, only the
    # solver reaches a private function, the resampling of its ladder; the
    # length's derivatives are read through the public stability.Evaluation
    package = Path(solver.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    uses = {(path.stem,) + use for path in sorted(package.glob("*.py"))
            for use in _private_uses(path, modules)}
    assert uses == {("solver", "curve", "_resample_half")}


def _imported_modules(path):
    """Dotted names of the absolute imports of the module at path; a
    `from a import b` gives both a and a.b."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(node.module + "." + alias.name
                         for alias in node.names)
    return names


def test_only_the_solver_imports_scipy_sparse():
    # the Newton matrix is the solver's own: no other module needs sparse
    # storage, every operator of the spectra is kept as its two bands
    package = Path(solver.__file__).parent
    owners = {path.stem for path in package.glob("*.py")
              if any((name + ".").startswith("scipy.sparse.")
                     for name in _imported_modules(path))}
    assert owners == {"solver"}
