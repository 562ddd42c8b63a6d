"""End-to-end acceptance checks at production resolution.

Each test measures one headline claim of the package at M = 2048 (with
lower resolutions where cross-M behavior is the claim) and records the
measured number for the summary block printed after the run.
"""

import time

import numpy as np
import scipy.linalg

import oracles
from oracles import assemble_Lk_ode
from shrinker_index import (DiscreteCurve, compute_index, discrete_length,
                            drift_diagnostic, potential_profiles)
from shrinker_index.asymptotics import high_k_estimate
from shrinker_index.spectral import classify_modes

# eigenvalues of -L_k at M = 2048, k = 0..3, lowest four per k,
# frozen from the converged pipeline
LAMBDA_2048 = {
    0: (-3.73965698, -0.99998145, -0.49999650, +0.99199758),
    1: (-0.99997152, -0.49993807, +0.00000351, +1.72697331),
    2: (-0.48762926, +0.86403182, +2.06670611, +3.71233427),
    3: (+0.11296571, +1.86256149, +3.51166663, +5.53593246),
}


def test_01_morse_index(pipe, note):
    t0 = time.time()
    report = compute_index(pipe.curve(2048))
    elapsed = time.time() - t0
    assert report.index == 5
    assert report.total_negative == 9
    assert sum(e["multiplicity"] for e in report.excluded) == 4
    assert elapsed < 120.0
    note("index 5 = 9 negative - 4 excluded, %.0f ms" % (elapsed * 1e3))


def test_02_eigenvalue_table(pipe, note):
    worst = 0.0
    for k in range(4):
        lam = pipe.eigenvalues(2048, k, 4)
        worst = max(worst, np.max(np.abs(lam - np.array(LAMBDA_2048[k]))))
    assert worst <= 1e-5
    note("16 eigenvalues at M=2048, max dev %.2e (tol 1e-5)" % worst)


def test_03_continuum_eigenvalues(pipe, note):
    crv = pipe.curve(2048)
    nf = pipe.normals(2048)
    modes0 = classify_modes(list(pipe.modes(2048, 0, 3)), crv, nf)
    modes1 = classify_modes(list(pipe.modes(2048, 1, 3)), crv, nf)
    expected = [
        (modes0[1], "dilation", -1.0),
        (modes0[2], "vertical_translation", -0.5),
        (modes1[0], "sigma_inverse", -1.0),
        (modes1[1], "horizontal_translation", -0.5),
        (modes1[2], "rotation", 0.0),
    ]
    worst = 0.0
    for mode, label, true in expected:
        assert mode.label == label
        worst = max(worst, abs(mode.eigenvalue - true))
    assert worst <= 5e-4
    note("5 labeled modes, max dev from exact %.2e (tol 5e-4)" % worst)


def test_04_convergence_rates(study16, note):
    slopes = [st.slope for st in study16]
    final_errors = [st.errors[-1] for st in study16]
    for slope in slopes:
        assert -2.1 <= slope <= -1.9
    for err in final_errors:
        assert abs(err) <= 5e-4
    pos = sum(1 for e in final_errors if e > 0)
    neg = sum(1 for e in final_errors if e < 0)
    assert pos > 0 and neg > 0
    note("slopes in [%.3f, %.3f], max |err@2048| %.2e, signs %d+/%d-"
         % (min(slopes), max(slopes), max(abs(e) for e in final_errors),
            pos, neg))


def test_05_discretization_cross_check(pipe, note):
    crv = pipe.curve(2048)
    worst = 0.0
    for k in range(4):
        ode = assemble_Lk_ode(crv, k)
        lam_ode = scipy.linalg.eigh(oracles.dense(ode), eigvals_only=True,
                                    subset_by_index=(0, 3))
        worst = max(worst, np.max(np.abs(lam_ode
                                         - pipe.eigenvalues(2048, k, 4))))
    assert worst <= 1e-3
    note("Hessian vs arc-length ODE, first 4 per k=0..3, max dev %.2e"
         % worst)


def test_06_quadratic_form_identity(pipe, note):
    crv = pipe.curve(2048)
    nf = pipe.normals(2048)
    a = oracles.dense(pipe.L0(2048))
    ell = discrete_length(crv)
    rng = np.random.default_rng(20240818)
    h = 1e-4
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(2048)
        u /= np.linalg.norm(u)
        quad = float(u @ a @ u) * ell / 2048
        disp = h * u[:, None] * nf
        lp = discrete_length(DiscreteCurve(crv.points + disp))
        lm = discrete_length(DiscreteCurve(crv.points - disp))
        fd = (lp - 2.0 * ell + lm) / h**2
        worst = max(worst, abs(quad - fd) / abs(fd))
    assert worst <= 1e-4
    note("20 random directions, worst rel %.2e (tol 1e-4)" % worst)


def _drift_onset(rows, threshold=0.5):
    for j, _, _, dev in rows:
        if dev < -threshold:
            return j
    return None


def test_07_spectral_drift(pipe, note):
    diags = {}
    for m in (512, 1024, 2048):
        lam = pipe.eigenvalues(m, 0, 201)
        diags[m] = drift_diagnostic(
            potential_profiles(pipe.evaluation(m), [0])[0], eigenvalues=lam)
    top_rows, exponent = diags[2048]
    assert 3.5 <= exponent <= 4.5
    assert all(dev < 0.0 for j, _, _, dev in top_rows if j >= 30)
    onsets = [_drift_onset(diags[m][0]) for m in (512, 1024, 2048)]
    assert None not in onsets
    assert onsets[0] < onsets[1] < onsets[2]
    note("exponent %.2f at M=2048, onsets %d < %d < %d"
         % (exponent, *onsets))


def test_08_high_k_ground_state(pipe, note):
    errors = {}
    for m in (1024, 2048):
        rel = []
        for k in (4, 8, 12, 16, 20):
            lam0 = pipe.eigenvalues(m, k, 1)[0]
            est = high_k_estimate(
                potential_profiles(pipe.evaluation(m), [k])[0], 0)
            rel.append(abs(lam0 - est) / abs(lam0))
            if k == 20:
                errors[m] = lam0 - est
        assert all(rel[i] > rel[i + 1] for i in range(4))
        assert rel[0] <= 0.5
        assert rel[1] <= 0.1
        assert rel[2] <= 2e-2
        assert rel[3] <= 5e-3
        assert rel[4] <= 2e-3
    # the estimate's absolute error neither vanishes nor converges in M
    assert abs(errors[1024]) > 0.01
    assert abs(errors[2048]) > 0.01
    assert 0.5 < errors[1024] / errors[2048] < 2.0
    assert abs(errors[1024] - errors[2048]) > 1e-5
    note("rel err falls to %.1e by k=20; abs err k=20: %+.4f (1024) "
         "%+.4f (2048)" % (rel[4], errors[1024], errors[2048]))


def test_09_segment_derivative_survey(fd_survey, note):
    assert fd_survey["count"] == 1000
    assert fd_survey["max_rel_grad"] <= 1e-6
    assert fd_survey["max_rel_hess"] <= 1e-6
    note("1000 segments, max rel grad %.2e hess %.2e (tol 1e-6)"
         % (fd_survey["max_rel_grad"], fd_survey["max_rel_hess"]))


def test_10_entropy_self_convergence(pipe, note):
    diff = abs(discrete_length(pipe.curve(2048))
               - discrete_length(pipe.curve(1024)))
    assert diff <= 1e-5
    note("|entropy(2048) - entropy(1024)| = %.2e (tol 1e-5)" % diff)
