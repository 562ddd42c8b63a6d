"""Potential profiles, eigenvalue laws and the discrete drift diagnostic."""

import numpy as np
import pytest

import oracles
from shrinker_index import (Evaluation, cli, drift_diagnostic,
                            potential_profiles, write_curve)
from shrinker_index.asymptotics import (NoWell, SchrodingerProfile,
                                        high_j_estimate, high_k_estimate)
from shrinker_index.metric import sigma


def test_mode_shift_of_potential(pipe):
    crv = pipe.curve(256)
    p0 = potential_profiles(pipe.evaluation(256), [0])[0]
    p3 = potential_profiles(pipe.evaluation(256), [3])[0]
    assert np.allclose(p3.V - p0.V, 9.0 / crv.r**2, rtol=1e-12, atol=0)


def test_closed_form_matches_finite_differences_to_second_order(pipe):
    # the finite-difference potential approaches the closed form as M^-2
    gaps = [np.abs(oracles.potential_fd(pipe.curve(m).points, 2)
                   - potential_profiles(pipe.evaluation(m), [2])[0].V).max()
            for m in (512, 1024, 2048, 4096)]
    ratios = np.array(gaps[:-1]) / gaps[1:]
    assert np.all(np.abs(ratios - 4.0) <= 0.2), ratios


def test_well_estimates_ignore_last_bit_moves(pipe):
    # moving the points by rounding-level amounts moves no ground-state
    # estimate by more than 1e-9
    half = pipe.curve(2048).points[:1025]
    rng = np.random.default_rng(36)
    moved = Evaluation(half * (1.0 + 1e-15 * rng.standard_normal(
        half.shape)), 2048).unfold()
    for k in range(2, 21):
        est = high_k_estimate(
            potential_profiles(pipe.evaluation(2048), [k])[0], 0)
        assert abs(high_k_estimate(potential_profiles(moved, [k])[0], 0)
                   - est) <= 1e-9


def test_well_estimate_converged_at_2048(pipe):
    est = [high_k_estimate(potential_profiles(pipe.evaluation(m), [2])[0], 0)
           for m in (2048, 4096)]
    assert abs(est[0] - est[1]) <= 1e-5


def test_arc_length_quadrature(pipe):
    # sum of dt/sigma approximates the Euclidean length of the curve
    crv = pipe.curve(1024)
    p = potential_profiles(pipe.evaluation(1024), [0])[0]
    from shrinker_index import discrete_length
    dt = discrete_length(crv) / crv.M
    quad = float(np.sum(dt / sigma(crv.points)))
    assert abs(quad - p.euclidean_length) / p.euclidean_length < 1e-4
    assert abs(p.euclidean_length - 7.5084) < 1e-2
    assert p.s[0] == 0.0
    assert np.all(np.diff(p.s) > 0.0)


@pytest.mark.parametrize("k", [2, 4])
def test_well_sits_at_widest_point(pipe, k):
    # canonical indexing starts at the largest radius, where the well bottoms
    p = potential_profiles(pipe.evaluation(512), [k])[0]
    assert np.argmin(p.V) in (0, 1, 511)
    assert p.Vpp0 > 0.0


def test_free_circle_law_at_zero_is_average(pipe):
    p = potential_profiles(pipe.evaluation(256), [0])[0]
    assert high_j_estimate(p, 0) == p.V_avg


def test_oscillator_ladder_spacing(pipe):
    p = potential_profiles(pipe.evaluation(512), [3])[0]
    gap = high_k_estimate(p, 1) - high_k_estimate(p, 0)
    assert np.isclose(gap, 2.0 * np.sqrt(p.Vpp0 / 2.0), rtol=1e-12)


def test_ground_state_sits_above_well_bottom(pipe):
    for k in range(2, 7):
        p = potential_profiles(pipe.evaluation(512), [k])[0]
        lam0 = pipe.eigenvalues(512, k, 1)[0]
        assert p.Vpp0 > 0.0
        assert lam0 - p.V0 > 0.0


def test_high_modes_pair_up(pipe):
    lam = pipe.eigenvalues(1024, 0, 101)
    worst = 0.0
    for j in range(5, 51):
        pair_rel = abs(lam[2 * j] - lam[2 * j - 1]) / abs(lam[2 * j])
        worst = max(worst, pair_rel)
    assert worst < 1e-2


def test_free_circle_law_midrange(pipe):
    p = potential_profiles(pipe.evaluation(1024), [0])[0]
    lam = pipe.eigenvalues(1024, 0, 21)
    est = high_j_estimate(p, 10)
    assert abs(lam[20] - est) / abs(est) < 1e-2


def test_law_error_shrinks_before_drift_onset(pipe):
    # at fixed M the relative law error decays with j until the grid-scale
    # drift takes over
    p = potential_profiles(pipe.evaluation(2048), [0])[0]
    lam = pipe.eigenvalues(2048, 0, 37)
    rel = np.array([abs(lam[2 * j] - high_j_estimate(p, j))
                    / abs(high_j_estimate(p, j)) for j in range(5, 19)])
    early = rel[:7].mean()   # j = 5..11
    late = rel[7:].mean()    # j = 12..18
    assert early > late


def test_drift_diagnostic(pipe):
    lam = pipe.eigenvalues(1024, 0, 201)
    rows, exponent = drift_diagnostic(
        potential_profiles(pipe.evaluation(1024), [0])[0], eigenvalues=lam)
    assert len(rows) == 100
    assert 3.5 < exponent < 4.5
    # the fit window is the last decade, j = 10..100
    decade = [(j, abs(dev)) for j, _, _, dev in rows if j >= 10]
    assert exponent == float(np.polyfit(np.log10([j for j, _ in decade]),
                                        np.log10([d for _, d in decade]),
                                        1)[0])
    tail = [dev for j, _, _, dev in rows if j >= 30]
    assert all(dev < 0.0 for dev in tail)
    for j, lam_j, est, dev in rows[:3]:
        assert dev == lam_j - est


def test_drift_diagnostic_validation(pipe):
    p = potential_profiles(pipe.evaluation(1024), [0])[0]
    with pytest.raises(ValueError):
        drift_diagnostic(p, eigenvalues=[0.0] * 20)
    with pytest.raises(ValueError):
        drift_diagnostic(p, eigenvalues=[])


def test_no_well_raises():
    p = SchrodingerProfile(s=np.zeros(4), V=np.zeros(4), V_avg=0.0,
                           euclidean_length=1.0, V0=0.0, Vpp0=-1.0)
    with pytest.raises(NoWell):
        high_k_estimate(p, 0)


def test_csv_formats(pipe, tmp_path, capsys):
    crv = pipe.curve(128)
    path = str(tmp_path / "curve.csv")
    write_curve(crv, path)
    out = tmp_path / "out"
    assert cli.main(["asymptotics", "--curve", path, "--k", "2",
                     "--j-max", "10", "--out", str(out)]) == 0
    assert cli.main(["asymptotics", "--curve", path, "--k", "0",
                     "--j-max", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    p = potential_profiles(pipe.evaluation(128), [2])[0]
    lines = (out / "profile_k2.csv").read_text().strip().split("\n")
    assert lines[0] == "m,s,V"
    assert len(lines) == 129
    row = lines[5].split(",")
    assert int(row[0]) == 4
    assert float(row[2]) == p.V[4]

    dlines = (out / "drift_k0.csv").read_text().strip().split("\n")
    assert dlines[0] == "j,lambda,estimate,deviation"
    assert len(dlines) == 11
    j, lam_j, est, dev = dlines[1].split(",")
    assert int(j) == 1
    assert np.isclose(float(lam_j) - float(est), float(dev), rtol=1e-12)
