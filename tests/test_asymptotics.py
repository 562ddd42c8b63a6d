"""Potential profiles, eigenvalue laws and the discrete drift diagnostic."""

import numpy as np
import pytest

from shrinker_index import (cli, drift_diagnostic, potential_profile,
                            write_curve)
from shrinker_index.asymptotics import (NoWell, SchrodingerProfile,
                                        high_j_estimate, high_k_estimate)
from shrinker_index.metric import sigma


def test_mode_shift_of_potential(pipe):
    crv = pipe.curve(256)
    p0 = potential_profile(crv, 0)
    p3 = potential_profile(crv, 3)
    assert np.allclose(p3.V - p0.V, 9.0 / crv.r**2, rtol=1e-12, atol=0)


def test_arc_length_quadrature(pipe):
    # sum of dt/sigma approximates the Euclidean length of the curve
    crv = pipe.curve(1024)
    p = potential_profile(crv, 0)
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
    p = potential_profile(pipe.curve(512), k)
    assert p.argmin_index in (0, 1, 511)
    assert p.Vpp0 > 0.0


def test_free_circle_law_at_zero_is_average(pipe):
    p = potential_profile(pipe.curve(256), 0)
    assert high_j_estimate(p, 0) == p.V_avg


def test_oscillator_ladder_spacing(pipe):
    p = potential_profile(pipe.curve(512), 3)
    gap = high_k_estimate(p, 1) - high_k_estimate(p, 0)
    assert np.isclose(gap, 2.0 * np.sqrt(p.Vpp0 / 2.0), rtol=1e-12)


def test_ground_state_sits_above_well_bottom(pipe):
    for k in range(2, 7):
        p = potential_profile(pipe.curve(512), k)
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
    crv = pipe.curve(1024)
    p = potential_profile(crv, 0)
    lam = pipe.eigenvalues(1024, 0, 21)
    est = high_j_estimate(p, 10)
    assert abs(lam[20] - est) / abs(est) < 1e-2


def test_law_error_shrinks_before_drift_onset(pipe):
    # at fixed M the relative law error decays with j until the grid-scale
    # drift takes over
    crv = pipe.curve(2048)
    p = potential_profile(crv, 0)
    lam = pipe.eigenvalues(2048, 0, 37)
    rel = np.array([abs(lam[2 * j] - high_j_estimate(p, j))
                    / abs(high_j_estimate(p, j)) for j in range(5, 19)])
    early = rel[:7].mean()   # j = 5..11
    late = rel[7:].mean()    # j = 12..18
    assert early > late


def test_drift_diagnostic(pipe):
    crv = pipe.curve(1024)
    lam = pipe.eigenvalues(1024, 0, 201)
    diag = drift_diagnostic(potential_profile(crv, 0), eigenvalues=lam)
    assert diag.fit_range == (10, 100)
    assert len(diag.rows) == 100
    assert 3.5 < diag.exponent < 4.5
    tail = [dev for j, _, _, dev in diag.rows if j >= 30]
    assert all(dev < 0.0 for dev in tail)
    for j, lam_j, est, dev in diag.rows[:3]:
        assert dev == lam_j - est


def test_drift_diagnostic_validation(pipe):
    crv = pipe.curve(1024)
    with pytest.raises(ValueError):
        drift_diagnostic(potential_profile(crv, 0), eigenvalues=[0.0] * 20)
    with pytest.raises(ValueError):
        drift_diagnostic(potential_profile(crv, 0), eigenvalues=[])


def test_no_well_raises():
    p = SchrodingerProfile(k=5, s=np.zeros(4), V=np.zeros(4), V_avg=0.0,
                           euclidean_length=1.0, argmin_index=0,
                           V0=0.0, Vpp0=-1.0)
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
    p = potential_profile(crv, 2)
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
