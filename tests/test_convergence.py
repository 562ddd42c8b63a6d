"""Refinement studies and log-log fitting."""

import json

import numpy as np
import pytest

from shrinker_index import (Pipeline, cli, convergence, discrete_length,
                            fit_loglog, run_study, solve_geodesic)
from shrinker_index.convergence import DegenerateFit

M_SYNTH = (64, 128, 256, 512)


def test_fit_known_truth_recovers_slope():
    est = [3.0 + 5.0 / m**2 for m in M_SYNTH]
    slope, true_value = fit_loglog(M_SYNTH, est, true_value=3.0)
    assert abs(slope + 2.0) < 1e-6
    assert true_value == 3.0


@pytest.mark.parametrize("m_values", [M_SYNTH, (64, 96, 128, 192)])
def test_fit_unknown_truth_pure_power(m_values):
    est = [3.0 + 5.0 / m**2 for m in m_values]
    slope, true_value = fit_loglog(m_values, est)
    assert abs(true_value - 3.0) < 1e-8
    assert abs(slope + 2.0) < 1e-4


def test_fit_unknown_truth_mixed_terms():
    est = [1.7 + 1.0 / m**2 + 0.5 / m**3 for m in M_SYNTH]
    slope, true_value = fit_loglog(M_SYNTH, est)
    assert abs(true_value - 1.7) < 1e-6
    assert -2.1 < slope < -1.9


def test_fit_degenerate_cases():
    with pytest.raises(DegenerateFit):
        fit_loglog(M_SYNTH, [3.0, 3.0, 3.0, 3.0], true_value=3.0)
    with pytest.raises(DegenerateFit):
        fit_loglog(M_SYNTH, [3.0, 3.0, 3.0, 3.0])


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_loglog((64, 128), [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog(M_SYNTH, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_loglog((64, 128, 128), [1.0, 2.0, 3.0])


def test_small_study_smoke():
    seen = []
    studies = run_study(0, m_values=(64, 128, 256), progress=seen.append)
    assert seen == [64, 128, 256]
    assert len(studies) == 5
    by_quantity = {st.quantity: st for st in studies}

    lam01 = by_quantity[(0, 1)]
    assert lam01.true_known
    assert lam01.true_value == -1.0

    lam00 = by_quantity[(0, 0)]
    assert not lam00.true_known
    assert -2.5 < lam00.slope < -1.5

    ent = by_quantity["entropy"]
    assert not ent.true_known
    assert len(ent.estimates) == 3
    assert len(ent.errors) == 3


def test_run_study_grid_order_and_estimates():
    # k <= k_max with j = 0..3 in order, then entropy; every estimate is
    # bitwise the one scan and the discrete length of a fresh solve at M
    seen = []
    studies = run_study(1, m_values=(64, 96, 128), progress=seen.append)
    assert seen == [64, 96, 128]
    assert [st.quantity for st in studies] == [
        (k, j) for k in range(2) for j in range(4)] + ["entropy"]
    expected = {}
    for m in (64, 96, 128):
        crv = solve_geodesic(m)
        for mode in Pipeline(crv).scan(range(2), 4):
            expected.setdefault((mode.k, mode.j), []).append(mode.eigenvalue)
        expected.setdefault("entropy", []).append(discrete_length(crv))
    for st in studies:
        assert st.M_values == (64, 96, 128)
        assert st.estimates == tuple(expected[st.quantity])
        assert st.true_known == (st.quantity in convergence.KNOWN_TRUE)


def test_run_study_overlapping_ladders_match_fresh_solves(polished):
    # 600 climbs from 75, 2400 from 300, and 4800 through 600 and 75, so
    # the study polishes each of 75, 600, 300, 2400 and 4800 once, and
    # every estimate is bitwise the one scan of a fresh solve at M
    studies = run_study(0, m_values=(600, 2400, 4800))
    assert [m for m, _ in polished] == [75, 600, 300, 2400, 4800]
    expected = {}
    for m in (600, 2400, 4800):
        crv = solve_geodesic(m)
        for mode in Pipeline(crv).scan(range(1), 4):
            expected.setdefault((mode.k, mode.j), []).append(mode.eigenvalue)
        expected.setdefault("entropy", []).append(discrete_length(crv))
    assert [st.quantity for st in studies] == [
        (0, j) for j in range(4)] + ["entropy"]
    for st in studies:
        assert st.estimates == tuple(expected[st.quantity])


def test_large_m_differences_quarter_with_each_doubling(pipe):
    # every level of the ladder stops close enough to its floor that the
    # eigenvalues still converge as M^-2 up to M = 32768: successive
    # differences of lambda(0, 0) and lambda(2, 0) fall by 4, and the
    # rotation mode, exactly 0 in the continuum, keeps its positive sign
    lam = {}
    for m in (8192, 16384, 32768):
        for mode in Pipeline(pipe.curve(m)).scan([0, 1, 2], 3):
            lam[mode.k, mode.j, m] = mode
    for k in (0, 2):
        e = [lam[k, 0, m].eigenvalue for m in (8192, 16384, 32768)]
        assert abs((e[0] - e[1]) / (e[1] - e[2]) - 4.0) <= 0.05
    rotation = lam[1, 2, 32768]
    assert rotation.label == "rotation" and rotation.eigenvalue > 0.0


def test_default_study_polishes_each_level_once(polished):
    # one polish per resolution: 1024 and 2048 climb from the study's own
    # 128 and 256, which are reused, not re-solved
    run_study(0)
    assert [m for m, _ in polished] == [128, 256, 512, 1024, 2048]


def test_study_error_signs_stable(study16):
    # the discretization bias never changes sign as M grows
    for st in study16:
        signs = np.sign(st.errors)
        assert np.all(signs == signs[0])
        assert signs[0] != 0


def test_study_error_ratios_near_four(study16):
    for st in study16:
        errs = np.abs(st.errors)
        ratios = errs[:-1] / errs[1:]
        assert 3.5 < np.mean(ratios) < 4.5


# Fourier collocation of the continuum operator at N = 256 points
# (Trefethen, Spectral Methods in MATLAB, ch. 3), keyed by (k, j).
COLLOCATION_REFERENCE = {
    (0, 0): -3.73976012324, (0, 3): 0.99199453233,
    (1, 3): 1.72695488794,
    (2, 0): -0.48764685558, (2, 1): 0.86402874621,
    (2, 2): 2.06671605104, (2, 3): 3.7123555112,
    (3, 0): 0.1129486608, (3, 1): 1.86256033772,
    (3, 2): 3.51168927216, (3, 3): 5.53597833708,
}


def test_fitted_true_values_match_reference(study16):
    fitted = {st.quantity: st.true_value
              for st in study16 if not st.true_known}
    assert fitted.keys() == COLLOCATION_REFERENCE.keys()
    for q, ref in COLLOCATION_REFERENCE.items():
        assert abs(fitted[q] - ref) < 1e-7, q


def _cli_study16(study16, out, capsys, monkeypatch):
    """Run the convergence command on the precomputed 16 studies."""
    monkeypatch.setattr(convergence, "run_study", lambda *a, **kw: study16)
    assert cli.main(["convergence", "--points-list", "128,256,512,1024,2048",
                     "--out", str(out)]) == 0
    return capsys.readouterr().out


def test_table_report_round_trip(study16, tmp_path, capsys, monkeypatch):
    printed = _cli_study16(study16, tmp_path, capsys, monkeypatch)
    table = (tmp_path / "table.csv").read_text().strip().split("\n")
    rows = [row.split(",") for row in table[1:]]
    assert len(rows) == 16
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (k, j) for k in range(4) for j in range(4)]
    row01 = rows[1]
    assert row01[:2] == ["0", "1"]
    assert float(row01[3]) == -1.0
    assert row01[5] == "exact"
    assert abs(float(row01[2]) - float(row01[3]) - float(row01[4])) < 1e-15
    assert rows[0][5] == "fitted"
    # the text table carries the same 16 rows and is the one printed
    text = (tmp_path / "table.txt").read_text()
    assert len(text.strip().split("\n")) == 18
    assert text == printed


def test_flat_csv_formats(study16, tmp_path, capsys, monkeypatch):
    _cli_study16(study16, tmp_path, capsys, monkeypatch)
    slopes = json.loads((tmp_path / "slopes.json").read_text())
    assert list(slopes) == ["lambda_k%d_j%d" % (k, j)
                            for k in range(4) for j in range(4)]
    flat = (tmp_path / "study.csv").read_text().strip().split("\n")
    assert flat[0] == "quantity,M,estimate,true_value,abs_error"
    assert len(flat) == 1 + 16 * 5
    first = flat[1].split(",")
    assert first[0] == "lambda_k0_j0"
    assert int(first[1]) == 128
    assert float(first[4]) >= 0.0

    ll = (tmp_path / "loglog_lambda_k0_j0.csv").read_text().strip().split("\n")
    assert ll[0] == "M,log10_M,abs_error,log10_abs_error"
    assert len(ll) == 6
    row = ll[1].split(",")
    assert np.isclose(float(row[1]), np.log10(float(row[0])))
    assert np.isclose(float(row[3]), np.log10(float(row[2])))
