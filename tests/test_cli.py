"""Command line driver, exercised in process through cli.main."""

import json
import re

import numpy as np
import pytest

from shrinker_index import DiscreteCurve, write_curve
from shrinker_index.cli import main


@pytest.fixture(scope="module")
def curve_csv(tmp_path_factory):
    """A solved M = 64 curve CSV, produced once through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "curve64.csv"
    rc = main(["solve", "--points", "64", "--out", str(path)])
    assert rc == 0
    return str(path)


def test_solve_output(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main(["solve", "--points", "64", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    match = re.match(r"entropy ([0-9.e+-]+) M 64$", captured.out.strip())
    assert match
    assert abs(float(match.group(1)) - 1.8512185858) < 5e-3

    again = tmp_path / "c2.csv"
    rc = main(["solve", "--points", "64", "--out", str(again)])
    assert rc == 0
    assert out.read_bytes() == again.read_bytes()


def test_spectrum_stdout_json(curve_csv, capsys):
    rc = main(["spectrum", "--curve", curve_csv, "--k", "1",
               "--count", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["M"] == 64
    assert report["k"] == 1
    assert len(report["eigenvalues"]) == 5
    assert report["eigenvalues"] == sorted(report["eigenvalues"])
    assert report["labels"][0] == "sigma_inverse"
    assert max(report["residuals"]) < 1e-10


def test_spectrum_file_outputs(curve_csv, tmp_path, capsys):
    out = tmp_path / "spec.json"
    csv_out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--curve", curve_csv, "--count", "4",
               "--out", str(out), "--csv", str(csv_out)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["k"] == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "j,eigenvalue,label,residual"
    assert len(lines) == 5
    assert lines[1].split(",")[2] == "generic"


def test_index_from_fresh_solve(tmp_path, capsys):
    out = tmp_path / "index.json"
    rc = main(["index", "--points", "128", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "index 5 (9 negative, 4 excluded)"
    report = json.loads(out.read_text())
    assert report["index"] == 5


def test_index_from_curve_file(curve_csv, capsys):
    rc = main(["index", "--curve", curve_csv])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "index 5 (9 negative, 4 excluded)"


def test_index_rejects_random_polygon(tmp_path, capsys):
    rng = np.random.default_rng(5)
    bad = DiscreteCurve(np.column_stack([rng.uniform(0.5, 3.0, 64),
                                         rng.uniform(-1.0, 1.0, 64)]))
    path = tmp_path / "bad.csv"
    write_curve(bad, path)
    rc = main(["index", "--curve", str(path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error: consistency:")


def test_missing_curve_file(capsys):
    rc = main(["spectrum", "--curve", "/no/such/file.csv"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: runtime:")


def test_malformed_curve_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("r,z\n1.0,0.0\n")
    rc = main(["index", "--curve", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: runtime:")


@pytest.mark.parametrize("argv,needle", [
    (["solve", "--points", "0", "--out", "x.csv"], "--points"),
    (["spectrum", "--curve", "x.csv", "--k", "-1"], "--k"),
    (["spectrum", "--curve", "x.csv", "--count", "0"], "--count"),
    (["index", "--count", "0"], "--count"),
    (["asymptotics", "--curve", "x.csv", "--j-max", "5", "--out", "d"],
     "--j-max"),
    (["render", "--curve", "x.csv", "--ntheta", "2", "--out", "p"],
     "--ntheta"),
    (["convergence", "--points-list", "32,64", "--out", "d"],
     "--points-list"),
    (["convergence", "--points-list", "32,sixty,128", "--out", "d"],
     "--points-list"),
    (["convergence", "--points-list", "4,64,128", "--out", "d"],
     "--points-list"),
    ([], "subcommand"),
    (["convergence", "--points-list", "64,64,128", "--out", "d"],
     "at least 3 distinct resolutions"),
    (["convergence", "--points-list", "64,128,128", "--out", "d"],
     "at least 3 distinct resolutions"),
    (["asymptotics", "--curve", "x.csv", "--k-scan", "1", "--out", "d"],
     "--k-scan must be 0 or at least 2"),
    (["asymptotics", "--curve", "x.csv", "--k-scan", "-2", "--out", "d"],
     "--k-scan must be 0 or at least 2"),
])
def test_usage_errors(argv, needle, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: usage:")
    assert needle in captured.err


@pytest.mark.parametrize("argv,needle", [
    (["spectrum", "--count", "64"],
     "--count must be less than the number of curve points"),
    (["render", "--j", "63", "--out", "p"],
     "--j must be less than the number of curve points minus 1"),
    (["asymptotics", "--j-max", "32", "--out", "d"],
     "--j-max must be less than half"),
])
def test_mode_count_limited_by_curve_size(curve_csv, argv, needle, capsys):
    # the eigensolver computes at most M - 1 modes of an M-point curve
    rc = main(argv[:1] + ["--curve", curve_csv] + argv[1:])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: usage:")
    assert needle in captured.err


def test_asymptotics_outputs(curve_csv, tmp_path, capsys):
    out = tmp_path / "asy"
    rc = main(["asymptotics", "--curve", curve_csv, "--j-max", "10",
               "--k-scan", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("V_avg ")
    assert "drift_exponent" in captured.out

    profile = (out / "profile_k0.csv").read_text().strip().split("\n")
    assert profile[0] == "m,s,V"
    assert len(profile) == 65

    drift = (out / "drift_k0.csv").read_text().strip().split("\n")
    assert drift[0] == "j,lambda,estimate,deviation"
    assert len(drift) == 11

    ground = (out / "groundstate.csv").read_text().strip().split("\n")
    assert ground[0] == "k,lambda0,estimate,deviation"
    assert [row.split(",")[0] for row in ground[1:]] == ["2", "3"]


def test_convergence_outputs(tmp_path, capsys):
    out = tmp_path / "study"
    rc = main(["convergence", "--points-list", "32,64,128",
               "--k-max", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    for m in (32, 64, 128):
        assert ("solved M = %d" % m) in captured.out

    slopes = json.loads((out / "slopes.json").read_text())
    assert set(slopes) == {"lambda_k0_j0", "lambda_k0_j1", "lambda_k0_j2",
                           "lambda_k0_j3", "entropy"}
    table = (out / "table.csv").read_text().strip().split("\n")
    assert table[0] == "k,j,computed,true_value,error,true_known,slope"
    assert len(table) == 5
    study = (out / "study.csv").read_text().strip().split("\n")
    assert len(study) == 1 + 5 * 3
    for name in slopes:
        ll = (out / ("loglog_%s.csv" % name)).read_text()
        assert ll.startswith("M,log10_M,abs_error,log10_abs_error")
    assert (out / "table.txt").read_text().strip()


def test_render_outputs(curve_csv, tmp_path, capsys):
    prefix = tmp_path / "torus"
    rc = main(["render", "--curve", curve_csv, "--k", "1", "--j", "1",
               "--ntheta", "8", "--sin", "--out", str(prefix)])
    capsys.readouterr()
    assert rc == 0
    svg = (prefix.parent / "torus.svg").read_text()
    assert svg.count("<path") == 2
    obj = (prefix.parent / "torus.obj").read_text()
    v_lines = [ln for ln in obj.split("\n") if ln.startswith("v ")]
    f_lines = [ln for ln in obj.split("\n") if ln.startswith("f ")]
    assert len(v_lines) == 64 * 8
    assert len(f_lines) == 2 * 64 * 8


def test_render_plain(curve_csv, tmp_path, capsys):
    prefix = tmp_path / "plain"
    rc = main(["render", "--curve", curve_csv, "--ntheta", "6",
               "--out", str(prefix)])
    capsys.readouterr()
    assert rc == 0
    svg = (prefix.parent / "plain.svg").read_text()
    assert svg.count("<path") == 1
