"""Command line driver, exercised in process through cli.main."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from shrinker_index import (DiscreteCurve, Pipeline, cli, drift_diagnostic,
                            potential_profile, read_curve, write_curve)
from shrinker_index.cli import main
from shrinker_index.render import obj_surface, svg_cross_section

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert len(report["labels"]) == len(report["residuals"]) == 5
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
    assert report["total"] == 9
    assert report["per_k"][0]["k"] == 0
    assert len(report["per_k"][0]["negative_eigenvalues"]) == 3


def test_index_from_curve_file(curve_csv, capsys):
    rc = main(["index", "--curve", curve_csv])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "index 5 (9 negative, 4 excluded)"


def test_index_names_the_point_count_below_60(capsys):
    # below M = 60 the horizontal translation's cosine to its template is
    # under CLASSIFY_COSINE, so the index refuses and says at which M
    rc = main(["index", "--points", "59"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "at M = 59" in captured.err
    rc = main(["index", "--points", "60"])
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


@pytest.mark.parametrize("perturbation", ["roll", "ulp"])
def test_index_rejects_asymmetric_curve(curve_csv, tmp_path, capsys,
                                        perturbation):
    # the spectra fold on point -m mod M = (r_m, -z_m); a solved curve
    # rolled off its axis point, or with one z off by one ulp, breaks that
    pts = read_curve(curve_csv).points
    if perturbation == "roll":
        pts = np.roll(pts, 1, axis=0)
    else:
        pts[5, 1] = np.nextafter(pts[5, 1], np.inf)
    path = tmp_path / "asym.csv"
    write_curve(DiscreteCurve(pts), path)
    rc = main(["index", "--curve", str(path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error: consistency:")


@pytest.mark.parametrize("argv", [
    ["asymptotics", "--j-max", "10", "--out", "{out}/asy"],
    ["spectrum", "--out", "{out}/spec.json", "--csv", "{out}/spec.csv"],
    ["render", "--j", "0", "--out", "{out}/r"],
])
def test_asymmetric_curve_refused_before_any_output(curve_csv, tmp_path,
                                                    capsys, argv):
    # every command that takes spectra refuses the rolled curve before it
    # writes a file or makes a directory
    path = tmp_path / "asym.csv"
    write_curve(DiscreteCurve(np.roll(read_curve(curve_csv).points, 1,
                                      axis=0)), path)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(argv[:1] + ["--curve", str(path)]
              + [a.format(out=out) for a in argv[1:]])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith("error: consistency:")
    assert list(out.iterdir()) == []


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
    (["index", "--count", "0"], "unrecognized arguments: --count"),
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
    (["solve", "--points", "64", "--grad-tol", "inf", "--out", "x.csv"],
     "unrecognized arguments: --grad-tol"),
    (["solve", "--grad-tol", "nan", "--out", "x.csv"],
     "unrecognized arguments: --grad-tol"),
    (["solve", "--seed-r", "nan", "--out", "x.csv"],
     "unrecognized arguments: --seed-r"),
    (["solve", "--seed-z", "inf", "--out", "x.csv"],
     "unrecognized arguments: --seed-z"),
    (["index", "--seed-radius=-inf"],
     "unrecognized arguments: --seed-radius"),
    (["render", "--curve", "x.csv", "--j", "0", "--epsilon", "nan",
      "--out", "p"], "--epsilon: must be finite"),
    (["render", "--curve", "/no/such.csv", "--j", "-1", "--out", "p"],
     "--j"),
    (["index", "--curve", "/no/such.csv", "--points", "0"], "--points"),
    (["convergence", "--points-list", "64,128,256,256", "--out", "d"],
     "--points-list must not repeat a resolution"),
    (["index", "--curve", "curve64.csv", "--points", "4096"], "--points"),
    (["render", "--curve", "x.csv", "--epsilon", "abc", "--out", "p"],
     "--epsilon: invalid float value"),
    (["solve", "--points", "9", "--out", "x.csv"], "--points"),
    (["spectrum", "--curve", "x.csv", "--k", str(10 ** 160)],
     "--k: must be at most"),
    (["render", "--curve", "x.csv", "--k", str(10 ** 160), "--j", "0",
      "--out", "p"], "--k: must be at most"),
    (["asymptotics", "--curve", "x.csv", "--k", str(10 ** 160),
      "--out", "d"], "--k: must be at most"),
    (["convergence", "--k-max", "-1", "--out", "d"], "--k-max"),
    (["asymptotics", "--curve", "x.csv", "--k", "-1", "--out", "d"], "--k"),
    (["render", "--curve", "x.csv", "--k", "-1", "--out", "p"], "--k"),
    (["solve", "--points", "17", "--out", "x.csv"], "--points"),
    (["asymptotics", "--curve", "x.csv", "--k-scan", str(10 ** 160),
      "--out", "d"], "--k-scan must be at most 67108864"),
    (["convergence", "--k-max", "67108865", "--out", "d"],
     "--k-max: must be at most"),
])
def test_usage_errors(argv, needle, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: usage:")
    assert needle in captured.err
    assert not any(tmp_path.iterdir())


def test_readme_commands_parse():
    # every documented command line must name only flags the parser has
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").split("\n")
    commands = [shlex.split(ln)[1:] for ln in lines
                if ln.startswith("shrinker-index ")]
    assert len(commands) == 6
    parser = cli._build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_readme_library_example(capsys):
    # the Library block prints what its comments say
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                          re.M | re.S)
    exec(block, {})
    lines = capsys.readouterr().out.split("\n")
    assert lines[0].startswith("[-0.4876")
    assert lines[1] == "['sigma_inverse', 'horizontal_translation', 'rotation']"
    assert lines[2] == "5"


def test_main_dispatches_through_command_table(monkeypatch):
    # perfbench's tracer times these handlers by replacing their entries
    assert {"solve", "index", "convergence", "asymptotics",
            "render"} <= set(cli._COMMANDS)
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "solve",
                        lambda args: seen.append(args.out) or 0)
    assert main(["solve", "--out", "x.csv"]) == 0
    assert seen == ["x.csv"]


@pytest.mark.parametrize("argv,needle", [
    (["spectrum", "--count", "64"],
     "--count must be less than the number of curve points"),
    (["render", "--j", "63", "--out", "p"],
     "--j must be less than the number of curve points minus 1"),
    (["asymptotics", "--j-max", "32", "--out", "d"],
     "--j-max must be at most 31"),
])
def test_mode_count_limited_by_curve_size(curve_csv, argv, needle, capsys):
    # the eigensolver computes at most M - 1 modes of an M-point curve
    rc = main(argv[:1] + ["--curve", curve_csv] + argv[1:])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: usage:")
    assert needle in captured.err


def test_j_max_bound_is_exact_at_odd_m(tmp_path, capsys):
    # 2 j_max + 1 modes of a 25-point curve: j_max = 11 fits, 12 does not
    path = str(tmp_path / "curve25.csv")
    assert main(["solve", "--points", "25", "--out", path]) == 0
    argv = ["asymptotics", "--curve", path, "--out", str(tmp_path / "a")]
    capsys.readouterr()
    assert main(argv + ["--j-max", "12"]) == 3
    assert capsys.readouterr().err == (
        "error: usage: --j-max must be at most 11 for 25 curve points\n")
    assert not (tmp_path / "a").exists()
    assert main(argv + ["--j-max", "11"]) == 0
    assert len((tmp_path / "a" / "drift_k0.csv").read_text()
               .strip().split("\n")) == 12


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
    p = potential_profile(read_curve(curve_csv), 0)
    row = profile[5].split(",")
    assert int(row[0]) == 4
    assert float(row[2]) == p.V[4]

    drift = (out / "drift_k0.csv").read_text().strip().split("\n")
    assert drift[0] == "j,lambda,estimate,deviation"
    assert len(drift) == 11
    j, lam_j, est, dev = drift[1].split(",")
    assert int(j) == 1
    assert np.isclose(float(lam_j) - float(est), float(dev), rtol=1e-12)

    ground = (out / "groundstate.csv").read_text().strip().split("\n")
    assert ground[0] == "k,lambda0,estimate,deviation"
    assert [row.split(",")[0] for row in ground[1:]] == ["2", "3"]
    for row in ground[1:]:
        _, lam0, est, dev = map(float, row.split(","))
        assert dev == lam0 - est


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
    row01 = table[2].split(",")
    assert row01[0] == "0" and row01[1] == "1"
    assert float(row01[3]) == -1.0
    assert row01[5] == "exact"
    assert abs(float(row01[2]) - float(row01[3]) - float(row01[4])) < 1e-15
    assert table[1].split(",")[5] == "fitted"
    study = (out / "study.csv").read_text().strip().split("\n")
    assert study[0] == "quantity,M,estimate,true_value,abs_error"
    assert len(study) == 1 + 5 * 3
    first = study[1].split(",")
    assert first[0] == "lambda_k0_j0"
    assert int(first[1]) == 32
    assert float(first[4]) >= 0.0
    for name in slopes:
        ll = (out / ("loglog_%s.csv" % name)).read_text().strip().split("\n")
        assert ll[0] == "M,log10_M,abs_error,log10_abs_error"
        assert len(ll) == 4
        for row in ll[1:]:
            m, log_m, err, log_err = map(float, row.split(","))
            assert np.isclose(log_m, np.log10(m))
            assert np.isclose(log_err, np.log10(err))
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


def test_render_epsilon_matches_library(curve_csv, tmp_path, capsys):
    # a finite --epsilon reaches both renderers as given
    prefix = tmp_path / "eps"
    rc = main(["render", "--curve", curve_csv, "--j", "0", "--epsilon",
               "0.05", "--out", str(prefix)])
    capsys.readouterr()
    assert rc == 0
    crv = read_curve(curve_csv)
    mode = Pipeline(crv).scan([0], 1)[0].vector
    assert (tmp_path / "eps.svg").read_bytes() == svg_cross_section(
        crv, mode=mode, epsilon=0.05).encode("utf-8")
    assert (tmp_path / "eps.obj").read_bytes() == obj_surface(
        crv, mode=mode, k=0, ntheta=64, epsilon=0.05,
        phase="cos").encode("utf-8")


def test_render_plain(curve_csv, tmp_path, capsys):
    prefix = tmp_path / "plain"
    rc = main(["render", "--curve", curve_csv, "--ntheta", "6",
               "--out", str(prefix)])
    capsys.readouterr()
    assert rc == 0
    svg = (prefix.parent / "plain.svg").read_text()
    assert svg.count("<path") == 1


def test_write_csv_cells_round_trip(curve_csv, tmp_path, capsys):
    # floats keep every bit, other cells are written with str
    path = tmp_path / "cells.csv"
    floats = [-0.0, 5e-324, 1e308, np.float64(0.1)]
    big = np.int64(2 ** 62 + 1)
    cli._write_csv(path, "a,b,c,d,n,label",
                   [floats + [big, "sigma_inverse"]])
    header, row, end = path.read_text().split("\n")
    assert header == "a,b,c,d,n,label" and end == ""
    cells = row.split(",")
    for cell, value in zip(cells, floats):
        assert np.float64(cell).tobytes() == np.float64(value).tobytes()
    assert cells[3] == "0.10000000000000001"  # 17 significant digits
    assert np.int64(cells[4]).tobytes() == big.tobytes()
    assert cells[5] == "sigma_inverse"

    out = tmp_path / "asy"
    assert main(["asymptotics", "--curve", curve_csv, "--j-max", "10",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    crv = read_curve(curve_csv)
    lam = [m.eigenvalue for m in Pipeline(crv).scan([0], 21)]
    drift, _ = drift_diagnostic(potential_profile(crv, 0), lam)
    rows = (out / "drift_k0.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == len(drift)
    for text, (j, *values) in zip(rows, drift):
        cells = text.split(",")
        assert int(cells[0]) == j
        for cell, value in zip(cells[1:], values):
            assert np.float64(cell).tobytes() == np.float64(value).tobytes()


def test_output_formatting_stays_in_writers():
    # the library returns data; only these modules format output files
    package = Path(cli.__file__).parent
    formatting = {
        path.stem for path in package.glob("*.py")
        if re.search(r"^\s*(import|from) json\b|%\.17g", path.read_text(),
                     re.M)}
    assert "cli" in formatting
    assert formatting <= {"cli", "curve", "render"}
