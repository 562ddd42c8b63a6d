"""Command line driver, exercised in process through cli.main."""

import argparse
import ast
import contextlib
import fnmatch
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shrinker_index
from shrinker_index import (DiscreteCurve, Pipeline, cli, drift_diagnostic,
                            potential_profile, read_curve, solve_geodesic,
                            stability, write_curve)
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


def test_index_at_the_smallest_point_counts(capsys):
    # the horizontal translation's cosine to its template is 0.9553 at
    # M = 18 and 0.99899 at 59, above the 1/sqrt(2) label bound, so the
    # index holds from the solver's own minimum of 18 points on
    for points in ("18", "59"):
        rc = main(["index", "--points", points])
        captured = capsys.readouterr()
        assert rc == 0, points
        assert captured.out.strip() == "index 5 (9 negative, 4 excluded)"


def test_index_rejects_random_polygon(tmp_path, capsys):
    # a random polygon is not its own mirror image, which `index` checks
    # before it takes any spectrum
    rng = np.random.default_rng(5)
    bad = DiscreteCurve(np.column_stack([rng.uniform(0.5, 3.0, 64),
                                         rng.uniform(-1.0, 1.0, 64)]))
    path = tmp_path / "bad.csv"
    write_curve(bad, path)
    rc = main(["index", "--curve", str(path)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.startswith(
        "error: consistency: curve is not mirror-symmetric: point 14 ")


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
    assert captured.err.startswith(
        "error: consistency: curve is not mirror-symmetric:")


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
    assert captured.err.startswith(
        "error: consistency: curve is not mirror-symmetric:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("scale", [1.003, 1.005])
@pytest.mark.parametrize("argv", [
    ["index", "--out", "{out}/index.json"],
    ["spectrum", "--out", "{out}/spec.json", "--csv", "{out}/spec.csv"],
    ["asymptotics", "--out", "{out}/asy"],
    ["render", "--j", "1", "--out", "{out}/r"],
])
def test_unsolved_curve_refused_before_any_output(pipe, tmp_path, capsys,
                                                  argv, scale):
    # a solved curve scaled by 1.003 or 1.005 is still its own mirror image
    # bit for bit, and its normals mirror, but it is not critical: every
    # command that takes spectra refuses it in one line that names both
    # residuals and both tolerances, before it writes a file or makes a
    # directory
    path = tmp_path / "scaled.csv"
    write_curve(DiscreteCurve(scale * pipe.curve(512).points), path)
    ev = stability.Evaluation(read_curve(path).points)
    assert ev.residual > 1e-5 and ev.spacing > 1e-2
    out = tmp_path / "out"
    out.mkdir()
    rc = main(argv[:1] + ["--curve", str(path)]
              + [a.format(out=out) for a in argv[1:]])
    err = capsys.readouterr().err
    assert rc == 4
    (line,) = err.splitlines()
    assert line.startswith(
        "error: consistency: curve is not a solved geodesic")
    for number in ("%.3e" % ev.residual, "%.3e" % ev.spacing, "1e-10",
                   "1e-08"):
        assert number in line
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv,missing", [
    (["index", "--out", "{out}/nodir/x.json"], "nodir/x.json"),
    (["spectrum", "--out", "{out}/s.json", "--csv", "{out}/nodir/s.csv"],
     "nodir/s.csv"),
], ids=["index", "spectrum"])
def test_missing_output_directory_refused_before_any_output(
        curve_csv, tmp_path, capsys, argv, missing):
    # a bad second path leaves neither the first file nor the printed line
    rc = main(argv[:1] + ["--curve", curve_csv]
              + [a.format(out=tmp_path) for a in argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "error: runtime: [Errno 2] No such file or directory: %r\n"
        % str(tmp_path / missing))
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["index", "--out", "{out}/sdir"],
    ["spectrum", "--out", "{out}/s.json", "--csv", "{out}/sdir"],
], ids=["index", "spectrum"])
def test_directory_output_path_refused_before_any_output(
        curve_csv, tmp_path, capsys, argv):
    # an output path that is an existing directory is refused with the
    # error open would give, but before the first file or line
    (tmp_path / "sdir").mkdir()
    rc = main(argv[:1] + ["--curve", curve_csv]
              + [a.format(out=tmp_path) for a in argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("error: runtime: [Errno 21] Is a directory: %r\n"
                            % str(tmp_path / "sdir"))
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["sdir"]
    assert not any((tmp_path / "sdir").iterdir())


@pytest.mark.parametrize("argv", [
    ["spectrum", "--out", "{out}/s.json", "--csv", "{out}/s.csv"],
    ["index", "--out", "{out}/i.json"],
    ["convergence", "--points-list", "18,19,20", "--k-max", "1",
     "--out", "{out}/study"],
    ["asymptotics", "--j-max", "10", "--k-scan", "3", "--out", "{out}/asy"],
    ["render", "--k", "2", "--j", "1", "--ntheta", "6", "--out", "{out}/r"],
], ids=lambda argv: argv[0])
def test_handlers_return_before_any_output(curve_csv, tmp_path, capsys,
                                           monkeypatch, argv):
    # a handler only computes: when it returns, the disk holds the input
    # curve alone and stdout only convergence's progress lines; main then
    # writes every file and prints
    curve = tmp_path / "curve64.csv"
    curve.write_bytes(Path(curve_csv).read_bytes())
    handler, seen = cli._COMMANDS[argv[0]], []

    def checked(args):
        result = handler(args)
        seen.append(([os.path.join(top, name) for top, _, names
                      in os.walk(tmp_path) for name in names],
                     capsys.readouterr().out))
        return result
    monkeypatch.setitem(cli._COMMANDS, argv[0], checked)
    if argv[0] != "convergence":
        argv = argv[:1] + ["--curve", str(curve)] + argv[1:]
    assert main([a.format(out=tmp_path) for a in argv]) == 0
    ((files, out),) = seen
    assert files == [str(curve)]
    assert all(line.startswith("solved M = ") for line in out.splitlines())
    capsys.readouterr()


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


def test_process_exit_codes(tmp_path):
    # the real process: cli.entry() and the __main__ guard pass main's
    # return value on as the exit status
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    rolled = tmp_path / "rolled.csv"
    write_curve(DiscreteCurve(np.roll(solve_geodesic(18).points, 1, axis=0)),
                rolled)
    cases = [
        ([], 3, "error: usage:"),
        (["index", "--curve", str(rolled)], 4, "error: consistency:"),
        (["spectrum", "--curve", str(tmp_path / "missing.csv")], 2,
         "error: runtime:"),
        (["solve", "--points", "18", "--out", str(tmp_path / "c.csv")], 0,
         ""),
    ]
    for argv, code, prefix in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "shrinker_index.cli"] + argv, env=env,
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == code, argv
        assert proc.stderr.startswith(prefix), argv
        assert bool(proc.stderr) == bool(prefix), argv
    assert read_curve(str(tmp_path / "c.csv")).M == 18


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
    # the displacement flags need a mode to displace; the curve is not read
    (["render", "--curve", "/no/such.csv", "--k", "2", "--out", "p"],
     "give --j"),
    (["render", "--curve", "/no/such.csv", "--epsilon", "0.3", "--out", "p"],
     "give --j"),
    (["render", "--curve", "/no/such.csv", "--sin", "--out", "p"],
     "give --j"),
    (["render", "--curve", "/no/such.csv", "--k", "2", "--epsilon", "0.3",
      "--sin", "--out", "p"], "give --j"),
])
def test_usage_errors(argv, needle, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: usage:")
    assert needle in captured.err
    assert not any(tmp_path.iterdir())


def _subcommands():
    """Subcommand name -> its parser, as cli._build_parser builds them."""
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _typed_options():
    """(subcommand, long flag, type) of every optional action with a type."""
    return [(name, action.option_strings[-1], action.type)
            for name, p in _subcommands().items() for action in p._actions
            if action.option_strings and action.type is not None]


def _required_paths(command, work):
    """The required flags of a subcommand, each given a path in work."""
    argv = []
    for action in _subcommands()[command]._actions:
        if action.required:
            argv += [action.option_strings[-1], str(work / "x")]
    return argv


def _main_quietly(argv):
    """main(argv) and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


_FLAG_TOKENS = st.one_of(
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.sampled_from(["nan", "inf", "-inf"]),
    st.text(max_size=8))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(option=st.sampled_from(_typed_options()), token=_FLAG_TOKENS)
def test_values_a_flag_type_rejects_exit_3(tmp_path_factory, option, token):
    command, flag, parse = option
    try:
        parse(token)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        pass
    else:
        # an accepted --points, --ntheta, --count, --j or --j-max has no
        # upper bound and may allocate without limit, so none is run
        assume(False)
    work = tmp_path_factory.mktemp("usage")
    rc, err = _main_quietly([command] + _required_paths(command, work)
                            + ["%s=%s" % (flag, token)])
    assert rc == 3
    assert err.startswith("error: usage:")
    assert flag in err
    assert not any(work.iterdir())


def _rejects_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


_ENTRY = st.integers(18, 1024)
_POINTS_LISTS = st.one_of(
    # an entry below 18 or not an integer, anywhere among valid ones
    st.tuples(st.lists(_ENTRY.map(str), max_size=5),
              st.one_of(st.integers(-10 ** 40, 17).map(str),
                        st.text(st.characters(blacklist_characters=","),
                                max_size=6).filter(_rejects_int)),
              st.integers(0, 5)).map(
                  lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
    # a repeated resolution among at least 3 distinct ones
    st.lists(_ENTRY, min_size=3, max_size=6, unique=True).flatmap(
        lambda xs: st.permutations(xs + xs[:1])),
    # fewer than 3 distinct resolutions
    st.lists(_ENTRY, min_size=1, max_size=2, unique=True).flatmap(
        lambda xs: st.lists(st.sampled_from(xs), min_size=1, max_size=6)))

# bounds the handlers check against each other or against the M = 64 curve
_HANDLER_BOUNDS = st.one_of(
    st.tuples(st.just("asymptotics"), st.just("--k-scan"),
              st.one_of(st.just(1), st.integers(-10 ** 40, -1),
                        st.integers(2 ** 26 + 1, 10 ** 40))),
    st.tuples(st.just("spectrum"), st.just("--count"),
              st.integers(64, 10 ** 40)),
    st.tuples(st.just("render"), st.just("--j"), st.integers(63, 10 ** 40)),
    st.tuples(st.just("asymptotics"), st.just("--j-max"),
              st.integers(32, 10 ** 40)),
    st.tuples(st.just("convergence"), st.just("--points-list"),
              _POINTS_LISTS.map(lambda xs: ",".join(map(str, xs)))))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=_HANDLER_BOUNDS)
def test_values_a_handler_refuses_exit_3(curve_csv, tmp_path_factory, case):
    command, flag, value = case
    work = tmp_path_factory.mktemp("usage")
    curve = [] if command == "convergence" else ["--curve", curve_csv]
    listing = sorted(Path(curve_csv).parent.iterdir())
    rc, err = _main_quietly([command] + curve
                            + ["--out", str(work / "x"),
                               "%s=%s" % (flag, value)])
    assert rc == 3
    assert err.startswith("error: usage:")
    assert flag in err
    assert not any(work.iterdir())
    assert sorted(Path(curve_csv).parent.iterdir()) == listing


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
    # each "x..." in the comment is a prefix of the printed eigenvalue
    prefixes = re.findall(r"(-?\d+\.\d+)\.\.\.", block)
    assert len(prefixes) == 2
    values = ast.literal_eval(lines[0])
    assert len(values) == 4
    for value, prefix in zip(values, prefixes):
        assert repr(value).startswith(prefix)
    assert lines[1] == "['sigma_inverse', 'horizontal_translation', 'rotation']"
    assert lines[2] == "5"


def test_readme_names_resolve(pipe):
    # every `pipe.<name>...` in a README code span is an attribute chain of
    # a Pipeline, and every `<module>.<name>...` one of that package module
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    spans = "\n".join(re.findall(r"`([^`]+)`", text))
    roots = {m.name: importlib.import_module("shrinker_index." + m.name)
             for m in pkgutil.iter_modules(shrinker_index.__path__)}
    roots["pipe"] = Pipeline(pipe.curve(64))
    found = re.findall(r"(?<![\w.])(%s)((?:\.\w+)+)" % "|".join(roots),
                       spans)
    assert {"pipe", "spectral", "stability"} <= {root for root, _ in found}
    for root, chain in found:
        obj = roots[root]
        for name in chain.split(".")[1:]:
            assert hasattr(obj, name), root + chain
            obj = getattr(obj, name)


def _readme_examples():
    """(argv, comment) of each README sh example that has a "# " line."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                            re.M | re.S):
        lines = block.replace("\\\n", " ").split("\n")
        comment = "\n".join(ln[2:] for ln in lines if ln.startswith("# "))
        if comment:
            (argv,) = [shlex.split(ln)[1:] for ln in lines
                       if ln.startswith("shrinker-index ")]
            examples.append((argv, comment))
    return examples


def test_readme_examples_print_their_comments(tmp_path, monkeypatch, capsys):
    # in README order, in one directory: each example prints exactly its
    # comment, or writes exactly the files its "writes" comment names
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["solve", "index", "render"]
    for argv, comment in examples:
        before = set(tmp_path.iterdir())
        assert main(argv) == 0
        out = capsys.readouterr().out
        written = re.fullmatch(r"writes (\S+) and (\S+)", comment)
        if written:
            assert out == ""
            assert set(tmp_path.iterdir()) - before == {
                tmp_path / name for name in written.groups()}
        else:
            assert out == comment + "\n"


def _output_bullets():
    """The README's "Output files" bullets by command, whitespace folded."""
    section = README.read_text().split("## Output files\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {re.match(r"`(\w+)`", item).group(1): " ".join(item.split())
            for item in re.split(r"^- ", section, flags=re.M)[1:]}


def _documented_keys(text):
    """{key: entry keys or None} of the sentence after "with keys"."""
    keys, depth, last = {}, 0, None
    for token in re.findall(r"`[^`]*`|[().]",
                            text.split("with keys ", 1)[1]):
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        elif depth == 0 and token == ".":
            break
        elif depth == 0:
            last = token.strip("`")
            keys[last] = None
        elif token.startswith("`{"):
            keys[last] = re.findall(r'"(\w+)"', token)
    return keys


def _first_line(path):
    return Path(path).read_text().split("\n", 1)[0]


def test_readme_output_files_match_cli(curve_csv, tmp_path, capsys):
    # every key list, CSV header and file name in "Output files" is what
    # the CLI writes at M = 64, and nothing it writes goes unnamed there
    bullets = _output_bullets()
    headers = {cmd: set(re.findall(r"`(\w+(?:,\w+)+)`", text))
               for cmd, text in bullets.items()}
    assert headers["solve"] == {_first_line(curve_csv)}

    spec, spec_csv = tmp_path / "spec.json", tmp_path / "spec.csv"
    assert main(["spectrum", "--curve", curve_csv, "--k", "1", "--count",
                 "5", "--out", str(spec), "--csv", str(spec_csv)]) == 0
    report = json.loads(spec.read_text())
    assert list(_documented_keys(bullets["spectrum"]).items()) == [
        (key, None) for key in report]
    assert headers["spectrum"] == {_first_line(spec_csv)}

    index = tmp_path / "index.json"
    assert main(["index", "--points", "64", "--out", str(index)]) == 0
    report = json.loads(index.read_text())
    assert list(_documented_keys(bullets["index"]).items()) == [
        (key, list(value[0]) if isinstance(value, list) else None)
        for key, value in report.items()]

    runs = {
        "convergence": ["convergence", "--points-list", "64,96,128",
                        "--k-max", "0"],
        "asymptotics": ["asymptotics", "--curve", curve_csv, "--j-max", "10",
                        "--k-scan", "3"],
    }
    for cmd, argv in runs.items():
        out = tmp_path / cmd
        assert main(argv + ["--out", str(out)]) == 0
        written = {path.name: _first_line(path) for path in out.glob("*.csv")}
        assert set(written.values()) == headers[cmd]
        names = [re.sub(r"<\w+>", "*", name) for name in re.findall(
            r"`([\w<>]+\.(?:csv|json|txt))`", bullets[cmd])]
        files = [path.name for path in out.iterdir()]
        assert all(any(fnmatch.fnmatch(f, n) for n in names) for f in files)
        assert all(any(fnmatch.fnmatch(f, n) for f in files) for n in names)
        for name, header in re.findall(
                r"`([\w<>]+\.csv)`, `(\w+(?:,\w+)+)`", bullets[cmd]):
            pattern = re.sub(r"<\w+>", "*", name)
            assert {h for f, h in written.items()
                    if fnmatch.fnmatch(f, pattern)} == {header}
    capsys.readouterr()


def test_main_dispatches_through_command_table(monkeypatch):
    # perfbench's tracer times these handlers by replacing their entries
    assert {"solve", "index", "convergence", "asymptotics",
            "render"} <= set(cli._COMMANDS)
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "solve",
                        lambda args: seen.append(args.out) or ([], ""))
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


def test_convergence_ignores_points_list_order(tmp_path, capsys):
    # the table is written in run_study's order, which sorts the resolutions
    outputs = []
    for points in ("64,96,128", "128,64,96"):
        out = tmp_path / points
        assert main(["convergence", "--points-list", points, "--k-max", "1",
                     "--out", str(out)]) == 0
        outputs.append(({p.name: p.read_bytes() for p in out.iterdir()},
                        capsys.readouterr()))
    assert len(outputs[0][0]) == 13
    assert outputs[0] == outputs[1]


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
    chain = Pipeline(crv)
    mode = chain.scan([0], 1)[0].vector
    normals = chain.evaluation.normals
    assert (tmp_path / "eps.svg").read_bytes() == svg_cross_section(
        crv, mode=mode, epsilon=0.05, normals=normals).encode("utf-8")
    assert (tmp_path / "eps.obj").read_bytes() == obj_surface(
        crv, mode=mode, k=0, ntheta=64, epsilon=0.05, phase="cos",
        normals=normals).encode("utf-8")


def test_render_negative_epsilon_in_exponent_form(curve_csv, tmp_path,
                                                  capsys):
    # argparse may read "-1e-3" after a space as a flag; joined with "=" it
    # is the same amplitude as "-0.001"
    for name, flag in (("exp", ["--epsilon=-1e-3"]),
                       ("dec", ["--epsilon", "-0.001"])):
        assert main(["render", "--curve", curve_csv, "--j", "0"] + flag
                    + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    for ext in (".svg", ".obj"):
        assert ((tmp_path / ("exp" + ext)).read_bytes()
                == (tmp_path / ("dec" + ext)).read_bytes())


def test_render_plain(curve_csv, tmp_path, capsys):
    prefix = tmp_path / "plain"
    rc = main(["render", "--curve", curve_csv, "--ntheta", "6",
               "--out", str(prefix)])
    capsys.readouterr()
    assert rc == 0
    svg = (prefix.parent / "plain.svg").read_text()
    assert svg.count("<path") == 1


def test_failed_render_writes_no_file(curve_csv, tmp_path, capsys):
    # numpy refuses this ntheta at once, before anything is allocated; the
    # SVG, built first, must not reach the disk either
    out = tmp_path / "d"
    out.mkdir()
    rc = main(["render", "--curve", curve_csv, "--ntheta", str(10 ** 30),
               "--out", str(out / "p")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: runtime:")
    assert not any(out.iterdir())


def test_render_of_coincident_points_writes_no_file(tmp_path, capsys):
    # a curve whose points all coincide leaves the SVG nothing to scale
    curve = tmp_path / "point.csv"
    curve.write_text("m,r,z\n0,1,0\n1,1,0\n2,1,0\n")
    out = tmp_path / "d"
    out.mkdir()
    rc = main(["render", "--curve", str(curve), "--out", str(out / "p")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: runtime:")
    assert captured.err.count("\n") == 1
    assert not any(out.iterdir())


def test_render_out_of_memory_is_a_runtime_error(curve_csv, tmp_path,
                                                 capsys, monkeypatch):
    # numpy raises a MemoryError subclass when an allocation it accepted
    # fails; that is one runtime line, not a traceback.  No test allocates
    # for real: the OBJ builder is replaced by one that raises
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(cli.render, "obj_surface", out_of_memory)
    out = tmp_path / "d"
    out.mkdir()
    rc = main(["render", "--curve", curve_csv, "--ntheta", "96",
               "--out", str(out / "p")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "error: runtime: Unable to allocate 64.0 GiB for an array\n")
    assert captured.out == ""
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["asymptotics", "--j-max", "10", "--k-scan", "67108864", "--out", "{out}"],
    ["convergence", "--points-list", "18,19,20", "--k-max", "67108864",
     "--out", "{out}"],
])
def test_oversized_scan_is_refused_before_allocating(curve_csv, tmp_path,
                                                     capsys, monkeypatch,
                                                     argv):
    # 2^26 - 1 ground states at M = 64 need about 340 GB to polish, and
    # 2^26 + 1 values of k with 4 modes each at M = 18 about 390 GB; the
    # memory limit is lowered to 1 MB so that no machine could hold them,
    # and only the drift's one -L_k reaches `spectrum`; the refusal comes
    # before any output, so no line is printed and --out is never made
    monkeypatch.setattr(cli.spectral, "PHYSICAL_MEMORY", 10 ** 6)
    batches = []
    original = cli.spectral.spectrum

    def spectrum(matrices, count):
        batches.append(len(matrices))
        return original(matrices, count)
    monkeypatch.setattr(cli.spectral, "spectrum", spectrum)
    argv = [a.format(out=tmp_path / "out") for a in argv]
    if argv[0] == "asymptotics":
        argv[1:1] = ["--curve", curve_csv]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    (line,) = captured.err.splitlines()
    assert line.startswith("error: runtime: ")
    assert "GB of physical memory" in line
    assert batches == ([1] if argv[0] == "asymptotics" else [])
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_write_csv_cells_round_trip(curve_csv, tmp_path, capsys):
    # floats keep every bit, other cells are written with str
    floats = [-0.0, 5e-324, 1e308, np.float64(0.1)]
    big = np.int64(2 ** 62 + 1)
    text = cli._csv("a,b,c,d,n,label", [floats + [big, "sigma_inverse"]])
    header, row, end = text.split("\n")
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


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, float("inf"), float("-inf")]

_CSV_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(width=64),
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(rows=st.lists(st.lists(_CSV_FLOATS, min_size=1, max_size=8),
                     min_size=1, max_size=12))
def test_write_csv_floats_round_trip_bitwise(rows):
    header, *lines, end = cli._csv("h", rows).split("\n")
    assert header == "h" and end == "" and len(lines) == len(rows)
    for text, row in zip(lines, rows):
        cells = text.split(",")
        assert len(cells) == len(row)
        for cell, value in zip(cells, row):
            if np.isnan(value):
                # a NaN's sign and payload have no decimal form
                assert np.isnan(np.float64(cell))
            else:
                assert (np.float64(cell).tobytes()
                        == np.float64(value).tobytes())


def test_output_formatting_stays_in_writers():
    # the library returns data; only these modules format output files
    package = Path(cli.__file__).parent
    formatting = {
        path.stem for path in package.glob("*.py")
        if re.search(r"^\s*(import|from) json\b|%\.17g", path.read_text(),
                     re.M)}
    assert "cli" in formatting
    assert formatting <= {"cli", "curve", "render"}


def _is_text_format(node):
    """A "%" format, f-string or str.format call on a string constant."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        target = node.left
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "format"):
        target = node.func.value
    else:
        return False
    return isinstance(target, ast.Constant) and isinstance(target.value, str)


def test_text_formatting_stays_in_writers():
    # outside the writers a formatted string is only ever an error message
    package = Path(cli.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem in {"cli", "curve", "render"}:
            continue
        tree = ast.parse(path.read_text())
        in_raise = {id(node) for stmt in ast.walk(tree)
                    if isinstance(stmt, ast.Raise) for node in ast.walk(stmt)}
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if _is_text_format(node) and id(node) not in in_raise]
    assert found == []
