"""Command-line driver.

Subcommands: solve, spectrum, index, convergence, asymptotics, render.
Each handler computes and returns ([(path, text), ...], stdout text), and
`main` alone writes those files and then prints.
Exit codes: 0 success, 2 runtime failure (no convergence, bad input file,
an output path whose directory is missing, out of memory, a long double
too narrow for the polish), 3 bad arguments,
4 consistency failure (an input curve that is not exactly mirror-symmetric
or not a solved geodesic, or whose spectrum lacks the expected modes).
Errors are reported as a single line on stderr with a machine-parseable
prefix: "error: usage:", "error: runtime:" or "error: consistency:".
"""

import argparse
import errno
import json
import math
import os
import sys

import numpy as np

from . import asymptotics
from . import convergence
from . import curve as curve_mod
from . import render
from . import solver
from . import spectral
from . import stability


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite(text):
    """argparse type of --epsilon: nan and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return value


def _int_at_least(low, high=None):
    """argparse type of an integer flag: at least `low`, at most `high`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be at most %d" % high)
        return value
    return parse


def _build_parser():
    parser = _Parser(prog="shrinker-index",
                     description="Self-shrinker cross-section spectra and index")
    sub = parser.add_subparsers(dest="command", metavar="command")
    mode_number = _int_at_least(0, 2 ** 26)  # k^2 is exact in float64

    def add_points(p):
        p.add_argument("-M", "--points", type=_int_at_least(18), default=2048,
                       help="number of curve points (default 2048)")

    p = sub.add_parser("solve", help="solve the closed geodesic, write CSV")
    add_points(p)
    p.add_argument("--out", required=True, help="output curve CSV path")

    p = sub.add_parser("spectrum", help="low eigenpairs of -L_k")
    p.add_argument("--curve", required=True, help="curve CSV from solve")
    p.add_argument("--k", type=mode_number, default=0)
    p.add_argument("--count", type=_int_at_least(1), default=8)
    p.add_argument("--out", help="JSON report path (default stdout)")
    p.add_argument("--csv", help="optional flat CSV path")

    p = sub.add_parser("index", help="Morse index with exclusions")
    grp = p.add_mutually_exclusive_group()
    add_points(grp)
    grp.add_argument("--curve", help="curve CSV (skips the solve)")
    p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("convergence", help="mesh-refinement study")
    p.add_argument("--points-list",
                   default=",".join(map(str, convergence.DEFAULT_M)),
                   help="comma-separated resolutions")
    p.add_argument("--k-max", type=mode_number, default=3,
                   help="table rows cover k = 0..k_max, j = 0..3")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("asymptotics", help="potential profile and drift")
    p.add_argument("--curve", required=True)
    p.add_argument("--k", type=mode_number, default=0)
    p.add_argument("--j-max", type=_int_at_least(10), default=100)
    p.add_argument("--k-scan", type=int, default=0,
                   help="also scan ground states for k = 2..k_scan")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("render", help="SVG cross-section and OBJ surface")
    p.add_argument("--curve", required=True)
    p.add_argument("--k", type=mode_number, default=0,
                   help="Fourier mode of the --j eigenmode (needs --j)")
    p.add_argument("--j", type=_int_at_least(0), default=None,
                   help="eigenmode to display (default: undisplaced)")
    p.add_argument("--epsilon", type=_finite,
                   help="amplitude (needs --j); give a negative one in "
                   "exponent form as --epsilon=-1e-3")
    p.add_argument("--ntheta", type=_int_at_least(3), default=64)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--cos", dest="phase", action="store_const",
                     const="cos", default="cos")
    grp.add_argument("--sin", dest="phase", action="store_const", const="sin")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.svg and <out>.obj")
    return parser


def _csv(header, rows):
    """CSV text with a header: floats at 17 significant digits, else str."""
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % cell if isinstance(cell, float)
                              else str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _cmd_solve(args):
    crv = solver.solve_geodesic(args.points)
    curve_mod.write_curve(crv, args.out)
    return [], "entropy %.17g M %d\n" % (curve_mod.discrete_length(crv), crv.M)


def _cmd_spectrum(args):
    crv = curve_mod.read_curve(args.curve)
    if args.count >= crv.M:
        raise UsageError(
            "--count must be less than the number of curve points")
    modes = spectral.Pipeline(crv).scan([args.k], args.count)
    report = json.dumps({
        "M": crv.M,
        "k": modes[0].k,
        "eigenvalues": [m.eigenvalue for m in modes],
        "labels": [m.label for m in modes],
        "residuals": [m.residual for m in modes],
    }, indent=2) + "\n"
    files = [(args.out, report)] if args.out else []
    if args.csv:
        files.append((args.csv, _csv(
            "j,eigenvalue,label,residual",
            [(m.j, m.eigenvalue, m.label, m.residual) for m in modes])))
    return files, "" if args.out else report


def _cmd_index(args):
    if args.curve:
        crv = curve_mod.read_curve(args.curve)
    else:
        crv = solver.solve_geodesic(args.points)
    report = spectral.compute_index(crv)
    files = [(args.out, json.dumps({
        "per_k": [{"k": k, "negative_eigenvalues": vals}
                  for k, vals in report.per_k],
        "excluded": report.excluded,
        "total": report.total_negative,
        "index": report.index,
    }, indent=2) + "\n")] if args.out else []
    return files, "index %d (%d negative, %d excluded)\n" % (
        report.index, report.total_negative,
        report.total_negative - report.index)


def _cmd_convergence(args):
    entry = _int_at_least(18)
    try:
        m_values = tuple(entry(tok) for tok in args.points_list.split(","))
    except argparse.ArgumentTypeError as exc:
        raise UsageError("--points-list: %s" % exc)
    if len(set(m_values)) < 3:
        raise UsageError("--points-list needs at least 3 distinct resolutions")
    if len(set(m_values)) < len(m_values):
        raise UsageError("--points-list must not repeat a resolution")
    studies = convergence.run_study(
        args.k_max, m_values, progress=lambda m: print("solved M = %d" % m))
    # run_study returns (0, 0), (0, 1), ..., (k_max, 3), then entropy, so
    # the table rows come in (k, j) order and study.csv by quantity, then M
    rows, study_rows, slopes, files = [], [], {}, {}
    for st in studies:
        if st.quantity == "entropy":
            name = "entropy"
        else:
            name = "lambda_k%d_j%d" % st.quantity
            rows.append(st.quantity + (
                st.estimates[-1], st.true_value, st.errors[-1],
                "exact" if st.true_known else "fitted", st.slope))
        slopes[name] = st.slope
        study_rows += [(name, m, est, st.true_value, abs(err)) for m, est, err
                       in zip(st.M_values, st.estimates, st.errors)]
        files["loglog_%s.csv" % name] = _csv(
            "M,log10_M,abs_error,log10_abs_error",
            [(m, np.log10(m), abs(err), np.log10(abs(err)))
             for m, err in zip(st.M_values, st.errors)])
    files["table.txt"] = text = "\n".join([
        "  k  j      computed          true        error      source  slope",
        "  -  -  ------------  ------------  -----------  ----------  -----",
    ] + ["  %d  %d  %12.8f  %12.8f  %+.2e  %10s  %5.2f" % row
         for row in rows]) + "\n"
    files["table.csv"] = _csv(
        "k,j,computed,true_value,error,true_known,slope", rows)
    files["study.csv"] = _csv(
        "quantity,M,estimate,true_value,abs_error", study_rows)
    files["slopes.json"] = json.dumps(slopes, indent=2) + "\n"
    os.makedirs(args.out, exist_ok=True)
    return [(os.path.join(args.out, n), t) for n, t in files.items()], text


def _cmd_asymptotics(args):
    if args.k_scan != 0 and args.k_scan < 2:
        raise UsageError("--k-scan must be 0 or at least 2")
    if args.k_scan > 2 ** 26:
        raise UsageError("--k-scan must be at most %d" % 2 ** 26)
    crv = curve_mod.read_curve(args.curve)
    if 2 * args.j_max + 1 >= crv.M:
        raise UsageError("--j-max must be at most %d for %d curve points"
                         % ((crv.M - 2) // 2, crv.M))
    pipe = spectral.Pipeline(crv)
    lam = [m.eigenvalue for m in pipe.scan([args.k], 2 * args.j_max + 1)]
    ks, rows = range(2, args.k_scan + 1), []
    # the scan refuses an oversized k range before any profile is built
    grounds = pipe.scan(ks, 1) if ks else []
    profile, *wells = asymptotics.potential_profiles(
        pipe.evaluation, [args.k, *ks])
    drift, exponent = asymptotics.drift_diagnostic(profile, lam)
    for k, well, ground in zip(ks, wells, grounds):
        est = asymptotics.high_k_estimate(well, 0)
        rows.append((k, ground.eigenvalue, est, ground.eigenvalue - est))
    files = {
        "profile_k%d.csv" % args.k: _csv(
            "m,s,V", zip(range(crv.M), profile.s, profile.V)),
        "drift_k%d.csv" % args.k: _csv("j,lambda,estimate,deviation", drift),
    }
    if ks:
        files["groundstate.csv"] = _csv("k,lambda0,estimate,deviation", rows)
    os.makedirs(args.out, exist_ok=True)
    return ([(os.path.join(args.out, n), t) for n, t in files.items()],
            "V_avg %.17g length %.17g drift_exponent %.4f\n"
            % (profile.V_avg, profile.euclidean_length, exponent))


def _cmd_render(args):
    if args.j is None and (args.k or args.epsilon is not None
                           or args.phase == "sin"):
        raise UsageError("--k, --epsilon and --sin displace a mode: give --j")
    crv = curve_mod.read_curve(args.curve)
    shown = {}
    if args.j is not None:
        if args.j + 1 >= crv.M:
            raise UsageError("--j must be less than the number of curve "
                             "points minus 1")
        pipe = spectral.Pipeline(crv)
        shown = dict(mode=pipe.scan([args.k], args.j + 1)[args.j].vector,
                     normals=pipe.evaluation.normals)
    svg = render.svg_cross_section(crv, epsilon=args.epsilon, **shown)
    obj = render.obj_surface(crv, k=args.k, ntheta=args.ntheta,
                             epsilon=args.epsilon, phase=args.phase, **shown)
    return [(args.out + ".svg", svg), (args.out + ".obj", obj)], ""


_COMMANDS = {
    "solve": _cmd_solve,
    "spectrum": _cmd_spectrum,
    "index": _cmd_index,
    "convergence": _cmd_convergence,
    "asymptotics": _cmd_asymptotics,
    "render": _cmd_render,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        files, text = _COMMANDS[args.command](args)
        for path, _ in files:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT,
                                        os.strerror(errno.ENOENT), path)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR), path)
        for path, content in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        print(text, end="")
        return 0
    except UsageError as exc:
        print("error: usage: %s" % exc, file=sys.stderr)
        return 3
    except (spectral.ExclusionMismatch, stability.AmbiguousNormal) as exc:
        print("error: consistency: %s" % exc, file=sys.stderr)
        return 4
    except (solver.NonConvergence, solver.CurveCollapse, MemoryError, OSError,
            asymptotics.NoWell, convergence.DegenerateFit,
            spectral.NarrowLongDouble, ValueError) as exc:
        print("error: runtime: %s" % exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
