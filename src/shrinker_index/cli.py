"""Command-line driver.

Subcommands: solve, spectrum, index, convergence, asymptotics, render.
Exit codes: 0 success, 2 runtime failure (no convergence, bad input file),
3 bad arguments, 4 consistency failure (an input curve that is not exactly
mirror-symmetric, or whose spectrum does not carry the expected near-kernel
modes).
Errors are reported as a single line on stderr with a machine-parseable
prefix: "error: usage:", "error: runtime:" or "error: consistency:".
"""

import argparse
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
    p.add_argument("--k", type=mode_number, default=0)
    p.add_argument("--j", type=_int_at_least(0), default=None,
                   help="eigenmode to display (default: undisplaced)")
    p.add_argument("--epsilon", type=_finite, default=None)
    p.add_argument("--ntheta", type=_int_at_least(3), default=64)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--cos", dest="phase", action="store_const",
                     const="cos", default="cos")
    grp.add_argument("--sin", dest="phase", action="store_const", const="sin")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.svg and <out>.obj")
    return parser


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    """CSV with a header line: floats at 17 significant digits, else str."""
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % cell if isinstance(cell, float)
                              else str(cell) for cell in row))
    _write(path, "\n".join(lines) + "\n")


def _cmd_solve(args):
    crv = solver.solve_geodesic(args.points)
    curve_mod.write_curve(crv, args.out)
    print("entropy %.17g M %d" % (curve_mod.discrete_length(crv), crv.M))
    return 0


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
    }, indent=2)
    if args.out:
        _write(args.out, report + "\n")
    else:
        print(report)
    if args.csv:
        _write_csv(args.csv, "j,eigenvalue,label,residual",
                   [(m.j, m.eigenvalue, m.label, m.residual) for m in modes])
    return 0


def _cmd_index(args):
    if args.curve:
        crv = curve_mod.read_curve(args.curve)
    else:
        crv = solver.solve_geodesic(args.points)
    report = spectral.compute_index(crv)
    print("index %d (%d negative, %d excluded)"
          % (report.index, report.total_negative,
             sum(e["multiplicity"] for e in report.excluded)))
    if args.out:
        _write(args.out, json.dumps({
            "per_k": [{"k": k, "negative_eigenvalues": vals}
                      for k, vals in report.per_k],
            "excluded": report.excluded,
            "total": report.total_negative,
            "index": report.index,
        }, indent=2) + "\n")
    return 0


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
    quantities = [(k, j) for k in range(args.k_max + 1) for j in range(4)]
    quantities.append("entropy")
    os.makedirs(args.out, exist_ok=True)
    studies = convergence.run_study(
        quantities, m_values,
        progress=lambda m: print("solved M = %d" % m))
    text, rows = convergence.table_report(studies)
    _write(os.path.join(args.out, "table.txt"), text)
    _write_csv(os.path.join(args.out, "table.csv"),
               "k,j,computed,true_value,error,true_known,slope", rows)
    names = [convergence.quantity_name(st.quantity) for st in studies]
    _write_csv(os.path.join(args.out, "study.csv"),
               "quantity,M,estimate,true_value,abs_error",
               [(name, m, est, st.true_value, abs(err))
                for name, st in zip(names, studies)
                for m, est, err in zip(st.M_values, st.estimates, st.errors)])
    slopes = {name: st.slope for name, st in zip(names, studies)}
    _write(os.path.join(args.out, "slopes.json"),
           json.dumps(slopes, indent=2) + "\n")
    for name, st in zip(names, studies):
        _write_csv(os.path.join(args.out, "loglog_%s.csv" % name),
                   "M,log10_M,abs_error,log10_abs_error",
                   [(m, np.log10(m), abs(err), np.log10(abs(err)))
                    for m, err in zip(st.M_values, st.errors)])
    print(text, end="")
    return 0


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
    os.makedirs(args.out, exist_ok=True)
    profile = asymptotics.potential_profile(crv, args.k)
    _write_csv(os.path.join(args.out, "profile_k%d.csv" % args.k), "m,s,V",
               zip(range(crv.M), profile.s, profile.V))
    lam = [m.eigenvalue for m in pipe.scan([args.k], 2 * args.j_max + 1)]
    drift, exponent = asymptotics.drift_diagnostic(profile, lam)
    _write_csv(os.path.join(args.out, "drift_k%d.csv" % args.k),
               "j,lambda,estimate,deviation", drift)
    print("V_avg %.17g length %.17g drift_exponent %.4f"
          % (profile.V_avg, profile.euclidean_length, exponent))
    if args.k_scan:
        rows = []
        ks = range(2, args.k_scan + 1)
        for k, ground in zip(ks, pipe.scan(ks, 1)):
            prof = asymptotics.potential_profile(crv, k)
            lam0 = ground.eigenvalue
            est = asymptotics.high_k_estimate(prof, 0)
            rows.append((k, lam0, est, lam0 - est))
        _write_csv(os.path.join(args.out, "groundstate.csv"),
                   "k,lambda0,estimate,deviation", rows)
    return 0


def _cmd_render(args):
    crv = curve_mod.read_curve(args.curve)
    mode = None
    if args.j is not None:
        if args.j + 1 >= crv.M:
            raise UsageError("--j must be less than the number of curve "
                             "points minus 1")
        mode = spectral.Pipeline(crv).scan(
            [args.k], args.j + 1)[args.j].vector
    _write(args.out + ".svg",
           render.svg_cross_section(crv, mode=mode, epsilon=args.epsilon))
    _write(args.out + ".obj",
           render.obj_surface(crv, mode=mode, k=args.k, ntheta=args.ntheta,
                              epsilon=args.epsilon, phase=args.phase))
    return 0


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
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print("error: usage: %s" % exc, file=sys.stderr)
        return 3
    except (spectral.ExclusionMismatch, stability.AmbiguousNormal) as exc:
        print("error: consistency: %s" % exc, file=sys.stderr)
        return 4
    except (solver.NonConvergence, solver.CurveCollapse,
            curve_mod.CurveFileError, asymptotics.NoWell,
            convergence.DegenerateFit, OSError, ValueError) as exc:
        print("error: runtime: %s" % exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
