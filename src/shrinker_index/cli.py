"""Command-line driver.

Subcommands: solve, spectrum, index, convergence, asymptotics, render.
Exit codes: 0 success, 2 runtime failure (no convergence, bad input file),
3 bad arguments, 4 consistency failure (mode classification mismatch).
Errors are reported as a single line on stderr with a machine-parseable
prefix: "error: usage:", "error: runtime:" or "error: consistency:".
"""

import argparse
import json
import os
import sys

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


def _build_parser():
    parser = _Parser(prog="shrinker-index",
                     description="Self-shrinker cross-section spectra and index")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_solver_flags(p):
        p.add_argument("-M", "--points", type=int, default=2048,
                       help="number of curve points (default 2048)")
        p.add_argument("--grad-tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=200)
        p.add_argument("--seed-r", type=float, default=solver.SolveConfig().seed_center[0])
        p.add_argument("--seed-z", type=float, default=0.0)
        p.add_argument("--seed-radius", type=float, default=0.5)

    p = sub.add_parser("solve", help="solve the closed geodesic, write CSV")
    add_solver_flags(p)
    p.add_argument("--out", required=True, help="output curve CSV path")

    p = sub.add_parser("spectrum", help="low eigenpairs of -L_k")
    p.add_argument("--curve", required=True, help="curve CSV from solve")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--out", help="JSON report path (default stdout)")
    p.add_argument("--csv", help="optional flat CSV path")

    p = sub.add_parser("index", help="Morse index with exclusions")
    add_solver_flags(p)
    p.add_argument("--curve", help="curve CSV (skips the solve)")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("convergence", help="mesh-refinement study")
    p.add_argument("--points-list", default="128,256,512,1024,2048",
                   help="comma-separated resolutions")
    p.add_argument("--k-max", type=int, default=3,
                   help="table rows cover k = 0..k_max, j = 0..3")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("asymptotics", help="potential profile and drift")
    p.add_argument("--curve", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--j-max", type=int, default=100)
    p.add_argument("--k-scan", type=int, default=0,
                   help="also scan ground states for k = 2..k_scan")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("render", help="SVG cross-section and OBJ surface")
    p.add_argument("--curve", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--j", type=int, default=None,
                   help="eigenmode to display (default: undisplaced)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--ntheta", type=int, default=64)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--cos", dest="phase", action="store_const",
                     const="cos", default="cos")
    grp.add_argument("--sin", dest="phase", action="store_const", const="sin")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.svg and <out>.obj")
    return parser


def _solve_config(args):
    if args.points < 8:
        raise UsageError("--points must be at least 8")
    if args.max_iter < 1:
        raise UsageError("--max-iter must be positive")
    if args.grad_tol <= 0.0:
        raise UsageError("--grad-tol must be positive")
    if args.seed_radius <= 0.0 or args.seed_r - args.seed_radius <= 0.0:
        raise UsageError("--seed-r/--seed-radius must keep the seed in r > 0")
    return solver.SolveConfig(M=args.points, grad_tol=args.grad_tol,
                              max_iters=args.max_iter,
                              seed_center=(args.seed_r, args.seed_z),
                              seed_radius=args.seed_radius)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_solve(args):
    crv = solver.solve_geodesic(_solve_config(args))
    curve_mod.write_curve(crv, args.out)
    print("entropy %.17g M %d" % (curve_mod.discrete_length(crv), crv.M))
    return 0


def _cmd_spectrum(args):
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    if args.count < 1:
        raise UsageError("--count must be positive")
    crv = curve_mod.read_curve(args.curve)
    if args.count >= crv.M:
        raise UsageError(
            "--count must be less than the number of curve points")
    modes = spectral.Pipeline(crv).modes(args.k, args.count)
    report = json.dumps(spectral.spectrum_report(crv, modes), indent=2)
    if args.out:
        _write(args.out, report + "\n")
    else:
        print(report)
    if args.csv:
        lines = ["j,eigenvalue,label,residual"]
        for m in modes:
            lines.append("%d,%.17g,%s,%.17g"
                         % (m.j, m.eigenvalue, m.label, m.residual))
        _write(args.csv, "\n".join(lines) + "\n")
    return 0


def _cmd_index(args):
    if args.count < 1:
        raise UsageError("--count must be positive")
    if args.curve:
        crv = curve_mod.read_curve(args.curve)
    else:
        crv = solver.solve_geodesic(_solve_config(args))
    report = spectral.compute_index(crv, count=args.count)
    print("index %d (%d negative, %d excluded)"
          % (report.index, report.total_negative,
             sum(e["multiplicity"] for e in report.excluded)))
    if args.out:
        _write(args.out, report.to_json() + "\n")
    return 0


def _cmd_convergence(args):
    try:
        m_values = tuple(int(tok) for tok in args.points_list.split(","))
    except ValueError:
        raise UsageError("--points-list must be comma-separated integers")
    if len(set(m_values)) < 3:
        raise UsageError("--points-list needs at least 3 distinct resolutions")
    if any(m < 8 for m in m_values):
        raise UsageError("--points-list entries must be at least 8")
    if args.k_max < 0:
        raise UsageError("--k-max must be nonnegative")
    quantities = [(k, j) for k in range(args.k_max + 1) for j in range(4)]
    quantities.append("entropy")
    os.makedirs(args.out, exist_ok=True)
    studies = convergence.run_study(
        quantities, m_values,
        progress=lambda m: print("solved M = %d" % m))
    text, csv_table = convergence.table_report(studies)
    _write(os.path.join(args.out, "table.txt"), text)
    _write(os.path.join(args.out, "table.csv"), csv_table)
    _write(os.path.join(args.out, "study.csv"),
           convergence.study_csv(studies))
    slopes = {convergence.quantity_name(st.quantity): st.slope
              for st in studies}
    _write(os.path.join(args.out, "slopes.json"),
           json.dumps(slopes, indent=2) + "\n")
    for st in studies:
        name = convergence.quantity_name(st.quantity)
        _write(os.path.join(args.out, "loglog_%s.csv" % name),
               convergence.loglog_csv(st))
    print(text, end="")
    return 0


def _cmd_asymptotics(args):
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    if args.j_max < 10:
        raise UsageError("--j-max must be at least 10")
    if args.k_scan != 0 and args.k_scan < 2:
        raise UsageError("--k-scan must be 0 or at least 2")
    crv = curve_mod.read_curve(args.curve)
    if 2 * args.j_max + 1 >= crv.M:
        raise UsageError(
            "--j-max must be less than half the number of curve points")
    os.makedirs(args.out, exist_ok=True)
    profile = asymptotics.potential_profile(crv, args.k)
    _write(os.path.join(args.out, "profile_k%d.csv" % args.k),
           asymptotics.profile_csv(profile))
    pipe = spectral.Pipeline(crv)
    lam = [m.eigenvalue for m in pipe.modes(args.k, 2 * args.j_max + 1)]
    diag = asymptotics.drift_diagnostic(crv, args.k, args.j_max, lam)
    _write(os.path.join(args.out, "drift_k%d.csv" % args.k),
           asymptotics.drift_csv(diag))
    print("V_avg %.17g length %.17g drift_exponent %.4f"
          % (profile.V_avg, profile.euclidean_length, diag.exponent))
    if args.k_scan:
        lines = ["k,lambda0,estimate,deviation"]
        for k in range(2, args.k_scan + 1):
            prof = asymptotics.potential_profile(crv, k)
            lam0 = pipe.modes(k, 1)[0].eigenvalue
            est = asymptotics.high_k_estimate(prof, 0)
            lines.append("%d,%.17g,%.17g,%.17g"
                         % (k, lam0, est, lam0 - est))
        _write(os.path.join(args.out, "groundstate.csv"),
               "\n".join(lines) + "\n")
    return 0


def _cmd_render(args):
    if args.ntheta < 3:
        raise UsageError("--ntheta must be at least 3")
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    crv = curve_mod.read_curve(args.curve)
    mode = None
    normals = None
    if args.j is not None:
        if args.j < 0:
            raise UsageError("--j must be nonnegative")
        if args.j + 1 >= crv.M:
            raise UsageError("--j must be less than the number of curve "
                             "points minus 1")
        pipe = spectral.Pipeline(crv)
        mode = pipe.modes(args.k, args.j + 1)[args.j].vector
        normals = pipe.normals
    _write(args.out + ".svg",
           render.svg_cross_section(crv, mode=mode, normals=normals,
                                    epsilon=args.epsilon))
    _write(args.out + ".obj",
           render.obj_surface(crv, mode=mode, normals=normals, k=args.k,
                              ntheta=args.ntheta, epsilon=args.epsilon,
                              phase=args.phase))
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
