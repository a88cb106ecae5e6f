"""Command line front end.

Subcommands
-----------
``mesh``         write a mesh file for a named domain and level
``solve-stokes`` solve one linear problem and store the snapshot
``solve-ns``     solve one nonlinear problem and store the snapshot
``experiment``   run a named sweep or convergence study
``spectra``      tabulate Korn and inf-sup constants across levels

Exit codes: 0 on success, 1 when the solver fails (singular system,
failed residual or energy check, nonconvergence, incompatible data),
2 when the request itself is malformed (bad flags, bad config file,
missing inputs, an output path that cannot be written).
"""

import argparse
import json
import sys

from .errors import (IncompatibleData, InvalidArgument, MaxIterations,
                     NumericalError, ParseError, SingularSystem)
from .experiments import (KINDS, ExperimentConfig, parse_config,
                          run_experiment, write_report)
from .fields import DATA_SELECTORS, select_data
from .mesh import make_mesh, write_mesh
from .navierstokes import PicardOptions, solve_navier_stokes
from .persistence import store_run
from .stokes import solve_stokes

_SOLVER_ERRORS = (SingularSystem, NumericalError, MaxIterations,
                  IncompatibleData)
_CONFIG_ERRORS = (InvalidArgument, ParseError, OSError)


def _list_of(kind, what):
    """An argparse type: a comma-separated list of ``kind`` values."""
    def parse(text):
        try:
            return tuple(kind(s) for s in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from exc
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slipstokes",
        description="Taylor-Hood solver and verification lab for 2D "
                    "slip-with-friction flow.")
    sub = parser.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="write a mesh file")
    mesh.add_argument("--domain", choices=("square", "disk"), default="square")
    mesh.add_argument("--level", type=int, default=8,
                      help="subdivisions for the square, refinement level "
                           "for the disk")
    mesh.add_argument("--radius", type=float, default=1.0)
    mesh.add_argument("--out", required=True, help="output mesh path")

    for name in ("solve-stokes", "solve-ns"):
        solve = sub.add_parser(name, help=f"{name.split('-')[1]} solve")
        solve.add_argument("--domain", choices=("square", "disk"),
                           default="square")
        solve.add_argument("--level", type=int, default=8)
        solve.add_argument("--radius", type=float, default=1.0)
        solve.add_argument("--alpha", type=float, default=1.0)
        solve.add_argument("--data", choices=DATA_SELECTORS, default="sweep")
        solve.add_argument("--amplitude", type=float, default=None)
        solve.add_argument("--compat", action="store_true",
                           help="solve in compatibility mode: on the "
                                "frictionless disk, guard the rotation and "
                                "refuse data that pairs with it")
        solve.add_argument("--out", required=True,
                           help="run store directory")
        if name == "solve-ns":
            solve.add_argument("--max-iterations", type=int, default=50)
            solve.add_argument("--tol", type=float, default=1e-10)
            solve.add_argument("--damping", type=float, default=1.0)

    exp = sub.add_parser("experiment", help="run a named study")
    exp.add_argument("kind", choices=KINDS)
    exp.add_argument("--config", help="INI config file")
    exp.add_argument("--out", help="report directory")
    exp.add_argument("--levels", type=_list_of(int, "level list"))
    exp.add_argument("--alpha", type=float, default=None)
    exp.add_argument("--alpha-schedule", type=_list_of(float, "schedule"))
    exp.add_argument("--domain", choices=("square", "disk"), default=None)
    exp.add_argument("--amplitude", type=float, default=None)

    spec = sub.add_parser("spectra", help="Korn and inf-sup table")
    spec.add_argument("--domain", choices=("square", "disk"), default=None)
    spec.add_argument("--levels", type=_list_of(int, "level list"))
    spec.add_argument("--alpha", type=float, default=1.0)
    spec.add_argument("--out", default=None, help="report directory")
    return parser


def _cmd_mesh(args):
    mesh = make_mesh(args.domain, args.level, args.radius)
    write_mesh(args.out, mesh)
    print(json.dumps({"vertices": int(len(mesh.vertices)),
                      "triangles": int(len(mesh.triangles)),
                      "boundary_edges": int(len(mesh.boundary_edges)),
                      "h": mesh.mesh_size(), "path": args.out}))
    return 0


def _cmd_solve(args):
    nonlinear = args.command == "solve-ns"
    mesh = make_mesh(args.domain, args.level, args.radius)
    data = select_data(args.data, args.domain, args.alpha, args.amplitude,
                       args.compat, nonlinear=nonlinear)
    info = {}
    if nonlinear:
        options = PicardOptions(max_iterations=args.max_iterations,
                                tol=args.tol, damping=args.damping)
        solution, log = solve_navier_stokes(mesh, data, options=options)
        info = {"iterations": len(log.rows), "converged": bool(log.converged)}
    else:
        solution = solve_stokes(mesh, data)
    entry = store_run(args.out, "navier-stokes" if nonlinear else "stokes",
                      solution.u, solution.p, solution.diagnostics)
    print(json.dumps({"run_id": entry.run_id, "path": entry.path, **info,
                      "diagnostics": solution.diagnostics},
                     default=float, sort_keys=True))
    return 0


def _cmd_experiment(args):
    if args.config:
        cfg, outdir = parse_config(args.config, kind=args.kind)
    else:
        cfg, outdir = ExperimentConfig(kind=args.kind), None
    for key in ("domain", "levels", "alpha", "alpha_schedule", "amplitude"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    report = run_experiment(cfg)
    target = args.out or outdir
    if target:
        csv_path, json_path = write_report(report, target)
        print(json.dumps({"csv": csv_path, "manifest": json_path,
                          "fits": report.fits}, default=float, sort_keys=True))
    else:
        sys.stdout.write(report.to_csv())
        print(json.dumps({"fits": report.fits}, default=float, sort_keys=True))
    return 0


def _cmd_spectra(args):
    cfg = ExperimentConfig(kind="spectra_suite", domain=args.domain,
                           levels=args.levels, alpha=args.alpha)
    report = run_experiment(cfg)
    if args.out:
        csv_path, json_path = write_report(report, args.out)
        print(json.dumps({"csv": csv_path, "manifest": json_path},
                         sort_keys=True))
    else:
        sys.stdout.write(report.to_csv())
    return 0


_COMMANDS = {
    "mesh": _cmd_mesh,
    "solve-stokes": _cmd_solve,
    "solve-ns": _cmd_solve,
    "experiment": _cmd_experiment,
    "spectra": _cmd_spectra,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config error code
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
