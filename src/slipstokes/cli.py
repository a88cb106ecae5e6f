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
import math
import sys

from .errors import (IncompatibleData, InvalidArgument, MaxIterations,
                     NumericalError, ParseError, SingularSystem)
from .experiments import (KINDS, ExperimentConfig, parse_config,
                          run_experiment, write_report)
from .fields import (ProblemData, disk_compatible_forcing,
                     disk_tangential_drive, navier_stokes_mms, stokes_mms,
                     sweep_forcing)
from .mesh import make_disk, make_unit_square, write_mesh
from .navierstokes import PicardOptions, solve_navier_stokes
from .persistence import store_run
from .stokes import solve_stokes

_SOLVER_ERRORS = (SingularSystem, NumericalError, MaxIterations,
                  IncompatibleData)
_CONFIG_ERRORS = (InvalidArgument, ParseError, OSError)

DATA_CHOICES = ("sweep", "mms", "disk-drive", "disk-compatible")


def _int_list(text):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}") from exc


def _float_list(text):
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}") from exc


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
        solve.add_argument("--data", choices=DATA_CHOICES, default="sweep")
        solve.add_argument("--amplitude", type=float, default=None)
        solve.add_argument("--compat", action="store_true",
                           help="assert the data satisfies the rotational "
                                "compatibility condition")
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
    exp.add_argument("--levels", type=_int_list, default=None)
    exp.add_argument("--alpha", type=float, default=None)
    exp.add_argument("--alpha-schedule", type=_float_list, default=None)
    exp.add_argument("--domain", choices=("square", "disk"), default=None)
    exp.add_argument("--amplitude", type=float, default=None)

    spec = sub.add_parser("spectra", help="Korn and inf-sup table")
    spec.add_argument("--domain", choices=("square", "disk"),
                      default="square")
    spec.add_argument("--levels", type=_int_list, default=(4, 8))
    spec.add_argument("--alpha", type=float, default=1.0)
    spec.add_argument("--out", default=None, help="report directory")
    return parser


def _problem_data(args):
    amp = args.amplitude
    if amp is not None and not math.isfinite(amp):
        raise InvalidArgument(f"amplitude must be finite, got {amp}")
    if args.data == "sweep":
        base = sweep_forcing()
        return ProblemData(f=base.f, F=base.F, h=base.h, alpha=args.alpha,
                           compatibility_mode=args.compat)
    if args.data == "mms":
        if args.command == "solve-ns":
            case = navier_stokes_mms(
                alpha=args.alpha, amplitude=0.15 if amp is None else amp)
        else:
            case = stokes_mms(alpha=args.alpha,
                              amplitude=1.0 if amp is None else amp)
        return case["data"]
    if args.data == "disk-drive":
        if args.domain != "disk":
            raise InvalidArgument("disk-drive data needs --domain disk")
        return disk_tangential_drive(alpha=args.alpha)["data"]
    if args.data == "disk-compatible":
        if args.domain != "disk":
            raise InvalidArgument("disk-compatible data needs --domain disk")
        base = disk_compatible_forcing(alpha=args.alpha)
        return ProblemData(f=base.f, F=base.F, h=base.h, alpha=base.alpha,
                           compatibility_mode=True)
    raise InvalidArgument(f"unknown data selector {args.data!r}")


def _make_mesh_from_args(args):
    if args.domain == "square":
        return make_unit_square(args.level)
    return make_disk(args.level, args.radius)


def _cmd_mesh(args):
    mesh = _make_mesh_from_args(args)
    write_mesh(args.out, mesh)
    print(json.dumps({"vertices": int(len(mesh.vertices)),
                      "triangles": int(len(mesh.triangles)),
                      "boundary_edges": int(len(mesh.boundary_edges)),
                      "h": mesh.mesh_size(), "path": args.out}))
    return 0


def _cmd_solve_stokes(args):
    mesh = _make_mesh_from_args(args)
    data = _problem_data(args)
    solution = solve_stokes(mesh, data)
    entry = store_run(args.out, "stokes", solution.u, solution.p,
                      solution.diagnostics)
    print(json.dumps({"run_id": entry.run_id, "path": entry.path,
                      "diagnostics": solution.diagnostics},
                     default=float, sort_keys=True))
    return 0


def _cmd_solve_ns(args):
    mesh = _make_mesh_from_args(args)
    data = _problem_data(args)
    options = PicardOptions(max_iterations=args.max_iterations,
                            tol=args.tol, damping=args.damping)
    solution, log = solve_navier_stokes(mesh, data, options=options)
    entry = store_run(args.out, "navier-stokes", solution.u, solution.p,
                      solution.diagnostics)
    print(json.dumps({"run_id": entry.run_id, "path": entry.path,
                      "iterations": len(log.rows),
                      "converged": bool(log.converged),
                      "diagnostics": solution.diagnostics},
                     default=float, sort_keys=True))
    return 0


def _cmd_experiment(args):
    if args.config:
        cfg, outdir = parse_config(args.config, kind=args.kind)
    else:
        cfg, outdir = ExperimentConfig(kind=args.kind), None
        if args.kind in ("compat_disk",) and args.domain is None:
            cfg.domain = "disk"
            cfg.levels = (1, 2, 3)
    if args.domain is not None:
        cfg.domain = args.domain
        if args.levels is None and cfg.domain == "disk":
            cfg.levels = (1, 2, 3)
    if args.levels is not None:
        cfg.levels = args.levels
    if args.alpha is not None:
        cfg.alpha = args.alpha
    if args.alpha_schedule is not None:
        cfg.alpha_schedule = args.alpha_schedule
    if args.amplitude is not None:
        cfg.amplitude = args.amplitude
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
    "solve-stokes": _cmd_solve_stokes,
    "solve-ns": _cmd_solve_ns,
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
