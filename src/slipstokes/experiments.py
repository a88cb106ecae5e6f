"""Parameter sweeps, convergence studies and their reports.

Experiment kinds
----------------
``mms``               manufactured-solution convergence on the square
``alpha_to_zero``     friction -> 0 limit against the frictionless solution
``alpha_to_infinity`` friction -> oo limit against the clamped solution
``uniform_bound``     solution size across a friction sweep
``compat_disk``       boundary circulation decay for compatible disk data
``spectra_suite``     Korn and inf-sup constants across levels
``ns_mms``            nonlinear manufactured-solution convergence
``ns_limits``         nonlinear friction sweep with convergence bookkeeping

Reports are deterministic given the config: rows are plain floats
formatted with 17 significant digits, and the CSV writer emits LF line
endings unconditionally.  Rate fits drop pre-asymptotic points by a fixed
stored rule (values above 0.3 times the first value) and always use at
least three points.
"""

import configparser
import csv
import io
import json
import platform
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy

from . import __version__ as _version
from . import fem, forms
from .constraints import build_dirichlet_plan
from .errors import (IncompatibleData, InvalidArgument, MaxIterations,
                     NumericalError, SingularSystem)
from .fields import (ProblemData, disk_compatible_forcing, navier_stokes_mms,
                     stokes_mms, sweep_forcing)
from .mesh import make_disk, make_unit_square
from .navierstokes import PicardOptions, solve_navier_stokes
from .spectra import infsup_constant, korn_quotient_min
from .stokes import (check_compatibility, solve_friction_sweep,
                     solve_stokes)
from .fem import pressure_error_l2, velocity_error_h1

KINDS = ("mms", "alpha_to_zero", "alpha_to_infinity", "uniform_bound",
         "compat_disk", "spectra_suite", "ns_mms", "ns_limits")

COMPAT_TOL = 1e-10
FIT_DROP_FACTOR = 0.3


@dataclass
class ExperimentConfig:
    """Validated description of one experiment run."""

    kind: str
    domain: str = "square"
    levels: tuple = (8, 16, 32)
    radius: float = 1.0
    alpha: float = 1.0
    alpha_schedule: tuple = ()
    data: str = "default"
    amplitude: float | None = None
    picard: PicardOptions = field(default_factory=PicardOptions)

    def validate(self):
        if self.kind not in KINDS:
            raise InvalidArgument(f"unknown experiment kind {self.kind!r}; "
                                  f"choose one of {KINDS}")
        if self.domain not in ("square", "disk"):
            raise InvalidArgument(f"unknown domain {self.domain!r}")
        if not self.levels or any(l < (0 if self.domain == 'disk' else 1)
                                  for l in self.levels):
            raise InvalidArgument(f"bad level list {self.levels!r}")
        if list(self.levels) != sorted(set(self.levels)):
            raise InvalidArgument("levels must be strictly increasing")
        values = np.array([self.alpha, *self.alpha_schedule], dtype=float)
        if not (np.isfinite(values) & (values >= 0.0)).all():
            raise InvalidArgument("friction values must be finite and nonnegative")
        # Beyond these magnitudes errors and energies underflow or overflow.
        if self.amplitude and not 1e-100 <= abs(self.amplitude) <= 1e100:
            raise InvalidArgument("amplitude must be 0 or finite in magnitude "
                                  f"[1e-100, 1e100], got {self.amplitude}")
        return self


@dataclass
class RunReport:
    """Rows plus fits plus the configuration echo for one experiment.

    ``krylov`` holds, row by row, the GMRES iterations of the friction
    sweeps' solves (None where a system was factored, up front too).  It
    goes to ``report.json`` only, never to the deterministic ``report.csv``.
    """

    kind: str
    columns: tuple
    rows: list
    fits: dict
    config_echo: dict
    environment: dict
    wall_times: dict
    krylov: list | None = None

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()

    def to_manifest(self):
        manifest = {
            "kind": self.kind,
            "version": _version,
            "config": self.config_echo,
            "environment": self.environment,
            "fits": self.fits,
            "wall_times_s": self.wall_times,
        }
        if self.krylov is not None:
            manifest["krylov_iterations"] = self.krylov
        return json.dumps(manifest, indent=2, sort_keys=True)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def fit_rate(x, y):
    """Least-squares slope of log(y) against log(x) with the stored drop rule.

    Points with ``y > FIT_DROP_FACTOR * y[0]`` are excluded as pre-asymptotic;
    if fewer than three points survive, the last three are used.  Returns
    a dict with slope, intercept, rms residual and the used point count.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise InvalidArgument("rate fits need at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise InvalidArgument("rate fits need positive data")
    keep = y <= FIT_DROP_FACTOR * y[0]
    if keep.sum() < 3:
        keep = np.zeros(len(x), dtype=bool)
        keep[-3:] = True
    lx, ly = np.log(x[keep]), np.log(y[keep])
    A = np.column_stack([lx, np.ones(lx.size)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    return {"slope": float(coef[0]), "intercept": float(coef[1]),
            "residual_rms": float(np.sqrt(np.mean(resid ** 2))),
            "points_used": int(keep.sum())}


def _make_mesh(cfg, level):
    if cfg.domain == "square":
        return make_unit_square(level)
    return make_disk(level, cfg.radius)


def _timed(wall, key, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its wall time stored as ``wall[key]``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall[key] = time.perf_counter() - t0
    return out


def _ladder(cfg, cells):
    """Rows ``(level, h, *cells(mesh))`` over ``cfg.levels``, each level timed."""
    wall, rows = {}, []
    for level in cfg.levels:
        t0 = time.perf_counter()
        mesh = _make_mesh(cfg, level)
        row = (level, mesh.mesh_size(), *cells(mesh))
        wall[f"level_{level}"] = time.perf_counter() - t0
        rows.append(row)
    return rows, wall


def _mms_study(cfg, case, columns, solve):
    """The manufactured-solution ladder and its two rate fits.

    ``solve(mesh)`` returns ``(Solution, extra cells)``; each row holds the
    velocity H1 and pressure L2 errors against ``case``, then the extras.
    """
    def cells(mesh):
        sol, extra = solve(mesh)
        _, err_h1 = velocity_error_h1(sol.fe, sol.u, case["u"].value,
                                      case["u"].grad)
        return (err_h1, pressure_error_l2(sol.fe, sol.p, case["p"]), *extra)

    rows, wall = _ladder(cfg, cells)
    h = [r[1] for r in rows]
    fits = {"velocity_h1": fit_rate(h, [r[2] for r in rows]),
            "pressure_l2": fit_rate(h, [r[3] for r in rows])}
    return _report(cfg, ("level", "h", "error_h1", "error_pressure_l2",
                         *columns), rows, fits, wall)


def run_mms(cfg):
    case = stokes_mms(alpha=cfg.alpha, amplitude=(
        1.0 if cfg.amplitude is None else cfg.amplitude))

    def solve(mesh):
        sol = solve_stokes(mesh, case["data"])
        return sol, (sol.diagnostics["energy_residual"],)

    return _mms_study(cfg, case, ("energy_residual",), solve)


def _sweep_data(cfg):
    if cfg.data in ("default", "sweep"):
        return sweep_forcing()
    if cfg.data == "mms":
        return stokes_mms(alpha=cfg.alpha)["data"]
    raise InvalidArgument(f"unknown data selector {cfg.data!r}")


def _finest(cfg, schedule):
    """The finest mesh, its system and the friction schedule of a sweep.

    The caller holds the system through the sweep, so every solve on the
    mesh shares it.
    """
    mesh = _make_mesh(cfg, cfg.levels[-1])
    return mesh, fem.build_taylor_hood(mesh), cfg.alpha_schedule or schedule


def run_alpha_to_zero(cfg):
    """Distance to the frictionless solution along a friction schedule."""
    wall = {}
    mesh, fe, schedule = _finest(cfg, tuple(2.0 ** (-k) for k in range(2, 13)))
    H1 = forms.assemble_velocity_h1(fe)
    base = _sweep_data(cfg)

    data = ProblemData(f=base.f, F=base.F, h=base.h, compatibility_mode=True)
    (sol0, *sols), (krylov0, *krylov) = _timed(
        wall, "sweep", solve_friction_sweep, mesh, data, (0.0, *schedule))
    rows = [(float(alpha), forms.velocity_h1_norm(H1, sol.u - sol0.u),
             sol.diagnostics["h1_norm"], sol.diagnostics["energy_residual"])
            for alpha, sol in zip(schedule, sols)]
    fits = {"limit_rate": fit_rate([r[0] for r in rows], [r[1] for r in rows])}
    rows.append((0.0, 0.0, sol0.diagnostics["h1_norm"],
                 sol0.diagnostics["energy_residual"]))
    return _report(cfg, ("alpha", "error_h1_vs_reference", "h1_norm",
                         "energy_residual"), rows, fits, wall,
                   krylov=[*krylov, krylov0])


def run_alpha_to_infinity(cfg):
    """Distance to the clamped solution along a growing friction schedule."""
    wall = {}
    mesh, fe, schedule = _finest(cfg, tuple(10.0 ** k for k in range(7)))
    H1 = forms.assemble_velocity_h1(fe)
    base = _sweep_data(cfg)

    ud = _timed(wall, "dirichlet_reference", solve_stokes, mesh, base,
                plan=build_dirichlet_plan(fe)).u
    ud_norm = forms.velocity_h1_norm(H1, ud)
    sols, krylov = _timed(wall, "sweep", solve_friction_sweep, mesh, base,
                          schedule)
    rows = [(float(alpha), forms.velocity_h1_norm(H1, sol.u - ud),
             sol.diagnostics["boundary_tangential_l2"],
             sol.diagnostics["energy_residual"])
            for alpha, sol in zip(schedule, sols)]
    alphas = [r[0] for r in rows]
    fits = {
        "tangential_rate": fit_rate(alphas, [r[2] for r in rows]),
        "gap_rate": fit_rate(alphas, [r[1] for r in rows]),
    }
    fits["final_relative_gap"] = {"value": rows[-1][1] / ud_norm,
                                  "reference_h1": ud_norm}
    return _report(cfg, ("alpha", "error_h1_vs_dirichlet",
                         "boundary_tangential_l2", "energy_residual"),
                   rows, fits, wall, krylov=krylov)


def run_uniform_bound(cfg):
    """Solution size across a friction sweep; the ratio is the headline."""
    wall = {}
    mesh, fe, schedule = _finest(cfg, (0.0, 1e-2, 1.0, 1e2, 1e4, 1e6))
    base = _sweep_data(cfg)

    data = ProblemData(f=base.f, F=base.F, h=base.h, compatibility_mode=True)
    sols, krylov = _timed(wall, "sweep", solve_friction_sweep, mesh, data,
                          schedule)
    rows = []
    for alpha, sol in zip(schedule, sols):
        d = sol.diagnostics
        rows.append((float(alpha), d["h1_norm"] + d["pressure_l2"],
                     d["h1_norm"], d["pressure_l2"], d["energy_residual"]))
    sizes = [r[1] for r in rows]
    fits = {"uniformity": {"max_over_min": max(sizes) / min(sizes),
                           "max": max(sizes), "min": min(sizes)}}
    return _report(cfg, ("alpha", "solution_size", "h1_norm", "pressure_l2",
                         "energy_residual"), rows, fits, wall, krylov=krylov)


def run_compat_disk(cfg):
    """Boundary circulation decay for compatible data on the disk."""
    if cfg.domain != "disk":
        raise InvalidArgument("the compatibility study runs on the disk")
    data = disk_compatible_forcing(alpha=cfg.alpha if cfg.alpha > 0 else 1.0)

    def cells(mesh):
        fe = fem.build_taylor_hood(mesh)   # held: both calls share it
        defect = check_compatibility(mesh, data)
        if not abs(defect) <= COMPAT_TOL:
            raise IncompatibleData(
                f"compatibility defect {defect:.3e} exceeds {COMPAT_TOL:.1e}")
        sol = solve_stokes(mesh, data)
        circulation = abs(float(
            forms.boundary_rotation_functional(fe) @ sol.u))
        return defect, circulation, sol.diagnostics["h1_norm"]

    rows, wall = _ladder(cfg, cells)
    h = [r[1] for r in rows]
    circ = [r[3] for r in rows]
    # With discretely compatible data the circulation is zero to rounding
    # at every level; the rate fit only means something above that floor.
    fits = {"circulation_rate": fit_rate(h, [max(c, 1e-300) for c in circ]),
            "machine_zero": bool(max(circ) <= 1e-13)}
    return _report(cfg, ("level", "h", "compatibility_defect",
                         "boundary_circulation", "h1_norm"), rows, fits, wall)


def run_spectra_suite(cfg):
    coarser = [None, None, None]    # each constant's estimate: the level below

    def cells(mesh):
        fe = fem.build_taylor_hood(mesh)   # held: the three calls share it
        korn0 = korn_quotient_min(mesh, alpha=0.0, estimate=coarser[0])
        korn1 = korn_quotient_min(mesh, alpha=cfg.alpha if cfg.alpha > 0 else 1.0,
                                  estimate=coarser[1])
        gamma = infsup_constant(mesh, estimate=coarser[2])
        coarser[:] = korn0.constant, korn1.constant, gamma.constant
        return (*coarser, korn0.n_dofs)

    rows, wall = _ladder(cfg, cells)
    return _report(cfg, ("level", "h", "korn_no_friction", "korn_with_friction",
                         "infsup", "n_dofs"), rows, {}, wall)


def run_ns_mms(cfg):
    case = navier_stokes_mms(alpha=cfg.alpha, amplitude=(
        0.15 if cfg.amplitude is None else cfg.amplitude))

    def solve(mesh):
        sol, log = solve_navier_stokes(mesh, case["data"], options=cfg.picard)
        return sol, (len(log.rows), sol.diagnostics["energy_residual"])

    return _mms_study(cfg, case, ("iterations", "energy_residual"), solve)


def run_ns_limits(cfg):
    """Nonlinear friction sweep; records the friction range that converged."""
    wall = {}
    mesh, fe, schedule = _finest(cfg, tuple(10.0 ** k for k in range(7)))
    H1 = forms.assemble_velocity_h1(fe)
    case = navier_stokes_mms(alpha=1.0, amplitude=(
        0.15 if cfg.amplitude is None else cfg.amplitude))
    base = case["data"]

    u_d = _timed(wall, "dirichlet_reference", solve_navier_stokes, mesh, base,
                 options=cfg.picard, plan=build_dirichlet_plan(fe))[0].u
    ud_norm = forms.velocity_h1_norm(H1, u_d)

    rows = []
    achieved = []
    t0 = time.perf_counter()
    for alpha in schedule:
        data = ProblemData(f=base.f, F=base.F, h=base.h, alpha=float(alpha))
        try:
            sol, log = solve_navier_stokes(mesh, data, options=cfg.picard)
        except (MaxIterations, SingularSystem, NumericalError):
            rows.append((float(alpha), np.nan, np.nan, 0, False))
            continue
        rows.append((float(alpha), forms.velocity_h1_norm(H1, sol.u - u_d),
                     sol.diagnostics["boundary_tangential_l2"],
                     len(log.rows), True))
        achieved.append(float(alpha))
    wall["sweep"] = time.perf_counter() - t0
    fits = {"achieved_range": {"min": min(achieved) if achieved else np.nan,
                               "max": max(achieved) if achieved else np.nan,
                               "reference_h1": ud_norm,
                               "final_relative_gap": rows[-1][1] / ud_norm
                               if achieved and ud_norm else np.nan}}
    return _report(cfg, ("alpha", "error_h1_vs_dirichlet",
                         "boundary_tangential_l2", "iterations", "converged"),
                   rows, fits, wall)


_RUNNERS = {
    "mms": run_mms,
    "alpha_to_zero": run_alpha_to_zero,
    "alpha_to_infinity": run_alpha_to_infinity,
    "uniform_bound": run_uniform_bound,
    "compat_disk": run_compat_disk,
    "spectra_suite": run_spectra_suite,
    "ns_mms": run_ns_mms,
    "ns_limits": run_ns_limits,
}


def run_experiment(cfg):
    """Dispatch one validated config to its runner."""
    cfg.validate()
    return _RUNNERS[cfg.kind](cfg)


def _config_echo(cfg):
    echo = asdict(cfg)
    echo["picard"] = asdict(cfg.picard)
    echo["levels"] = list(cfg.levels)
    echo["alpha_schedule"] = list(cfg.alpha_schedule)
    return echo


def _report(cfg, columns, rows, fits, wall, krylov=None):
    return RunReport(kind=cfg.kind, columns=columns, rows=rows, fits=fits,
                     config_echo=_config_echo(cfg), environment=_environment(),
                     wall_times=wall, krylov=krylov)


def write_report(report, outdir):
    """Write report.csv (deterministic bytes) and report.json next to it."""
    import os
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "report.csv")
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        fh.write(report.to_csv())
    json_path = os.path.join(outdir, "report.json")
    with open(json_path, "w", encoding="ascii", newline="") as fh:
        fh.write(report.to_manifest() + "\n")
    return csv_path, json_path


def parse_config(path, kind=None):
    """Read a flat ``key = value`` config with the standard sections.

    Sections: [domain], [data], [alpha], [solver], [output].  Unknown keys
    raise ``InvalidArgument`` so typos surface as config errors.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise InvalidArgument(f"config file {path!r} not found")

    cfg = ExperimentConfig(kind=kind or "mms")
    known = {
        ("domain", "kind"): lambda v: setattr(cfg, "domain", v),
        ("domain", "levels"): lambda v: setattr(
            cfg, "levels", tuple(int(s) for s in v.split(","))),
        ("domain", "radius"): lambda v: setattr(cfg, "radius", float(v)),
        ("data", "selector"): lambda v: setattr(cfg, "data", v),
        ("data", "amplitude"): lambda v: setattr(cfg, "amplitude", float(v)),
        ("alpha", "value"): lambda v: setattr(cfg, "alpha", float(v)),
        ("alpha", "schedule"): lambda v: setattr(
            cfg, "alpha_schedule", tuple(float(s) for s in v.split(","))),
        ("solver", "max_iterations"): lambda v: setattr(
            cfg.picard, "max_iterations", int(v)),
        ("solver", "tol"): lambda v: setattr(cfg.picard, "tol", float(v)),
        ("solver", "damping"): lambda v: setattr(cfg.picard, "damping", float(v)),
        ("solver", "initial_guess"): lambda v: setattr(
            cfg.picard, "initial_guess", v),
        ("output", "dir"): lambda v: None,   # consumed by the CLI
    }
    for section in parser.sections():
        if section not in ("domain", "data", "alpha", "solver", "output"):
            raise InvalidArgument(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            handler = known.get((section, key))
            if handler is None:
                raise InvalidArgument(f"unknown config key {key!r} in [{section}]")
            try:
                handler(value)
            except ValueError as exc:
                raise InvalidArgument(
                    f"bad value {value!r} for {key!r}: {exc}") from exc
    outdir = parser.get("output", "dir", fallback=None)
    return cfg, outdir
