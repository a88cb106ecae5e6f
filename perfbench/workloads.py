"""The four benchmark workloads.

Each workload draws its data parameters from a seeded ``random.Random``,
builds its meshes and data in ``setup``, does its timed work in ``run`` and
checks the outputs in ``check``.  ``scratch`` is a directory inside the
checkout that the workload may write to.  Meshes, levels and call counts never
depend on the seed.  Every call into the package goes through the module
attribute (``ss.solve_stokes``), so the tracer sees it when installed.

This module imports neither numpy nor the package at import time, so that
the entry point can time the package import on its own.
"""

import os
import tempfile

# Gates of the package itself (stokes.ENERGY_RTOL, saddle.RESIDUAL_RTOL).
ENERGY_RTOL = 1e-8
RESIDUAL_RTOL = 1e-10
MACHINE_ZERO = 1e-13


class Calls:
    """Counts top-level calls into the package and the ones that failed.

    A call fails when it raises a package error it was not expected to
    raise.  An expected refusal counts as a success; a call that should
    have been refused but returned is a wrong outcome, which the workload
    reports as a failed check.
    """

    def __init__(self, ss):
        self.ss = ss
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *args, refuse=None, **kwargs):
        """Returns ``(result, error)``; exactly one of them is None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs), None
        except self.ss.SlipStokesError as exc:
            if refuse is None or not isinstance(exc, refuse):
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None, exc


class Checks:
    """Named pass/fail output checks with a one-line detail each."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def _column(report, name):
    return [row[report.columns.index(name)] for row in report.rows]


def _energy_column_ok(checks, label, report):
    # Reports carry the absolute energy residual only, so the gate is taken
    # at unit energy scale, its strictest form.
    worst = max(_column(report, "energy_residual"))
    checks.add(f"{label}: energy residual", worst <= ENERGY_RTOL,
               f"worst {worst:.2e} <= {ENERGY_RTOL:.0e}")


def _gates_ok(checks, label, diag):
    rel = diag["energy_residual"] / max(abs(diag["energy_lhs"]), 1.0)
    checks.add(f"{label}: energy gate", rel <= ENERGY_RTOL,
               f"relative {rel:.2e} <= {ENERGY_RTOL:.0e}")
    checks.add(f"{label}: linear residual",
               diag["linear_residual"] <= RESIDUAL_RTOL,
               f"{diag['linear_residual']:.2e} <= {RESIDUAL_RTOL:.0e}")


def _fit_ok(checks, label, fit, lo, hi):
    checks.add(label, lo <= fit["slope"] <= hi,
               f"slope {fit['slope']:.3f} in [{lo}, {hi}]")


class StokesLadder:
    """mms convergence at levels 16/32/64; the level-64 LU is most of it."""

    name = "stokes_ladder"

    def params(self, rng):
        # alpha stays 1 so the matrices, and with them the fill and the
        # factorization cost, are those of the recorded baseline; the seed
        # moves only the data.
        return {"alpha": 1.0, "amplitude": rng.uniform(0.8, 1.25)}

    def setup(self, ss, p, scratch):
        return {"cfg": ss.ExperimentConfig(kind="mms", levels=(16, 32, 64),
                                           alpha=p["alpha"],
                                           amplitude=p["amplitude"])}

    def run(self, ss, ctx, calls):
        report, _ = calls.run(ss.run_experiment, ctx["cfg"])
        return {"report": report}

    def check(self, ss, ctx, out, checks):
        rep = out["report"]
        if not checks.add("mms experiment ran", rep is not None):
            return
        _fit_ok(checks, "criterion 01: H1 velocity rate",
                rep.fits["velocity_h1"], 1.85, 2.3)
        _fit_ok(checks, "criterion 01: L2 pressure rate",
                rep.fits["pressure_l2"], 1.7, 2.3)
        _energy_column_ok(checks, "mms", rep)


class FrictionSweep:
    """Both friction limit studies plus an ill-scaled tail on one mesh."""

    name = "friction_sweep"

    TAIL = (1e8, 1e10, 1e11, 1e12)

    def params(self, rng):
        # Each point is jittered on its own, inside a factor that keeps the
        # schedule increasing and the tail on its side of 2e10.  The
        # alpha -> oo sweep keeps its default decades 1..1e6: between 10
        # and 1e3 a 5% change of alpha moves the partial-pivoting fill
        # between 5.2M and 12M, which would make time and memory depend on
        # the seed rather than on the code.
        return {
            "to_zero": [2.0 ** (-k) * 2.0 ** rng.uniform(-0.25, 0.25)
                        for k in range(2, 13)],
            "tail": [a * rng.uniform(0.8, 1.25) for a in self.TAIL],
        }

    def setup(self, ss, p, scratch):
        mesh = ss.make_unit_square(32)
        base = ss.sweep_forcing()
        return {
            "mesh": mesh,
            "tail": [ss.ProblemData(f=base.f, F=base.F, h=base.h, alpha=a)
                     for a in p["tail"]],
            "to_zero": ss.ExperimentConfig(
                kind="alpha_to_zero", levels=(32,),
                alpha_schedule=tuple(p["to_zero"])),
            "to_infinity": ss.ExperimentConfig(
                kind="alpha_to_infinity", levels=(32,)),
        }

    def run(self, ss, ctx, calls):
        zero, _ = calls.run(ss.run_experiment, ctx["to_zero"])
        inf, _ = calls.run(ss.run_experiment, ctx["to_infinity"])
        tail = [calls.run(ss.solve_stokes, ctx["mesh"], data)[0]
                for data in ctx["tail"]]
        return {"zero": zero, "inf": inf, "tail": tail}

    def check(self, ss, ctx, out, checks):
        zero, inf = out["zero"], out["inf"]
        if checks.add("alpha_to_zero ran", zero is not None):
            fit = zero.fits["limit_rate"]
            _fit_ok(checks, "criterion 04: limit rate", fit, 0.85, 1.15)
            checks.add("criterion 04: fit residual", fit["residual_rms"] < 0.05,
                       f"{fit['residual_rms']:.4f} < 0.05")
            _energy_column_ok(checks, "alpha_to_zero", zero)
        if not checks.add("alpha_to_infinity ran", inf is not None):
            return
        _fit_ok(checks, "criterion 05: tangential rate",
                inf.fits["tangential_rate"], -1.15, -0.85)
        gap = inf.fits["final_relative_gap"]["value"]
        checks.add("criterion 05: gap to the clamped solution", gap <= 1e-3,
                   f"{gap:.2e} <= 1e-3")
        _energy_column_ok(checks, "alpha_to_infinity", inf)
        # Past the last sweep point the tangential trace keeps decaying like
        # 1/alpha, so alpha * |u_t| stays at its value there.
        ref = inf.rows[-1][0] * inf.rows[-1][2]
        for data, sol in zip(ctx["tail"], out["tail"]):
            if sol is None:
                continue
            label = f"tail alpha {data.alpha:.3g}"
            _gates_ok(checks, label, sol.diagnostics)
            flat = data.alpha * sol.diagnostics["boundary_tangential_l2"] / ref
            checks.add(f"{label}: alpha * |u_t| flat", abs(flat - 1.0) <= 0.01,
                       f"ratio to the last sweep point {flat:.4f}, within 1%")


class PicardNS:
    """Picard Navier-Stokes solves, their storage, and ns_limits."""

    name = "picard_ns"

    # Bound on the relative H1 error against the manufactured solution at
    # level 32; 9.1e-4 is measured across the amplitude range.
    H1_BOUND = 2e-3

    def params(self, rng):
        # One amplitude near each end and one in the middle of [3.5, 4.5]:
        # partial pivoting gives three different fills there, and every run
        # meets all three.
        return {"amplitudes": [3.5 + 0.04 * rng.random(),
                               3.98 + 0.04 * rng.random(),
                               4.5 - 0.04 * rng.random()]}

    def setup(self, ss, p, scratch):
        return {
            "mesh": ss.make_unit_square(32),
            "cases": [ss.navier_stokes_mms(alpha=1.0, amplitude=a)
                      for a in p["amplitudes"]],
            "limits": ss.ExperimentConfig(kind="ns_limits", levels=(16,)),
            "scratch": scratch,
        }

    def run(self, ss, ctx, calls):
        root = tempfile.mkdtemp(dir=ctx["scratch"], prefix="runs-")
        solves = []
        for k, case in enumerate(ctx["cases"]):
            result, _ = calls.run(ss.solve_navier_stokes, ctx["mesh"],
                                  case["data"])
            entry = None
            if result is not None:
                sol = result[0]
                entry, _ = calls.run(ss.store_run, os.path.join(root, str(k)),
                                     "navier-stokes", sol.u, sol.p,
                                     sol.diagnostics)
            solves.append((result, entry))
        limits, _ = calls.run(ss.run_experiment, ctx["limits"])
        return {"solves": solves, "limits": limits}

    def check(self, ss, ctx, out, checks):
        import numpy as np
        for case, (result, entry) in zip(ctx["cases"], out["solves"]):
            label = f"NS amplitude {case['amplitude']:.3f}"
            if not checks.add(f"{label}: solved", result is not None):
                continue
            sol, log = result
            checks.add(f"{label}: converged", log.converged,
                       f"{len(log.rows)} sweeps")
            _gates_ok(checks, label, sol.diagnostics)
            fe = sol.fe
            _, err = ss.velocity_error_h1(fe, sol.u, case["u"].value,
                                          case["u"].grad)
            zero = np.zeros_like(sol.u)
            _, size = ss.velocity_error_h1(fe, zero, case["u"].value,
                                           case["u"].grad)
            checks.add(f"{label}: H1 error", err <= self.H1_BOUND * size,
                       f"relative {err / size:.2e} <= {self.H1_BOUND:.0e}")
            if checks.add(f"{label}: stored", entry is not None):
                u, p, _ = ss.load_solution(entry.path)
                checks.add(f"{label}: stored bytes read back",
                           u.tobytes() == sol.u.tobytes()
                           and p.tobytes() == sol.p.tobytes())
        limits = out["limits"]
        if checks.add("ns_limits ran", limits is not None):
            top = limits.fits["achieved_range"]["max"]
            checks.add("ns_limits reaches alpha = 1e6", top >= 1e6,
                       f"largest converged alpha {top:.3g}")


class DiskKernel:
    """Korn dichotomy, inf-sup, rotation moments and the disk kernel."""

    name = "disk_kernel"

    DISK_LEVELS = (1, 2, 3, 4)

    def params(self, rng):
        return {"radius": rng.uniform(0.8, 1.25)}

    def setup(self, ss, p, scratch):
        r = p["radius"]
        guarded = ss.disk_compatible_forcing(alpha=0.0)
        guarded.compatibility_mode = True
        return {
            "disk4": ss.make_disk(4, r),
            "disk5": ss.make_disk(5, r),
            "guarded": guarded,
            "unguarded": ss.disk_compatible_forcing(alpha=0.0),
            "spectra_disk": ss.ExperimentConfig(
                kind="spectra_suite", domain="disk", levels=self.DISK_LEVELS,
                radius=r, alpha=1.0),
            "spectra_square": ss.ExperimentConfig(
                kind="spectra_suite", levels=(8, 16, 32), alpha=1.0),
            "compat": ss.ExperimentConfig(
                kind="compat_disk", domain="disk", levels=self.DISK_LEVELS,
                radius=r, alpha=1.0),
        }

    def run(self, ss, ctx, calls):
        return {
            "spectra_disk": calls.run(ss.run_experiment,
                                      ctx["spectra_disk"])[0],
            "spectra_square": calls.run(ss.run_experiment,
                                        ctx["spectra_square"])[0],
            "beta": calls.run(ss.beta_inequality_checks, ctx["disk5"])[0],
            "compat": calls.run(ss.run_experiment, ctx["compat"])[0],
            "guarded": calls.run(ss.solve_stokes, ctx["disk4"],
                                 ctx["guarded"])[0],
            "unguarded": calls.run(ss.solve_stokes, ctx["disk4"],
                                   ctx["unguarded"],
                                   refuse=ss.SingularSystem),
        }

    @staticmethod
    def _infsup_ok(checks, label, rep):
        gammas = _column(rep, "infsup")
        variation = (max(gammas) - min(gammas)) / max(gammas)
        checks.add(f"{label}: inf-sup variation", variation < 0.10,
                   f"{100 * variation:.2f}% < 10%")

    def check(self, ss, ctx, out, checks):
        disk, square = out["spectra_disk"], out["spectra_square"]
        if checks.add("disk spectra ran", disk is not None):
            korn0 = _column(disk, "korn_no_friction")
            checks.add("disk Korn without friction is exactly 0",
                       all(k == 0.0 for k in korn0), f"{korn0}")
            korn1 = min(_column(disk, "korn_with_friction"))
            checks.add("disk Korn with friction", korn1 >= 1e-3,
                       f"min {korn1:.3f} >= 1e-3")
            self._infsup_ok(checks, "disk", disk)
        if checks.add("square spectra ran", square is not None):
            korn0 = min(_column(square, "korn_no_friction"))
            checks.add("square Korn without friction", korn0 >= 1e-3,
                       f"min {korn0:.3f} >= 1e-3")
            self._infsup_ok(checks, "square", square)
        beta = out["beta"]
        if checks.add("beta inequalities ran", beta is not None):
            low = min(r.constant for r in beta.values())
            checks.add("beta inequality constants positive", low >= 1e-3,
                       f"min {low:.3f} >= 1e-3")
        compat = out["compat"]
        if checks.add("compat_disk ran", compat is not None):
            circ = max(_column(compat, "boundary_circulation"))
            checks.add("circulation at machine zero", circ <= MACHINE_ZERO,
                       f"max {circ:.1e} <= {MACHINE_ZERO:.0e}")
        if checks.add("guarded alpha = 0 solve", out["guarded"] is not None):
            _gates_ok(checks, "guarded", out["guarded"].diagnostics)
        result, error = out["unguarded"]
        checks.add("unguarded alpha = 0 solve raises SingularSystem",
                   result is None and isinstance(error, ss.SingularSystem),
                   "refused" if result is None else "returned a solution")


WORKLOADS = {w.name: w for w in (StokesLadder(), FrictionSweep(), PicardNS(),
                                 DiskKernel())}
