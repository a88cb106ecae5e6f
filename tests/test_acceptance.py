"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verdict lines appear
in the PASSES section (``-rP`` is set in pyproject) or, on failure, in the
failure report.  Tolerances here are contractual; do not loosen them to
make a red criterion green.
"""

import time

import numpy as np

from slipstokes import (ProblemData, build_taylor_hood, disk_compatible_forcing,
                        disk_tangential_drive, infsup_constant,
                        korn_quotient_min, make_compatible, make_disk,
                        make_unit_square, navier_stokes_mms,
                        solve_navier_stokes, solve_stokes, stokes_mms,
                        sweep_forcing)
from slipstokes import forms
from slipstokes.experiments import ExperimentConfig, run_experiment
from slipstokes.fem import velocity_error_h1, pressure_error_l2
from slipstokes.fields import asymmetric_forcing
from slipstokes.navierstokes import (PicardOptions, smallness_indicator,
                                     trilinear_defects)
from slipstokes.stokes import exponent_r, exponent_t


def verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def fit_slope(x, y):
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def energy_ok(diag):
    return diag["energy_residual"] <= 1e-8 * max(abs(diag["energy_lhs"]), 1.0)


def energy_scaled_ok(diag):
    """The solver's own statistic: the defect against ``|b| |x|``."""
    return diag["energy_residual"] <= 1e-8 * diag["energy_scale"]


def test_criterion_01_stokes_mms():
    mms = stokes_mms(alpha=1.0)
    t0 = time.perf_counter()
    hs, eu, ep = [], [], []
    for n in (8, 16, 32, 64):
        sol = solve_stokes(make_unit_square(n), mms["data"])
        _, h1 = velocity_error_h1(sol.fe, sol.u, mms["u"].value, mms["u"].grad)
        hs.append(1.0 / n)
        eu.append(h1)
        ep.append(pressure_error_l2(sol.fe, sol.p, mms["p"]))
    elapsed = time.perf_counter() - t0
    ru, rp = fit_slope(hs, eu), fit_slope(hs, ep)
    ok = 1.85 <= ru <= 2.3 and 1.7 <= rp <= 2.3 and elapsed < 60.0
    verdict(1, ok, f"H1 velocity rate {ru:.3f} in [1.85,2.3], "
                   f"L2 pressure rate {rp:.3f} in [1.7,2.3], "
                   f"levels 8..64 in {elapsed:.1f}s < 60s")


def test_criterion_02_energy_identity():
    battery = [
        ("square mms a=1", make_unit_square(8), stokes_mms(alpha=1.0)["data"]),
        ("square mms a=0", make_unit_square(8), stokes_mms(alpha=0.0)["data"]),
        ("square mms a=100", make_unit_square(8),
         stokes_mms(alpha=100.0)["data"]),
        ("square sweep a=1e4", make_unit_square(8),
         ProblemData(f=sweep_forcing().f, alpha=1e4)),
        ("disk drive a=2", make_disk(2), disk_tangential_drive(2.0)["data"]),
        ("disk compat a=1", make_disk(2), disk_compatible_forcing(alpha=1.0)),
    ]
    guarded = disk_compatible_forcing(alpha=0.0)
    guarded.compatibility_mode = True
    battery.append(("disk guarded a=0", make_disk(2), guarded))
    # f = (1, 0) has zero velocity; the asymmetric force made compatible
    # on the mesh has |u|_H1 about 0.2, with friction and under the guard.
    asym = make_compatible(make_disk(2), asymmetric_forcing(alpha=1.0))
    battery.append(("disk compat asym a=1", make_disk(2), asym))
    battery.append(("disk guarded asym a=0", make_disk(2), ProblemData(
        f=asym.f, alpha=0.0, compatibility_mode=True)))
    # A pressure gradient absorbs a large constant force; the velocity is
    # zero to rounding, so only the scaled statistic judges these.
    force = ProblemData(f=2.0 ** 20 * np.array([0.3, -0.7]), alpha=1.0)
    absorbed = [("square force 2^20", make_unit_square(8), force),
                ("disk force 2^20", make_disk(2), force)]

    worst, worst_name = 0.0, ""
    scaled, scaled_name = 0.0, ""
    ok = True
    diags = []
    for name, mesh, data in battery:
        diag = solve_stokes(mesh, data).diagnostics
        rel = diag["energy_residual"] / max(abs(diag["energy_lhs"]), 1.0)
        ok = ok and energy_ok(diag)
        if rel > worst:
            worst, worst_name = rel, name
        diags.append((name, diag))
    ns_sol, _ = solve_navier_stokes(make_unit_square(8),
                                    navier_stokes_mms()["data"])
    ok = ok and energy_ok(ns_sol.diagnostics)
    diags.append(("square ns mms", ns_sol.diagnostics))
    diags += [(name, solve_stokes(mesh, data).diagnostics)
              for name, mesh, data in absorbed]
    for name, diag in diags:
        ok = ok and energy_scaled_ok(diag)
        rel = diag["energy_residual"] / diag["energy_scale"]
        if rel > scaled:
            scaled, scaled_name = rel, name
    verdict(2, ok, f"{len(battery) + 1} solves, worst relative energy defect "
                   f"{worst:.2e} ({worst_name}) <= 1e-8; against |b| |x| on "
                   f"these and {len(absorbed)} absorbed forces, worst "
                   f"{scaled:.2e} ({scaled_name}) <= 1e-8")


def test_criterion_03_uniform_in_alpha():
    cfg = ExperimentConfig(kind="uniform_bound", levels=(32,))
    report = run_experiment(cfg)
    ratio = report.fits["uniformity"]["max_over_min"]
    ok = ratio <= 10.0
    verdict(3, ok, f"max/min of |u|_H1 + |p|_L2 over "
                   f"alpha in {{0,1e-2,1,1e2,1e4,1e6}} is {ratio:.3f} <= 10")


def test_criterion_04_alpha_to_zero():
    cfg = ExperimentConfig(kind="alpha_to_zero", levels=(32,))
    report = run_experiment(cfg)
    fit = report.fits["limit_rate"]
    ok = 0.85 <= fit["slope"] <= 1.15 and fit["residual_rms"] < 0.05
    verdict(4, ok, f"|u_a - u_0|_H1 ~ a^{fit['slope']:.3f} over a=2^-k, "
                   f"k=2..12 (residual {fit['residual_rms']:.4f} < 0.05)")


def test_criterion_05_alpha_to_infinity():
    cfg = ExperimentConfig(kind="alpha_to_infinity", levels=(32,))
    report = run_experiment(cfg)
    slope = report.fits["tangential_rate"]["slope"]
    gap = report.fits["final_relative_gap"]["value"]
    ok = -1.15 <= slope <= -0.85 and gap <= 1e-3
    verdict(5, ok, f"|u_tan|_L2(boundary) ~ a^{slope:.3f}, "
                   f"|u_1e6 - u_Dirichlet|_H1 = {gap:.2e} x |u_D|_H1 <= 1e-3")


def test_criterion_06_korn_dichotomy():
    square = [korn_quotient_min(make_unit_square(n)).constant
              for n in (4, 8, 16)]
    disk0 = [korn_quotient_min(make_disk(l)) for l in (1, 2, 3, 4)]
    disk0_vals = [r.constant for r in disk0]
    disk1 = [korn_quotient_min(make_disk(l), alpha=1.0).constant
             for l in (1, 2, 3, 4)]
    ok_square = all(c >= 1e-3 for c in square)
    ok_disk0 = all(b <= a / 4.0 for a, b in zip(disk0_vals, disk0_vals[1:]))
    ok_disk1 = all(c >= 1e-3 for c in disk1)
    defect = max(r.detail["kernel_defect"] for r in disk0)
    ok = ok_square and ok_disk0 and ok_disk1
    verdict(6, ok, f"square a=0 min {min(square):.3f} >= 1e-3; disk a=0 "
                   f"quotient {disk0_vals} (rotation's kernel defect <= "
                   f"{defect:.1e}, collapses); "
                   f"disk a=1 min {min(disk1):.3f} >= 1e-3")


def test_criterion_07_compatibility_identity():
    # f = (1, 0), whose velocity is zero, and the asymmetric force made
    # compatible on each mesh, whose velocity is not.
    ok, details = True, []
    for data in ("default", "asymmetric"):
        cfg = ExperimentConfig(kind="compat_disk", domain="disk",
                               levels=(1, 2, 3, 4), alpha=1.0, data=data)
        report = run_experiment(cfg)
        circ = [row[report.columns.index("boundary_circulation")]
                for row in report.rows]
        if report.fits["machine_zero"]:
            # Compatible data kills the circulation identically at every
            # level; that is stronger than any decay rate.
            details.append(f"{data}: circulation at machine zero on all "
                           f"levels (max {max(circ):.1e} <= 1e-13), stronger "
                           "than order 1.5")
        else:
            slope = report.fits["circulation_rate"]["slope"]
            ok = ok and slope >= 1.5
            details.append(f"{data}: circulation decays at order "
                           f"{slope:.2f} >= 1.5")
    verdict(7, ok, "; ".join(details))


def test_criterion_08_infsup(dense_infsup):
    constants = [infsup_constant(make_unit_square(n)).constant
                 for n in (4, 8, 16)]
    variation = (max(constants) - min(constants)) / max(constants)
    base = constants[0]
    sweep_dev = max(abs(infsup_constant(make_unit_square(4), alpha=a).constant
                        - base) for a in (0.0, 1e-2, 1.0, 1e2, 1e4, 1e6))
    dense_dev = abs(dense_infsup(make_unit_square(4))[0] - base)
    ok = variation < 0.10 and sweep_dev <= 1e-10 * base and dense_dev <= 1e-8
    verdict(8, ok, f"LBB {base:.5f}, variation {100 * variation:.2f}% < 10% "
                   f"over levels 4/8/16, alpha-sweep deviation "
                   f"{sweep_dev:.1e} <= 1e-10, dense oracle gap "
                   f"{dense_dev:.1e} <= 1e-8")


def test_criterion_08_variation_at_scale():
    # Criterion 08's variation check, carried to square 64 and disk 5.
    for name, meshes in (
            ("square", [make_unit_square(n) for n in (4, 8, 16, 64)]),
            ("disk", [make_disk(level) for level in (1, 2, 3, 4, 5)])):
        constants = [infsup_constant(mesh).constant for mesh in meshes]
        variation = (max(constants) - min(constants)) / max(constants)
        print(f"{name}: inf-sup {min(constants):.5f} to {max(constants):.5f}, "
              f"variation {100 * variation:.2f}% < 10%")
        assert variation < 0.10


def test_criterion_09_navier_stokes_suite():
    mesh = make_unit_square(4)
    fe = build_taylor_hood(mesh)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        w = rng.standard_normal(fe.num_velocity_dofs)
        v = rng.standard_normal(fe.num_velocity_dofs)
        worst = max(worst,
                    trilinear_defects(mesh, w, v, v)["skew_diagonal"])
    ok_skew = worst <= 1e-12

    mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
    hs, eu = [], []
    for n in (8, 16, 32):
        sol, _ = solve_navier_stokes(make_unit_square(n), mms["data"])
        _, h1 = velocity_error_h1(sol.fe, sol.u, mms["u"].value, mms["u"].grad)
        hs.append(1.0 / n)
        eu.append(h1)
    rate = fit_slope(hs, eu)
    ok_rate = 1.85 <= rate <= 2.3

    small_mesh = make_unit_square(8)
    S = smallness_indicator(small_mesh, mms["data"], n_triples=100, seed=0)
    sol_a, _ = solve_navier_stokes(small_mesh, mms["data"],
                                   PicardOptions(initial_guess="stokes"))
    guess = sol_a.u + 0.5 * rng.standard_normal(sol_a.u.shape)
    sol_b, _ = solve_navier_stokes(small_mesh, mms["data"],
                                   PicardOptions(initial_guess=guess))
    H1 = forms.assemble_velocity_h1(build_taylor_hood(small_mesh))
    diff = sol_a.u - sol_b.u
    gap = float(np.sqrt(max(diff @ (H1 @ diff), 0.0)))
    ok_unique = S < 0.5 and gap <= 1e-8

    ok = ok_skew and ok_rate and ok_unique
    verdict(9, ok, f"skew diagonal defect {worst:.1e} <= 1e-12 on 100 draws; "
                   f"NS H1 rate {rate:.3f} in [1.85,2.3]; S = {S:.3f} < 0.5 "
                   f"and two-guess H1 gap {gap:.1e} <= 1e-8")


def test_criterion_10_exponents():
    ok_exact = exponent_r(2.0) == 6.0 / 5.0 and exponent_t(2.0) == 2.0
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        p = float(np.exp(rng.uniform(np.log(1.01), np.log(50.0))))
        q = p / (p - 1.0)
        worst = max(worst, abs(exponent_t(p) - exponent_t(q)))
    ok = ok_exact and worst <= 1e-12
    verdict(10, ok, f"r(2) = 6/5 and t(2) = 2 exactly; max |t(p) - t(p')| "
                    f"= {worst:.1e} <= 1e-12 over 50 draws")
