import numpy as np
import pytest

from slipstokes import (ProblemData, apply_plan, build_dirichlet_plan,
                        build_taylor_hood, factor_solve, forms, interpolate,
                        make_disk, make_unit_square, navier_stokes_mms,
                        rigid_rotation, solve_navier_stokes)
from slipstokes.errors import InvalidArgument, MaxIterations
from slipstokes.fem import velocity_error_h1, pressure_error_l2
from slipstokes.fields import ClosedFormField, disk_compatible_forcing
from slipstokes.navierstokes import (PicardOptions, smallness_indicator,
                                     trilinear_defects)


def fit_slope(h, e):
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


class TestTrilinearStructure:
    def test_skew_diagonal_and_antisymmetry(self):
        mesh = make_unit_square(4)
        fe = build_taylor_hood(mesh)
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.standard_normal(fe.num_velocity_dofs)
            u = rng.standard_normal(fe.num_velocity_dofs)
            v = rng.standard_normal(fe.num_velocity_dofs)
            d = trilinear_defects(mesh, w, u, v)
            assert d["skew_diagonal"] <= 1e-12
            assert d["antisymmetry"] == 0.0

    def test_beta_defect_decays_for_tangent_fields(self):
        # u = rot-grad of (1 - r^2) exp(x + 2y): impermeable, divergence
        # free, and deliberately asymmetric so nothing cancels exactly.
        def value(p):
            x, y = p[:, 0], p[:, 1]
            e = np.exp(x + 2.0 * y)
            r2 = x ** 2 + y ** 2
            return np.column_stack([e * (2.0 - 2.0 * r2 - 2.0 * y),
                                    e * (2.0 * x - 1.0 + r2)])

        defects = []
        for level in (1, 2, 3, 4):
            mesh = make_disk(level)
            fe = build_taylor_hood(mesh)
            u = interpolate(fe, value, "velocity")
            z = np.zeros_like(u)
            defects.append(trilinear_defects(mesh, z, u, z)["beta_defect"])
        h = [2.0 ** -k for k in range(1, 5)]
        assert fit_slope(h, defects) > 1.0

    def test_beta_defect_does_not_vanish_for_generic_fields(self):
        mesh = make_disk(2)
        fe = build_taylor_hood(mesh)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(fe.num_velocity_dofs)
        z = np.zeros_like(u)
        assert trilinear_defects(mesh, z, u, z)["beta_defect"] > 1e-3


class TestPicard:
    def test_mms_convergence(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        hs, eu, ep = [], [], []
        for n in (8, 16, 32):
            sol, log = solve_navier_stokes(make_unit_square(n), mms["data"])
            assert log.converged
            assert sol.diagnostics["picard_iterations"] <= 10
            _, h1 = velocity_error_h1(sol.fe, sol.u, mms["u"].value,
                                      mms["u"].grad)
            hs.append(1.0 / n)
            eu.append(h1)
            ep.append(pressure_error_l2(sol.fe, sol.p, mms["p"]))
        assert 1.85 < fit_slope(hs, eu) < 2.3
        assert 1.7 < fit_slope(hs, ep) < 2.3

    def test_nonlinear_residual_small(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        sol, _ = solve_navier_stokes(make_unit_square(8), mms["data"])
        assert sol.diagnostics["nonlinear_residual"] < 1e-9

    def test_large_data_raises(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=1000.0)
        opts = PicardOptions(max_iterations=15)
        with pytest.raises(MaxIterations):
            solve_navier_stokes(make_unit_square(8), mms["data"], opts)

    def test_guess_independence_in_contraction_regime(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        mesh = make_unit_square(8)
        sol_a, _ = solve_navier_stokes(mesh, mms["data"],
                                       PicardOptions(initial_guess="stokes"))
        rng = np.random.default_rng(17)
        guess = sol_a.u + 0.1 * rng.standard_normal(sol_a.u.shape)
        sol_b, _ = solve_navier_stokes(mesh, mms["data"],
                                       PicardOptions(initial_guess=guess))
        num = np.linalg.norm(sol_a.u - sol_b.u)
        den = max(np.linalg.norm(sol_a.u), 1.0)
        assert num / den <= 1e-8

    def test_zero_and_stokes_guesses_agree(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        mesh = make_unit_square(8)
        sol_a, _ = solve_navier_stokes(mesh, mms["data"],
                                       PicardOptions(initial_guess="zero"))
        sol_b, _ = solve_navier_stokes(mesh, mms["data"],
                                       PicardOptions(initial_guess="stokes"))
        assert np.linalg.norm(sol_a.u - sol_b.u) <= 1e-8 * np.linalg.norm(sol_b.u)

    def test_damping_reaches_same_fixed_point(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        mesh = make_unit_square(8)
        sol_a, _ = solve_navier_stokes(mesh, mms["data"], PicardOptions())
        sol_b, log = solve_navier_stokes(mesh, mms["data"],
                                         PicardOptions(damping=0.5))
        assert log.converged
        assert np.linalg.norm(sol_a.u - sol_b.u) <= 1e-7 * np.linalg.norm(sol_a.u)

    def test_iteration_log_csv(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        _, log = solve_navier_stokes(make_unit_square(4), mms["data"])
        text = log.to_csv()
        lines = text.splitlines()
        assert lines[0] == "iteration,increment,energy_residual"
        assert len(lines) == len(log.rows) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == log.rows[0][1]

    def test_bad_options_rejected(self):
        for opts in (PicardOptions(max_iterations=0),
                     PicardOptions(damping=0.0),
                     PicardOptions(damping=1.5),
                     PicardOptions(tol=0.0),
                     PicardOptions(initial_guess="warm")):
            with pytest.raises(InvalidArgument):
                opts.validate()

    def test_array_guess_shape_checked(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        opts = PicardOptions(initial_guess=np.zeros(7))
        with pytest.raises(InvalidArgument, match="shape"):
            solve_navier_stokes(make_unit_square(4), mms["data"], opts)

    def test_frictionless_disk_rejected(self):
        data = disk_compatible_forcing(alpha=0.0)
        data.compatibility_mode = True
        with pytest.raises(InvalidArgument):
            solve_navier_stokes(make_disk(1), data)

    def test_clamped_plan_matches_minimal_loop(self):
        # The clamped (no-slip) reference of the friction studies: the
        # shared loop on the Dirichlet plan reproduces, bit for bit, a
        # minimal undamped Picard loop from zero on the viscous form alone.
        mesh = make_unit_square(8)
        fe = build_taylor_hood(mesh)
        data = navier_stokes_mms(alpha=1.0, amplitude=0.15)["data"]
        opts = PicardOptions(initial_guess="zero")
        plan = build_dirichlet_plan(fe)
        sol, log = solve_navier_stokes(mesh, data, options=opts, plan=plan)

        A = forms.assemble_viscous(fe)
        B = forms.assemble_divergence(fe)
        ell = forms.assemble_load(fe, data)
        H1 = forms.assemble_velocity_h1(fe)
        u = np.zeros(fe.num_velocity_dofs)
        for sweeps in range(1, opts.max_iterations + 1):
            C = forms.assemble_convection_skew(fe, u)
            system = apply_plan(plan, A + C, B, ell)
            u_new, _, _ = plan.reconstruct(factor_solve(system))
            inc = u_new - u
            u = u_new
            inc_norm = float(np.sqrt(max(inc @ (H1 @ inc), 0.0)))
            u_norm = float(np.sqrt(max(u @ (H1 @ u), 0.0)))
            if inc_norm <= opts.tol * max(u_norm, 1.0):
                break
        assert log.converged and len(log.rows) == sweeps
        assert sol.u.tobytes() == u.tobytes()
        n = fe.num_velocity_nodes
        boundary = np.unique(np.concatenate([mesh.boundary_edges.ravel(),
                                             fe.boundary_mid_nodes]))
        assert not sol.u[np.concatenate([boundary, boundary + n])].any()
        assert np.abs(sol.u).max() > 0.0


class TestSmallness:
    def test_indicator_small_for_mms_data(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        S = smallness_indicator(make_unit_square(8), mms["data"],
                                n_triples=100, seed=0)
        assert 0.0 < S < 0.5

    def test_indicator_linear_in_data(self):
        base = navier_stokes_mms(alpha=1.0, amplitude=0.15)["data"]
        doubled = ProblemData(
            f=lambda p: 2.0 * np.asarray(base.f(p)),
            h=lambda p, n, t: 2.0 * np.asarray(base.h(p, n, t)),
            alpha=base.alpha)
        mesh = make_unit_square(4)
        s1 = smallness_indicator(mesh, base, n_triples=40, seed=3)
        s2 = smallness_indicator(mesh, doubled, n_triples=40, seed=3)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-10)
