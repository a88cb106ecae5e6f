import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from slipstokes import (ProblemData, apply_plan, build_constraint_plan,
                        build_dirichlet_plan, build_taylor_hood, factor_solve,
                        fem, forms, interpolate, make_disk, make_unit_square,
                        navier_stokes_mms, rigid_rotation, solve_navier_stokes)
from slipstokes import navierstokes, saddle, stokes
from slipstokes.errors import InvalidArgument, MaxIterations, SingularSystem
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

    @pytest.mark.parametrize("damping", [1.0, 0.7])
    def test_log_energy_is_the_shared_defect(self, monkeypatch, damping):
        mesh = make_unit_square(8)
        data = navier_stokes_mms(alpha=1.0, amplitude=0.15)["data"]
        solved = []

        def recording(system, factors, x0):
            out = saddle.krylov_solve(system, factors, x0)
            solved.append(out[0])
            return out

        monkeypatch.setattr(navierstokes, "krylov_solve", recording)
        _, log = solve_navier_stokes(mesh, data, options=PicardOptions(
            damping=damping, initial_guess="zero"))
        fe = build_taylor_hood(mesh)
        plan = build_constraint_plan(fe, data)
        A = forms.assemble_viscous(fe) + forms.assemble_friction(fe, data.alpha)
        ell = forms.assemble_load(fe, data)
        u = np.zeros(fe.num_velocity_dofs)
        assert len(solved) >= len(log.rows) > 1
        for (_, _, logged), x in zip(log.rows, solved):
            u_new = plan.reconstruct(x)[0]
            if damping != 1.0:
                u_new = damping * u_new + (1.0 - damping) * u
            u = u_new
            _, _, defect, scale = stokes.energy_defect(u, A, ell)
            assert logged == defect / scale
            lhs = float(u @ (A @ u))
            assert logged == abs(lhs - float(ell @ u)) / max(abs(lhs), 1.0)

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
        # shared loop on the Dirichlet plan reproduces a minimal undamped
        # Picard loop from zero on the viscous form alone, with one direct
        # solve per sweep, in the same number of sweeps and to 1e-12 in H1
        # (the shared loop solves its sweeps by GMRES on Stokes factors).
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
        d = sol.u - u
        assert np.sqrt(d @ (H1 @ d)) <= 1e-12 * np.sqrt(u @ (H1 @ u))
        n = fe.num_velocity_nodes
        boundary = np.unique(np.concatenate([mesh.boundary_edges.ravel(),
                                             fe.boundary_mid_nodes]))
        assert not sol.u[np.concatenate([boundary, boundary + n])].any()
        assert np.abs(sol.u).max() > 0.0


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


class TestOneFactorization:
    """The Picard loop factors the Stokes system once and sweeps by GMRES."""

    @pytest.mark.parametrize("damping", [1.0, 0.7])
    def test_one_apply_plan_per_solve(self, monkeypatch, damping):
        calls = []
        monkeypatch.setattr(navierstokes, "apply_plan",
                            _counting(calls, apply_plan))
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        _, log = solve_navier_stokes(make_unit_square(8), mms["data"],
                                     PicardOptions(damping=damping))
        assert log.converged and len(log.rows) > 1
        assert len(calls) == 1

    def test_one_symmetric_lu_and_no_factor_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(saddle, "symmetric_lu",
                            _counting(calls, saddle.symmetric_lu))
        monkeypatch.setattr(saddle, "factor_solve",
                            _counting(calls, saddle.factor_solve))
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        _, log = solve_navier_stokes(make_unit_square(16), mms["data"])
        assert log.converged
        assert calls == ["symmetric_lu"]
        assert all(isinstance(k, int) for k in log.krylov)

    def test_capped_gmres_refactors_every_sweep(self, monkeypatch):
        mesh = make_unit_square(8)
        data = navier_stokes_mms(alpha=1.0, amplitude=4.0)["data"]
        ref, ref_log = solve_navier_stokes(mesh, data)
        calls = []
        # A zero target keeps GMRES from settling even on fresh factors.
        monkeypatch.setattr(saddle, "KRYLOV_MAXITER", 1)
        monkeypatch.setattr(saddle, "KRYLOV_RTOL", 0.0)
        monkeypatch.setattr(saddle, "factorize",
                            _counting(calls, saddle.factorize))
        sol, log = solve_navier_stokes(mesh, data)
        assert len(log.rows) == len(ref_log.rows)
        assert log.krylov == [None] * len(log.rows)
        assert len(calls) == len(log.rows)
        H1 = forms.assemble_velocity_h1(sol.fe)
        d = sol.u - ref.u
        assert np.sqrt(d @ (H1 @ d)) <= 1e-12 * np.sqrt(ref.u @ (H1 @ ref.u))

    def test_fallback_factors_precondition_later_sweeps(self):
        data = navier_stokes_mms(alpha=1.0, amplitude=50.0)["data"]
        _, log = solve_navier_stokes(make_unit_square(16), data)
        assert log.converged
        # Only the first sweep misses the cap; the rest run on its factors.
        assert log.krylov[0] is None
        assert log.krylov.count(None) == 1

    def test_singular_stokes_system_raises_before_any_sweep(self, monkeypatch):
        mesh = make_disk(2)
        data = disk_compatible_forcing(alpha=0.0)
        plan = build_constraint_plan(build_taylor_hood(mesh), data)
        unguarded = dataclasses.replace(plan, guard=None,
                                        labels=("pressure_gauge",))
        calls = []
        monkeypatch.setattr(forms, "assemble_convection_skew",
                            _counting(calls, forms.assemble_convection_skew))
        with pytest.raises(SingularSystem):
            solve_navier_stokes(mesh, data, plan=unguarded)
        assert calls == []

    def test_krylov_log_stays_out_of_outputs(self):
        mms = navier_stokes_mms(alpha=1.0, amplitude=0.15)
        sol, log = solve_navier_stokes(make_unit_square(4), mms["data"],
                                       PicardOptions(damping=0.7))
        # One entry per sweep plus the undamped polish.
        assert len(log.krylov) == len(log.rows) + 1
        assert all(len(row) == 3 for row in log.rows)
        assert log.to_csv().splitlines()[0] == "iteration,increment,energy_residual"
        assert not any("krylov" in key for key in sol.diagnostics)


def _old_convection_skew(fe, w, quad_order=6):
    # The previous recipe: (12, 12) blocks with explicit zero x-y coupling,
    # summed by a plain COO scatter of its own.
    rule = fem.quadrature(quad_order)
    wx, wy = fem.split_components(fe, w)
    vals = fem.p2_values(rule.tri_points)
    grads = fe.physical_grads(rule)
    wq = rule.tri_weights[:, None] * fe.det[None, :]
    wqx = np.einsum("qk,tk->qt", vals, wx[fe.tri_vnodes])
    wqy = np.einsum("qk,tk->qt", vals, wy[fe.tri_vnodes])
    adv = wqx[:, :, None] * grads[..., 0] + wqy[:, :, None] * grads[..., 1]
    s = np.einsum("qt,qi,qtj->tij", wq, vals, adv)
    z = np.zeros_like(s)
    local = np.block([[s, z], [z, s]])
    dofs = np.hstack([fe.tri_vnodes, fe.tri_vnodes + fe.num_velocity_nodes])
    n = fe.num_velocity_dofs
    raw = sparse.coo_matrix((local.ravel(),
                             (np.repeat(dofs, 12, axis=1).ravel(),
                              np.tile(dofs, (1, 12)).ravel())),
                            shape=(n, n)).tocsr()
    raw.sum_duplicates()
    raw.sort_indices()
    skew = 0.5 * (raw - raw.T).tocsr()
    skew.eliminate_zeros()
    skew.sort_indices()
    return skew


class TestConvectionAssembly:
    @pytest.mark.parametrize("mesh", [make_unit_square(16), make_disk(3)],
                             ids=["square16", "disk3"])
    def test_bitwise_equal_to_block_recipe(self, mesh):
        fe = build_taylor_hood(mesh)
        w = np.random.default_rng(4).standard_normal(fe.num_velocity_dofs)
        new = forms.assemble_convection_skew(fe, w)
        old = _old_convection_skew(fe, w)
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
        assert new.data.tobytes() == old.data.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), scale=st.floats(1e-6, 1e6),
           domain=st.sampled_from(["square", "disk"]))
    def test_reduced_convection_is_skew_and_uncoupled(self, seed, scale,
                                                      domain):
        mesh = make_unit_square(8) if domain == "square" else make_disk(2)
        fe = build_taylor_hood(mesh)
        w = scale * np.random.default_rng(seed).standard_normal(
            fe.num_velocity_dofs)
        C = forms.assemble_convection_skew(fe, w)
        n = fe.num_velocity_nodes
        coo = C.tocoo()
        assert not ((coo.row < n) != (coo.col < n)).any()
        plan = build_constraint_plan(fe, ProblemData(alpha=1.0))
        R = plan.reduce(C)
        sym = abs(R + R.T)
        assert sym.max() <= 1e-14 * abs(R).max()


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

    @pytest.mark.parametrize("F", [np.eye(3), lambda p: np.zeros((len(p), 2))],
                             ids=["constant-3x3", "callable-k2"])
    def test_malformed_matrix_field_refused(self, F):
        with pytest.raises(InvalidArgument, match="matrix field"):
            smallness_indicator(make_unit_square(4),
                                ProblemData(F=F, alpha=1.0), n_triples=10)
