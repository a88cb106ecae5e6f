import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipstokes import (ProblemData, apply_plan, assemble_divergence,
                        assemble_friction, assemble_load, assemble_viscous,
                        build_constraint_plan, build_dirichlet_plan,
                        build_taylor_hood,
                        disk_compatible_forcing, disk_incompatible_forcing,
                        disk_tangential_drive, factor_solve, make_disk,
                        make_unit_square, rigid_rotation,
                        solve_friction_sweep, solve_stokes, stokes_mms,
                        sweep_forcing)
from slipstokes import saddle, stokes
from slipstokes.errors import (IncompatibleData, InvalidArgument,
                               NumericalError, SingularSystem)
from slipstokes.saddle import symmetric_lu
from slipstokes.fem import velocity_error_h1, pressure_error_l2
from slipstokes.fields import ClosedFormField
from slipstokes.stokes import (boundary_identity_defect, check_compatibility,
                               energy_report, exponent_r, exponent_t)


def fit_slope(h, e):
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


class TestManufactured:
    def test_square_convergence(self):
        mms = stokes_mms(alpha=1.0)
        hs, eu, ep = [], [], []
        for n in (8, 16, 32):
            sol = solve_stokes(make_unit_square(n), mms["data"])
            _, h1 = velocity_error_h1(sol.fe, sol.u, mms["u"].value,
                                      mms["u"].grad)
            hs.append(1.0 / n)
            eu.append(h1)
            ep.append(pressure_error_l2(sol.fe, sol.p, mms["p"]))
        assert 1.85 < fit_slope(hs, eu) < 2.3
        assert 1.7 < fit_slope(hs, ep) < 2.3

    def test_varying_alpha(self):
        # Friction varying along the boundary still carries the exact
        # traction data when alpha enters the boundary field consistently.
        mms = stokes_mms(alpha=3.0)
        sol = solve_stokes(make_unit_square(16), mms["data"])
        _, h1 = velocity_error_h1(sol.fe, sol.u, mms["u"].value, mms["u"].grad)
        assert h1 < 0.05

    def test_disk_drive_is_exact(self):
        # The rigid rotation is in the velocity space, so the only error
        # is solver roundoff.
        drive = disk_tangential_drive(alpha=2.0)
        sol = solve_stokes(make_disk(2), drive["data"])
        _, h1 = velocity_error_h1(sol.fe, sol.u, drive["u"].value,
                                  drive["u"].grad)
        assert h1 < 1e-11
        assert sol.diagnostics["pressure_l2"] < 1e-11

    def test_energy_identity_every_solve(self):
        for mesh, data in (
                (make_unit_square(8), stokes_mms(alpha=1.0)["data"]),
                (make_unit_square(8), ProblemData(f=np.array([1.0, 0.5]))),
                (make_disk(2), disk_tangential_drive(alpha=0.5)["data"])):
            sol = solve_stokes(mesh, data)
            lhs, rhs, resid = energy_report(sol)
            assert resid <= 1e-8 * max(abs(lhs), 1.0)

    def test_diagnostics_keys(self):
        sol = solve_stokes(make_unit_square(8), stokes_mms()["data"])
        for key in ("energy_lhs", "energy_rhs", "energy_residual", "h1_norm",
                    "pressure_l2", "boundary_tangential_l2", "divergence_l2",
                    "linear_residual", "pressure_mean", "pressure_gauge"):
            assert key in sol.diagnostics
        assert abs(sol.diagnostics["pressure_mean"]) < 1e-12
        # Divergence is only weakly zero in Taylor-Hood: small, not exact.
        assert sol.diagnostics["divergence_l2"] < 0.01 * sol.diagnostics["h1_norm"]

    def test_linear_residual_is_the_shared_residual(self, monkeypatch):
        solved = []
        gated_solve = saddle.gated_solve

        def recording(system, solve):
            x = gated_solve(system, solve)
            solved.append((system, x))
            return x

        monkeypatch.setattr(saddle, "gated_solve", recording)
        monkeypatch.setattr(stokes, "gated_solve", recording)
        sol = solve_stokes(make_unit_square(8), stokes_mms()["data"])
        [(system, x)] = solved
        residual = saddle.relative_residual(system, x)
        assert sol.diagnostics["linear_residual"] == residual
        assert residual == (np.linalg.norm(system.matrix @ x - system.rhs)
                            / np.linalg.norm(system.rhs))
        # A zero right-hand side is measured absolutely.
        zero = saddle.SaddleSystem(system.matrix, np.zeros_like(system.rhs))
        assert saddle.relative_residual(zero, x) == np.linalg.norm(
            system.matrix @ x)

    @pytest.mark.parametrize("F", [np.eye(3), lambda p: np.zeros((len(p), 2))],
                             ids=["constant-3x3", "callable-k2"])
    def test_malformed_matrix_field_refused(self, F):
        with pytest.raises(InvalidArgument, match="matrix field"):
            solve_stokes(make_unit_square(4), ProblemData(F=F, alpha=1.0))

    def test_constant_forcing_of_wrong_shape_refused(self):
        with pytest.raises(InvalidArgument, match="vector field"):
            solve_stokes(make_unit_square(4),
                         ProblemData(f=np.ones(3), alpha=1.0))


class TestLargeFriction:
    @pytest.mark.parametrize("alpha", [1e11, 1e12])
    def test_large_friction_solves(self, alpha):
        # The no-slip limit: the tangential trace keeps decaying like
        # 1/alpha far past the scale where unequilibrated pivots look tiny.
        mesh, base = make_unit_square(16), sweep_forcing()

        def scaled_trace(a):
            data = ProblemData(f=base.f, F=base.F, h=base.h, alpha=a)
            return a * solve_stokes(mesh, data).diagnostics[
                "boundary_tangential_l2"]

        assert scaled_trace(alpha) == pytest.approx(scaled_trace(1e6), rel=0.01)


class TestFrictionlessDisk:
    def test_unguarded_solve_refuses(self):
        data = disk_compatible_forcing(alpha=0.0)
        with pytest.raises(SingularSystem, match="compatibility_mode"):
            solve_stokes(make_disk(1), data)

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_unguarded_saddle_system_is_singular(self, level):
        # Without the guard row the rigid rotation spans the kernel, and
        # the factorization gate itself must say so.
        data = disk_compatible_forcing(alpha=0.0)
        mesh = make_disk(level)
        fe = build_taylor_hood(mesh)
        plan = build_constraint_plan(fe, data)
        assert plan.guard is not None
        plan = dataclasses.replace(plan, guard=None, labels=plan.labels[:1])
        system = apply_plan(plan, assemble_viscous(fe),
                            assemble_divergence(fe), assemble_load(fe, data))
        with pytest.raises(SingularSystem, match="condition estimate"):
            factor_solve(system)

    def test_guarded_solve_with_compatible_data(self):
        data = disk_compatible_forcing(alpha=0.0)
        data.compatibility_mode = True
        sol = solve_stokes(make_disk(2), data)
        assert abs(sol.diagnostics["kernel_guard"]) < 1e-12
        beta = rigid_rotation()
        from slipstokes import interpolate
        b = interpolate(sol.fe, beta.value, "velocity")
        assert abs(float(sol.u @ b)) < 1e-12  # no spurious rotation

    def test_incompatible_data_is_rejected(self):
        data = disk_incompatible_forcing(alpha=0.0)
        data.compatibility_mode = True
        with pytest.raises(IncompatibleData):
            solve_stokes(make_disk(1), data)

    def test_compatibility_moment_values(self):
        mesh = make_disk(2)
        # Constant force: zero moment by symmetry of the mesh.
        assert abs(check_compatibility(
            mesh, ProblemData(f=np.array([1.0, 0.0])))) < 1e-13
        # f = beta: the moment is the polygon integral of |x|^2, computed
        # triangle by triangle from vertex coordinates.
        moment = 0.0
        for tri in mesh.triangles:
            v = mesh.vertices[tri]
            e1, e2 = v[1] - v[0], v[2] - v[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            s = v.sum(axis=0)
            moment += area / 12.0 * ((v ** 2).sum() + s @ s)
        got = check_compatibility(mesh, ProblemData(f=rigid_rotation().value))
        assert got == pytest.approx(moment, rel=1e-12)

    def test_compatibility_moment_boundary_drive(self):
        # h = c t pairs with beta through the chord offset r_m on each edge.
        mesh = make_disk(1)
        c = 0.75
        data = ProblemData(h=lambda p, n, t: c * t)
        m = mesh.num_boundary_edges
        L = 2.0 * np.sin(np.pi / m)
        r_m = np.cos(np.pi / m)
        assert check_compatibility(mesh, data) == pytest.approx(
            c * m * L * r_m, rel=1e-12)


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# Held for the whole module, so every example shares one system.
SQUARE8 = make_unit_square(8)


class TestFrictionSweep:
    """One gated factorization per plan, GMRES for every later value."""

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
                    min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    def test_sweep_matches_solve_stokes(self, values, rnd):
        # Unsorted, with a duplicate and alpha = 0.
        alphas = values + [0.0, values[0]]
        rnd.shuffle(alphas)
        data = sweep_forcing()
        sols, iterations = solve_friction_sweep(SQUARE8, data, alphas)
        assert len(sols) == len(iterations) == len(alphas)
        assert iterations.count(None) >= 1
        for alpha, sol in zip(alphas, sols):
            ref = solve_stokes(SQUARE8, dataclasses.replace(data, alpha=alpha))
            assert _relative(sol.u, ref.u) <= 1e-10
            assert _relative(sol.p, ref.p) <= 1e-10

    @pytest.mark.parametrize("mesh, data, alphas, plans", [
        (make_unit_square(12), sweep_forcing(),
         [2.0 ** (-k) for k in range(12)], 1),
        (make_disk(2), dataclasses.replace(disk_compatible_forcing(),
                                           compatibility_mode=True),
         [0.0] + [2.0 ** (-k) for k in range(11)], 2),
    ], ids=["square", "disk"])
    def test_one_factorization_per_plan(self, monkeypatch, mesh, data,
                                        alphas, plans):
        calls = []
        monkeypatch.setattr(stokes, "factorize",
                            _counting(calls, saddle.factorize))
        monkeypatch.setattr(saddle, "factorize",
                            _counting(calls, saddle.factorize))
        _, iterations = solve_friction_sweep(mesh, data, alphas[::-1])
        assert len(calls) == plans
        assert iterations.count(None) == plans
        assert all(isinstance(k, int) for k in iterations if k is not None)

    def test_frictionless_disk_needs_compatibility_mode(self):
        data = disk_compatible_forcing(alpha=1.0)
        with pytest.raises(SingularSystem, match="compatibility_mode"):
            solve_friction_sweep(make_disk(1), data, [1.0, 0.0])

    def test_incompatible_guard_data_is_rejected(self):
        data = disk_incompatible_forcing()
        data.compatibility_mode = True
        with pytest.raises(IncompatibleData):
            solve_friction_sweep(make_disk(1), data, [1.0, 0.0])

    def test_smallest_friction_still_gated(self):
        # On disk 2, friction 1e-12 is refused as singular; the sweep
        # factors it first, so the gate still sees it.
        data = disk_compatible_forcing()
        data.compatibility_mode = True
        with pytest.raises(SingularSystem, match="condition estimate"):
            solve_friction_sweep(make_disk(2), data, [1.0, 0.0, 1e-2, 1e-12])

    @pytest.mark.parametrize("alphas", [[], [1.0, -1.0], [np.nan],
                                        [[1.0, 2.0]], [1.0, [2.0]],
                                        [lambda p: 1.0]])
    def test_bad_schedules_refused(self, alphas):
        with pytest.raises(InvalidArgument):
            solve_friction_sweep(SQUARE8, sweep_forcing(), alphas)

    @pytest.mark.parametrize("mesh, data", [
        (make_unit_square(32), sweep_forcing()),
        (make_disk(3), disk_compatible_forcing()),
    ], ids=["square32", "disk3"])
    def test_sweep_matrix_is_the_bordered_sum(self, monkeypatch, mesh, data):
        # Sparse addition drops entries that cancel to 0.0, so the pattern,
        # and with it the fill, follows rounding: pin both to the system
        # bordered from A_visc + M_alpha in one piece, as solve_stokes
        # borders it.
        matrices = []
        monkeypatch.setattr(stokes, "factorize", _counting(
            matrices, saddle.factorize))
        monkeypatch.setattr(stokes, "krylov_solve", lambda system, held, x: (
            matrices.append((system.matrix,))
            or saddle.krylov_solve(system, held, x)))
        alphas = [2.0 ** -12, 1.0, 1e6]
        solve_friction_sweep(mesh, data, alphas)
        fe = build_taylor_hood(mesh)
        plan = build_constraint_plan(fe, dataclasses.replace(data, alpha=1.0))
        A_visc, B = assemble_viscous(fe), assemble_divergence(fe)
        ell = assemble_load(fe, data)
        assert len(matrices) == len(alphas)
        for alpha, (got,) in zip(alphas, matrices):
            want = apply_plan(plan, A_visc + assemble_friction(fe, alpha),
                              B, ell).matrix
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
            fill = [lu.L.nnz + lu.U.nnz for lu in (
                symmetric_lu(got.tocsc()), symmetric_lu(want.tocsc()))]
            assert fill[0] == fill[1]


@st.composite
def _monotone_sweeps(draw):
    """A mesh, random data and an ascending scalar friction schedule:
    squares 2-6 from alpha 0 up, disks 1-2 from 1e-2 up (below that the
    unguarded disk nears its kernel)."""
    disk = draw(st.booleans())
    mesh = (make_disk(draw(st.integers(1, 2))) if disk
            else make_unit_square(draw(st.integers(2, 6))))
    unit = st.floats(-1.0, 1.0)
    a = draw(st.lists(unit, min_size=6, max_size=6))
    F = np.array(draw(st.lists(unit, min_size=4, max_size=4))).reshape(2, 2)
    h = np.array(draw(st.lists(unit, min_size=2, max_size=2)))

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([a[0] + a[1] * np.sin(3.0 * x * y) + a[2] * y,
                                a[3] + a[4] * np.cos(2.0 * x) + a[5] * x * y])

    exponent = st.floats(-2.0 if disk else -4.0, 8.0).map(lambda e: 10.0 ** e)
    alphas = draw(st.lists(exponent, min_size=2, max_size=6))
    if not disk and draw(st.booleans()):
        alphas.append(0.0)
    return mesh, ProblemData(f=f, F=F, h=h), sorted(alphas)


def _assert_nonincreasing(mesh, data, alphas, name):
    # A relative rise up to 1e-9 is within the accuracy of the solves.
    sols, _ = solve_friction_sweep(mesh, data, alphas)
    values = [sol.diagnostics[name] for sol in sols]
    for low, high in zip(values, values[1:]):
        assert high <= low + 1e-9 * abs(low), (alphas, values)


class TestFrictionMonotonicity:
    """For scalar alpha the solution minimizes ``a(u, u)/2 + alpha r(u, u)/2
    - l(u)`` over the constrained, divergence-free space, with ``a`` and
    ``r`` positive semidefinite: so the tangential trace ``r(u, u)`` and
    ``l(u) = -2 min J`` cannot grow with alpha."""

    @settings(max_examples=25, deadline=None)
    @given(_monotone_sweeps())
    def test_tangential_trace_does_not_grow(self, sweep):
        _assert_nonincreasing(*sweep, "boundary_tangential_l2")

    @settings(max_examples=25, deadline=None)
    @given(_monotone_sweeps())
    def test_energy_rhs_does_not_grow(self, sweep):
        _assert_nonincreasing(*sweep, "energy_rhs")


class TestClampedReference:
    @pytest.mark.parametrize("data", [sweep_forcing(),
                                      stokes_mms(alpha=1.0)["data"]],
                             ids=["frictionless", "friction"])
    def test_dirichlet_plan_matches_direct_recipe(self, data):
        # Friction acts only on boundary dofs, which the Dirichlet plan
        # clamps, so the viscous form alone gives the same system.
        mesh = make_unit_square(8)
        fe = build_taylor_hood(mesh)
        plan = build_dirichlet_plan(fe)
        sol = solve_stokes(mesh, data, plan=plan)
        system = apply_plan(plan, assemble_viscous(fe), assemble_divergence(fe),
                            assemble_load(fe, data))
        u, _, _ = plan.reconstruct(factor_solve(system))
        assert sol.u.tobytes() == u.tobytes()
        assert np.abs(u).max() > 0.0


class TestExponents:
    def test_reference_values_exact(self):
        assert exponent_r(2.0) == 6.0 / 5.0
        assert exponent_t(2.0) == 2.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = float(np.exp(rng.uniform(np.log(1.01), np.log(50.0))))
            q = p / (p - 1.0)
            assert abs(exponent_t(p) - exponent_t(q)) <= 1e-12

    def test_monotone_outside_plateau(self):
        assert exponent_t(6.0) > exponent_t(3.0)
        assert exponent_r(6.0) > exponent_r(2.0)

    def test_rejects_bad_exponent(self):
        for bad in (1.0, 0.5, -2.0, np.inf, np.nan):
            with pytest.raises(InvalidArgument):
                exponent_t(bad)
            with pytest.raises(InvalidArgument):
                exponent_r(bad)


class TestBoundaryIdentity:
    def test_rotation_fields_satisfy_identity(self):
        beta = rigid_rotation()

        def scaled_value(p):
            r2 = (p ** 2).sum(axis=1)
            return r2[:, None] * beta.value(p)

        def scaled_grad(p):
            b = beta.value(p)
            g = beta.grad(p)
            r2 = (p ** 2).sum(axis=1)
            return r2[:, None, None] * g + 2.0 * np.einsum(
                "ka,kb->kab", b, p)

        r2beta = ClosedFormField(scaled_value, scaled_grad)
        for level in (1, 2, 3):
            mesh = make_disk(level)
            assert boundary_identity_defect(beta, mesh) < 2e-15
            assert boundary_identity_defect(r2beta, mesh) < 1e-13

    def test_rejects_square_mesh(self):
        with pytest.raises(InvalidArgument):
            boundary_identity_defect(rigid_rotation(), make_unit_square(3))

    def test_rejects_non_tangential_field(self):
        radial = ClosedFormField(
            lambda p: np.asarray(p, dtype=float),
            lambda p: np.tile(np.eye(2), (np.asarray(p).shape[0], 1, 1)))
        with pytest.raises(InvalidArgument, match="tangent"):
            boundary_identity_defect(radial, make_disk(1))


def test_energy_gate_refuses_nan():
    # A NaN defect compares False against any bound; the gate must refuse it.
    with pytest.raises(NumericalError, match="energy identity"):
        stokes.energy_gate(np.array([np.nan]), np.eye(1), np.ones(1))
