import gc
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from slipstokes import (build_taylor_hood, interpolate, make_disk,
                        make_unit_square, norms, solve_stokes, stokes_mms,
                        velocity_error_h1, pressure_error_l2)
from slipstokes.errors import InvalidArgument, NumericalError
from slipstokes import fem, forms


def ref_triangle_monomial(m, n):
    """int_T x^m y^n over the unit reference triangle, exact."""
    return math.factorial(m) * math.factorial(n) / math.factorial(m + n + 2)


class TestQuadrature:
    def test_weight_sums(self):
        for order in (4, 6):
            q = fem.quadrature(order)
            assert q.tri_weights.sum() == pytest.approx(0.5, abs=1e-15)
            assert q.seg_weights.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("order", [4, 6])
    def test_triangle_monomials_exact_to_order(self, order):
        q = fem.quadrature(order)
        x = q.tri_points[:, 1]
        y = q.tri_points[:, 2]
        for m in range(order + 1):
            for n in range(order + 1 - m):
                val = float(np.sum(q.tri_weights * x ** m * y ** n))
                assert val == pytest.approx(ref_triangle_monomial(m, n),
                                            abs=1e-15), (m, n)

    @pytest.mark.parametrize("order", [4, 6])
    def test_segment_monomials_exact_to_order(self, order):
        q = fem.quadrature(order)
        for k in range(order + 1):
            val = float(np.sum(q.seg_weights * q.seg_points ** k))
            assert val == pytest.approx(1.0 / (k + 1), abs=1e-15), k

    def test_unknown_order(self):
        with pytest.raises(InvalidArgument):
            fem.quadrature(3)

    def test_barycentric_points(self):
        q = fem.quadrature(4)
        assert np.allclose(q.tri_points.sum(axis=1), 1.0, atol=1e-15)
        assert (q.tri_points >= 0.0).all()


class TestShapeFunctions:
    def test_p2_partition_of_unity(self):
        pts = np.random.default_rng(0).dirichlet((1, 1, 1), size=20)
        vals = fem.p2_values(pts)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)

    def test_p2_nodal_kronecker(self):
        nodes = np.array([
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5],
        ], dtype=float)
        vals = fem.p2_values(nodes)
        assert np.allclose(vals, np.eye(6), atol=1e-15)

    def test_p1_nodal_kronecker(self):
        nodes = np.eye(3)
        assert np.allclose(fem.p1_values(nodes), np.eye(3), atol=1e-15)

    def test_segment_p2_kronecker(self):
        vals = fem.segment_p2_values(np.array([0.0, 1.0, 0.5]))
        assert np.allclose(vals, np.eye(3), atol=1e-15)


class TestSystem:
    def test_dof_counts(self):
        m = make_unit_square(4)
        fe = build_taylor_hood(m)
        nv = len(m.vertices)
        nt = len(m.triangles)
        ne = fe.num_velocity_nodes - nv
        # Euler: edges = (3*nt + boundary) / 2
        assert ne == (3 * nt + len(m.boundary_edges)) // 2
        assert fe.num_velocity_dofs == 2 * fe.num_velocity_nodes
        assert fe.num_pressure_dofs == nv

    def test_midpoint_coordinates(self):
        m = make_disk(1)
        fe = build_taylor_hood(m)
        nv = len(m.vertices)
        for t, tri in enumerate(m.triangles):
            for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
                node = fe.tri_vnodes[t, 3 + k]
                mid = 0.5 * (m.vertices[tri[a]] + m.vertices[tri[b]])
                assert np.allclose(fe.velocity_coords[node], mid, atol=1e-15)
                assert node >= nv

    def test_boundary_trace_nodes_on_boundary(self):
        m = make_disk(2, radius=1.0)
        fe = build_taylor_hood(m)
        mids = fe.velocity_coords[fe.boundary_mid_nodes]
        ends = m.vertices[m.boundary_edges]
        assert np.allclose(mids, ends.mean(axis=1), atol=1e-15)


class TestPhysicalGradients:
    @pytest.mark.parametrize("order", [4, 6])
    @pytest.mark.parametrize("mesh", [make_unit_square(7), make_disk(3)],
                             ids=["square", "disk"])
    def test_bitwise_the_contraction(self, mesh, order):
        # invJ^T grad_ref, the sign of every zero included.
        fe = fem.FeSystem(mesh)
        rule = fem.quadrature(order)
        expected = np.einsum("tab,qib->qtia", fe.inv_jac_t,
                             fem.p2_ref_grads(rule.tri_points))
        got = fe.physical_grads(rule)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestLiveSystem:
    def test_one_system_per_live_mesh(self):
        mesh = make_unit_square(4)
        fe = build_taylor_hood(mesh)
        assert build_taylor_hood(mesh) is fe
        assert solve_stokes(mesh, stokes_mms()["data"]).fe is fe
        assert build_taylor_hood(make_unit_square(4)) is not fe

    def test_concurrent_callers_share_one_system(self):
        mesh = make_unit_square(16)
        workers = 8
        barrier = threading.Barrier(workers)

        def build(_):
            barrier.wait(timeout=60)
            return build_taylor_hood(mesh)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                systems = list(pool.map(build, range(workers), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(fe is systems[0] for fe in systems)

    def test_system_freed_with_its_last_holder(self):
        # With the cycle collector off, only reference counting can free
        # the system and the mesh: a cycle between them would keep both.
        enabled = gc.isenabled()
        gc.disable()
        try:
            mesh = make_unit_square(4)
            sol = solve_stokes(mesh, stokes_mms()["data"])
            fe = build_taylor_hood(mesh)
            fe_ref, mesh_ref = weakref.ref(fe), weakref.ref(mesh)
            del sol, fe, mesh
            assert fe_ref() is None
            assert mesh_ref() is None
        finally:
            if enabled:
                gc.enable()


class TestInterpolation:
    def test_quadratic_velocity_exact(self):
        m = make_unit_square(3)
        fe = build_taylor_hood(m)

        def field(p):
            x, y = p[:, 0], p[:, 1]
            return np.stack([x * x + 2 * x * y, y * y - x], axis=1)

        coeffs = interpolate(fe, field, "velocity")
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.05, 0.95, size=(50, 2))
        l2, h1 = velocity_error_h1(
            fe, coeffs, field,
            lambda p: np.stack(
                [np.stack([2 * p[:, 0] + 2 * p[:, 1], 2 * p[:, 0]], axis=1),
                 np.stack([-np.ones(len(p)), 2 * p[:, 1]], axis=1)], axis=1))
        assert l2 < 1e-14 and h1 < 1e-13
        del pts

    def test_linear_pressure_exact(self):
        m = make_unit_square(3)
        fe = build_taylor_hood(m)
        coeffs = interpolate(fe, lambda p: 2.0 * p[:, 0] - p[:, 1], "pressure")
        err = pressure_error_l2(fe, coeffs, lambda p: 2.0 * p[:, 0] - p[:, 1])
        assert err < 1e-14

    def test_non_finite_rejected(self):
        m = make_unit_square(2)
        fe = build_taylor_hood(m)
        with pytest.raises(NumericalError):
            interpolate(fe, lambda p: np.full((len(p), 2), np.nan), "velocity")

    def test_constants_broadcast(self):
        fe = build_taylor_hood(make_unit_square(2))
        n = fe.num_velocity_nodes
        u = interpolate(fe, np.array([1.0, -2.0]), "velocity")
        assert np.array_equal(u, np.repeat([1.0, -2.0], n))
        assert np.array_equal(interpolate(fe, 3.0, "velocity"), np.full(2 * n, 3.0))
        assert np.array_equal(interpolate(fe, 0.5, "pressure"),
                              np.full(fe.num_pressure_dofs, 0.5))

    @pytest.mark.parametrize("space,kind", [("velocity", "vector"),
                                            ("pressure", "scalar")])
    def test_constant_of_wrong_shape_refused(self, space, kind):
        fe = build_taylor_hood(make_unit_square(4))
        with pytest.raises(InvalidArgument, match=f"{kind} field has shape"):
            interpolate(fe, np.ones(3), space)

    @pytest.mark.parametrize("space,kind", [("velocity", "vector"),
                                            ("pressure", "scalar")])
    @pytest.mark.parametrize("field", [
        "abc", [[1.0], [1.0, 2.0]],
        lambda p: np.full(p.shape, "x")], ids=["str", "ragged", "callable-str"])
    def test_non_numeric_field_refused(self, space, kind, field):
        fe = build_taylor_hood(make_unit_square(2))
        with pytest.raises(InvalidArgument, match=f"{kind} field is not numeric"):
            interpolate(fe, field, space)


class TestFieldReader:
    """``fem.eval_field``, the one reader of user-supplied fields."""

    def test_callable_receives_the_extra_arguments(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        vals = fem.eval_field(lambda p, a, b: p * a + b, pts, pts.shape,
                              "boundary", 2.0, 1.0)
        assert np.array_equal(vals, 2.0 * pts + 1.0)

    def test_constant_of_a_broadcastable_shape_refused(self):
        # Only a scalar, the per-point shape or the full shape is a field.
        with pytest.raises(InvalidArgument, match=r"shape \(1, 2\)"):
            fem.eval_field(np.ones((1, 2)), np.zeros((3, 2)), (3, 2), "vector")


class TestClosedFormShapes:
    """The error norms read their closed forms through ``eval_field``, so a
    closed form of the wrong shape is refused instead of reshaped."""

    @pytest.fixture(scope="class")
    def solved(self):
        mms = stokes_mms()
        return mms, solve_stokes(make_unit_square(4), mms["data"])

    @pytest.mark.parametrize("exact,grad,kind", [
        (lambda u: lambda p: u.value(p).T, lambda u: u.grad, "vector"),
        (lambda u: u.value, lambda u: lambda p: u.grad(p).reshape(-1, 4),
         "matrix"),
        (lambda u: lambda p: np.full(p.shape, "x"), lambda u: u.grad,
         "vector field is not numeric")],
        ids=["value-transposed", "grad-flat", "value-str"])
    def test_velocity_error_refuses_a_malformed_closed_form(
            self, solved, exact, grad, kind):
        mms, sol = solved
        _, h1 = velocity_error_h1(sol.fe, sol.u, mms["u"].value, mms["u"].grad)
        assert 0.5 < h1 < 0.6
        with pytest.raises(InvalidArgument, match=kind):
            velocity_error_h1(sol.fe, sol.u, exact(mms["u"]), grad(mms["u"]))

    @pytest.mark.parametrize("exact", [
        lambda p: np.cos(p[:, :1]), lambda p: np.cos(p).T],
        ids=["column", "transposed"])
    def test_pressure_error_refuses_a_malformed_closed_form(self, solved,
                                                             exact):
        _, sol = solved
        with pytest.raises(InvalidArgument, match="scalar field has shape"):
            pressure_error_l2(sol.fe, sol.p, exact)


class TestNorms:
    def test_linear_field_closed_forms(self):
        m = make_unit_square(6)
        fe = build_taylor_hood(m)
        u = interpolate(fe, lambda p: np.stack([p[:, 0], -p[:, 1]], axis=1),
                        "velocity")
        rep = norms(fe, u)
        # grad u = diag(1, -1): seminorm sqrt(2), divergence 0
        assert rep.h1_semi == pytest.approx(math.sqrt(2.0), abs=1e-13)
        assert rep.divergence_l2 < 1e-13
        # ||u||_L2^2 = int x^2 + y^2 = 2/3
        assert rep.l2 == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-13)
        assert rep.h1 == pytest.approx(math.hypot(rep.l2, rep.h1_semi),
                                       abs=1e-15)

    def test_shear_field_vorticity_and_boundary(self):
        m = make_unit_square(4)
        fe = build_taylor_hood(m)
        u = interpolate(fe, lambda p: np.stack(
            [p[:, 1], np.zeros(len(p))], axis=1), "velocity")
        rep = norms(fe, u)
        # grad (y, 0) = [[0, 1], [0, 0]] everywhere; area 1
        assert rep.h1_semi == pytest.approx(1.0, abs=1e-13)
        # tangential trace: bottom 0, top 1, left/right vertical comp 0
        # int_bottom 0 + int_top 1 + sides 0 -> L2 norm = 1
        assert rep.boundary_l2_tangential == pytest.approx(1.0, abs=1e-13)

    def test_rigid_rotation_is_divergence_free_on_disk(self):
        m = make_disk(2)
        fe = build_taylor_hood(m)
        u = interpolate(fe, lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1),
                        "velocity")
        rep = norms(fe, u)
        assert rep.divergence_l2 < 1e-13

    def test_strain_energy_matches_viscous_form(self):
        # 0.5 u^T A u equals 2 int |D(u)|^2 for exactly representable fields
        m = make_unit_square(3)
        fe = build_taylor_hood(m)

        def field(p):
            x, y = p[:, 0], p[:, 1]
            return np.stack([x * y, x * x - y * y], axis=1)

        u = interpolate(fe, field, "velocity")
        A = forms.assemble_viscous(fe)
        # D(u) entries: d11 = y, d22 = -2y, d12 = (x + 2x)/2 = 3x/2
        # 2 int (d11^2 + 2 d12^2 + d22^2) over unit square
        exact = 2.0 * (1.0 / 3.0 + 2.0 * (9.0 / 4.0) * (1.0 / 3.0) + 4.0 / 3.0)
        assert float(u @ (A @ u)) == pytest.approx(exact, rel=1e-13)

    def test_pressure_norms(self):
        m = make_unit_square(4)
        fe = build_taylor_hood(m)
        p = interpolate(fe, lambda q: q[:, 0], "pressure")
        rep = norms(fe, p)
        assert rep.l2 == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-14)
        assert fem.pressure_mean(fe, p) == pytest.approx(0.5, abs=1e-14)
