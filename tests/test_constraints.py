import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse

from slipstokes import (ProblemData, boundary_frames, build_constraint_plan,
                        build_dirichlet_plan, build_taylor_hood, interpolate,
                        korn_quotient_min, make_disk, make_unit_square,
                        solve_stokes, stokes_mms)
from slipstokes.constraints import ConstraintPlan, apply_plan
from slipstokes.errors import InvalidArgument
from slipstokes.mesh import MARKER_CIRCLE
from slipstokes import constraints, forms


def setup(mesh, alpha=1.0, compatibility_mode=False):
    fe = build_taylor_hood(mesh)
    data = ProblemData(alpha=alpha, compatibility_mode=compatibility_mode)
    return fe, boundary_frames(mesh), build_constraint_plan(fe, data)


class TestPlanGeometry:
    def test_eliminated_count_square(self):
        # 4n vertex normals, 4 corner tangentials, 4n midpoint normals.
        for n in (2, 3, 5):
            fe, frames, plan = setup(make_unit_square(n))
            assert len(plan.eliminated) == 8 * n + 4
            assert len(plan.free) + len(plan.eliminated) == plan.n_velocity

    def test_rotation_is_orthogonal(self):
        for mesh in (make_unit_square(3), make_disk(2)):
            fe, frames, plan = setup(mesh)
            T = plan.rotation
            d = (T.T @ T - sparse.identity(plan.n_velocity)).tocoo()
            assert d.nnz == 0 or float(np.abs(d.data).max()) < 1e-14

    def test_impermeability_after_reduction(self):
        rng = np.random.default_rng(7)
        for mesh in (make_unit_square(4), make_disk(2)):
            fe, frames, plan = setup(mesh)
            z = np.zeros(plan.n_velocity)
            z[plan.free] = rng.standard_normal(len(plan.free))
            u = plan.rotation @ z
            n = fe.num_velocity_nodes
            for row, node in enumerate(frames.vertex_ids):
                un = (u[node] * frames.normals[row, 0]
                      + u[n + node] * frames.normals[row, 1])
                assert abs(un) < 1e-14
            for k, node in enumerate(fe.boundary_mid_nodes):
                nx, ny = mesh.boundary_normals[k]
                assert abs(u[node] * nx + u[n + node] * ny) < 1e-14

    def test_gauge_is_pressure_integral(self):
        fe, frames, plan = setup(make_unit_square(3))
        assert np.array_equal(plan.gauge, forms.pressure_integral_vector(fe))
        p = interpolate(fe, lambda x: 2.0 + x[:, 0], "pressure")
        assert float(plan.gauge @ p) == pytest.approx(2.5, rel=1e-13)


class TestGuardActivation:
    def test_disk_frictionless_activates(self):
        fe, frames, plan = setup(make_disk(1), alpha=0.0)
        assert plan.guard is not None
        assert plan.labels == ("pressure_gauge", "kernel_guard")

    def test_disk_with_friction_does_not(self):
        fe, frames, plan = setup(make_disk(1), alpha=1.0)
        assert plan.guard is None
        assert plan.labels == ("pressure_gauge",)

    def test_square_frictionless_does_not(self):
        fe, frames, plan = setup(make_unit_square(3), alpha=0.0)
        assert plan.guard is None
        assert plan.labels == ("pressure_gauge",)

    def test_tiny_alpha_counts_as_zero(self):
        fe, frames, plan = setup(make_disk(1), alpha=1e-15)
        assert plan.guard is not None

    def test_marker_dict_alpha(self):
        mesh = make_disk(1)
        fe, frames, plan = setup(mesh, alpha={MARKER_CIRCLE: 0.0})
        assert plan.guard is not None
        fe, frames, plan = setup(mesh, alpha={MARKER_CIRCLE: 1.0})
        assert plan.guard is None


class TestPlanSharing:
    """The data-free part of the slip plan is built once per live system."""

    def test_calls_share_the_mesh_parts(self):
        fe = build_taylor_hood(make_unit_square(3))
        a = build_constraint_plan(fe, ProblemData(alpha=1.0))
        b = build_constraint_plan(fe, ProblemData(alpha=2.0))
        assert a is b
        for name in ("rotation", "eliminated", "free", "gauge"):
            assert getattr(a, name) is getattr(b, name)

    def test_disk_guard_is_the_only_data_dependent_part(self):
        fe = build_taylor_hood(make_disk(1))
        guarded = build_constraint_plan(fe, ProblemData(alpha=0.0))
        plain = build_constraint_plan(fe, ProblemData(alpha=1.0))
        differ = [f.name for f in dataclasses.fields(ConstraintPlan)
                  if getattr(guarded, f.name) is not getattr(plain, f.name)]
        assert differ == ["guard", "labels"]
        assert plain.guard is None

    def test_shared_arrays_are_read_only(self):
        fe = build_taylor_hood(make_disk(1))
        plan = build_constraint_plan(fe, ProblemData(alpha=0.0))
        for array in (plan.rotation.data, plan.rotation.indices,
                      plan.eliminated, plan.free, plan.gauge, plan.guard):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.free = None

    def test_one_rotation_build_per_live_system(self, monkeypatch):
        calls = []
        build = constraints._rotation_matrix

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(constraints, "_rotation_matrix", counting)
        mesh = make_unit_square(4)
        fe = build_taylor_hood(mesh)     # held, so both solves share it
        for alpha in (0.5, 3.0):
            solve_stokes(mesh, stokes_mms(alpha=alpha)["data"])
        assert len(calls) == 1
        del fe

    def test_negative_friction_still_refused(self):
        mesh = make_unit_square(3)
        with pytest.raises(InvalidArgument):
            solve_stokes(mesh, ProblemData(alpha=-1.0))
        with pytest.raises(InvalidArgument):
            korn_quotient_min(mesh, alpha=-1.0)
        with pytest.raises(InvalidArgument):
            korn_quotient_min(mesh, alpha=lambda p: -np.ones(len(p)))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_friction_refused(self, alpha):
        mesh = make_unit_square(3)
        with pytest.raises(InvalidArgument, match="finite"):
            solve_stokes(mesh, ProblemData(alpha=alpha))
        with pytest.raises(InvalidArgument, match="finite"):
            korn_quotient_min(mesh, alpha=alpha)


class TestDirichletPlan:
    def test_all_boundary_dofs_clamped(self):
        mesh = make_unit_square(3)
        fe = build_taylor_hood(mesh)
        plan = build_dirichlet_plan(fe)
        n = fe.num_velocity_nodes
        bnodes = set(mesh.boundary_edges.ravel().tolist())
        bnodes |= set(fe.boundary_mid_nodes.tolist())
        clamped = set(plan.eliminated.tolist())
        for node in bnodes:
            assert node in clamped and node + n in clamped
        free = set(plan.free.tolist())
        assert not (free & clamped)


class TestApplyPlan:
    def test_bordered_shapes_and_symmetry(self):
        mesh = make_disk(1)
        fe, frames, plan = setup(mesh, alpha=0.0)
        A = forms.assemble_viscous(fe)
        B = forms.assemble_divergence(fe)
        ell = np.zeros(fe.num_velocity_dofs)
        sys = apply_plan(plan, A, B, ell)
        dim = len(plan.free) + plan.n_pressure + 2   # gauge + guard rows
        assert sys.matrix.shape == (dim, dim)
        assert sys.rhs.shape == (dim,)
        assert plan.labels == ("pressure_gauge", "kernel_guard")
        d = (sys.matrix - sys.matrix.T).tocoo()
        assert d.nnz == 0 or float(np.abs(d.data).max()) < 1e-13

    def test_reconstruct_roundtrip(self):
        mesh = make_disk(1)
        fe, frames, plan = setup(mesh, alpha=0.0)
        rng = np.random.default_rng(3)
        nf = len(plan.free)
        x = rng.standard_normal(nf + plan.n_pressure + 2)
        u, p, mult = plan.reconstruct(x)
        assert u.shape == (plan.n_velocity,)
        assert np.allclose(p, x[nf:nf + plan.n_pressure])
        assert set(mult) == {"pressure_gauge", "kernel_guard"}
        z = plan.rotation.T @ u
        assert np.allclose(z[plan.free], x[:nf])
        assert np.abs(z[plan.eliminated]).max() < 1e-14

    def test_identity_plan_is_plain_bordering(self):
        mesh = make_unit_square(2)
        fe = build_taylor_hood(mesh)
        n = fe.num_velocity_dofs
        plan = ConstraintPlan(
            n_velocity=n, n_pressure=fe.num_pressure_dofs,
            rotation=sparse.identity(n, format="csr"),
            eliminated=np.array([], dtype=np.int64),
            free=np.arange(n, dtype=np.int64))
        A = forms.assemble_velocity_h1(fe)
        B = forms.assemble_divergence(fe)
        ell = np.ones(fe.num_velocity_dofs)
        sys = apply_plan(plan, A, B, ell)
        ref = sparse.bmat([[A, B.T], [B, None]], format="csr")
        assert (sys.matrix != ref).nnz == 0
        assert np.array_equal(sys.rhs[:fe.num_velocity_dofs], ell)
