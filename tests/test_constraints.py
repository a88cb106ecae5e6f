import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

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
            assert plan.basis.shape[0] == fe.num_velocity_dofs
            assert fe.num_velocity_dofs - plan.basis.shape[1] == 8 * n + 4

    def test_rotation_is_orthogonal(self):
        for mesh in (make_unit_square(3), make_disk(2)):
            fe, frames, plan = setup(mesh)
            P = plan.basis
            d = (P.T @ P - sparse.identity(P.shape[1])).tocoo()
            assert d.nnz == 0 or float(np.abs(d.data).max()) < 1e-14

    def test_impermeability_after_reduction(self):
        rng = np.random.default_rng(7)
        for mesh in (make_unit_square(4), make_disk(2)):
            fe, frames, plan = setup(mesh)
            u = plan.basis @ rng.standard_normal(plan.basis.shape[1])
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
        for name in ("basis", "gauge"):
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
        for array in (plan.basis.data, plan.basis.indices,
                      plan.basis.indptr, plan.gauge, plan.guard):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.basis = None

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
        clamped = sorted(bnodes | {node + n for node in bnodes})
        per_row = np.diff(plan.basis.indptr)
        assert not per_row[clamped].any()
        # Every other dof keeps its own unit column.
        kept = np.setdiff1d(np.arange(2 * n), clamped)
        assert plan.basis.shape[1] == len(kept)
        assert (plan.basis[kept] != sparse.identity(len(kept))).nnz == 0


class TestApplyPlan:
    def test_bordered_shapes_and_symmetry(self):
        mesh = make_disk(1)
        fe, frames, plan = setup(mesh, alpha=0.0)
        A = forms.assemble_viscous(fe)
        B = forms.assemble_divergence(fe)
        ell = np.zeros(fe.num_velocity_dofs)
        sys = apply_plan(plan, A, B, ell)
        dim = plan.basis.shape[1] + len(plan.gauge) + 2   # gauge + guard rows
        assert sys.matrix.shape == (dim, dim)
        assert sys.rhs.shape == (dim,)
        assert plan.labels == ("pressure_gauge", "kernel_guard")
        d = (sys.matrix - sys.matrix.T).tocoo()
        assert d.nnz == 0 or float(np.abs(d.data).max()) < 1e-13

    def test_reconstruct_roundtrip(self):
        mesh = make_disk(1)
        fe, frames, plan = setup(mesh, alpha=0.0)
        rng = np.random.default_rng(3)
        P = plan.basis
        nf, n_p = P.shape[1], len(plan.gauge)
        x = rng.standard_normal(nf + n_p + 2)
        u, p, mult = plan.reconstruct(x)
        assert u.shape == (fe.num_velocity_dofs,)
        assert np.allclose(p, x[nf:nf + n_p])
        assert set(mult) == {"pressure_gauge", "kernel_guard"}
        assert np.allclose(P.T @ u, x[:nf])
        # u already lies in the constrained space: projecting keeps it.
        assert np.abs(u - P @ (P.T @ u)).max() < 1e-14

    def test_identity_plan_is_plain_bordering(self):
        mesh = make_unit_square(2)
        fe = build_taylor_hood(mesh)
        n = fe.num_velocity_dofs
        gauge = forms.pressure_integral_vector(fe)
        plan = ConstraintPlan(basis=sparse.identity(n, format="csr"),
                              gauge=gauge)
        A = forms.assemble_velocity_h1(fe)
        B = forms.assemble_divergence(fe)
        ell = np.ones(fe.num_velocity_dofs)
        sys = apply_plan(plan, A, B, ell)
        m = sparse.csr_matrix(gauge[None, :])
        ref = sparse.bmat([[A, B.T, None], [B, None, m.T], [None, m, None]],
                          format="csr")
        assert (sys.matrix != ref).nnz == 0
        assert np.array_equal(sys.rhs[:fe.num_velocity_dofs], ell)

    @pytest.mark.parametrize("mesh, alpha, clamped", [
        (make_unit_square(32), 1.0, False), (make_disk(3), 1.0, False),
        (make_disk(3), 0.0, False), (make_unit_square(16), 1.0, True),
    ], ids=["slip-square32", "slip-disk3", "guarded-disk3", "clamped-square16"])
    def test_border_plus_velocity_is_the_one_piece_bordering(self, mesh, alpha,
                                                             clamped):
        # The velocity block and the border do not overlap, so adding
        # P^T A P to the bordered system stores the very entries of the
        # one-piece block matrix.
        fe = build_taylor_hood(mesh)
        data = ProblemData(f=lambda p: np.column_stack([np.sin(3.0 * p[:, 1]),
                                                        p[:, 0] ** 2]),
                           alpha=alpha, compatibility_mode=True)
        plan = (build_dirichlet_plan(fe) if clamped
                else build_constraint_plan(fe, data))
        assert (plan.guard is not None) == (alpha == 0.0)
        A = forms.assemble_viscous(fe) + forms.assemble_friction(fe, alpha)
        B = forms.assemble_divergence(fe)
        ell = forms.assemble_load(fe, data)
        P = plan.basis
        B_f = B @ P
        m = sparse.csr_matrix(plan.gauge[None, :])
        blocks = [[(P.T @ A @ P).tocsr(), B_f.T, None], [B_f, None, m.T],
                  [None, m, None]]
        rhs = [P.T @ ell, np.zeros(len(plan.gauge) + 1)]
        if plan.guard is not None:
            g = sparse.csr_matrix((P.T @ plan.guard)[None, :])
            for k, row in enumerate(blocks):
                row.append(g.T if k == 0 else None)
            blocks.append([g, None, None, None])
            rhs.append(np.zeros(1))
        want = sparse.bmat(blocks, format="csr")
        want.sort_indices()
        got = apply_plan(plan, A, B, ell)
        assert np.array_equal(got.matrix.indptr, want.indptr)
        assert np.array_equal(got.matrix.indices, want.indices)
        assert np.array_equal(got.matrix.data, want.data)
        assert np.array_equal(got.rhs, np.concatenate(rhs))
        bordered = constraints.border(plan, B, ell)
        assert np.array_equal(bordered.rhs, got.rhs)
        assert bordered.matrix.nnz + plan.reduce(A).nnz == got.matrix.nnz


def _bits(matrix):
    """A CSR matrix's arrays, with the values as their bit patterns."""
    m = sparse.csr_matrix(matrix)
    return m.indptr.tolist(), m.indices.tolist(), m.data.view(np.uint64).tolist()


def _reference_reduction(fe, kind):
    """The rotation ``T`` and the kept coordinates ``free`` of a plan, by the
    elimination rule: normal coordinates (both at corners) for slip plans,
    every boundary coordinate for the clamped one."""
    n = fe.num_velocity_nodes
    if kind == "clamped":
        nodes = np.concatenate([fe.mesh.boundary_edges.ravel(),
                                fe.boundary_mid_nodes])
        T, eliminated = sparse.identity(2 * n, format="csr"), [nodes, nodes + n]
    else:
        frames = boundary_frames(fe.mesh)
        T = constraints._rotation_matrix(fe, frames)
        eliminated = [frames.vertex_ids, n + frames.vertex_ids[frames.corner],
                      fe.boundary_mid_nodes]
    return T, np.setdiff1d(np.arange(2 * n), np.concatenate(eliminated))


def _plan(fe, kind, alpha=1.0):
    if kind == "clamped":
        return build_dirichlet_plan(fe)
    plan = build_constraint_plan(fe, ProblemData(alpha=alpha))
    if kind == "guarded":
        plan = dataclasses.replace(
            plan, guard=forms.boundary_rotation_functional(fe),
            labels=("pressure_gauge", "kernel_guard"))
    return plan


class TestBasisIsTheRotatedReduction:
    """``P = T[:, free]`` reproduces rotate-then-slice bit for bit."""

    @pytest.mark.parametrize("kind", ["slip", "clamped", "guarded"])
    @pytest.mark.parametrize("mesh", [make_unit_square(5), make_disk(2)],
                             ids=["square5", "disk2"])
    def test_basis_and_reductions(self, mesh, kind):
        fe = build_taylor_hood(mesh)
        plan = _plan(fe, kind)
        T, f = _reference_reduction(fe, kind)
        assert _bits(plan.basis) == _bits(T[:, f])
        w = np.random.default_rng(11).standard_normal(fe.num_velocity_dofs)
        for A in (forms.assemble_viscous(fe) + forms.assemble_friction(fe, 1.0),
                  forms.assemble_velocity_h1(fe),
                  forms.assemble_convection_skew(fe, w)):
            assert _bits(plan.reduce(A)) == _bits((T.T @ A @ T).tocsr()[f][:, f])
        B = forms.assemble_divergence(fe)
        ell = forms.assemble_load(fe, stokes_mms(alpha=1.0)["data"])
        assert _bits(B @ plan.basis) == _bits((B @ T).tocsr()[:, f])
        assert np.array_equal((plan.basis.T @ ell).view(np.uint64),
                              (T.T @ ell)[f].view(np.uint64))


def _alphas():
    scalar = st.floats(0.0, 1e12)
    return st.one_of(
        scalar,
        scalar.map(lambda c: lambda p: c * (1.0 + p[:, 0] ** 2)),
        st.lists(scalar, min_size=4, max_size=4).map(
            lambda v: dict(enumerate(v, start=1))))


@settings(max_examples=25, deadline=None)
@given(mesh=st.one_of(st.integers(2, 10).map(make_unit_square),
                      st.integers(0, 3).map(make_disk)),
       kind=st.sampled_from(["slip", "clamped", "guarded"]),
       alpha=_alphas(), seed=st.integers(0, 2**32 - 1))
def test_constrained_space_properties(mesh, kind, alpha, seed):
    fe = build_taylor_hood(mesh)
    plan = _plan(fe, kind, alpha)     # the disk reads marker 1 of a dict
    P = plan.basis
    rng = np.random.default_rng(seed)

    d = (P.T @ P - sparse.identity(P.shape[1])).tocoo()
    assert d.nnz == 0 or float(np.abs(d.data).max()) <= 1e-14

    # Impermeable at every boundary vertex and midpoint.
    u = P @ rng.standard_normal(P.shape[1])
    frames, n = boundary_frames(mesh), fe.num_velocity_nodes
    nodes = np.concatenate([frames.vertex_ids, fe.boundary_mid_nodes])
    normals = np.vstack([frames.normals, mesh.boundary_normals])
    flux = u[nodes] * normals[:, 0] + u[n + nodes] * normals[:, 1]
    assert np.abs(flux).max() <= 1e-14 * max(1.0, np.abs(u).max())

    A = forms.assemble_viscous(fe) + forms.assemble_friction(fe, alpha)
    matrix = apply_plan(plan, A, forms.assemble_divergence(fe),
                        np.zeros(fe.num_velocity_dofs)).matrix
    asym = abs(matrix - matrix.T).max()
    assert asym <= 1e-13 * abs(matrix).max()

    C = forms.assemble_convection_skew(fe, rng.standard_normal(2 * n))
    assert (C + C.T).count_nonzero() == 0
    R = plan.reduce(C)
    assert abs(R + R.T).max() <= 1e-14 * abs(C).max()
