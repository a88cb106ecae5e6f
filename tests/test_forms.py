import numpy as np
import pytest
import scipy.sparse as sparse

from slipstokes import (ProblemData, build_taylor_hood, interpolate,
                        make_disk, make_unit_square, rigid_rotation)
from slipstokes import fem, forms
from slipstokes.errors import InvalidArgument, NumericalError


def build(n=4):
    m = make_unit_square(n)
    return m, build_taylor_hood(m)


def sym_defect(M):
    d = (M - M.T).tocoo()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


class TestBilinearForms:
    def test_symmetry(self):
        m, fe = build()
        for A in (forms.assemble_viscous(fe),
                  forms.assemble_velocity_mass(fe),
                  forms.assemble_velocity_h1(fe),
                  forms.assemble_pressure_mass(fe),
                  forms.assemble_friction(fe, alpha=1.5)):
            assert sym_defect(A) < 1e-14

    def test_viscous_kernel_contains_rigid_motions(self):
        for mesh in (make_unit_square(3), make_disk(2)):
            fe = build_taylor_hood(mesh)
            A = forms.assemble_viscous(fe)
            const = interpolate(fe, lambda p: np.stack(
                [np.ones(len(p)), -2.0 * np.ones(len(p))], axis=1), "velocity")
            beta = interpolate(fe, rigid_rotation().value, "velocity")
            scale = float(np.abs(A.data).max())
            assert np.abs(A @ const).max() < 1e-14 * scale
            assert np.abs(A @ beta).max() < 1e-13 * scale

    def test_viscous_positive_semidefinite(self):
        m, fe = build(3)
        A = forms.assemble_viscous(fe)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(fe.num_velocity_dofs)
            assert float(v @ (A @ v)) >= -1e-12

    def test_h1_gram_matches_norms(self):
        from slipstokes import norms
        m, fe = build(4)
        H1 = forms.assemble_velocity_h1(fe)
        u = interpolate(fe, lambda p: np.stack(
            [p[:, 0] * p[:, 1], p[:, 1] ** 2], axis=1), "velocity")
        rep = norms(fe, u)
        assert float(u @ (H1 @ u)) == pytest.approx(rep.h1 ** 2, rel=1e-13)
        assert forms.velocity_h1_norm(H1, u) == pytest.approx(rep.h1,
                                                             rel=1e-13)
        # A rounding-negative square reads 0, never NaN.
        assert forms.velocity_h1_norm(-H1, u) == 0.0


def _oracle_vector_scatter(fe, local):
    # Plain COO sum of per-triangle (12, 12) velocity blocks, x then y.
    dofs = np.hstack([fe.tri_vnodes, fe.tri_vnodes + fe.num_velocity_nodes])
    n = fe.num_velocity_dofs
    return sparse.coo_matrix((local.ravel(),
                              (np.repeat(dofs, 12, axis=1).ravel(),
                               np.tile(dofs, (1, 12)).ravel())),
                             shape=(n, n)).tocsr()


def _oracle_viscous(fe):
    # Five einsum passes, one per gradient product.
    rule = fem.quadrature(4)
    grads = fe.physical_grads(rule)
    w = rule.tri_weights[:, None] * fe.det[None, :]
    gx, gy = grads[..., 0], grads[..., 1]
    kxx = np.einsum("qt,qti,qtj->tij", w, gx, gx) * 2 \
        + np.einsum("qt,qti,qtj->tij", w, gy, gy)
    kyy = np.einsum("qt,qti,qtj->tij", w, gy, gy) * 2 \
        + np.einsum("qt,qti,qtj->tij", w, gx, gx)
    kyx = np.einsum("qt,qti,qtj->tij", w, gx, gy)
    return _oracle_vector_scatter(
        fe, np.block([[kxx, np.swapaxes(kyx, 1, 2)], [kyx, kyy]]))


def _oracle_componentwise(fe, stiffness):
    # Mass (plus the full-gradient stiffness) with explicit zero x-y blocks.
    rule = fem.quadrature(4)
    vals = fem.p2_values(rule.tri_points)
    w = rule.tri_weights[:, None] * fe.det[None, :]
    blk = np.einsum("qt,qi,qj->tij", w, vals, vals)
    if stiffness:
        grads = fe.physical_grads(rule)
        blk = blk + np.einsum("qt,qtia,qtja->tij", w, grads, grads)
    z = np.zeros_like(blk)
    return _oracle_vector_scatter(fe, np.block([[blk, z], [z, blk]]))


class TestAssemblyOracles:
    @pytest.mark.parametrize("mesh", [make_unit_square(3), make_disk(2)],
                             ids=["square3", "disk2"])
    def test_matches_blockwise_recipes(self, mesh):
        fe = build_taylor_hood(mesh)
        n = fe.num_velocity_nodes
        for new, old in ((forms.assemble_viscous(fe), _oracle_viscous(fe)),
                         (forms.assemble_velocity_mass(fe),
                          _oracle_componentwise(fe, stiffness=False)),
                         (forms.assemble_velocity_h1(fe),
                          _oracle_componentwise(fe, stiffness=True))):
            scale = float(np.abs(old.data).max())
            assert abs(new - old).max() <= 1e-14 * scale
        for mat in (forms.assemble_velocity_mass(fe),
                    forms.assemble_velocity_h1(fe)):
            coo = mat.tocoo()
            assert not ((coo.row < n) != (coo.col < n)).any()
            assert mat.nnz == 2 * mat[:n, :n].nnz


class TestFriction:
    def test_zero_alpha_is_empty(self):
        m, fe = build()
        M = forms.assemble_friction(fe, alpha=0.0)
        assert M.nnz == 0

    def test_rows_confined_to_boundary(self):
        m, fe = build()
        M = forms.assemble_friction(fe, alpha=1.0).tocoo()
        trace = set(fe.boundary_trace_nodes().ravel().tolist())
        n = fe.num_velocity_nodes
        for idx in np.concatenate([M.row, M.col]):
            assert int(idx) % n in trace

    def test_marker_dict_energy(self):
        # friction only on the bottom side; horizontal unit flow
        m, fe = build(5)
        M = forms.assemble_friction(fe, alpha={1: 2.0, 2: 0.0, 3: 0.0, 4: 0.0})
        u = interpolate(fe, lambda p: np.stack(
            [np.ones(len(p)), np.zeros(len(p))], axis=1), "velocity")
        assert float(u @ (M @ u)) == pytest.approx(2.0, rel=1e-13)

    def test_callable_alpha(self):
        m, fe = build(4)
        M = forms.assemble_friction(fe, alpha=lambda p: p[:, 0] + 1.0)
        u = interpolate(fe, lambda p: np.stack(
            [np.ones(len(p)), np.zeros(len(p))], axis=1), "velocity")
        # tangential speed 1 on bottom and top, 0 on the vertical sides:
        # int (x+1) over bottom + top = 2 * 3/2
        assert float(u @ (M @ u)) == pytest.approx(3.0, rel=1e-13)

    def test_negative_alpha_rejected(self):
        m, fe = build(2)
        with pytest.raises(InvalidArgument):
            forms.assemble_friction(fe, alpha=-1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf,
                                       lambda p: np.full(len(p), np.nan),
                                       {1: 1.0, 2: np.inf, 3: 1.0, 4: 1.0}],
                             ids=["nan", "inf", "callable-nan", "marker-inf"])
    def test_non_finite_alpha_rejected(self, alpha):
        m, fe = build(2)
        with pytest.raises(InvalidArgument, match="finite"):
            forms.assemble_friction(fe, alpha=alpha)


class TestDivergenceAndLoad:
    def test_divergence_sign_and_value(self):
        m, fe = build(4)
        B = forms.assemble_divergence(fe)
        u = interpolate(fe, lambda p: np.stack(
            [p[:, 0], p[:, 1]], axis=1), "velocity")
        ones = np.ones(fe.num_pressure_dofs)
        # q^T B u = -int q div u with div u = 2 over the unit square
        assert float(ones @ (B @ u)) == pytest.approx(-2.0, rel=1e-13)

    def test_pressure_integral_vector(self):
        m, fe = build(3)
        mv = forms.pressure_integral_vector(fe)
        p = interpolate(fe, lambda q: np.ones(len(q)), "pressure")
        assert float(mv @ p) == pytest.approx(1.0, rel=1e-14)
        p2 = interpolate(fe, lambda q: q[:, 0], "pressure")
        assert float(mv @ p2) == pytest.approx(0.5, rel=1e-13)

    def test_load_superposition(self):
        m, fe = build(3)

        def f(p):
            return np.stack([p[:, 0], np.sin(p[:, 1])], axis=1)

        F = np.array([[1.0, 2.0], [0.5, -1.0]])

        def h(p, nrm, tan):
            return 3.0 * tan

        full = forms.assemble_load(fe, ProblemData(f=f, F=F, h=h, alpha=1.0))
        parts = (forms.assemble_load(fe, ProblemData(f=f, alpha=1.0))
                 + forms.assemble_load(fe, ProblemData(F=F, alpha=1.0))
                 + forms.assemble_load(fe, ProblemData(h=h, alpha=1.0)))
        assert np.abs(full - parts).max() < 1e-13 * max(np.abs(full).max(), 1.0)

    def test_stress_term_against_constant_gradient(self):
        m, fe = build(4)
        F = np.array([[1.0, -2.0], [3.0, 0.5]])
        ell = forms.assemble_load(fe, ProblemData(F=F, alpha=0.0))
        v = interpolate(fe, lambda p: np.stack(
            [2.0 * p[:, 0] - p[:, 1], p[:, 0] + 4.0 * p[:, 1]], axis=1),
            "velocity")
        # l(v) = -int F : grad v, grad v = [[2,-1],[1,4]] constant, area 1
        expect = -(1.0 * 2.0 + (-2.0) * (-1.0) + 3.0 * 1.0 + 0.5 * 4.0)
        assert float(ell @ v) == pytest.approx(expect, rel=1e-13)

    def test_normal_drive_is_projected_out(self):
        m, fe = build(3)

        def h(p, nrm, tan):
            return 5.0 * nrm

        ell = forms.assemble_load(fe, ProblemData(h=h, alpha=1.0))
        assert np.abs(ell).max() < 1e-14

    def test_tangential_drive_oracle_on_disk(self):
        mesh = make_disk(1)
        fe = build_taylor_hood(mesh)

        def h(p, nrm, tan):
            return 3.0 * tan

        ell = forms.assemble_load(fe, ProblemData(h=h, alpha=1.0))
        beta = interpolate(fe, rigid_rotation().value, "velocity")
        m_edges = len(mesh.boundary_edges)
        L = 2.0 * np.sin(np.pi / m_edges)
        rm = np.cos(np.pi / m_edges)
        assert float(ell @ beta) == pytest.approx(3.0 * m_edges * L * rm,
                                                  rel=1e-13)

    def test_non_finite_load_rejected(self):
        m, fe = build(2)
        with pytest.raises(NumericalError):
            forms.assemble_load(fe, ProblemData(
                f=lambda p: np.full((len(p), 2), np.inf), alpha=0.0))


class TestConvection:
    def test_exact_antisymmetry(self):
        m, fe = build(3)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(fe.num_velocity_dofs)
        C = forms.assemble_convection_skew(fe, w)
        S = (C + C.T).tocoo()
        assert S.nnz == 0 or float(np.abs(S.data).max()) == 0.0

    def test_diagonal_vanishes_on_random_inputs(self):
        m, fe = build(3)
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = rng.standard_normal(fe.num_velocity_dofs)
            v = rng.standard_normal(fe.num_velocity_dofs)
            C = forms.assemble_convection_skew(fe, w)
            num = abs(float(v @ (C @ v)))
            den = float(np.linalg.norm(C @ v) * np.linalg.norm(v)) or 1.0
            assert num / den < 1e-12

    def test_polynomial_oracle(self):
        # frozen symbolic value: transport = rigid rotation,
        # u = (x^2 + y, x y), v = (y^2, x - x y) on the unit square
        m, fe = build(4)
        beta = interpolate(fe, rigid_rotation().value, "velocity")
        C = forms.assemble_convection_skew(fe, beta)

        u = interpolate(fe, lambda p: np.stack(
            [p[:, 0] ** 2 + p[:, 1], p[:, 0] * p[:, 1]], axis=1), "velocity")
        v = interpolate(fe, lambda p: np.stack(
            [p[:, 1] ** 2, p[:, 0] - p[:, 0] * p[:, 1]], axis=1), "velocity")
        assert float(v @ (C @ u)) == pytest.approx(-5.0 / 24.0, rel=1e-13)


class TestRotationFunctional:
    def test_polygon_closed_form(self):
        for level, radius in ((1, 1.0), (2, 2.5)):
            mesh = make_disk(level, radius=radius)
            fe = build_taylor_hood(mesh)
            g = forms.boundary_rotation_functional(fe)
            beta = interpolate(fe, rigid_rotation().value, "velocity")
            m_edges = len(mesh.boundary_edges)
            L = 2.0 * radius * np.sin(np.pi / m_edges)
            rm = radius * np.cos(np.pi / m_edges)
            oracle = m_edges * (rm * rm * L + L ** 3 / 12.0)
            assert float(g @ beta) == pytest.approx(oracle, rel=1e-13)

    def test_support_is_boundary_only(self):
        mesh = make_disk(1)
        fe = build_taylor_hood(mesh)
        g = forms.boundary_rotation_functional(fe)
        trace = set(fe.boundary_trace_nodes().ravel().tolist())
        n = fe.num_velocity_nodes
        for idx in np.nonzero(g)[0]:
            assert int(idx) % n in trace


@pytest.mark.parametrize("mesh", [make_unit_square(8), make_disk(2)],
                         ids=["square8", "disk2"])
def test_viscous_form_stores_no_exact_zeros(mesh):
    A = forms.assemble_viscous(build_taylor_hood(mesh))
    assert A.has_canonical_format and (A.data != 0.0).all()
