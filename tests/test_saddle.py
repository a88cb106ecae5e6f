import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slipstokes import (apply_plan, assemble_convection_skew,
                        assemble_divergence, assemble_friction,
                        assemble_velocity_h1, assemble_viscous,
                        build_constraint_plan, build_dirichlet_plan,
                        build_taylor_hood, interpolate, make_disk,
                        make_unit_square, navier_stokes_mms, sweep_forcing)
from slipstokes.errors import NumericalError, SingularSystem
from slipstokes import saddle
from slipstokes.saddle import (Factors, SaddleSystem, factor_solve,
                               factorize, krylov_solve, symmetric_lu)


def random_spd_saddle(n=40, m=12, seed=0):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = R @ R.T + n * np.eye(n)
    B = rng.standard_normal((m, n))
    K = np.block([[A, B.T], [B, np.zeros((m, m))]])
    b = rng.standard_normal(n + m)
    return SaddleSystem(matrix=sparse.csr_matrix(K), rhs=b)


class TestFactorSolve:
    def test_matches_dense_solve(self):
        sys = random_spd_saddle()
        x = factor_solve(sys)
        ref = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        assert np.abs(x - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())

    def test_residual_small(self):
        sys = random_spd_saddle(seed=4)
        x = factor_solve(sys)
        r = sys.matrix @ x - sys.rhs
        assert np.linalg.norm(r) < 1e-10 * np.linalg.norm(sys.rhs)

    def test_deterministic(self):
        a = factor_solve(random_spd_saddle(seed=2))
        b = factor_solve(random_spd_saddle(seed=2))
        assert np.array_equal(a, b)


class TestKrylovSolve:
    def skew_perturbed(self, seed, size):
        sys = random_spd_saddle(seed=seed)
        n = 40                      # the default velocity block
        R = np.random.default_rng(seed + 1).standard_normal((n, n))
        C = np.zeros(sys.matrix.shape)
        C[:n, :n] = size * (R - R.T)
        return sys, SaddleSystem(
            matrix=(sys.matrix + sparse.csr_matrix(C)).tocsr(), rhs=sys.rhs)

    def test_matches_direct_solve_on_nearby_factors(self):
        stokes, system = self.skew_perturbed(seed=3, size=2.0)
        lu = factorize(stokes.matrix)
        factors = Factors(lu)
        x, iterations = krylov_solve(system, factors,
                                     np.zeros(len(system.rhs)))
        ref = factor_solve(system)
        assert 0 < iterations <= saddle.KRYLOV_MAXITER and factors.lu is lu
        assert factors.iterations == iterations
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
        # A converged warm start needs no iteration.
        again, iterations = krylov_solve(system, factors, ref)
        assert iterations == 0 and np.array_equal(again, ref)
        assert factors.lu is lu

    def test_capped_solve_falls_back_to_factor_solve(self, monkeypatch):
        stokes, system = self.skew_perturbed(seed=5, size=2.0)
        monkeypatch.setattr(saddle, "KRYLOV_MAXITER", 1)
        lu = factorize(stokes.matrix)
        factors = Factors(lu)
        x, iterations = krylov_solve(system, factors,
                                     np.zeros(len(system.rhs)))
        assert iterations is None
        assert np.array_equal(x, factor_solve(system))
        # The fallback hands back the factors of the system it solved.
        assert factors.lu is not lu and factors.iterations == 0
        assert np.array_equal(factors.lu.solve(system.rhs), x)

    @pytest.mark.parametrize("last", [saddle.KRYLOV_MAXITER // 2,
                                      saddle.KRYLOV_MAXITER // 2 + 1])
    def test_slow_last_solve_refactors_up_front(self, monkeypatch, last):
        stokes, system = self.skew_perturbed(seed=3, size=2.0)
        calls = []
        gmres = saddle.spla.gmres
        monkeypatch.setattr(saddle.spla, "gmres", lambda *args, **kwargs: (
            calls.append(1) or gmres(*args, **kwargs)))
        lu = factorize(stokes.matrix)
        factors = Factors(lu, iterations=last)
        x, iterations = krylov_solve(system, factors,
                                     np.zeros(len(system.rhs)))
        ref = factor_solve(system)
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
        if last > saddle.KRYLOV_MAXITER // 2:
            # No cycle runs; the system is factored as a miss would be.
            assert calls == [] and iterations is None
            assert np.array_equal(x, ref) and factors.lu is not lu
        else:
            assert calls == [1] and factors.iterations == iterations > 0


class TestFailureModes:
    def test_zero_matrix(self):
        sys = SaddleSystem(matrix=sparse.csr_matrix((3, 3)), rhs=np.ones(3))
        with pytest.raises(SingularSystem):
            factor_solve(sys)

    def test_duplicated_row_is_singular(self):
        K = np.array([[2.0, 1.0, 0.0],
                      [1.0, 3.0, 1.0],
                      [1.0, 3.0, 1.0]])
        sys = SaddleSystem(matrix=sparse.csr_matrix(K), rhs=np.ones(3))
        with pytest.raises(SingularSystem):
            factor_solve(sys)

    def test_nan_matrix(self):
        K = np.eye(3)
        K[1, 1] = np.nan
        sys = SaddleSystem(matrix=sparse.csr_matrix(K), rhs=np.ones(3))
        with pytest.raises(NumericalError):
            factor_solve(sys)

    def test_nan_rhs(self):
        sys = SaddleSystem(matrix=sparse.csr_matrix(np.eye(3)),
                           rhs=np.array([1.0, np.nan, 0.0]))
        with pytest.raises(NumericalError):
            factor_solve(sys)

    def test_shape_mismatch(self):
        sys = SaddleSystem(matrix=sparse.csr_matrix(np.eye(3)), rhs=np.ones(4))
        with pytest.raises(NumericalError):
            factor_solve(sys)

    def test_nan_residual_refused(self):
        # Finite data and solution whose residual norms overflow: the
        # relative residual is inf / inf = NaN, which no gate may admit.
        sys = SaddleSystem(matrix=sparse.csr_matrix(np.eye(2)),
                           rhs=np.full(2, 1e300))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="nan"):
            saddle.gated_solve(sys, lambda b: 2.0 * b)

    def test_nearly_singular_under_every_scaling_refused(self):
        # Equilibrated condition estimate 2.5e-15, below the gate.
        K = np.array([[1.0, 1.0],
                      [1.0, 1.0 + 1e-14]])
        sys = SaddleSystem(matrix=sparse.csr_matrix(K),
                           rhs=np.array([1.0, 2.0]))
        with pytest.raises(SingularSystem):
            factor_solve(sys)

    def test_diagonal_rescaling_of_identity_solves(self):
        # Small entries alone are not singularity: the gate equilibrates.
        K = np.diag([1.0, 1.0, 1e-14])
        sys = SaddleSystem(matrix=sparse.csr_matrix(K), rhs=np.ones(3))
        x = factor_solve(sys)
        assert x[2] == pytest.approx(1e14, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16),
       exponents=arrays(np.float64, 52, elements=st.floats(-6.0, 6.0)))
def test_gate_is_invariant_under_diagonal_scaling(seed, exponents):
    sys = random_spd_saddle(seed=seed)
    x = factor_solve(sys)
    d = 10.0 ** exponents
    D = sparse.diags(d)
    scaled = SaddleSystem(matrix=(D @ sys.matrix @ D).tocsr(), rhs=d * sys.rhs)
    state = np.random.get_state()
    y = factor_solve(scaled)
    after = np.random.get_state()
    assert state[0] == after[0] and np.array_equal(state[1], after[1])
    assert state[2:] == after[2:]
    assert np.abs(y - x / d).max() <= 1e-8 * np.abs(x / d).max()
    assert np.abs(d * y - x).max() <= 1e-8 * np.abs(x).max()


def mesh_system(mesh, plan, alpha=1.0, convection=False):
    """The bordered matrix ``solve_stokes`` factors on ``mesh``, and its plan.

    ``plan`` is "slip" (with the disk guard at vanishing friction) or
    "clamped"; ``convection`` adds the Picard term ``C(u)`` at the
    manufactured Navier-Stokes velocity, as a Picard sweep does.
    """
    fe = build_taylor_hood(mesh)
    data = dataclasses.replace(sweep_forcing(), alpha=alpha)
    plan = (build_dirichlet_plan(fe) if plan == "clamped"
            else build_constraint_plan(fe, data))
    A = assemble_viscous(fe) + assemble_friction(fe, alpha)
    system = apply_plan(plan, A, assemble_divergence(fe),
                        np.zeros(fe.num_velocity_dofs))
    if convection:
        u = interpolate(fe, navier_stokes_mms(alpha)["u"].value, "velocity")
        C = plan.reduce(assemble_convection_skew(fe, u))
        C.resize(system.matrix.shape)
        return system.matrix + C, plan
    return system.matrix, plan


# Held for the whole module, so every case on a mesh shares one system.
MESHES = {"square16": make_unit_square(16), "square32": make_unit_square(32),
          "disk3": make_disk(3)}


class TestStaticPivots:
    """Each zero-diagonal unknown is ordered after its mate: no row swaps."""

    @pytest.mark.parametrize("mesh,plan,alpha,convection", [
        ("square16", "slip", 1.0, False), ("square16", "clamped", 1.0, False),
        ("square32", "slip", 1.0, False), ("square32", "clamped", 1.0, False),
        ("disk3", "slip", 0.0, False), ("disk3", "slip", 1.0, False),
        ("disk3", "clamped", 1.0, False),
        ("square16", "slip", 1.0, True), ("square16", "clamped", 1.0, True),
    ], ids=["square16-slip", "square16-clamped", "square32-slip",
            "square32-clamped", "disk3-guarded", "disk3-slip", "disk3-clamped",
            "ns-square16-slip", "ns-square16-clamped"])
    def test_no_row_interchanges(self, mesh, plan, alpha, convection):
        matrix, _ = mesh_system(MESHES[mesh], plan, alpha, convection)
        lu = factorize(matrix)
        assert (lu.perm_r == lu.perm_c).all()

    def test_clamped_fill_is_that_of_the_slip_system(self):
        # Row swaps made the clamped square-32 fill 6.4 times the slip one.
        clamped, slip = (factorize(mesh_system(MESHES["square32"], p)[0])
                         for p in ("clamped", "slip"))
        assert clamped.L.nnz + clamped.U.nnz <= 1.1 * (slip.L.nnz + slip.U.nnz)

    @pytest.mark.parametrize("convection", [False, True],
                             ids=["stokes", "picard"])
    def test_steering_pads_columns_to_the_mate_pattern(self, convection):
        K, _ = mesh_system(make_unit_square(7), "clamped", 1.0, convection)
        # Entries that cancel to 0.0 on one side of the diagonal only leave
        # this pattern unsymmetric, so a mate's row and column differ.
        pattern = abs(K) > 0.0
        assert (pattern != pattern.T).nnz
        steered = saddle._steered(K)
        assert steered.format == "csc" and steered.has_canonical_format
        assert np.array_equal(steered.toarray(), K.toarray())
        dense, d = K.toarray(), K.diagonal()
        csc, csr = K.tocsc(), K.tocsr()

        def rows(m, k):
            return set(m.indices[m.indptr[k]:m.indptr[k + 1]].tolist())

        for j in range(K.shape[0]):
            want = rows(csc, j)
            # The mate: largest coupling among rows of nonzero diagonal.
            weight = np.where(d != 0.0, np.abs(dense[:, j]), 0.0)
            if d[j] == 0.0 and weight.max() > 0.0:
                mate = int(np.argmax(weight))
                want |= rows(csc, mate) | rows(csr, mate)
            assert rows(steered, j) == want

    def test_nonzero_diagonal_reaches_splu_unchanged(self, monkeypatch):
        received = []
        splu = saddle.spla.splu
        monkeypatch.setattr(saddle.spla, "splu", lambda mat, **kw: (
            received.append(mat) or splu(mat, **kw)))
        fe = build_taylor_hood(make_unit_square(4))
        plan = build_constraint_plan(fe, sweep_forcing())
        spd = plan.reduce(assemble_velocity_h1(fe))
        csc = spd.tocsc()
        symmetric_lu(csc)
        assert received[-1] is csc
        factorize(spd)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(received[-1], name),
                                  getattr(csc, name))


@settings(max_examples=30, deadline=None)
@given(mesh=st.sampled_from([("square", level) for level in range(2, 17)]
                            + [("disk", level) for level in (1, 2, 3)]),
       plan=st.sampled_from(["slip", "clamped"]),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 1e12)))
def test_only_the_pressure_gauge_trades_pivot_rows(mesh, plan, alpha):
    # The gauge multiplier couples to pressures only, so it has no mate.
    # When the ordering reaches it before every pressure, or the last
    # pressure's Schur diagonal is the exact zero of the hydrostatic mode,
    # the two trade pivot rows; no other unknown leaves its diagonal.
    domain, level = mesh
    matrix, plan = mesh_system(make_unit_square(level) if domain == "square"
                               else make_disk(level), plan, alpha)
    lu = symmetric_lu(matrix)
    swapped = np.flatnonzero(lu.perm_r != lu.perm_c)
    n_velocity = plan.basis.shape[1]
    gauge = n_velocity + len(plan.gauge)
    assert plan.labels[0] == "pressure_gauge"
    if swapped.size:
        other = int(swapped[swapped != gauge][0])
        assert swapped.tolist() == sorted([gauge, other])
        assert n_velocity <= other < gauge
        assert lu.perm_r[gauge] == lu.perm_c[other]
        assert lu.perm_r[other] == lu.perm_c[gauge]
