import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slipstokes.errors import NumericalError, SingularSystem
from slipstokes import saddle
from slipstokes.saddle import (SaddleSystem, factor_solve, factorize,
                               krylov_solve)


def random_spd_saddle(n=40, m=12, seed=0):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = R @ R.T + n * np.eye(n)
    B = rng.standard_normal((m, n))
    K = np.block([[A, B.T], [B, np.zeros((m, m))]])
    b = rng.standard_normal(n + m)
    return SaddleSystem(matrix=sparse.csr_matrix(K), rhs=b,
                        n_velocity=n, n_pressure=m)


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
        n = sys.n_velocity
        R = np.random.default_rng(seed + 1).standard_normal((n, n))
        C = np.zeros(sys.matrix.shape)
        C[:n, :n] = size * (R - R.T)
        return sys, SaddleSystem(matrix=(sys.matrix + sparse.csr_matrix(C)).tocsr(),
                                 rhs=sys.rhs, n_velocity=n,
                                 n_pressure=sys.n_pressure)

    def test_matches_direct_solve_on_nearby_factors(self):
        stokes, system = self.skew_perturbed(seed=3, size=2.0)
        lu = factorize(stokes.matrix)
        x, iterations, kept = krylov_solve(system, lu,
                                           np.zeros(len(system.rhs)))
        ref = factor_solve(system)
        assert 0 < iterations <= saddle.KRYLOV_MAXITER and kept is lu
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
        # A converged warm start needs no iteration.
        again, iterations, kept = krylov_solve(system, lu, ref)
        assert iterations == 0 and np.array_equal(again, ref) and kept is lu

    def test_capped_solve_falls_back_to_factor_solve(self, monkeypatch):
        stokes, system = self.skew_perturbed(seed=5, size=2.0)
        monkeypatch.setattr(saddle, "KRYLOV_MAXITER", 1)
        lu = factorize(stokes.matrix)
        x, iterations, fresh = krylov_solve(system, lu,
                                            np.zeros(len(system.rhs)))
        assert iterations is None
        assert np.array_equal(x, factor_solve(system))
        # The fallback hands back the factors of the system it solved.
        assert fresh is not lu
        assert np.array_equal(fresh.solve(system.rhs), x)


class TestFailureModes:
    def test_zero_matrix(self):
        sys = SaddleSystem(matrix=sparse.csr_matrix((3, 3)),
                           rhs=np.ones(3), n_velocity=3, n_pressure=0)
        with pytest.raises(SingularSystem):
            factor_solve(sys)

    def test_duplicated_row_is_singular(self):
        K = np.array([[2.0, 1.0, 0.0],
                      [1.0, 3.0, 1.0],
                      [1.0, 3.0, 1.0]])
        sys = SaddleSystem(matrix=sparse.csr_matrix(K), rhs=np.ones(3),
                           n_velocity=3, n_pressure=0)
        with pytest.raises(SingularSystem):
            factor_solve(sys)

    def test_nan_matrix(self):
        K = np.eye(3)
        K[1, 1] = np.nan
        sys = SaddleSystem(matrix=sparse.csr_matrix(K), rhs=np.ones(3),
                           n_velocity=3, n_pressure=0)
        with pytest.raises(NumericalError):
            factor_solve(sys)

    def test_nan_rhs(self):
        sys = SaddleSystem(matrix=sparse.csr_matrix(np.eye(3)),
                           rhs=np.array([1.0, np.nan, 0.0]),
                           n_velocity=3, n_pressure=0)
        with pytest.raises(NumericalError):
            factor_solve(sys)

    def test_shape_mismatch(self):
        sys = SaddleSystem(matrix=sparse.csr_matrix(np.eye(3)),
                           rhs=np.ones(4), n_velocity=3, n_pressure=0)
        with pytest.raises(NumericalError):
            factor_solve(sys)

    def test_pivot_tolerance_is_adjustable(self):
        # Nearly singular under every diagonal scaling (equilibrated
        # condition estimate 2.5e-15), but resolvable when the gate is
        # loosened.
        K = np.array([[1.0, 1.0],
                      [1.0, 1.0 + 1e-14]])
        sys = SaddleSystem(matrix=sparse.csr_matrix(K),
                           rhs=np.array([1.0, 2.0]),
                           n_velocity=2, n_pressure=0)
        with pytest.raises(SingularSystem):
            factor_solve(sys)
        x = factor_solve(sys, pivot_rtol=1e-16)
        ref = np.linalg.solve(K, sys.rhs)
        assert np.abs(x - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_diagonal_rescaling_of_identity_solves(self):
        # Small entries alone are not singularity: the gate equilibrates.
        K = np.diag([1.0, 1.0, 1e-14])
        sys = SaddleSystem(matrix=sparse.csr_matrix(K), rhs=np.ones(3),
                           n_velocity=3, n_pressure=0)
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
    scaled = SaddleSystem(matrix=(D @ sys.matrix @ D).tocsr(), rhs=d * sys.rhs,
                          n_velocity=sys.n_velocity, n_pressure=sys.n_pressure)
    state = np.random.get_state()
    y = factor_solve(scaled)
    after = np.random.get_state()
    assert state[0] == after[0] and np.array_equal(state[1], after[1])
    assert state[2:] == after[2:]
    assert np.abs(y - x / d).max() <= 1e-8 * np.abs(x / d).max()
    assert np.abs(d * y - x).max() <= 1e-8 * np.abs(x).max()
