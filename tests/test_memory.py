"""What is alive when SuperLU starts: only the matrix it factors and what
the caller still reads after it.

tracemalloc counts numpy's buffers, so its live bytes at the moment
``splu`` is entered are what the caller holds through the factorization,
on top of SuperLU's own factors and workspace.  No earlier factor is
alive then either: a refactorization drops the factors it replaces.
"""

import gc
import tracemalloc

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from slipstokes import (PicardOptions, apply_plan, assemble_divergence,
                        assemble_friction, assemble_load,
                        assemble_velocity_mass, assemble_viscous,
                        beta_inequality_checks, build_constraint_plan,
                        build_taylor_hood, make_disk, make_unit_square,
                        navier_stokes_mms, saddle, solve_friction_sweep,
                        solve_navier_stokes, solve_stokes, stokes_mms,
                        sweep_forcing)

SLACK = 1.1


def _held(*arrays):
    """Bytes of the buffers behind ``arrays``: a pruned view holds its
    whole base."""
    total = 0
    for a in arrays:
        while a.base is not None:
            a = a.base
        total += a.nbytes
    return total


def _sparse(*matrices):
    return sum(_held(m.data, m.indices, m.indptr) for m in matrices)


def _live_at_splu(monkeypatch, run):
    """``(live bytes above the warm baseline, bytes of the factored matrix)``
    when ``run``'s one ``splu`` call is entered.

    A first ``run`` fills the mesh's FE caches and builds its plan basis,
    so the baseline holds them.
    """
    splu, entered = spla.splu, []

    def recording(matrix, *args, **kwargs):
        entered.append((tracemalloc.get_traced_memory()[0], _sparse(matrix)))
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    run()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        entered.clear()
        run()
    finally:
        tracemalloc.stop()
    (live, factored), = entered
    return live - base, factored


def test_stokes_holds_the_system_and_its_operator(monkeypatch):
    mesh, data = make_unit_square(32), stokes_mms()["data"]
    fe = build_taylor_hood(mesh)
    plan = build_constraint_plan(fe, data)
    A = assemble_viscous(fe) + assemble_friction(fe, data.alpha)
    ell = assemble_load(fe, data)
    system = apply_plan(plan, A, assemble_divergence(fe), ell)
    live, factored = _live_at_splu(monkeypatch,
                                   lambda: solve_stokes(mesh, data))
    needed = (factored + _sparse(system.matrix, A)
              + _held(system.rhs, ell))
    assert live <= SLACK * needed, (live, needed)


def test_rotation_moments_hold_the_shifted_matrix_and_the_mass(monkeypatch):
    mesh = make_disk(3)
    fe = build_taylor_hood(mesh)
    plan = fe.slip_plan()
    M_l2 = plan.reduce(assemble_velocity_mass(fe))
    live, factored = _live_at_splu(monkeypatch,
                                   lambda: beta_inequality_checks(mesh))
    # The two reduced moment vectors, one float per reduced dof each.
    needed = factored + _sparse(M_l2) + 2 * 8 * M_l2.shape[0]
    assert live <= SLACK * needed, (live, needed)


def test_krylov_fallback_drops_the_stale_factor(monkeypatch, factors_alive):
    rng = np.random.default_rng(5)
    n, m = 40, 12
    R = rng.standard_normal((n, n))
    B = rng.standard_normal((m, n))
    K = np.block([[R @ R.T + n * np.eye(n), B.T], [B, np.zeros((m, m))]])
    C = np.zeros(K.shape)
    C[:n, :n] = 2.0 * (R - R.T)
    system = saddle.SaddleSystem(matrix=sparse.csr_matrix(K + C),
                                 rhs=rng.standard_normal(n + m))
    monkeypatch.setattr(saddle, "KRYLOV_MAXITER", 1)
    alive = factors_alive(saddle)
    factors = saddle.Factors(saddle.factorize(sparse.csr_matrix(K)))
    _, iterations = saddle.krylov_solve(system, factors, np.zeros(n + m))
    assert iterations is None
    assert alive == [[], [False]]


def test_friction_sweep_refactors_with_one_factor_alive(factors_alive):
    alive = factors_alive(saddle)
    _, iterations = solve_friction_sweep(
        make_unit_square(32), sweep_forcing(), [10.0 ** k for k in range(7)])
    # The refactorization at 1e3 starts after the factor of 1 is gone.
    assert iterations.index(None, 1) == 3
    assert alive == [[], [False]]


def test_picard_fallbacks_refactor_with_one_factor_alive(monkeypatch,
                                                         factors_alive):
    # A zero target keeps GMRES from settling, so every sweep refactors.
    monkeypatch.setattr(saddle, "KRYLOV_MAXITER", 1)
    monkeypatch.setattr(saddle, "KRYLOV_RTOL", 0.0)
    alive = factors_alive(saddle)
    data = navier_stokes_mms(alpha=1.0, amplitude=4.0)["data"]
    _, log = solve_navier_stokes(make_unit_square(8), data,
                                 PicardOptions(damping=0.7))
    assert log.krylov == [None] * len(log.krylov) and len(log.krylov) > 2
    assert alive == [[False] * k for k in range(len(log.krylov) + 1)]
