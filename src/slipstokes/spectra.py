"""Discrete spectral constants: Korn quotients, inf-sup, rotation inequalities.

All eigenproblems are posed on the impermeability-constrained spaces.
The Korn and rotation-moment constants come from shift-inverted Lanczos
(ARPACK through ``eigsh``) about ``SIGMA`` with a deterministic start
vector, at every problem size, and the inf-sup Schur complement is
formed by sparse solves.

Every sparse factorization here goes through ``saddle.symmetric_lu``:
SuperLU's symmetric mode, a minimum-degree ordering of the symmetric
pattern with static diagonal pivots.  Each factored matrix is symmetric
positive definite (the H1 Gram matrix, or ``A - SIGMA M`` with ``A``
positive semidefinite, ``M`` positive definite and ``SIGMA < 0``), so
Gaussian elimination without pivoting is as stable as a Cholesky
factorization, and its fill is that of a symmetric factorization.  The
factors are handed to ``eigsh`` as ``OPinv``, so ARPACK never factors on
its own.  Both rotation-moment inequalities share one factorization of
``A - SIGMA M``; their rank-one terms enter by Sherman-Morrison.

Eigenvalues below a rank-style floor (machine epsilon times problem size)
are reported as exactly zero, which is how the disk kernel shows up: the
interpolated rigid rotation satisfies every nodal constraint exactly, so
the constrained strain form is singular to machine precision, not merely
small.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import fem, forms
from .errors import InvalidArgument, SingularSystem
from .fields import rigid_rotation
from .saddle import symmetric_lu

FLOOR_FACTOR = 100.0
# Shift of the shift-invert Lanczos runs.  Negative, so A - SIGMA * M stays
# positive definite even when A itself is singular (the kernel case).
SIGMA = -0.1
# Pressure columns per sparse solve when forming the inf-sup Schur complement.
SCHUR_BLOCK = 64


@dataclass
class SpectralReport:
    """One spectral constant with the context needed to compare runs."""

    constant: float
    mesh_size: float
    n_dofs: int
    alpha_descriptor: str = ""
    floor: float = 0.0
    detail: dict | None = None


def _alpha_descriptor(alpha):
    if callable(alpha):
        return "callable"
    if isinstance(alpha, dict):
        return "per-marker"
    return f"{float(alpha):.6g}"


def _zero_floor(n):
    return FLOOR_FACTOR * n * np.finfo(float).eps


def _smallest_eig(A, M, solve):
    """Smallest eigenvalue of the symmetric pencil (A, M), M positive definite.

    Shift-invert Lanczos about ``SIGMA < 0`` at every size, with ``solve``
    applying ``(A - SIGMA * M)^{-1}``; ``A`` fixes only the shape.  The
    shifted operator is positive definite even when ``A`` is singular, so
    its static-pivot ``symmetric_lu`` factors are stable, and the smallest
    eigenvalue is the one nearest the shift.  The start vector comes from
    a fixed seed, so numpy's global random state is untouched.
    """
    n = A.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    inv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    vals = spla.eigsh(A, k=1, M=M.tocsc(), sigma=SIGMA, which="LM",
                      v0=v0, OPinv=inv, return_eigenvectors=False)
    return float(vals[0])


def korn_quotient_min(mesh, alpha=0.0):
    """Minimum of the coercivity quotient over the constrained space.

    quotient(u) = (2 ||D(u)||^2 + int_Gamma alpha |u.t|^2) / ||u||_{H1}^2

    Positive uniformly on the square; collapses to zero on the disk without
    friction, where the rigid rotation is an exact discrete kernel vector.
    Values below the rank floor are reported as exactly 0.
    """
    fe = fem.build_taylor_hood(mesh)
    plan = fe.slip_plan()
    A_red = plan.reduce(forms.assemble_viscous(fe)
                        + forms.assemble_friction(fe, alpha))
    M_red = plan.reduce(forms.assemble_velocity_h1(fe))
    n = A_red.shape[0]
    lu = symmetric_lu((A_red - SIGMA * M_red).tocsc())
    lam = _smallest_eig(A_red, M_red, lu.solve)
    floor = _zero_floor(n)
    constant = 0.0 if lam < floor else float(lam)
    return SpectralReport(constant=constant, mesh_size=mesh.mesh_size(),
                          n_dofs=n, alpha_descriptor=_alpha_descriptor(alpha),
                          floor=floor, detail={"raw_eigenvalue": float(lam)})


def _divergence_schur(mesh, dense):
    """Schur complement S = B K^{-1} B^T with K the constrained H1 Gram.

    ``K`` is symmetric positive definite.  The sparse path factors it once
    with ``symmetric_lu`` and forms ``S`` in blocks of ``SCHUR_BLOCK``
    pressure columns, so the velocity-by-pressure solution ``K^{-1} B^T``
    is never held whole.  The dense path (the ``cross_check`` oracle)
    solves with a dense Cholesky factorization.
    """
    fe = fem.build_taylor_hood(mesh)
    plan = fe.slip_plan()
    K = plan.reduce(forms.assemble_velocity_h1(fe))
    T = plan.rotation
    B = (forms.assemble_divergence(fe) @ T).tocsr()[:, plan.free]
    Mp = forms.assemble_pressure_mass(fe)
    Bt = B.T.toarray(order="F")
    if dense:
        X = scipy.linalg.solve(K.toarray(), Bt, assume_a="pos")
        S = B @ X
    else:
        lu = symmetric_lu(K.tocsc())
        S = np.hstack([B @ lu.solve(Bt[:, j:j + SCHUR_BLOCK])
                       for j in range(0, Bt.shape[1], SCHUR_BLOCK)])
    return np.asarray(S), Mp.toarray(), K.shape[0], fe


def infsup_constant(mesh, alpha=0.0, cross_check=False):
    """Discrete inf-sup constant of the divergence/velocity-H1 pairing.

    gamma = min over mean-free pressures of
            sqrt( q^T B K^{-1} B^T q / q^T M_p q )

    Neither the pairing nor the constrained space depends on the friction
    coefficient, so the report is bitwise identical across any alpha sweep;
    alpha only labels the report.
    """
    S, Mp, n_vel, fe = _divergence_schur(mesh, dense=False)
    vals = scipy.linalg.eigh(S, Mp, eigvals_only=True)
    floor = _zero_floor(len(vals)) * max(vals.max(), 1.0)
    positive = vals[vals > floor]
    if positive.size == 0:
        raise SingularSystem("divergence coupling has no positive spectrum")
    gamma = float(np.sqrt(positive[0]))
    detail = {"zero_modes": int(len(vals) - len(positive))}
    if cross_check:
        S2, Mp2, _, _ = _divergence_schur(mesh, dense=True)
        vals2 = scipy.linalg.eigh(S2, Mp2, eigvals_only=True)
        pos2 = vals2[vals2 > floor]
        detail["dense_oracle"] = float(np.sqrt(pos2[0]))
    return SpectralReport(constant=gamma, mesh_size=mesh.mesh_size(),
                          n_dofs=n_vel,
                          alpha_descriptor=_alpha_descriptor(alpha),
                          floor=floor, detail=detail)


def _rank_one_smallest(A, g, M, lu):
    """Smallest eigenvalue of (A + g g^T, M) without densifying the rank-1 term.

    ``lu`` factors ``A - SIGMA * M``.
    """
    # Sherman-Morrison inverse of (A - SIGMA * M + g g^T)
    w = lu.solve(g)
    denom = 1.0 + g @ w

    def op(x):
        y = lu.solve(x)
        return y - w * (g @ y) / denom

    return _smallest_eig(A, M, op)


def beta_inequality_checks(mesh):
    """Discrete constants of the two rotation-moment inequalities on the disk.

    For constrained fields u on the disk,

        ||u||_{L2}^2 <= C_vol  [ ||D(u)||^2 + ( int_Omega u.beta )^2 ]
        ||u||_{L2}^2 <= C_bnd  [ ||D(u)||^2 + ( int_Gamma u.beta )^2 ]

    The reports carry the minimum eigenvalue of each right-hand quadratic
    form against the L2 mass (the reciprocal of the optimal constant),
    which must stay bounded away from zero under refinement.
    """
    if mesh.domain_tag != "disk":
        raise InvalidArgument("rotation-moment inequalities are disk statements")
    fe = fem.build_taylor_hood(mesh)
    plan = fe.slip_plan()
    T = plan.rotation
    f = plan.free
    A_half = 0.5 * plan.reduce(forms.assemble_viscous(fe))
    # The default rule integrates the P2 mass exactly, so one assembly
    # serves the L2 norm and the volume moment.
    mass = forms.assemble_velocity_mass(fe)
    M_l2 = plan.reduce(mass)
    n = A_half.shape[0]
    floor = _zero_floor(n)

    beta_coeffs = fem.interpolate(fe, rigid_rotation().value)
    g_vol = (T.T @ (mass @ beta_coeffs))[f]
    g_bnd = (T.T @ forms.boundary_rotation_functional(fe))[f]

    # One factorization of the shifted operator serves both functionals.
    lu = symmetric_lu((A_half - SIGMA * M_l2).tocsc())
    reports = {}
    for name, g in (("volume", g_vol), ("boundary", g_bnd)):
        lam = _rank_one_smallest(A_half, g, M_l2, lu)
        constant = 0.0 if lam < floor else float(lam)
        reports[name] = SpectralReport(
            constant=constant, mesh_size=mesh.mesh_size(), n_dofs=n,
            alpha_descriptor="0", floor=floor,
            detail={"optimal_inequality_constant":
                    float(1.0 / lam) if lam > floor else np.inf})
    return reports
