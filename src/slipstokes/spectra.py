"""Discrete spectral constants: Korn quotients, inf-sup, rotation inequalities.

All eigenproblems are posed on the impermeability-constrained spaces.
Each constant is one shift-invert Lanczos run (ARPACK through ``eigsh``)
about ``SIGMA``, with a deterministic start vector, on one factorization
by ``saddle.symmetric_lu`` (SuperLU's symmetric mode: minimum-degree
ordering, static diagonal pivots), handed to ``eigsh`` as ``OPinv`` so
that ARPACK never factors on its own.  Each run stops at a relative
Ritz residual of ``sqrt(eps)``, where the Ritz value is already fixed to
rounding unless the smallest eigenvalues cluster (``_smallest_eig``).
Korn and the rotation moments factor the positive definite
``A - SIGMA M`` (``A`` semidefinite, ``SIGMA < 0``); the two moments
share it, their rank-one terms entering by Sherman-Morrison.  The
inf-sup constant factors the quasi-definite ``[[K, B^T], [B, SIGMA M_p]]``,
stable in any symmetric order (Vanderbei, SIAM J. Optim. 5, 1995), whose
pressure block inverts the shifted Schur complement.

Eigenvalues below a rank-style floor (machine epsilon times problem size)
are reported as exactly zero, which is how the disk kernel shows up: the
interpolated rigid rotation satisfies every nodal constraint exactly, so
the constrained strain form is singular to machine precision, not merely
small.  The inf-sup constant deflates its known zero, the constant
pressure, exactly; it needs the constant in ``ker B^T`` and refuses a
mesh where it is not.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import fem, forms
from .errors import InvalidArgument
from .fields import rigid_rotation
from .saddle import symmetric_lu

FLOOR_FACTOR = 100.0
# Shift of the shift-invert Lanczos runs.  Negative, so A - SIGMA * M stays
# positive definite even when A itself is singular (the kernel case).
SIGMA = -0.1
# Relative Ritz residual at which each Lanczos run stops (``_smallest_eig``).
LANCZOS_RTOL = np.sqrt(np.finfo(float).eps)


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


def _snap(lam, floor):
    """``lam`` as a float, or exactly 0 below the rank floor."""
    return 0.0 if lam < floor else float(lam)


def _smallest_eig(M, solve):
    """Smallest eigenvalue of a symmetric pencil (A, M), M positive definite.

    Shift-invert Lanczos about ``SIGMA < 0`` at every size, with ``solve``
    applying ``(A - SIGMA * M)^{-1}``, so ``A`` itself is never needed.
    The shifted operator is positive definite even when ``A`` is singular,
    and the smallest eigenvalue is the one nearest the shift.  The start
    vector comes from a fixed seed, so numpy's global random state is
    untouched.

    ARPACK stops once the Ritz residual ``r`` is below ``LANCZOS_RTOL``
    times the Ritz value, not at its default of machine epsilon.  A Ritz
    value of a symmetric pencil is within ``|r|`` of the spectrum and
    within ``|r|^2 / gap`` of its eigenvalue (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 11), so at ``sqrt(eps)`` it is fixed to
    rounding once the relative gap exceeds about 1e-2; later restarts
    only polish an eigenvector no caller reads.  A tighter cluster is
    resolved only to ``LANCZOS_RTOL``: disk 5's inf-sup constant moves
    by 4.6e-9 relative against a run to ``tol=0``.
    """
    n = M.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    inv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    # In shift-invert mode eigsh reads only the shape of its first argument.
    vals = spla.eigsh(inv, k=1, M=M, sigma=SIGMA, which="LM", v0=v0,
                      OPinv=inv, tol=LANCZOS_RTOL, return_eigenvectors=False)
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
    lam = _smallest_eig(M_red, lu.solve)
    floor = _zero_floor(n)
    return SpectralReport(constant=_snap(lam, floor), mesh_size=mesh.mesh_size(),
                          n_dofs=n, alpha_descriptor=_alpha_descriptor(alpha),
                          floor=floor, detail={"raw_eigenvalue": float(lam)})


def infsup_constant(mesh, alpha=0.0, cross_check=False):
    """Discrete inf-sup constant of the divergence/velocity-H1 pairing.

    gamma = min over mean-free pressures of
            sqrt( q^T B K^{-1} B^T q / q^T M_p q )

    with ``K`` the constrained H1 Gram matrix.  ``S = B K^{-1} B^T`` is
    never formed: with ``Q = [[K, B^T], [B, SIGMA * M_p]]``, the pressure
    block of ``Q^{-1}`` is ``-(S - SIGMA * M_p)^{-1}``.  The diagonal of
    ``Q`` is nonzero, so nothing is steered.  Each solve is projected
    M_p-orthogonally off the constant pressure, the eigenvalue-0 mode.
    That deflation is exact only if ``B^T 1 = 0``: a mesh with ``|B^T 1|``
    above the rank floor times ``max |B|`` (a curvature-tagged rim with
    unequal edges) raises ``InvalidArgument``.  A minimum below the floor
    is reported as 0, with two zero modes.

    Neither the pairing nor the constrained space depends on the friction
    coefficient, so the report is bitwise identical across any alpha sweep;
    alpha only labels the report.  ``cross_check`` adds the dense ``eigh``
    of the formed ``S`` as ``detail["dense_oracle"]``.
    """
    fe = fem.build_taylor_hood(mesh)
    plan = fe.slip_plan()
    K = plan.reduce(forms.assemble_velocity_h1(fe))
    B = forms.assemble_divergence(fe) @ plan.basis
    Mp = forms.assemble_pressure_mass(fe)
    n_p, n_vel = B.shape
    floor = _zero_floor(n_p)
    ones = np.ones(n_p)
    leak = np.abs(B.T @ ones).max()
    if leak > floor * abs(B).max():
        raise InvalidArgument("constant pressure outside ker B^T: "
                              f"|B^T 1| = {leak:.2e}")
    lu = symmetric_lu(sparse.bmat([[K, B.T], [B, SIGMA * Mp]], format="csc"))
    mass_one = Mp @ ones
    mass_one /= mass_one.sum()

    def solve(q):
        y = -lu.solve(np.concatenate([np.zeros(n_vel), q]))[n_vel:]
        return y - mass_one @ y

    lam = _snap(_smallest_eig(Mp, solve), floor)
    detail = {"zero_modes": 1 + int(lam == 0.0)}
    if cross_check:
        S = B @ scipy.linalg.solve(K.toarray(), B.T.toarray(), assume_a="pos")
        vals = scipy.linalg.eigh(S, Mp.toarray(), eigvals_only=True)
        detail["dense_oracle"] = float(np.sqrt(vals[vals > floor][0]))
    return SpectralReport(constant=float(np.sqrt(lam)),
                          mesh_size=mesh.mesh_size(), n_dofs=n_vel,
                          alpha_descriptor=_alpha_descriptor(alpha),
                          floor=floor, detail=detail)


def _rank_one_smallest(g, M, lu):
    """Smallest eigenvalue of (A + g g^T, M) without densifying the rank-1 term.

    ``lu`` factors ``A - SIGMA * M``.
    """
    # Sherman-Morrison inverse of (A - SIGMA * M + g g^T)
    w = lu.solve(g)
    denom = 1.0 + g @ w

    def op(x):
        y = lu.solve(x)
        return y - w * (g @ y) / denom

    return _smallest_eig(M, op)


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
    P = plan.basis
    A_half = 0.5 * plan.reduce(forms.assemble_viscous(fe))
    # The default rule integrates the P2 mass exactly, so one assembly
    # serves the L2 norm and the volume moment.
    mass = forms.assemble_velocity_mass(fe)
    M_l2 = plan.reduce(mass)
    n = A_half.shape[0]
    floor = _zero_floor(n)

    beta_coeffs = fem.interpolate(fe, rigid_rotation().value)
    g_vol = P.T @ (mass @ beta_coeffs)
    g_bnd = P.T @ forms.boundary_rotation_functional(fe)

    # One factorization of the shifted operator serves both functionals.
    lu = symmetric_lu((A_half - SIGMA * M_l2).tocsc())
    reports = {}
    for name, g in (("volume", g_vol), ("boundary", g_bnd)):
        constant = _snap(_rank_one_smallest(g, M_l2, lu), floor)
        reports[name] = SpectralReport(
            constant=constant, mesh_size=mesh.mesh_size(), n_dofs=n,
            alpha_descriptor="0", floor=floor,
            detail={"optimal_inequality_constant":
                    1.0 / constant if constant else np.inf})
    return reports
