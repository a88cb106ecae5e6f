"""Discrete spectral constants: Korn quotients, inf-sup, rotation inequalities.

All eigenproblems are posed on the impermeability-constrained spaces.
Each constant is one shift-invert Lanczos run (ARPACK through ``eigsh``)
with a deterministic start vector, on one factorization by
``saddle.symmetric_lu`` (SuperLU's symmetric mode: minimum-degree
ordering, static diagonal pivots), handed to ``eigsh`` as ``OPinv`` so
that ARPACK never factors on its own.  Each run stops at a relative
Ritz residual of ``sqrt(eps)``, where the Ritz value is already fixed to
rounding unless the smallest eigenvalues cluster (``_smallest_eig``).
Korn and the rotation moments factor the positive definite
``A - SIGMA M`` (``A`` semidefinite, ``SIGMA < 0``), the two moments
sharing it.  The inf-sup constant factors the quasi-definite
``[[K, B^T], [B, SIGMA M_p]]``, stable in any symmetric order (Vanderbei,
SIAM J. Optim. 5, 1995), whose pressure block inverts the shifted Schur
complement.

Given an estimate (in a study, the coarser level's value), Korn and
inf-sup shift just below it instead, where Lanczos needs far fewer solves,
once the shifted factor's pivot signs certify the shift (``_shifted_lu``).

The disk kernel is decided once, by ``constraints.build_constraint_plan``:
where the plan carries the rotation guard (the disk, friction vanishing),
the interpolated rigid rotation certifies the zero Korn constant without a
factorization (``korn_quotient_min``).  One rank-one correction of each
solve deflates the constant pressure (inf-sup) and the rotation (volume
moment) exactly, and adds the boundary moment's term (``_smallest_eig``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import fem, forms
from .constraints import build_constraint_plan
from .errors import InvalidArgument
from .fields import ProblemData, rigid_rotation
from .saddle import symmetric_lu

EPS = np.finfo(float).eps
# Shift of the shift-invert Lanczos runs.  Negative, so A - SIGMA * M stays
# positive definite even when A itself is singular (the kernel case).
SIGMA = -0.1
# Relative Ritz residual at which each Lanczos run stops (``_smallest_eig``).
LANCZOS_RTOL = np.sqrt(np.finfo(float).eps)
# A near shift sits at this fraction of the caller's estimate of the target.
NEAR_FRACTION = 0.99
# Krylov space of the near-shifted and rotation-moment runs.
NCV = 10


@dataclass
class SpectralReport:
    """One spectral constant with the context needed to compare runs."""

    constant: float
    mesh_size: float
    n_dofs: int
    alpha_descriptor: str = ""
    detail: dict | None = None


def _alpha_descriptor(alpha):
    if callable(alpha):
        return "callable"
    if isinstance(alpha, dict):
        return "per-marker"
    return f"{float(alpha):.6g}" if np.ndim(alpha) == 0 else "per-point"


def _smallest_eig(M, solve, shift, ncv, rank_one=None):
    """Smallest eigenvalue of a symmetric pencil (A, M), M positive definite,
    and the number of solves Lanczos spent on it.

    Shift-invert Lanczos about ``shift`` on ``ncv`` Krylov vectors
    (ARPACK's 20 when None), with ``solve`` applying
    ``(A - shift * M)^{-1}``, so ``A`` itself is never needed.  The
    eigenvalue nearest the shift is the smallest because none lies below
    it: ``A`` is semidefinite and ``SIGMA < 0``, or ``_shifted_lu`` counted.
    The start vector comes from a fixed seed, so numpy's global random
    state is untouched.

    ``rank_one = (u, v)`` corrects each solve ``y`` to ``y - u (v . y)``
    (Saad, *Numerical Methods for Large Eigenvalue Problems*, 2nd ed.,
    2011, ch. 4): ``v = M u / (u^T M u)`` deflates an eigenvector ``u``;
    ``u = w / (1 + g^T w)``, ``w = solve(g)``, ``v = g`` is Sherman-Morrison
    for ``(A + g g^T, M)``.

    ARPACK stops once the Ritz residual ``r`` is below ``LANCZOS_RTOL``
    times the Ritz value, not at its default of machine epsilon.  A Ritz
    value of a symmetric pencil is within ``|r|`` of the spectrum and
    within ``|r|^2 / gap`` of its eigenvalue (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 11), both scaled by the distance to the
    shift.  So about ``SIGMA`` a cluster tighter than ``LANCZOS_RTOL`` is
    resolved only to that tolerance (disk 5's inf-sup constant by 4.6e-9
    relative), but to 1e-12 about a shift at 0.99 times the minimum.
    """
    n = M.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    solves = []

    def op(x):
        solves.append(x.shape)
        y = solve(x)
        if rank_one is not None:
            y -= rank_one[0] * (rank_one[1] @ y)
        return y

    inv = spla.LinearOperator((n, n), matvec=op, dtype=float)
    # In shift-invert mode eigsh reads only the shape of its first argument.
    vals = spla.eigsh(inv, k=1, M=M, sigma=shift, which="LM", v0=v0, OPinv=inv,
                      ncv=ncv and min(ncv, n), tol=LANCZOS_RTOL,
                      return_eigenvectors=False)
    return float(vals[0]), len(solves)


def _shifted_lu(matrix, target, count_below, known):
    """``(lu, shift, below)`` of ``matrix(shift)``: the shift is
    ``NEAR_FRACTION * target`` if ``target > 0`` and ``below``, the
    eigenvalues under it, is ``known``; else ``SIGMA``, with ``below`` None.

    With static pivots (``perm_r == perm_c``) a symmetric matrix factors
    as ``L D L^T`` to rounding, so the signs of ``U``'s diagonal are its
    inertia (Sylvester's law).  Spectrum slicing: Ericsson and Ruhe, Math.
    Comp. 35 (1980); Grimes, Lewis and Simon, SIMAX 15 (1994).
    """
    if target is not None and target > 0:
        shift = NEAR_FRACTION * target
        lu = symmetric_lu(matrix(shift))
        if (lu.perm_r == lu.perm_c).all():
            below = count_below(lu.U.diagonal())
            if below == known:
                return lu, shift, below
        del lu      # the rejected factor and the L, U copies lu.U cached
    return symmetric_lu(matrix(SIGMA)), SIGMA, None


def _detail(shift, below, solves, **extra):
    return {**extra, "shift": shift, "below_shift": below,
            "lanczos_solves": solves}


def _report(mesh, alpha, constant, n, detail):
    return SpectralReport(constant=constant, mesh_size=mesh.mesh_size(),
                          n_dofs=n, alpha_descriptor=_alpha_descriptor(alpha),
                          detail=detail)


def korn_quotient_min(mesh, alpha=0.0, estimate=None):
    """Minimum of the coercivity quotient over the constrained space.

    quotient(u) = (2 ||D(u)||^2 + int_Gamma alpha |u.t|^2) / ||u||_{H1}^2

    Positive uniformly on the square; zero on the disk without friction,
    where ``build_constraint_plan`` adds the rotation guard.  There 0 is
    reported, with no factorization, if the interpolated rotation ``b`` has
    ``kernel_defect = |b^T A b| / (|b|^T |A| |b|) <= n eps``: the form
    vanishes to the rounding of its evaluation (Higham, *Accuracy and
    Stability of Numerical Algorithms*, sec. 3.1), which pins the
    semidefinite ``A``'s minimum to 0 (Courant-Fischer).  Otherwise Lanczos
    runs; a positive ``estimate`` shifts just below it if no pivot is
    negative.
    """
    fe = fem.build_taylor_hood(mesh)
    plan = build_constraint_plan(fe, ProblemData(alpha=alpha))
    A_red = plan.reduce(forms.assemble_viscous(fe)
                        + forms.assemble_friction(fe, alpha))
    n = A_red.shape[0]
    kernel = {}
    if plan.guard is not None:
        b = plan.basis.T @ fem.interpolate(fe, rigid_rotation().value)
        kernel["kernel_defect"] = float(
            abs(b @ (A_red @ b)) / (abs(b) @ (abs(A_red) @ abs(b))))
        if kernel["kernel_defect"] <= n * EPS:
            return _report(mesh, alpha, 0.0, n, _detail(None, None, 0, **kernel))
    M_red = plan.reduce(forms.assemble_velocity_h1(fe))
    lu, shift, below = _shifted_lu(lambda s: (A_red - s * M_red).tocsc(),
                                   estimate, lambda d: int((d < 0).sum()), 0)
    lam, solves = _smallest_eig(M_red, lu.solve, shift,
                                None if below is None else NCV)
    return _report(mesh, alpha, lam, n, _detail(shift, below, solves, **kernel))


def infsup_constant(mesh, alpha=0.0, estimate=None):
    """Discrete inf-sup constant of the divergence/velocity-H1 pairing.

    gamma = min over mean-free pressures of
            sqrt( q^T B K^{-1} B^T q / q^T M_p q )

    with ``K`` the constrained H1 Gram matrix.  ``S = B K^{-1} B^T`` is
    never formed: with ``Q(s) = [[K, B^T], [B, s M_p]]``, the pressure
    block of ``Q(s)^{-1}`` is ``-(S - s M_p)^{-1}``.  The diagonal of
    ``Q`` is nonzero, so nothing is steered.  ``s`` is ``SIGMA``, or just
    below ``estimate^2`` if ``Q(s)`` has ``n_vel + 1`` positive pivots:
    ``K``'s, and the constant pressure's in ``s M_p - S`` (Haynsworth,
    Linear Algebra Appl. 1, 1968).  Each solve is projected
    M_p-orthogonally off the constant pressure, the eigenvalue-0 mode.
    That deflation is exact only if ``B^T 1 = 0``: a mesh with ``|B^T 1|``
    above ``100 n_p eps max |B|`` (a curvature-tagged rim with unequal
    edges) raises ``InvalidArgument``.

    Neither the pairing nor the constrained space depends on the friction
    coefficient, so the report is bitwise identical across any alpha sweep;
    alpha only labels the report.
    """
    fe = fem.build_taylor_hood(mesh)
    plan = fe.slip_plan()
    K = plan.reduce(forms.assemble_velocity_h1(fe))
    B = forms.assemble_divergence(fe) @ plan.basis
    Mp = forms.assemble_pressure_mass(fe)
    n_p, n_vel = B.shape
    ones = np.ones(n_p)
    leak = np.abs(B.T @ ones).max()
    if leak > 100.0 * n_p * EPS * abs(B).max():
        raise InvalidArgument("constant pressure outside ker B^T: "
                              f"|B^T 1| = {leak:.2e}")
    lu, shift, below = _shifted_lu(
        lambda s: sparse.bmat([[K, B.T], [B, s * Mp]], format="csc"),
        estimate ** 2 if estimate is not None and estimate > 0 else None,
        lambda d: int((d > 0).sum()) - n_vel, 1)
    mass_one = Mp @ ones
    mass_one /= mass_one.sum()
    lam, solves = _smallest_eig(
        Mp, lambda q: -lu.solve(np.concatenate([np.zeros(n_vel), q]))[n_vel:],
        shift, None if below is None else NCV, (ones, mass_one))
    return _report(mesh, alpha, float(np.sqrt(lam)), n_vel,
                   _detail(shift, below, solves))


def beta_inequality_checks(mesh):
    """Discrete constants of the two rotation-moment inequalities on the disk.

    For constrained fields u on the disk,

        ||u||_{L2}^2 <= C_vol  [ ||D(u)||^2 + ( int_Omega u.beta )^2 ]
        ||u||_{L2}^2 <= C_bnd  [ ||D(u)||^2 + ( int_Gamma u.beta )^2 ]

    The reports carry the minimum eigenvalue of each right-hand quadratic
    form against the L2 mass ``M`` (the reciprocal of the optimal
    constant), which must stay bounded away from zero under refinement.
    With ``A`` the strain form and ``b`` the interpolated rotation, the
    volume form is ``A + (M b)(M b)^T`` and ``A b = 0``: ``b`` is an
    eigenvector, of eigenvalue ``b^T M b``.  So the constant is
    ``min(lambda_2, b^T M b)``, with ``lambda_2`` the run on ``b``
    deflated, and exact where ``b^T M b`` is the smaller (a small radius).
    """
    if mesh.domain_tag != "disk":
        raise InvalidArgument("rotation-moment inequalities are disk statements")
    fe = fem.build_taylor_hood(mesh)
    plan = fe.slip_plan()
    # The P2 mass is exact, so M b is the volume moment's functional.
    M = plan.reduce(forms.assemble_velocity_mass(fe))
    b = plan.basis.T @ fem.interpolate(fe, rigid_rotation().value)
    Mb = M @ b
    g = plan.basis.T @ forms.boundary_rotation_functional(fe)
    # One factorization of the shifted operator serves both functionals;
    # it is the only copy of the strain form left when SuperLU runs.
    lu = symmetric_lu((0.5 * plan.reduce(forms.assemble_viscous(fe))
                       - SIGMA * M).tocsc())
    w = lu.solve(g)
    reports = {}
    for name, rank_one in (("volume", (b, Mb / (b @ Mb))),
                           ("boundary", (w / (1.0 + g @ w), g))):
        lam, solves = _smallest_eig(M, lu.solve, SIGMA, NCV, rank_one)
        if name == "volume":
            lam = min(lam, float(b @ Mb))
        reports[name] = _report(mesh, 0.0, lam, M.shape[0], _detail(
            SIGMA, None, solves, optimal_inequality_constant=1.0 / lam))
    return reports
