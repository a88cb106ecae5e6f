"""Stationary Stokes solves with slip-with-friction boundary conditions.

``solve_stokes`` assembles the viscous and friction forms, applies the
impermeability constraints with the pressure gauge (and, on the disk with
vanishing friction, the rotation guard), factorizes and returns a
:class:`Solution` whose diagnostics certify the discrete energy identity

    2 ||D(u)||^2 + int_Gamma alpha |u.t|^2  =  l(u)

to solver precision on every successful solve.

``solve_friction_sweep`` solves one data set for many friction values on
one mesh, bordered once per plan: ``saddle.krylov_solve`` factors the
smallest friction of each plan through the full singularity gate and
solves the larger ones by GMRES on the latest gated factors.
``solve_stokes`` is the sweep of one value.
"""

from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from . import fem, forms
from .constraints import border, build_constraint_plan
from .errors import (IncompatibleData, InvalidArgument, NumericalError,
                     SingularSystem)
from .fem import interpolate
from .fields import ProblemData, rigid_rotation
from .saddle import Factors, factor_solve, krylov_solve, relative_residual

ENERGY_RTOL = 1e-8
COMPAT_RTOL = 1e-10
EXPONENT_EPS = 1e-3


@dataclass
class Solution:
    """Velocity/pressure coefficients with solve diagnostics.

    ``diagnostics`` always contains: energy_lhs, energy_rhs, energy_residual,
    energy_scale (the energy gate's scale, :func:`energy_defect`), h1_norm,
    pressure_l2, boundary_tangential_l2, divergence_l2, linear_residual,
    pressure_mean, and the multiplier values.
    """

    u: np.ndarray
    p: np.ndarray
    diagnostics: dict
    fe: object = None


def energy_defect(u, A_total, ell, system, x):
    """``(lhs, rhs, defect, scale)`` of the energy identity ``u.A u = l(u)``
    for the velocity ``u`` of the reduced solution ``x`` of ``system``.

    ``defect = |lhs - rhs|`` is measured against the residual gate's own
    ``scale = |b| |x|`` (``b = system.rhs``; ``x = (v, p, mu, lam)``), of
    degree 2 in the data like both sides.  The border's rows give ``lhs -
    rhs = v.r_v - p.r_p + mu r_gauge - lam r_guard`` for ``r = M x - b`` (a
    skew convection adds nothing), so ``defect <= |x| |r| <= RESIDUAL_RTOL
    scale`` up to rounding, and the gate checks the reduction and
    ``reconstruct`` against ``A_total`` and ``ell`` at any scale.
    """
    energy_lhs = float(u @ (A_total @ u))
    energy_rhs = float(ell @ u)
    return (energy_lhs, energy_rhs, abs(energy_lhs - energy_rhs),
            float(np.linalg.norm(system.rhs) * np.linalg.norm(x)))


def energy_gate(u, A_total, ell, system, x):
    """``(lhs, rhs, defect, scale)`` of :func:`energy_defect`;
    ``NumericalError`` unless the defect is at most ``ENERGY_RTOL`` times
    its scale (a NaN defect is not; zero data passes as ``0 <= 0``)."""
    lhs, rhs, defect, scale = energy_defect(u, A_total, ell, system, x)
    if not defect <= ENERGY_RTOL * scale:
        raise NumericalError(f"energy identity violated: |{lhs:.6e} - "
                             f"{rhs:.6e}| against {scale:.6e}")
    return lhs, rhs, defect, scale


def _rotation_pairing(fe, ell):
    """``(l(beta), |l| |beta|)`` for the interpolated rigid rotation
    ``beta``.  The scale is zero only for a zero load, whose pairing is 0."""
    beta = interpolate(fe, rigid_rotation().value)
    return (float(ell @ beta),
            float(np.linalg.norm(ell) * np.linalg.norm(beta)))


def require_compatible(fe, ell):
    """The rotation pairing ``l(beta)`` of the load ``ell``;
    ``IncompatibleData`` unless it is at most ``COMPAT_RTOL |l| |beta|``."""
    defect, scale = _rotation_pairing(fe, ell)
    if not abs(defect) <= COMPAT_RTOL * scale:
        raise IncompatibleData(
            f"rotation pairing of the data is {defect:.3e} "
            f"(relative {abs(defect) / scale:.3e}); the frictionless "
            "disk problem needs data orthogonal to the rigid rotation")
    return defect


def _solution(fe, plan, system, x, A_total, ell):
    """The :class:`Solution` ``x`` of ``system``, energy-gated on ``A_total``."""
    u, p, mult = plan.reconstruct(x)
    lhs, rhs, defect, scale = energy_gate(u, A_total, ell, system, x)
    rep = fem.norms(fe, u)
    diag = {
        "energy_lhs": lhs,
        "energy_rhs": rhs,
        "energy_residual": defect,
        "energy_scale": scale,
        "h1_norm": rep.h1,
        "h1_seminorm": rep.h1_semi,
        "l2_norm": rep.l2,
        "boundary_tangential_l2": rep.boundary_l2_tangential,
        "divergence_l2": rep.divergence_l2,
        "pressure_l2": fem.norms(fe, p).l2,
        "pressure_mean": fem.pressure_mean(fe, p),
        "linear_residual": relative_residual(system, x),
    }
    for name, value in mult.items():
        diag[name] = float(value)
    return Solution(u=u, p=p, diagnostics=diag, fe=fe)


def _friction_solves(fe, data, alphas, plan):
    """``(Solution, GMRES iterations)`` for each friction in ``alphas``.

    The values are visited in the given order, which the sweep makes
    ascending.  ``plan`` (or, when None, ``build_constraint_plan`` per
    value) fixes the constraints.  Each run of plans with the same guard
    is bordered once, and each value adds ``A_visc + M_alpha`` to it.  A
    run of one value is solved by ``factor_solve``; a longer one hands
    every system to ``krylov_solve`` on the run's ``saddle.Factors``,
    warm-started from the previous solution.  The count is None where a
    system was factored.
    """
    plans = [plan or build_constraint_plan(fe, replace(data, alpha=alpha))
             for alpha in alphas]
    if not data.compatibility_mode and any(p.guard is not None for p in plans):
        raise SingularSystem(
            "disk with vanishing friction: the rigid rotation spans the kernel; "
            "set compatibility_mode to solve with the rotation guard")
    A_visc = forms.assemble_viscous(fe)
    B = forms.assemble_divergence(fe)
    ell = forms.assemble_load(fe, data)
    results = []
    for guarded, run in groupby(zip(alphas, plans),
                                key=lambda pair: pair[1].guard is not None):
        run = list(run)
        if guarded:
            # The guard multiplier would silently absorb an incompatible
            # load, so reject data whose rotation pairing is not zero.
            require_compatible(fe, ell)
        bordered = border(run[0][1], B, ell)
        factors, x = Factors(), None
        for k, (alpha, p) in enumerate(run, 1):
            A = A_visc + forms.assemble_friction(fe, alpha)
            system = p.add_velocity(bordered, A)
            if k == len(run):
                del bordered       # not held through the run's last solve
            if len(results) == len(alphas) - 1:
                del A_visc, B      # not held through the last factorization
            if len(run) == 1:      # no later value needs the factors
                x, iterations = factor_solve(system), None
            else:
                x, iterations = krylov_solve(system, factors, x)
            results.append((_solution(fe, p, system, x, A, ell), iterations))
    return results


def solve_stokes(mesh, data, plan=None):
    """Solve the Stokes system; returns a :class:`Solution`.

    On the disk with vanishing friction the operator has the rigid rotation
    in its kernel; such problems are only accepted with
    ``data.compatibility_mode`` set, which activates the guard multiplier.
    ``plan`` replaces the slip constraints (``build_dirichlet_plan`` gives
    the clamped problem).
    """
    fe = fem.build_taylor_hood(mesh)
    return _friction_solves(fe, data, [data.alpha], plan)[0][0]


def solve_friction_sweep(mesh, data, alphas):
    """Solve ``data`` with each scalar friction in ``alphas``.

    Returns ``(solutions, iterations)``, both in input order: one
    :class:`Solution` per value (the ``data.alpha`` of ``data`` is
    ignored), and the GMRES iterations of its solve, None where the
    system was factored.  Duplicates are solved again.  The refusals of
    :func:`solve_stokes` apply to every value, and ``InvalidArgument`` is
    raised, before any solve, for an empty list or a bad value.

    The values are visited in increasing order.  The smallest value of
    each plan (on the disk, the guard plan at vanishing friction and the
    slip plan otherwise) is factored through the full singularity gate;
    every larger value is solved by GMRES on the latest gated factors,
    under the ``RESIDUAL_RTOL`` gate; a solve GMRES misses within its cap,
    or one after a solve that took over half of it, is refactored through
    the full gate, its factors replacing the old ones for the solves after.

    Why the gate at ``alpha0`` covers each ``alpha > alpha0 >= 0``: the
    velocity block is ``A + alpha R``, with ``A`` the viscous form and
    ``R`` the friction form, both symmetric positive semidefinite.  So
    ``v^T (A + alpha R) v = 0`` forces ``v^T A v = v^T R v = 0``, hence
    ``A v = R v = 0`` and ``(A + alpha0 R) v = 0``: ``ker(A + alpha R)``
    lies inside ``ker(A + alpha0 R)``.  Take ``(u, p, lam)`` in the
    kernel of the bordered matrix at ``alpha``.  As in
    ``navierstokes.solve_navier_stokes``, the constraint rows give
    ``u^T (A + alpha R) u = 0``, so ``(A + alpha0 R) u = (A + alpha R) u
    = 0`` and ``(u, p, lam)`` lies in the kernel of the gated matrix at
    ``alpha0``, which is nonsingular: it is zero.  So no kernel appears
    past a gated system, and the per-solve residual gate bounds the
    accuracy of each solve.
    """
    try:
        values = np.asarray(alphas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"friction values must be numbers: {exc}") from exc
    if values.ndim != 1 or not values.size:
        raise InvalidArgument("a friction sweep needs a list of values")
    order = np.argsort(values, kind="stable")
    solved = _friction_solves(fem.build_taylor_hood(mesh), data,
                              values[order].tolist(), None)
    back = np.argsort(order)
    return [solved[k][0] for k in back], [solved[k][1] for k in back]


def energy_report(solution):
    """(lhs, rhs, residual) of the discrete energy identity."""
    d = solution.diagnostics
    return d["energy_lhs"], d["energy_rhs"], d["energy_residual"]


def exponent_t(p):
    """Integrability exponent required of the friction coefficient.

    Piecewise in the Lebesgue exponent ``p`` of the data: exactly 2 at
    ``p = 2``; any value above 2 for ``3/2 <= p <= 3``; any value above
    ``(2/3) max(p, p')`` otherwise.  Strict branches return the bound plus
    ``EXPONENT_EPS``.  Symmetric under conjugation: ``t(p) == t(p')``.
    """
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise InvalidArgument(f"exponent p must lie in (1, inf), got {p!r}")
    if p == 2.0:
        return 2.0
    if 1.5 <= p <= 3.0:
        return 2.0 + EXPONENT_EPS
    q = p / (p - 1.0)
    return (2.0 / 3.0) * max(p, q) + EXPONENT_EPS


def exponent_r(p):
    """Integrability exponent required of the volume force.

    ``max(1, 3p/(p+3))`` except at the critical ``p = 3/2`` where the
    inequality is strict and ``1 + EXPONENT_EPS`` is returned.  ``r(2) = 6/5``.
    """
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise InvalidArgument(f"exponent p must lie in (1, inf), got {p!r}")
    if p == 1.5:
        return 1.0 + EXPONENT_EPS
    return max(1.0, 3.0 * p / (p + 3.0))


def boundary_identity_defect(u_field, mesh):
    """Max defect of the tangential strain identity on the exact circle.

    For fields tangent to the circle, ``2 n^T D(u) t = curl(u) - 2 kappa (u.t)``
    pointwise.  Evaluation happens at the boundary quadrature points projected
    radially onto the circle, with the exact frame ``n = x/|x|``.  Fields with
    ``|u.n| > 1e-10`` anywhere on the circle are rejected.
    """
    if mesh.domain_tag != "disk":
        raise InvalidArgument("the strain identity check requires a disk mesh")
    radius = float(mesh.metadata.get("radius", 1.0))
    kappa = 1.0 / radius
    rule = fem.quadrature(4)
    fe = fem.build_taylor_hood(mesh)
    pts = fe.boundary_quad_coords(rule).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    circle = pts * (radius / r)[:, None]
    n = circle / radius
    t = np.column_stack([-n[:, 1], n[:, 0]])

    vals = fem.eval_field(u_field.value, circle, circle.shape, "vector")
    normal_part = np.abs(np.einsum("ka,ka->k", vals, n)).max()
    if normal_part > 1e-10:
        raise InvalidArgument(
            f"field is not tangent to the circle: max |u.n| = {normal_part:.3e}")

    g = fem.eval_field(u_field.grad, circle, (len(circle), 2, 2), "matrix")
    d = 0.5 * (g + np.swapaxes(g, 1, 2))
    tdn = np.einsum("ka,kab,kb->k", n, d, t)
    curl = g[:, 1, 0] - g[:, 0, 1]
    ut = np.einsum("ka,ka->k", vals, t)
    defect = np.abs(2.0 * tdn - curl + 2.0 * kappa * ut)
    return float(defect.max())


def check_compatibility(mesh, data):
    """Moment of the data against the rigid rotation.

    Returns ``int f.beta - int F:grad(beta) + int_Gamma h.beta``, the
    pairing of the assembled load with the interpolated rotation;
    solvability with vanishing friction on the disk requires it to vanish.
    """
    fe = fem.build_taylor_hood(mesh)
    return _rotation_pairing(fe, forms.assemble_load(fe, data))[0]


def make_compatible(mesh, data):
    """``data`` with ``f - c beta`` for ``f``, ``c`` the ratio of the
    rotation pairings (:func:`check_compatibility`) of ``data`` and of
    ``f = beta`` on ``mesh``, where the result's pairing is zero to rounding."""
    beta = rigid_rotation().value
    c = (check_compatibility(mesh, data)
         / check_compatibility(mesh, ProblemData(f=beta)))
    return replace(data, f=lambda p: fem.eval_field(
        data.f, p, p.shape, "vector") - c * beta(p))
