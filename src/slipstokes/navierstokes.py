"""Stationary Navier-Stokes via damped Picard iteration.

Each sweep freezes the transport field at the previous iterate and solves
the resulting Stokes-plus-skew-convection system.  Because the convection
matrix is exactly antisymmetric, the converged iterate satisfies the same
energy identity as the linear problem, and the iteration contracts whenever
the data is small in the sense of the computed smallness indicator.

The bordered Stokes system is built and factored once per solve, through
the full singularity gate of ``saddle.factorize``.  Each sweep adds only
the reduced convection ``C(u_k)`` to its velocity block and is solved by
GMRES preconditioned with the Stokes factors (``saddle.krylov_solve``):
the preconditioned operator is the identity plus the convection's
relative size, so few iterations are needed (Elman, Silvester and Wathen,
*Finite Elements and Fast Iterative Solvers*, ch. 8; Knoll and Keyes,
J. Comput. Phys. 193 (2004) on lagged preconditioners).  A sweep GMRES
cannot settle, or can be expected not to, is refactored for later sweeps.
"""

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, forms
from .constraints import apply_plan, build_constraint_plan
from .errors import InvalidArgument, MaxIterations
from .fields import rigid_rotation
from .saddle import (Factors, factorize, gated_solve, krylov_solve,
                     relative_residual)
from .spectra import korn_quotient_min
from .stokes import Solution, _diagnostics, energy_defect, energy_gate

DIVERGENCE_FACTOR = 1e6


@dataclass
class PicardOptions:
    """Iteration controls for the nonlinear solve."""

    max_iterations: int = 50
    tol: float = 1e-10
    damping: float = 1.0
    initial_guess: object = "stokes"   # "zero", "stokes", or a coefficient array

    def validate(self):
        if self.max_iterations < 1:
            raise InvalidArgument("max_iterations must be at least 1")
        if not (0.0 < self.damping <= 1.0):
            raise InvalidArgument(f"damping must lie in (0, 1], got {self.damping}")
        if not isinstance(self.initial_guess, np.ndarray) \
                and self.initial_guess not in ("zero", "stokes"):
            raise InvalidArgument(f"unknown initial guess {self.initial_guess!r}")
        if not (self.tol > 0.0):
            raise InvalidArgument("tolerance must be positive")


@dataclass
class IterationLog:
    """Per-sweep convergence history.

    ``rows`` hold (iteration, increment, energy_residual) where the
    increment is the H1 norm of the velocity update.  ``krylov`` holds
    the GMRES iterations of each sweep's solve, plus one entry for the
    undamped polish of a damped run; None marks a refactored solve, after
    a missed GMRES cycle or up front.  It stays out of ``rows`` and
    ``to_csv``, which are deterministic outputs.
    """

    rows: list = field(default_factory=list)
    converged: bool = False
    krylov: list = field(default_factory=list)

    def add(self, iteration, increment, energy_residual):
        self.rows.append((int(iteration), float(increment), float(energy_residual)))

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["iteration", "increment", "energy_residual"])
        for it, inc, er in self.rows:
            writer.writerow([it, f"{inc:.17g}", f"{er:.17g}"])
        return buf.getvalue()


def solve_navier_stokes(mesh, data, options=None, plan=None):
    """Damped Picard iteration for the stationary Navier-Stokes system.

    ``plan`` replaces the slip constraints, as in :func:`solve_stokes`;
    ``build_dirichlet_plan`` gives the clamped (no-slip) problem.  Returns
    ``(Solution, IterationLog)``.  Raises ``MaxIterations`` when the
    increment fails to meet tolerance within the budget or grows by the
    divergence factor, which is the signature of data outside the
    contraction regime.

    The bordered Stokes matrix ``K = [[A, E^T], [E, Z]]`` is factored
    once, and a singular one raises ``SingularSystem`` before any sweep.
    The Stokes initial guess comes from those factors, under the residual
    and energy gates of :func:`solve_stokes`.  Sweep ``k`` solves
    ``K + C(u_k)`` (``C`` in the velocity block) by GMRES on the Stokes
    factors, warm-started from the previous solution, under the
    ``RESIDUAL_RTOL`` gate; a sweep that GMRES misses within its cap, or
    one after a sweep that took over half of it, is refactored through the
    full gate once the old factors are dropped, for the later sweeps too.

    Why the Stokes gate covers each sweep: ``A`` (viscous plus friction,
    alpha >= 0) is symmetric positive semidefinite, and ``C`` is skew.
    Suppose ``K`` is nonsingular, and take ``(u, p, lam)`` with
    ``(A + C) u + B^T p = 0``, ``B u + m lam = 0`` and ``m^T p = 0``
    (``B`` the divergence rows, ``m`` the multiplier columns).  Then
    ``u^T A u = -u^T B^T p = lam m^T p = 0``, so ``A u = 0``; so
    ``(u, 0, lam)`` lies in ker ``K``, which gives ``u = 0`` and
    ``lam = 0``; so ``(0, p, 0)`` lies in ker ``K``, which gives ``p = 0``.
    Every Picard matrix is therefore nonsingular, and the per-sweep
    residual gate bounds the accuracy of its solve.
    """
    opts = options or PicardOptions()
    opts.validate()
    fe = fem.build_taylor_hood(mesh)
    if plan is None:
        plan = build_constraint_plan(fe, data)
    if plan.guard is not None:
        raise InvalidArgument(
            "nonlinear solves require friction somewhere on the boundary "
            "or a non-axisymmetric domain")
    if isinstance(opts.initial_guess, np.ndarray) \
            and opts.initial_guess.shape != (fe.num_velocity_dofs,):
        raise InvalidArgument(
            f"initial guess has shape {opts.initial_guess.shape}, expected "
            f"({fe.num_velocity_dofs},)")

    A = forms.assemble_viscous(fe) + forms.assemble_friction(fe, data.alpha)
    ell = forms.assemble_load(fe, data)
    H1 = forms.assemble_velocity_h1(fe)
    stokes = apply_plan(plan, A, forms.assemble_divergence(fe), ell)
    factors = Factors(factorize(stokes.matrix))
    x = gated_solve(stokes, factors.lu.solve)

    def picard_system(w):
        """The bordered Stokes system with ``C(w)`` in its velocity block."""
        C = plan.reduce(forms.assemble_convection_skew(fe, w))
        C.resize(stokes.matrix.shape)
        return replace(stokes, matrix=stokes.matrix + C)

    if isinstance(opts.initial_guess, np.ndarray):
        u = np.asarray(opts.initial_guess, dtype=float)
    elif opts.initial_guess == "stokes":
        u = plan.reconstruct(x)[0]
        energy_gate(u, A, ell)
    else:
        u = np.zeros(fe.num_velocity_dofs)

    log = IterationLog()
    first_increment = None
    for it in range(1, opts.max_iterations + 1):
        system = picard_system(u)
        x, iterations = krylov_solve(system, factors, x)
        log.krylov.append(iterations)
        u_new, p, mult = plan.reconstruct(x)
        if opts.damping != 1.0:
            u_new = opts.damping * u_new + (1.0 - opts.damping) * u
        increment = forms.velocity_h1_norm(H1, u_new - u)
        # Logged, not gated: a damped iterate does not satisfy the identity.
        _, _, defect, scale = energy_defect(u_new, A, ell)
        log.add(it, increment, defect / scale)
        if not np.isfinite(increment):
            raise MaxIterations("iteration produced non-finite increment; "
                                "data outside the contraction regime")
        if first_increment is None:
            first_increment = increment
        elif increment > DIVERGENCE_FACTOR * max(first_increment, 1.0):
            raise MaxIterations(
                f"increment grew to {increment:.3e}; data outside the "
                "contraction regime")
        u = u_new
        if increment <= opts.tol * max(forms.velocity_h1_norm(H1, u), 1.0):
            log.converged = True
            break
    if not log.converged:
        raise MaxIterations(
            f"no convergence in {opts.max_iterations} iterations "
            f"(last increment {log.rows[-1][1]:.3e})")

    if opts.damping != 1.0:
        # One undamped polish so the returned pair solves its own
        # linearization exactly; the increment is already below tolerance.
        system = picard_system(u)
        x, iterations = krylov_solve(system, factors, x)
        log.krylov.append(iterations)
        u, p, mult = plan.reconstruct(x)
    del factors

    diag = _diagnostics(fe, system, x, u, p, mult, A, ell)
    diag["nonlinear_residual"] = relative_residual(picard_system(u), x)
    diag["picard_iterations"] = len(log.rows)
    return Solution(u=u, p=p, diagnostics=diag, fe=fe), log


def trilinear_defects(mesh, w, u, v):
    """Structural defects of the skew trilinear form for given coefficients.

    Returns a dict with

    * ``skew_diagonal``: |v^T C(w) v| relative to the evaluation scale
      (zero up to rounding by construction),
    * ``antisymmetry``: max-norm of C + C^T relative to C (exactly zero),
    * ``beta_defect``: |u^T C(beta) beta| with beta the interpolated rigid
      rotation; a geometric residue that vanishes under refinement for
      fields tangent to the circle.
    """
    fe = fem.build_taylor_hood(mesh)
    C = forms.assemble_convection_skew(fe, w)
    cv = C @ v
    scale = np.linalg.norm(cv) * np.linalg.norm(v)
    skew_diag = abs(float(v @ cv)) / max(scale, np.finfo(float).tiny)
    sym = C + C.T
    cmax = np.abs(C.data).max() if C.nnz else 1.0
    antisym = (np.abs(sym.data).max() / cmax) if sym.nnz else 0.0

    beta = fem.interpolate(fe, rigid_rotation().value)
    C_beta = forms.assemble_convection_skew(fe, beta)
    beta_defect = abs(float(u @ (C_beta @ beta)))
    return {"skew_diagonal": skew_diag, "antisymmetry": antisym,
            "beta_defect": beta_defect}


def smallness_indicator(mesh, data, n_triples=200, seed=0):
    """Computable uniqueness indicator for the nonlinear problem.

    S = C_b / C_coer^2 * ( ||f||_{L^{6/5}} + ||F||_{L2} + ||h||_{L2(Gamma)} )

    where ``C_b`` is the largest sampled ratio |c(w; u, v)| / (|w| |u| |v|)
    in H1 over a seeded pseudo-random family of constrained triples, and
    ``C_coer`` is the coercivity constant of the bilinear form over the
    constrained space.  S is an indicator, not a certificate: ``C_b`` is a
    sampled *lower* bound on the trilinear supremum, so the true S can be
    larger, and S < 1 only suggests the contraction regime of the
    uniqueness theory.  The tests ask for the stronger S < 0.5.  Linear in
    the data: doubling all data doubles S.
    """
    fe = fem.build_taylor_hood(mesh)
    rule, fv, Fv, ht = forms.load_samples(fe, data)
    plan = build_constraint_plan(fe, data)
    H1 = forms.assemble_velocity_h1(fe)
    rng = np.random.default_rng(seed)

    # Samples are coordinates in the plan's orthonormal basis ``P``, so
    # ``P @ z`` is a constrained velocity.
    P = plan.basis

    def random_noise():
        return P @ rng.standard_normal(P.shape[1])

    def random_smooth():
        # The trilinear supremum is approached by smooth fields, so raw
        # coefficient noise alone underestimates it badly.  Interpolate a
        # random low-order field, then project it orthogonally onto the
        # constrained space, ``P @ P.T``.
        c = rng.standard_normal((2, 6))

        def field(p):
            x, y = p[:, 0], p[:, 1]
            basis = np.stack([np.ones_like(x), x, y, x * y,
                              np.sin(np.pi * x) * np.sin(np.pi * y),
                              np.cos(np.pi * x) * np.cos(np.pi * y)], axis=1)
            return np.stack([basis @ c[0], basis @ c[1]], axis=1)

        coeffs = fem.interpolate(fe, field, "velocity")
        return P @ (P.T @ coeffs)

    pairs_per_w = 10
    n_w = max(1, n_triples // pairs_per_w)
    c_b = 0.0
    for k in range(n_w):
        sample = random_smooth if k % 2 == 0 else random_noise
        w = sample()
        C = forms.assemble_convection_skew(fe, w)
        nw = forms.velocity_h1_norm(H1, w)
        for j in range(pairs_per_w):
            uu = sample()
            vv = sample()
            val = abs(float(vv @ (C @ uu)))
            c_b = max(c_b, val / (nw * forms.velocity_h1_norm(H1, uu)
                                  * forms.velocity_h1_norm(H1, vv)))

    c_coer = korn_quotient_min(mesh, alpha=data.alpha).constant
    if c_coer <= 0.0:
        raise InvalidArgument("coercivity constant vanishes; indicator undefined")

    w = fe.weights(rule)
    data_norm = 0.0
    if fv is not None:
        mag = np.sqrt(fv[..., 0] ** 2 + fv[..., 1] ** 2)
        data_norm += float(np.sum(w * mag ** 1.2) ** (1.0 / 1.2))
    if Fv is not None:
        data_norm += float(np.sqrt(np.sum(w[..., None, None] * Fv ** 2)))
    if ht is not None:
        ww = mesh.boundary_lengths()[:, None] * rule.seg_weights[None, :]
        data_norm += float(np.sqrt(np.sum(ww * ht ** 2)))

    return c_b / c_coer ** 2 * data_norm
