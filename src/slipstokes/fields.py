"""Closed-form fields, manufactured solutions and problem data.

Problem data for the momentum balance

    -div(2 D(u)) + grad(pi) = f + div(F)   in Omega
                     div(u) = 0            in Omega
                     u . n  = 0            on Gamma
    [(2 D(u) + F) n]_tan + alpha u_tan = h on Gamma

is carried by :class:`ProblemData`.  Boundary fields ``h`` receive the
evaluation point together with the local outward normal and tangent and
are projected tangentially before use.

The manufactured solutions below are frozen closed forms; the test suite
re-derives them symbolically and checks every expression, so edit them
only together with those oracles.
"""

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import InvalidArgument

PI = np.pi


@dataclass(frozen=True)
class ClosedFormField:
    """A vector field with a closed-form Jacobian.

    ``value`` maps (k, 2) points to (k, 2); ``grad`` maps (k, 2) points to
    (k, 2, 2) with entry [i, j] = d(u_i)/d(x_j).
    """

    value: Any
    grad: Any


@dataclass
class ProblemData:
    """Volume, flux and boundary data plus the friction coefficient.

    Attributes
    ----------
    f : vector field, (k,2)->(k,2), constant, or None
    F : matrix field, (k,2)->(k,2,2), constant 2x2, or None
        Enters the load as ``-int F : grad(v)``.
    h : boundary field ``h(x, n, t) -> (k,2)``, constant, or None
        Projected onto the tangent during assembly, so only its
        tangential part ever acts.
    alpha : float, callable ``(k,2)->(k,)``, or dict marker -> (float|callable)
        Friction coefficient sampled at boundary quadrature points;
        samples must be finite and nonnegative.
    compatibility_mode : bool
        Allows solving on the rotationally symmetric disk with vanishing
        friction by adding the rotation-moment gauge.
    """

    f: Any = None
    F: Any = None
    h: Any = None
    alpha: Any = 0.0
    compatibility_mode: bool = False


def sample_alpha(alpha, points, markers):
    """Evaluate a friction coefficient at boundary points.

    ``points`` has shape (nb, ns, 2) and ``markers`` shape (nb,); the result
    has shape (nb, ns).  Negative or non-finite samples raise
    ``InvalidArgument``.
    """
    nb, ns = points.shape[0], points.shape[1]
    if isinstance(alpha, dict):
        out = np.empty((nb, ns))
        for k in range(nb):
            spec = alpha.get(int(markers[k]))
            if spec is None:
                raise InvalidArgument(f"no friction value for marker {markers[k]}")
            out[k] = _alpha_rows(spec, points[k])
        return out
    return _alpha_rows(alpha, points.reshape(-1, 2)).reshape(nb, ns)


def _alpha_rows(spec, pts):
    if callable(spec):
        vals = np.asarray(spec(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise InvalidArgument(f"friction field returned shape {vals.shape}, "
                                  f"expected {(pts.shape[0],)}")
    else:
        vals = np.full(pts.shape[0], float(spec))
    if not (np.isfinite(vals) & (vals >= 0.0)).all():
        raise InvalidArgument("friction samples must be finite and nonnegative "
                              f"(min {vals.min():.3e}, max {vals.max():.3e})")
    return vals


def eval_boundary_field(h, points, normals, tangents):
    """Evaluate a boundary field at (nb, ns, 2) points and project tangentially.

    ``normals`` and ``tangents`` have shape (nb, 2) and are broadcast along
    the quadrature axis.  Returns the tangential scalar ``h . t`` with shape
    (nb, ns).
    """
    if h is None:
        return np.zeros(points.shape[:2])
    nb, ns = points.shape[0], points.shape[1]
    n = np.broadcast_to(normals[:, None, :], points.shape).reshape(-1, 2)
    t = np.broadcast_to(tangents[:, None, :], points.shape).reshape(-1, 2)
    flat = points.reshape(-1, 2)
    if callable(h):
        vals = np.asarray(h(flat, n, t), dtype=float)
    else:
        vals = np.broadcast_to(np.asarray(h, dtype=float), flat.shape).copy()
    if vals.shape != flat.shape:
        raise InvalidArgument(f"boundary field returned shape {vals.shape}, "
                              f"expected {flat.shape}")
    return np.einsum("ka,ka->k", vals, t).reshape(nb, ns)


def rigid_rotation():
    """The rigid rotation ``beta(x) = (-x2, x1)`` and its constant Jacobian.

    ``beta`` spans the kernel of the strain operator among fields tangent to
    circles centered at the origin, which is why it controls solvability on
    the disk when the friction coefficient vanishes.
    """
    def value(p):
        p = np.asarray(p, dtype=float)
        return np.column_stack([-p[:, 1], p[:, 0]])

    def grad(p):
        k = np.asarray(p).shape[0]
        g = np.zeros((k, 2, 2))
        g[:, 0, 1] = -1.0
        g[:, 1, 0] = 1.0
        return g

    return ClosedFormField(value, grad)


def _mms_velocity(amplitude):
    def value(p):
        x, y = p[:, 0], p[:, 1]
        return amplitude * PI * np.column_stack([
            np.sin(PI * x) * np.cos(PI * y),
            -np.cos(PI * x) * np.sin(PI * y),
        ])

    def grad(p):
        x, y = p[:, 0], p[:, 1]
        g = np.empty((p.shape[0], 2, 2))
        cc = np.cos(PI * x) * np.cos(PI * y)
        ss = np.sin(PI * x) * np.sin(PI * y)
        g[:, 0, 0] = amplitude * PI ** 2 * cc
        g[:, 0, 1] = -amplitude * PI ** 2 * ss
        g[:, 1, 0] = amplitude * PI ** 2 * ss
        g[:, 1, 1] = -amplitude * PI ** 2 * cc
        return g

    return ClosedFormField(value, grad)


def traction_boundary_field(u_field, alpha):
    """Boundary data ``h = [2 D(u) n]_tan + alpha u_tan`` for a closed form u.

    Returns a callable ``h(x, n, t)`` suitable for :class:`ProblemData`;
    ``alpha`` must be a constant here.
    """
    def h(p, n, t):
        g = u_field.grad(p)
        d = 0.5 * (g + np.swapaxes(g, 1, 2))
        dn = np.einsum("kab,kb->ka", d, n)
        tdn = np.einsum("ka,ka->k", t, dn)
        ut = np.einsum("ka,ka->k", u_field.value(p), t)
        scal = 2.0 * tdn + alpha * ut
        return scal[:, None] * t

    return h


def stokes_mms(alpha=1.0, amplitude=1.0):
    """Manufactured Stokes problem on the unit square with constant friction.

    Exact velocity ``A*pi*(sin(pi x) cos(pi y), -cos(pi x) sin(pi y))`` (a
    stream-function vortex, tangential on all four sides) and exact pressure
    ``A*cos(pi x) cos(pi y)`` (mean zero).  Returns a dict with the exact
    fields and a matching :class:`ProblemData`.
    """
    A = float(amplitude)
    u = _mms_velocity(A)

    def pressure(p):
        return A * np.cos(PI * p[:, 0]) * np.cos(PI * p[:, 1])

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([
            A * PI * (2.0 * PI ** 2 - 1.0) * np.sin(PI * x) * np.cos(PI * y),
            -A * PI * (2.0 * PI ** 2 + 1.0) * np.cos(PI * x) * np.sin(PI * y),
        ])

    data = ProblemData(f=f, h=traction_boundary_field(u, alpha), alpha=alpha)
    return {"u": u, "p": pressure, "data": data, "amplitude": A}


def navier_stokes_mms(alpha=1.0, amplitude=0.15):
    """Same manufactured fields with the convective term folded into f.

    The default amplitude keeps the data inside the uniqueness regime, so
    the fixed-point iteration contracts from any reasonable initial guess.
    """
    base = stokes_mms(alpha=alpha, amplitude=amplitude)
    A = float(amplitude)
    f_stokes = base["data"].f

    def f(p):
        x, y = p[:, 0], p[:, 1]
        conv = 0.5 * A * A * PI ** 3 * np.column_stack([
            np.sin(2.0 * PI * x), np.sin(2.0 * PI * y)])
        return f_stokes(p) + conv

    data = ProblemData(f=f, h=base["data"].h, alpha=alpha)
    return {"u": base["u"], "p": base["p"], "data": data, "amplitude": A}


def disk_tangential_drive(alpha=2.0):
    """Pure boundary drive on the disk whose exact solution is the rigid rotation.

    With constant friction ``alpha`` and boundary data ``h = alpha * beta_tan``
    the pair ``(u, pi) = (beta, 0)`` solves the system exactly: the strain of
    ``beta`` vanishes, so the traction term contributes nothing.
    """
    beta = rigid_rotation()

    def h(p, n, t):
        bt = np.einsum("ka,ka->k", beta.value(p), t)
        return (alpha * bt)[:, None] * t

    return {"u": beta, "p": lambda p: np.zeros(p.shape[0]),
            "data": ProblemData(h=h, alpha=alpha)}


def disk_compatible_forcing(alpha=1.0):
    """Constant volume force on the disk; rotationally compatible by symmetry.

    ``f = (1, 0)`` has zero moment against the rigid rotation, so the
    compatibility defect vanishes (to quadrature roundoff) and the solution
    carries no net boundary circulation in the limit.
    """
    return ProblemData(f=np.array([1.0, 0.0]), alpha=alpha)


def disk_incompatible_forcing(alpha=0.0):
    """Volume force equal to the rigid rotation itself: maximally incompatible."""
    beta = rigid_rotation()
    return ProblemData(f=beta.value, alpha=alpha)


def asymmetric_forcing(alpha=1.0):
    """``f = (sin(pi y) + x^2, cos 2x + xy)``: no symmetry, so it pairs with
    the rotation; ``stokes.make_compatible`` makes it compatible on a disk."""
    def f(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([np.sin(PI * y) + x ** 2, np.cos(2 * x) + x * y])

    return ProblemData(f=f, alpha=alpha)


def sweep_forcing():
    """Smooth fixed forcing for friction sweeps on the square.

    Chosen so both limit solutions (free slip and no slip) are nonzero and
    of comparable size.
    """
    def f(p):
        return np.column_stack([np.sin(PI * p[:, 1]), np.cos(PI * p[:, 0])])

    return ProblemData(f=f)


def check_amplitude(amplitude):
    """``InvalidArgument`` unless ``amplitude`` is None, 0 or of magnitude in
    [1e-100, 1e100], beyond which norms and energies under- or overflow."""
    if amplitude and not 1e-100 <= abs(amplitude) <= 1e100:
        raise InvalidArgument("amplitude must be 0 or finite in magnitude "
                              f"[1e-100, 1e100], got {amplitude}")


def mms_case(alpha, amplitude=None, nonlinear=False):
    """:func:`stokes_mms`, or :func:`navier_stokes_mms` when ``nonlinear``,
    at its default amplitude when ``amplitude`` is None."""
    case = navier_stokes_mms if nonlinear else stokes_mms
    return case(alpha) if amplitude is None else case(alpha, amplitude)


# Each selector's data from (alpha, amplitude, nonlinear).
_SELECTORS = {
    "sweep": lambda alpha, *_: replace(sweep_forcing(), alpha=alpha),
    "mms": lambda *args: mms_case(*args)["data"],
    "disk-drive": lambda alpha, *_: disk_tangential_drive(alpha)["data"],
    "disk-compatible": lambda alpha, *_: disk_compatible_forcing(alpha),
    "asymmetric": lambda alpha, *_: asymmetric_forcing(alpha),
}
DATA_SELECTORS = tuple(_SELECTORS)


def select_data(selector, domain, alpha, amplitude=None, compat=False,
                nonlinear=False):
    """The :class:`ProblemData` named by ``selector`` on ``domain``, ``mms``
    (the only one taking an ``amplitude``) by :func:`mms_case`.  ``compat``
    sets ``compatibility_mode``, which ``disk-compatible`` always sets."""
    check_amplitude(amplitude)
    if selector not in _SELECTORS:
        raise InvalidArgument(f"unknown data selector {selector!r}")
    if amplitude is not None and selector != "mms":
        raise InvalidArgument(f"{selector} data takes no amplitude")
    if selector.startswith("disk-") and domain != "disk":
        raise InvalidArgument(f"{selector} data needs the disk domain")
    return replace(_SELECTORS[selector](alpha, amplitude, nonlinear),
                   compatibility_mode=compat or selector == "disk-compatible")
