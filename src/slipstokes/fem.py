"""Taylor-Hood (P2 velocity / P1 pressure) spaces on triangle meshes.

Degrees of freedom
------------------
Velocity nodes are the mesh vertices followed by the midpoints of
``mesh.edges``; with ``N = num_vertices + len(mesh.edges)`` the velocity
vector stores all x components first, then all y components, so component
``c`` of node ``i`` lives at ``c * N + i``.  Pressure nodes are the vertices.

Quadrature rules are symmetric Gauss rules on the reference triangle paired
with Gauss-Legendre rules on the unit segment of matching polynomial
exactness (orders 4 and 6).
"""

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericalError

# Local velocity node order on a triangle (a, b, c):
#   0, 1, 2   -> vertices a, b, c
#   3, 4, 5   -> midpoints of edges (a,b), (b,c), (c,a)
_EDGE_LOCAL = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class QuadratureRule:
    """Paired triangle and boundary-segment quadrature of one exactness order."""

    order: int
    tri_points: np.ndarray      # (nq, 3) barycentric coordinates
    tri_weights: np.ndarray     # (nq,), sums to 1/2 (reference area)
    seg_points: np.ndarray      # (ns,) on [0, 1]
    seg_weights: np.ndarray     # (ns,), sums to 1


def _dunavant(order):
    """Orbits of ``(1 - 2a, a, a)``, then permutations of ``(a, b, c)``."""
    if order == 4:
        orbits = ((0.445948490915965, 0.223381589678011),
                  (0.091576213509771, 0.109951743655322))
        mixed = ()
    elif order == 6:
        orbits = ((0.249286745170910, 0.116786275726379),
                  (0.063089014491502, 0.050844906370207))
        mixed = ((0.310352451033785, 0.053145049844816, 0.082851075618374),)
    else:
        raise InvalidArgument(f"quadrature order must be 4 or 6, got {order!r}")
    pts, wts = [], []
    for a, w in orbits:
        pts += [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
        wts += [w] * 3
    for a, b, w in mixed:
        c = 1.0 - a - b
        pts += [(a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)]
        wts += [w] * 6
    return np.array(pts), 0.5 * np.array(wts)


def quadrature(order):
    """Return the paired triangle/segment rule of the given exactness order."""
    tri_pts, tri_wts = _dunavant(order)
    npts = order // 2 + 1
    x, w = np.polynomial.legendre.leggauss(npts)
    return QuadratureRule(order, tri_pts, tri_wts,
                          0.5 * (x + 1.0), 0.5 * w)


def p2_values(bary):
    """P2 shape function values at barycentric points, shape (nq, 6)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    return np.column_stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
    ])


def p2_ref_grads(bary):
    """P2 gradients w.r.t. reference coordinates, shape (nq, 6, 2)."""
    grads_l = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    nq = bary.shape[0]
    g = np.zeros((nq, 6, 2))
    for i in range(3):
        g[:, i] = (4 * bary[:, i] - 1)[:, None] * grads_l[i]
    for k, (i, j) in enumerate(_EDGE_LOCAL):
        g[:, 3 + k] = 4 * (bary[:, j][:, None] * grads_l[i]
                           + bary[:, i][:, None] * grads_l[j])
    return g


def p1_values(bary):
    return bary.copy()


def segment_p2_values(t):
    """Quadratic trace shapes on a boundary edge at parameters t in [0, 1].

    Node order: start vertex, end vertex, midpoint.
    """
    t = np.asarray(t)
    return np.column_stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])


class FeSystem:
    """Assembled geometric tables for one Taylor-Hood space.

    Built by :func:`build_taylor_hood` from the mesh's edge table; holds
    the per triangle DOF maps and affine element geometry that the
    assembly and evaluation routines share.  Every caller on one mesh
    shares one instance, so nothing may write to its arrays.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        nv = mesh.num_vertices
        edges = mesh.edges
        self.num_velocity_nodes = nv + len(edges)
        self.num_velocity_dofs = 2 * self.num_velocity_nodes
        self.num_pressure_dofs = nv

        self.velocity_coords = np.vstack([
            mesh.vertices,
            0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]]),
        ])
        # (nt, 6) global velocity node ids in local order
        self.tri_vnodes = np.hstack([mesh.triangles, nv + mesh.triangle_edges])
        self.tri_pnodes = mesh.triangles

        p = mesh.vertices[mesh.triangles]
        jac = np.empty((mesh.num_triangles, 2, 2))
        jac[:, :, 0] = p[:, 1] - p[:, 0]
        jac[:, :, 1] = p[:, 2] - p[:, 0]
        self.det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 1, 0]
        inv[:, 1, 0] = -jac[:, 0, 1]
        inv[:, 1, 1] = jac[:, 0, 0]
        self.inv_jac_t = inv / self.det[:, None, None]

        # Midpoint velocity node of each boundary edge.
        self.boundary_mid_nodes = nv + mesh.boundary_edge_ids
        self._grad_cache = {}
        self._slip_plan = None
        self._slip_lock = threading.Lock()

    def physical_grads(self, rule):
        """Physical P2 gradients per element: array (nq, nt, 6, 2), cached."""
        key = rule.order
        if key not in self._grad_cache:
            ref = p2_ref_grads(rule.tri_points)[:, None, :, None]
            inv = self.inv_jac_t[:, None]                # (nt, 1, 2, 2)
            # grad_phys = invJ^T grad_ref, summed over b in order: bit for
            # bit the contraction "tab,qib->qtia" at a third of its cost
            # (its sum starts from +0, so adding 0 gives exact zeros its sign).
            g = inv[..., 0] * ref[..., 0]
            g += inv[..., 1] * ref[..., 1]
            g += 0.0
            self._grad_cache[key] = g
        return self._grad_cache[key]

    def weights(self, rule):
        """Quadrature weights times the Jacobian determinant, (nq, nt)."""
        return rule.tri_weights[:, None] * self.det[None, :]

    def slip_plan(self):
        """The data-free slip plan of this mesh, built once and then shared.

        See ``constraints.build_slip_plan``; the plan is frozen and its
        arrays read-only.
        """
        with self._slip_lock:
            if self._slip_plan is None:
                from .constraints import build_slip_plan   # imports this module
                self._slip_plan = build_slip_plan(self)
            return self._slip_plan

    def quad_coords(self, rule):
        """Physical coordinates of triangle quadrature points, (nq, nt, 2)."""
        p = self.mesh.vertices[self.mesh.triangles.T]    # (3, nt, 2)
        b = rule.tri_points[:, :, None, None]            # (nq, 3, 1, 1)
        # Summed in vertex order, bit for bit the contraction "qk,tka->qta"
        # (a BLAS product fuses the multiply-adds and rounds differently).
        x = b[:, 0] * p[0]
        x += b[:, 1] * p[1]
        x += b[:, 2] * p[2]
        return x

    def boundary_quad_coords(self, rule):
        """Physical coordinates of boundary quadrature points, (nb, ns, 2)."""
        mesh = self.mesh
        p1 = mesh.vertices[mesh.boundary_edges[:, 0]]
        p2 = mesh.vertices[mesh.boundary_edges[:, 1]]
        t = rule.seg_points
        return p1[:, None, :] + t[None, :, None] * (p2 - p1)[:, None, :]

    def boundary_trace_nodes(self):
        """Velocity node triples (start, end, midpoint) per boundary edge."""
        mesh = self.mesh
        return np.column_stack([mesh.boundary_edges, self.boundary_mid_nodes])


# Live systems by mesh.  Meshes are immutable and hash by identity; the
# entry goes when its system's last holder lets go, and the mesh never
# refers back to its system, so no reference cycle keeps either alive.
_LIVE = weakref.WeakValueDictionary()
_LIVE_LOCK = threading.Lock()


def build_taylor_hood(mesh):
    """The P2/P1 Taylor-Hood system of a mesh, shared while anyone holds it.

    Returns the live :class:`FeSystem` of ``mesh`` when one exists, so
    every caller on one mesh shares its tables and per-rule gradients;
    otherwise enumerates a new one.  No assembled matrix is kept.
    """
    with _LIVE_LOCK:
        fe = _LIVE.get(mesh)
        if fe is None:
            fe = _LIVE[mesh] = FeSystem(mesh)
        return fe


def split_components(fe, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    n = fe.num_velocity_nodes
    if coeffs.shape != (2 * n,):
        raise InvalidArgument(
            f"velocity vector must have length {2 * n}, got {coeffs.shape}")
    return coeffs[:n], coeffs[n:]


def interpolate(fe, field, space="velocity"):
    """Nodal interpolation of a callable (or constant) field.

    Velocity fields map (k, 2) coordinate arrays to (k, 2) values;
    pressure fields map (k, 2) to (k,).  Non-finite nodal values raise
    ``NumericalError``.
    """
    if space == "velocity":
        pts = fe.velocity_coords
        vals = eval_field(field, pts, pts.shape, "vector")
        out = np.concatenate([vals[:, 0], vals[:, 1]])
    elif space == "pressure":
        pts = fe.mesh.vertices
        out = eval_field(field, pts, pts.shape[:1], "scalar")
    else:
        raise InvalidArgument(f"unknown space {space!r}")
    if not np.isfinite(out).all():
        raise NumericalError(f"non-finite values interpolating {space} field")
    return out


def eval_field(field, pts, shape, kind):
    """``field`` at (k, 2) points as an array of ``shape``; zeros for None.

    A callable maps the points to ``shape``; a constant of shape
    ``shape[1:]`` (or a scalar) is repeated at every point.  Any other
    shape raises ``InvalidArgument``, naming the field's ``kind``.
    """
    if field is None:
        return np.zeros(shape)
    vals = np.asarray(field(pts) if callable(field) else field, dtype=float)
    if not callable(field) and vals.shape in ((), shape[1:]):
        vals = np.broadcast_to(vals, shape).copy()
    if vals.shape != shape:
        raise InvalidArgument(f"{kind} field has shape {vals.shape}, "
                              f"expected {shape}")
    return vals


@dataclass
class NormReport:
    """Quadrature-exact norms of a discrete field.

    Every entry but ``l2`` is None for pressures.
    """

    l2: float
    h1_semi: float | None = None
    boundary_l2_tangential: float | None = None
    divergence_l2: float | None = None

    @property
    def h1(self):
        return float(np.hypot(self.l2, self.h1_semi))


def norms(fe, coeffs):
    """Norms of a velocity (length ``2N``) or pressure (length ``nv``) vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    rule = quadrature(4)
    if coeffs.shape == (fe.num_velocity_dofs,):
        return _velocity_norms(fe, coeffs, rule)
    if coeffs.shape == (fe.num_pressure_dofs,):
        d = _pressure_at(fe, coeffs, rule)
        return NormReport(np.sqrt(float(np.sum(fe.weights(rule) * d ** 2))))
    raise InvalidArgument(f"coefficient vector of length {coeffs.shape} matches "
                          "neither velocity nor pressure space")


def velocity_values(fe, coeffs, rule):
    """``[u_x, u_y]``, each (nq, nt), at the triangle quadrature points."""
    vals = p2_values(rule.tri_points)                    # (nq, 6)
    return [np.einsum("qk,tk->qt", vals, u[fe.tri_vnodes])
            for u in split_components(fe, coeffs)]


def _velocity_at(fe, coeffs, rule):
    """``[(u_x, grad u_x), (u_y, grad u_y)]`` at the quadrature points."""
    grads = fe.physical_grads(rule)                      # (nq, nt, 6, 2)
    return [(v, np.einsum("qtka,tk->qta", grads, u[fe.tri_vnodes]))
            for v, u in zip(velocity_values(fe, coeffs, rule),
                            split_components(fe, coeffs))]


def _pressure_at(fe, coeffs, rule):
    """Values (nq, nt) of a P1 pressure at the triangle quadrature points."""
    return np.einsum("qk,tk->qt", p1_values(rule.tri_points),
                     np.asarray(coeffs)[fe.tri_pnodes])


def _velocity_norms(fe, coeffs, rule):
    (vx, gx), (vy, gy) = _velocity_at(fe, coeffs, rule)
    w = fe.weights(rule)
    l2sq = float(np.sum(w * (vx ** 2 + vy ** 2)))
    h1sq = float(np.sum(w * (gx[..., 0] ** 2 + gx[..., 1] ** 2
                             + gy[..., 0] ** 2 + gy[..., 1] ** 2)))
    divsq = float(np.sum(w * (gx[..., 0] + gy[..., 1]) ** 2))

    mesh = fe.mesh
    ux, uy = split_components(fe, coeffs)
    tn = fe.boundary_trace_nodes()
    shapes = segment_p2_values(rule.seg_points)          # (ns, 3)
    lengths = mesh.boundary_lengths()
    tx = np.einsum("sk,bk->bs", shapes, ux[tn])
    ty = np.einsum("sk,bk->bs", shapes, uy[tn])
    tang = (tx * mesh.boundary_tangents[:, 0:1]
            + ty * mesh.boundary_tangents[:, 1:2])
    btansq = float(np.sum(lengths[:, None] * rule.seg_weights[None, :] * tang ** 2))

    return NormReport(np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(btansq),
                      np.sqrt(divsq))


def pressure_mean(fe, coeffs):
    """Integral of a P1 pressure over the domain."""
    e = np.asarray(coeffs)[fe.tri_pnodes]
    return float(np.sum(fe.det / 6.0 * e.sum(axis=1)))


def velocity_error_h1(fe, coeffs, exact, exact_grad):
    """L2 and H1 errors of a velocity vector against closed forms.

    ``exact`` maps (k, 2) points to (k, 2) values; ``exact_grad`` maps
    (k, 2) points to (k, 2, 2) Jacobians with entry [i, j] = d(u_i)/d(x_j).
    Returns ``(l2_error, h1_error)`` with the full H1 norm.
    """
    rule = quadrature(6)
    (vx, gxh), (vy, gyh) = _velocity_at(fe, coeffs, rule)
    w = fe.weights(rule)
    pts = fe.quad_coords(rule)
    flat = pts.reshape(-1, 2)
    uex = np.asarray(exact(flat), dtype=float).reshape(pts.shape[0], pts.shape[1], 2)
    gex = np.asarray(exact_grad(flat), dtype=float).reshape(
        pts.shape[0], pts.shape[1], 2, 2)

    dx = vx - uex[..., 0]
    dy = vy - uex[..., 1]
    l2sq = float(np.sum(w * (dx ** 2 + dy ** 2)))
    dgx = gxh - gex[..., 0, :]
    dgy = gyh - gex[..., 1, :]
    h1semisq = float(np.sum(w * (dgx ** 2).sum(axis=-1))
                     + np.sum(w * (dgy ** 2).sum(axis=-1)))
    return np.sqrt(l2sq), np.sqrt(l2sq + h1semisq)


def pressure_error_l2(fe, coeffs, exact):
    """L2 error of a P1 pressure against a closed form."""
    rule = quadrature(6)
    pts = fe.quad_coords(rule)
    pex = np.asarray(exact(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    d = _pressure_at(fe, coeffs, rule) - pex
    return float(np.sqrt(np.sum(fe.weights(rule) * d ** 2)))
