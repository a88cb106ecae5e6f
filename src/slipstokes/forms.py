"""Assembly of the bilinear forms and loads on Taylor-Hood spaces.

All matrices are scipy CSR on the full (unconstrained) degree-of-freedom
sets; the constraints module rotates and reduces them.  Conventions:

* ``assemble_viscous``:      v^T A w   = 2 int D(v) : D(w)
* ``assemble_friction``:     v^T M w   = int_Gamma alpha (v.t)(w.t)
* ``assemble_divergence``:   q^T B v   = -int q div(v)
* ``assemble_load``:         l^T v     = int f.v - int F:grad(v) + int_Gamma h.v
* ``assemble_convection_skew``: v^T C(w) u = (1/2) int [(w.grad)u.v - (w.grad)v.u]

The skew convection matrix is produced as ``(N - N^T)/2`` from the raw
convection matrix, so ``C + C^T = 0`` holds entrywise in floating point.
"""

import numpy as np
import scipy.sparse as sparse

from . import fem
from .errors import NumericalError
from .fields import eval_boundary_field, sample_alpha


def _scatter(local, rows, cols, shape):
    """Sum per-element blocks ``local`` (ne, a, b) into a CSR matrix.

    ``rows`` (ne, a) and ``cols`` (ne, b) are the elements' dof lists.
    """
    mat = sparse.coo_matrix(
        (local.ravel(), (np.broadcast_to(rows[:, :, None], local.shape).ravel(),
                         np.broadcast_to(cols[:, None, :], local.shape).ravel())),
        shape=shape).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _vector_dofs(fe, nodes):
    """Velocity dofs of per-element node lists (ne, k): x then y, (ne, 2k)."""
    return np.hstack([nodes, nodes + fe.num_velocity_nodes])


def _componentwise(fe, local, skew=False):
    """The scalar P2 form of blocks ``local`` (nt, 6, 6) on each component.

    No x-y coupling is stored.  ``skew`` replaces the scalar matrix S by
    (S - S^T)/2 first.
    """
    n = fe.num_velocity_nodes
    s = _scatter(local, fe.tri_vnodes, fe.tri_vnodes, (n, n))
    if skew:
        s = 0.5 * (s - s.T)
    mat = sparse.block_diag((s, s), format="csr")
    mat.sort_indices()
    return mat


def _p2_mass(fe, rule):
    vals = fem.p2_values(rule.tri_points)
    return np.einsum("qt,qi,qj->tij", fe.weights(rule), vals, vals)


def assemble_viscous(fe):
    """Twice the strain inner product; kernel = {constants, rigid rotation}."""
    rule = fem.quadrature(4)
    grads = fe.physical_grads(rule)                  # (nq, nt, 6, 2)
    # k[t, a, b] = int d_a(phi_i) d_b(phi_j): rows test, columns trial
    wg = fe.weights(rule)[:, :, None, None] * grads
    k = np.einsum("qtia,qtjb->tabij", wg, grads)
    local = np.block([[2.0 * k[:, 0, 0] + k[:, 1, 1], k[:, 1, 0]],
                      [k[:, 0, 1], 2.0 * k[:, 1, 1] + k[:, 0, 0]]])
    dofs = _vector_dofs(fe, fe.tri_vnodes)
    mat = _scatter(local, dofs, dofs, (fe.num_velocity_dofs,) * 2)
    mat.eliminate_zeros()
    return mat


def assemble_velocity_mass(fe):
    """Vector L2 mass matrix."""
    return _componentwise(fe, _p2_mass(fe, fem.quadrature(4)))


def assemble_velocity_h1(fe):
    """Full H1 Gram matrix: L2 mass plus the full-gradient stiffness."""
    rule = fem.quadrature(4)
    grads = fe.physical_grads(rule)
    k = np.einsum("qt,qtia,qtja->tij", fe.weights(rule), grads, grads)
    return _componentwise(fe, _p2_mass(fe, rule) + k)


def velocity_h1_norm(H1, v):
    """H1 norm ``sqrt(v . H1 v)`` of a velocity, ``H1`` from
    :func:`assemble_velocity_h1`; a rounding-negative square reads 0."""
    return float(np.sqrt(max(v @ (H1 @ v), 0.0)))


def assemble_pressure_mass(fe):
    rule = fem.quadrature(4)
    vals = fem.p1_values(rule.tri_points)
    local = np.einsum("qt,qi,qj->tij", fe.weights(rule), vals, vals)
    n = fe.num_pressure_dofs
    return _scatter(local, fe.tri_pnodes, fe.tri_pnodes, (n, n))


def friction_samples(fe, alpha):
    """``(rule, alpha at its boundary points (nb, ns))``; see ``sample_alpha``."""
    rule = fem.quadrature(4)
    return rule, sample_alpha(alpha, fe.boundary_quad_coords(rule),
                              fe.mesh.boundary_markers)


def assemble_friction(fe, alpha):
    """Tangential boundary friction form; zero matrix when alpha == 0."""
    mesh = fe.mesh
    n = fe.num_velocity_dofs
    if np.isscalar(alpha) and not callable(alpha) and float(alpha) == 0.0:
        return sparse.csr_matrix((n, n))
    rule, avals = friction_samples(fe, alpha)
    shapes = fem.segment_p2_values(rule.seg_points)        # (ns, 3)
    ww = mesh.boundary_lengths()[:, None] * rule.seg_weights[None, :] * avals
    s = np.einsum("bs,si,sj->bij", ww, shapes, shapes)     # (nb, 3, 3)
    t = mesh.boundary_tangents
    # (t_a t_b) s_ij on the dofs [x nodes, y nodes] of the edge's trace
    local = (t[:, :, None, None, None] * t[:, None, None, :, None]
             * s[:, None, :, None, :]).reshape(-1, 6, 6)
    dofs = _vector_dofs(fe, fe.boundary_trace_nodes())
    return _scatter(local, dofs, dofs, (n, n))


def assemble_divergence(fe):
    """Pressure-velocity coupling q^T B v = -int q div(v), shape (nv, 2N).

    The sign makes the saddle multiplier the physical pressure: the
    momentum row A u + B^T p = ell then reads a(u, v) - int p div(v).
    """
    rule = fem.quadrature(4)
    pvals = fem.p1_values(rule.tri_points)
    grads = fe.physical_grads(rule)
    local = -np.einsum("qt,qi,qtja->tiaj", fe.weights(rule), pvals,
                       grads).reshape(-1, 3, 12)
    return _scatter(local, fe.tri_pnodes, _vector_dofs(fe, fe.tri_vnodes),
                    (fe.num_pressure_dofs, fe.num_velocity_dofs))


def _boundary_pairing(fe, rule, field):
    """Vector g with g^T v = int_Gamma field . v ds over the P2 traces.

    ``field`` holds (nb, ns, 2) samples at the boundary points of ``rule``.
    """
    shapes = fem.segment_p2_values(rule.seg_points)       # (ns, 3)
    ww = fe.mesh.boundary_lengths()[:, None] * rule.seg_weights[None, :]
    local = np.einsum("bs,bsc,si->bci", ww, field, shapes)
    return np.bincount(_vector_dofs(fe, fe.boundary_trace_nodes()).ravel(),
                       local.ravel(), minlength=fe.num_velocity_dofs)


def load_samples(fe, data):
    """The problem data at the points of the load's rule.

    Returns ``(rule, f, F, h)``: ``f`` (nq, nt, 2), ``F`` (nq, nt, 2, 2)
    and the tangential part ``h . t`` (nb, ns), each None where ``data``
    has none.  A field of the wrong shape raises ``InvalidArgument``.
    """
    rule = fem.quadrature(6)
    pts = fe.quad_coords(rule)
    flat = pts.reshape(-1, 2)
    f = F = h = None
    if data.f is not None:
        f = fem.eval_field(data.f, flat, flat.shape, "vector").reshape(pts.shape)
    if data.F is not None:
        F = fem.eval_field(data.F, flat, (len(flat), 2, 2), "matrix")
        F = F.reshape(*pts.shape[:2], 2, 2)
    if data.h is not None:
        mesh = fe.mesh
        h = eval_boundary_field(data.h, fe.boundary_quad_coords(rule),
                                mesh.boundary_normals, mesh.boundary_tangents)
    return rule, f, F, h


def assemble_load(fe, data):
    """Right-hand side vector for the momentum equation."""
    rule, fv, Fv, ht = load_samples(fe, data)
    vals = fem.p2_values(rule.tri_points)
    w = fe.weights(rule)
    local = np.zeros((len(fe.tri_vnodes), 2, 6))      # [triangle, component, node]
    if fv is not None:
        local += np.einsum("qt,qtc,qi->tci", w, fv, vals)
    if Fv is not None:
        # v = phi_i e_c: F : grad(v) = F[c, b] d_b(phi_i)
        local -= np.einsum("qt,qtcb,qtib->tci", w, Fv, fe.physical_grads(rule))

    ell = np.bincount(_vector_dofs(fe, fe.tri_vnodes).ravel(), local.ravel(),
                      minlength=fe.num_velocity_dofs)
    if ht is not None:
        ell += _boundary_pairing(
            fe, rule, ht[:, :, None] * fe.mesh.boundary_tangents[:, None, :])

    if not np.isfinite(ell).all():
        raise NumericalError("non-finite entries in assembled load")
    return ell


def assemble_convection_skew(fe, w_coeffs):
    """Skew-symmetrized convection matrix for transport field w.

    The raw scalar matrix N has entries int (w.grad(phi_j)) phi_i; the
    returned matrix applies (N - N^T)/2, antisymmetric entrywise, to each
    velocity component and stores no entry coupling the two.
    """
    rule = fem.quadrature(6)
    wqx, wqy = fem.velocity_values(fe, w_coeffs, rule)
    vals = fem.p2_values(rule.tri_points)
    grads = fe.physical_grads(rule)
    # (w . grad) phi_j at each quadrature point
    adv = wqx[:, :, None] * grads[..., 0] + wqy[:, :, None] * grads[..., 1]
    s = np.einsum("qt,qi,qtj->tij", fe.weights(rule), vals, adv)  # (nt, 6, 6)
    return _componentwise(fe, s, skew=True)


def pressure_integral_vector(fe):
    """Vector m with m^T q = int q for P1 pressures (the mean-value gauge row)."""
    m = np.zeros(fe.num_pressure_dofs)
    np.add.at(m, fe.tri_pnodes, np.repeat(fe.det[:, None] / 6.0, 3, axis=1))
    return m


def boundary_rotation_functional(fe):
    """Vector g with g^T v = int_Gamma v . beta ds for the rigid rotation beta.

    Used as the kernel guard row on the disk and as the circulation
    diagnostic in the compatibility experiments.  The full vector beta is
    used (no tangential projection); its normal component on the polygon is
    the geometric discretization residue that the experiments measure.
    """
    rule = fem.quadrature(4)
    pts = fe.boundary_quad_coords(rule)                   # (nb, ns, 2)
    beta = np.stack([-pts[..., 1], pts[..., 0]], axis=-1)
    return _boundary_pairing(fe, rule, beta)
