"""Assembly of the bilinear forms and loads on Taylor-Hood spaces.

All matrices are scipy CSR on the full (unconstrained) degree-of-freedom
sets; the constraints module rotates and reduces them.  Conventions:

* ``assemble_viscous``:      v^T A w   = 2 int D(v) : D(w)
* ``assemble_friction``:     v^T M w   = int_Gamma alpha (v.t)(w.t)
* ``assemble_divergence``:   q^T B v   = int q div(v)
* ``assemble_load``:         l^T v     = int f.v - int F:grad(v) + int_Gamma h.v
* ``assemble_convection_skew``: v^T C(w) u = (1/2) int [(w.grad)u.v - (w.grad)v.u]

The skew convection matrix is produced as ``(N - N^T)/2`` from the raw
convection matrix, so ``C + C^T = 0`` holds entrywise in floating point.
"""

import numpy as np
import scipy.sparse as sparse

from . import fem
from .errors import InvalidArgument, NumericalError
from .fields import eval_boundary_field, sample_alpha


def _scatter(rows, cols, data, shape):
    mat = sparse.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                            shape=shape).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _vector_dofs(fe):
    """Per-triangle velocity dof list, x components then y, shape (nt, 12)."""
    n = fe.num_velocity_nodes
    return np.hstack([fe.tri_vnodes, fe.tri_vnodes + n])


def _scatter_vector_block(fe, local):
    """Sum per-triangle (12, 12) velocity blocks into a (2N, 2N) CSR matrix."""
    dofs = _vector_dofs(fe)
    n = fe.num_velocity_dofs
    return _scatter(dofs[:, :, None] * np.ones((1, 1, 12), dtype=np.int64),
                    dofs[:, None, :] * np.ones((1, 12, 1), dtype=np.int64),
                    local, (n, n))


def assemble_viscous(fe, quad_order=4):
    """Twice the strain inner product; kernel = {constants, rigid rotation}."""
    rule = fem.quadrature(quad_order)
    grads = fe.physical_grads(rule)                  # (nq, nt, 6, 2)
    w = rule.tri_weights[:, None] * fe.det[None, :]  # (nq, nt)
    gx = grads[..., 0]
    gy = grads[..., 1]
    kxx = np.einsum("qt,qti,qtj->tij", w, gx, gx) * 2 \
        + np.einsum("qt,qti,qtj->tij", w, gy, gy)
    kyy = np.einsum("qt,qti,qtj->tij", w, gy, gy) * 2 \
        + np.einsum("qt,qti,qtj->tij", w, gx, gx)
    # row = test (0, phi_i), col = trial (phi_j, 0): int d1(phi_i) d2(phi_j)
    kyx = np.einsum("qt,qti,qtj->tij", w, gx, gy)
    local = np.block([[kxx, np.swapaxes(kyx, 1, 2)], [kyx, kyy]])
    return _scatter_vector_block(fe, local)


def assemble_velocity_mass(fe, quad_order=4):
    """Vector L2 mass matrix."""
    rule = fem.quadrature(quad_order)
    vals = fem.p2_values(rule.tri_points)
    w = rule.tri_weights[:, None] * fe.det[None, :]
    m = np.einsum("qt,qi,qj->tij", w, vals, vals)
    z = np.zeros_like(m)
    local = np.block([[m, z], [z, m]])
    return _scatter_vector_block(fe, local)


def assemble_velocity_h1(fe, quad_order=4):
    """Full H1 Gram matrix: L2 mass plus the full-gradient stiffness."""
    rule = fem.quadrature(quad_order)
    vals = fem.p2_values(rule.tri_points)
    grads = fe.physical_grads(rule)
    w = rule.tri_weights[:, None] * fe.det[None, :]
    m = np.einsum("qt,qi,qj->tij", w, vals, vals)
    k = np.einsum("qt,qtia,qtja->tij", w, grads, grads)
    blk = m + k
    z = np.zeros_like(blk)
    local = np.block([[blk, z], [z, blk]])
    return _scatter_vector_block(fe, local)


def assemble_pressure_mass(fe, quad_order=4):
    rule = fem.quadrature(quad_order)
    vals = fem.p1_values(rule.tri_points)
    w = rule.tri_weights[:, None] * fe.det[None, :]
    local = np.einsum("qt,qi,qj->tij", w, vals, vals)
    dofs = fe.tri_pnodes
    n = fe.num_pressure_dofs
    return _scatter(dofs[:, :, None] * np.ones((1, 1, 3), dtype=np.int64),
                    dofs[:, None, :] * np.ones((1, 3, 1), dtype=np.int64),
                    local, (n, n))


def assemble_friction(fe, alpha, quad_order=4):
    """Tangential boundary friction form; zero matrix when alpha == 0."""
    mesh = fe.mesh
    n = fe.num_velocity_dofs
    if np.isscalar(alpha) and not callable(alpha) and float(alpha) == 0.0:
        return sparse.csr_matrix((n, n))
    rule = fem.quadrature(quad_order)
    pts = fe.boundary_quad_coords(rule)                    # (nb, ns, 2)
    avals = sample_alpha(alpha, pts, mesh.boundary_markers)
    shapes = fem.segment_p2_values(rule.seg_points)        # (ns, 3)
    lengths = mesh.boundary_lengths()
    ww = lengths[:, None] * rule.seg_weights[None, :] * avals   # (nb, ns)
    s = np.einsum("bs,si,sj->bij", ww, shapes, shapes)     # (nb, 3, 3)
    tn = fe.boundary_trace_nodes()                         # (nb, 3)
    t = mesh.boundary_tangents
    nvn = fe.num_velocity_nodes
    rows, cols, data = [], [], []
    for a in range(2):
        for b in range(2):
            block = s * (t[:, a] * t[:, b])[:, None, None]
            rows.append(np.broadcast_to((tn + a * nvn)[:, :, None], block.shape))
            cols.append(np.broadcast_to((tn + b * nvn)[:, None, :], block.shape))
            data.append(block)
    return _scatter(np.concatenate([r.ravel() for r in rows]),
                    np.concatenate([c.ravel() for c in cols]),
                    np.concatenate([d.ravel() for d in data]), (n, n))


def assemble_divergence(fe, quad_order=4):
    """Pressure-velocity coupling q^T B v = -int q div(v), shape (nv, 2N).

    The sign makes the saddle multiplier the physical pressure: the
    momentum row A u + B^T p = ell then reads a(u, v) - int p div(v).
    """
    rule = fem.quadrature(quad_order)
    pvals = fem.p1_values(rule.tri_points)
    grads = fe.physical_grads(rule)
    w = -rule.tri_weights[:, None] * fe.det[None, :]
    bx = np.einsum("qt,qi,qtj->tij", w, pvals, grads[..., 0])   # (nt, 3, 6)
    by = np.einsum("qt,qi,qtj->tij", w, pvals, grads[..., 1])
    local = np.concatenate([bx, by], axis=2)                    # (nt, 3, 12)
    prow = fe.tri_pnodes[:, :, None] * np.ones((1, 1, 12), dtype=np.int64)
    vcol = _vector_dofs(fe)[:, None, :] * np.ones((1, 3, 1), dtype=np.int64)
    return _scatter(prow, vcol, local,
                    (fe.num_pressure_dofs, fe.num_velocity_dofs))


def assemble_load(fe, data, quad_order=6):
    """Right-hand side vector for the momentum equation."""
    rule = fem.quadrature(quad_order)
    n = fe.num_velocity_nodes
    ell = np.zeros(2 * n)

    vals = fem.p2_values(rule.tri_points)
    w = rule.tri_weights[:, None] * fe.det[None, :]
    pts = fe.quad_coords(rule)
    flat = pts.reshape(-1, 2)

    if data.f is not None:
        fv = fem._eval_vector(data.f, flat).reshape(pts.shape)
        lx = np.einsum("qt,qt,qi->ti", w, fv[..., 0], vals)
        ly = np.einsum("qt,qt,qi->ti", w, fv[..., 1], vals)
        np.add.at(ell, fe.tri_vnodes, lx)
        np.add.at(ell, fe.tri_vnodes + n, ly)

    if data.F is not None:
        if callable(data.F):
            Fv = np.asarray(data.F(flat), dtype=float)
            if Fv.shape != (flat.shape[0], 2, 2):
                raise InvalidArgument(f"matrix field returned shape {Fv.shape}")
        else:
            Fv = np.broadcast_to(np.asarray(data.F, dtype=float),
                                 (flat.shape[0], 2, 2))
        Fv = Fv.reshape(pts.shape[0], pts.shape[1], 2, 2)
        grads = fe.physical_grads(rule)
        # v = (phi_i, 0): F : grad(v) = F[0,0] d1(phi) + F[0,1] d2(phi)
        lx = -np.einsum("qt,qtia->ti", w, grads * Fv[:, :, None, 0, :])
        ly = -np.einsum("qt,qtia->ti", w, grads * Fv[:, :, None, 1, :])
        np.add.at(ell, fe.tri_vnodes, lx)
        np.add.at(ell, fe.tri_vnodes + n, ly)

    if data.h is not None:
        mesh = fe.mesh
        bpts = fe.boundary_quad_coords(rule)
        ht = eval_boundary_field(data.h, bpts, mesh.boundary_normals,
                                 mesh.boundary_tangents)        # (nb, ns)
        shapes = fem.segment_p2_values(rule.seg_points)
        lengths = mesh.boundary_lengths()
        ww = lengths[:, None] * rule.seg_weights[None, :]
        tn = fe.boundary_trace_nodes()
        for comp in range(2):
            contrib = np.einsum("bs,bs,si->bi",
                                ww, ht * mesh.boundary_tangents[:, comp:comp + 1],
                                shapes)
            np.add.at(ell, tn + comp * n, contrib)

    if not np.isfinite(ell).all():
        raise NumericalError("non-finite entries in assembled load")
    return ell


def assemble_convection_skew(fe, w_coeffs, quad_order=6):
    """Skew-symmetrized convection matrix for transport field w.

    The raw scalar matrix N has entries int (w.grad(phi_j)) phi_i; the
    returned matrix applies (N - N^T)/2, antisymmetric entrywise, to each
    velocity component and stores no entry coupling the two.
    """
    rule = fem.quadrature(quad_order)
    wx, wy = fem.split_components(fe, w_coeffs)
    vals = fem.p2_values(rule.tri_points)
    grads = fe.physical_grads(rule)
    wq = rule.tri_weights[:, None] * fe.det[None, :]
    wqx = np.einsum("qk,tk->qt", vals, wx[fe.tri_vnodes])
    wqy = np.einsum("qk,tk->qt", vals, wy[fe.tri_vnodes])
    # (w . grad) phi_j at each quadrature point
    adv = wqx[:, :, None] * grads[..., 0] + wqy[:, :, None] * grads[..., 1]
    s = np.einsum("qt,qi,qtj->tij", wq, vals, adv)      # (nt, 6, 6)
    nodes = fe.tri_vnodes
    n = fe.num_velocity_nodes
    raw = _scatter(nodes[:, :, None] * np.ones((1, 1, 6), dtype=np.int64),
                   nodes[:, None, :] * np.ones((1, 6, 1), dtype=np.int64),
                   s, (n, n))
    skew = 0.5 * (raw - raw.T)
    # The same scalar block on both components; no x-y coupling is stored.
    mat = sparse.block_diag((skew, skew), format="csr")
    mat.sort_indices()
    return mat


def pressure_integral_vector(fe):
    """Vector m with m^T q = int q for P1 pressures (the mean-value gauge row)."""
    m = np.zeros(fe.num_pressure_dofs)
    np.add.at(m, fe.tri_pnodes, np.repeat(fe.det[:, None] / 6.0, 3, axis=1))
    return m


def boundary_rotation_functional(fe, quad_order=4):
    """Vector g with g^T v = int_Gamma v . beta ds for the rigid rotation beta.

    Used as the kernel guard row on the disk and as the circulation
    diagnostic in the compatibility experiments.  The full vector beta is
    used (no tangential projection); its normal component on the polygon is
    the geometric discretization residue that the experiments measure.
    """
    rule = fem.quadrature(quad_order)
    mesh = fe.mesh
    pts = fe.boundary_quad_coords(rule)                   # (nb, ns, 2)
    beta = np.empty_like(pts)
    beta[..., 0] = -pts[..., 1]
    beta[..., 1] = pts[..., 0]
    shapes = fem.segment_p2_values(rule.seg_points)
    lengths = mesh.boundary_lengths()
    ww = lengths[:, None] * rule.seg_weights[None, :]
    tn = fe.boundary_trace_nodes()
    n = fe.num_velocity_nodes
    g = np.zeros(2 * n)
    for comp in range(2):
        contrib = np.einsum("bs,bs,si->bi", ww, beta[..., comp], shapes)
        np.add.at(g, tn + comp * n, contrib)
    return g
