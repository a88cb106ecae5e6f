"""Impermeability constraints, pressure gauge and the disk kernel guard.

Boundary velocity nodes are rotated into their local (normal, tangent)
frame by an orthogonal 2x2 block; the normal coordinate is then eliminated.
Corner vertices (square corners) are clamped entirely, since two
non-parallel impermeability conditions meet there.  The pressure mean is
pinned by one dense multiplier row, and on the disk with vanishing friction
an additional multiplier row removes the rigid rotation from the kernel.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import fem, forms
from .errors import InvalidArgument
from .fields import sample_alpha
from .mesh import boundary_frames
from .saddle import SaddleSystem

ALPHA_ZERO_TOL = 1e-14


@dataclass
class ConstraintPlan:
    """Recipe converting assembled blocks into a reduced saddle system.

    Attributes
    ----------
    n_velocity, n_pressure : int
        Unconstrained dof counts.
    rotation : scipy CSR, (n_velocity, n_velocity)
        Orthogonal change of basis; velocity = rotation @ rotated_coords.
        Identity outside boundary nodes.
    eliminated : int array
        Rotated velocity coordinates forced to zero (normal components,
        plus both components at corners).
    free : int array
        Complement of ``eliminated``.
    gauge : (n_pressure,) array or None
        Mean-value row pinning the pressure.
    guard : (n_velocity,) array or None
        Boundary rotation-moment row (unrotated coordinates); present
        exactly when the domain is the disk and friction vanishes.
    alpha_is_zero : bool
    """

    n_velocity: int
    n_pressure: int
    rotation: sparse.csr_matrix
    eliminated: np.ndarray
    free: np.ndarray
    gauge: np.ndarray | None = None
    guard: np.ndarray | None = None
    alpha_is_zero: bool = False
    labels: tuple = ()

    def reduce(self, matrix):
        """Rotate a velocity operator and keep its free-by-free block."""
        T = self.rotation
        f = self.free
        return (T.T @ matrix @ T).tocsr()[f][:, f]

    def reconstruct(self, x):
        """Split a reduced solution into full velocity, pressure, multipliers."""
        nf, np_ = len(self.free), self.n_pressure
        rotated = np.zeros(self.n_velocity)
        rotated[self.free] = x[:nf]
        u = self.rotation @ rotated
        p = x[nf:nf + np_]
        multipliers = dict(zip(self.labels, x[nf + np_:]))
        return u, p, multipliers


def _rotation_matrix(fe, frames):
    """Orthogonal block-diagonal map from (normal, tangent) coords to (x, y)."""
    n = fe.num_velocity_nodes
    mesh = fe.mesh
    rows, cols, vals = [], [], []
    touched = np.zeros(n, dtype=bool)
    for row_idx, node in enumerate(frames.vertex_ids):
        nx, ny = frames.normals[row_idx]
        tx, ty = frames.tangents[row_idx]
        ia, ib = int(node), n + int(node)
        rows += [ia, ia, ib, ib]
        cols += [ia, ib, ia, ib]
        vals += [nx, tx, ny, ty]
        touched[int(node)] = True
    for k in range(mesh.num_boundary_edges):
        node = int(fe.boundary_mid_nodes[k])
        nx, ny = mesh.boundary_normals[k]
        tx, ty = mesh.boundary_tangents[k]
        ia, ib = node, n + node
        rows += [ia, ia, ib, ib]
        cols += [ia, ib, ia, ib]
        vals += [nx, tx, ny, ty]
        touched[node] = True
    interior = np.flatnonzero(~touched)
    for node in interior:
        rows += [node, n + node]
        cols += [node, n + node]
        vals += [1.0, 1.0]
    T = sparse.coo_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()
    T.sort_indices()
    return T


def build_constraint_plan(fe, data, quad_order=4):
    """Construct the constraint plan for one problem on ``fe``'s mesh.

    The guard row activates exactly when the domain is the disk and every
    friction sample on the boundary is at most 1e-14 in magnitude.
    """
    mesh = fe.mesh
    frames = boundary_frames(mesh)
    n = fe.num_velocity_nodes
    rule = fem.quadrature(quad_order)
    pts = fe.boundary_quad_coords(rule)
    avals = sample_alpha(data.alpha, pts, mesh.boundary_markers)
    alpha_is_zero = bool(np.all(np.abs(avals) <= ALPHA_ZERO_TOL))

    eliminated = []
    for row_idx, node in enumerate(frames.vertex_ids):
        eliminated.append(int(node))                 # normal coordinate
        if frames.corner[row_idx]:
            eliminated.append(n + int(node))         # tangential too
    eliminated.extend(int(m) for m in fe.boundary_mid_nodes)
    eliminated = np.unique(np.array(eliminated, dtype=np.int64))
    free = np.setdiff1d(np.arange(2 * n, dtype=np.int64), eliminated,
                        assume_unique=True)

    guard = None
    labels = ("pressure_gauge",)
    if mesh.domain_tag == "disk" and alpha_is_zero:
        guard = forms.boundary_rotation_functional(fe)
        labels = ("pressure_gauge", "kernel_guard")

    return ConstraintPlan(
        n_velocity=2 * n, n_pressure=fe.num_pressure_dofs,
        rotation=_rotation_matrix(fe, frames),
        eliminated=eliminated, free=free,
        gauge=forms.pressure_integral_vector(fe),
        guard=guard, alpha_is_zero=alpha_is_zero, labels=labels)


def build_dirichlet_plan(fe):
    """Plan clamping every boundary velocity node entirely (no-slip reference).

    Same assembly and reduction path as the slip plans, so limit studies
    compare like with like.
    """
    n = fe.num_velocity_nodes
    mesh = fe.mesh
    bnodes = np.unique(np.concatenate([mesh.boundary_edges.ravel(),
                                       fe.boundary_mid_nodes]))
    eliminated = np.unique(np.concatenate([bnodes, bnodes + n]))
    free = np.setdiff1d(np.arange(2 * n, dtype=np.int64), eliminated,
                        assume_unique=True)
    return ConstraintPlan(
        n_velocity=2 * n, n_pressure=fe.num_pressure_dofs,
        rotation=sparse.identity(2 * n, format="csr"),
        eliminated=eliminated, free=free,
        gauge=forms.pressure_integral_vector(fe),
        guard=None, alpha_is_zero=False, labels=("pressure_gauge",))


def apply_plan(plan, A, B, ell):
    """Rotate, eliminate and border the assembled blocks.

    Returns a :class:`SaddleSystem` over the unknowns
    ``[velocity_free, pressure, gauge multiplier?, guard multiplier?]``.
    """
    T = plan.rotation
    f = plan.free
    A_ff = plan.reduce(A)
    B_f = (B @ T).tocsr()[:, f]
    ell_f = (T.T @ ell)[f]

    blocks = [[A_ff, B_f.T], [B_f, None]]
    rhs = [ell_f, np.zeros(plan.n_pressure)]
    if plan.gauge is not None:
        m = sparse.csr_matrix(plan.gauge[None, :])
        blocks[0].append(None)
        blocks[1].append(m.T)
        blocks.append([None, m, None])
        rhs.append(np.zeros(1))
    if plan.guard is not None:
        g = sparse.csr_matrix((T.T @ plan.guard)[f][None, :])
        for k, row in enumerate(blocks):
            row.append(g.T if k == 0 else None)
        blocks.append([g] + [None] * (len(blocks[0]) - 1))
        rhs.append(np.zeros(1))
    matrix = sparse.bmat(blocks, format="csr")
    matrix.sort_indices()
    return SaddleSystem(matrix=matrix, rhs=np.concatenate(rhs),
                        n_velocity=len(f), n_pressure=plan.n_pressure,
                        multipliers=plan.labels)
