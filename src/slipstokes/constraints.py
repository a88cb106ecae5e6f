"""Impermeability constraints, pressure gauge and the disk kernel guard.

The constrained velocity space (``v . n = 0`` at every boundary node) is
one sparse matrix ``P`` with orthonormal columns: boundary velocity nodes
are rotated into their (normal, tangent) frame by an orthogonal 2x2 block,
and ``P`` keeps the columns of the tangential coordinates (none at square
corners, where two impermeability conditions meet).  The pressure mean is
pinned by one dense multiplier row, and on the disk with vanishing
friction a second row removes the rigid rotation from the kernel.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse

from . import forms
from .mesh import boundary_frames
from .saddle import SaddleSystem

ALPHA_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class ConstraintPlan:
    """Recipe converting assembled blocks into a reduced saddle system.

    Plans are shared (see :func:`build_slip_plan`): frozen, with read-only
    arrays.

    Attributes
    ----------
    basis : scipy CSR, one row per velocity dof
        Orthonormal basis ``P`` of the constrained velocity space: ``P @ x``
        is a constrained velocity, and ``P.T @ v`` are the coordinates of
        ``v``'s orthogonal projection onto the space.
    gauge : array, one entry per pressure dof
        Mean-value row pinning the pressure.
    guard : array, one entry per velocity dof, or None
        Boundary rotation-moment row (unreduced coordinates); present
        exactly when the domain is the disk and friction vanishes.
    labels : tuple
        Names of the multipliers, in row order.
    """

    basis: sparse.csr_matrix
    gauge: np.ndarray
    guard: np.ndarray | None = None
    labels: tuple = ("pressure_gauge",)

    def __post_init__(self):
        P = self.basis
        for a in (P.data, P.indices, P.indptr, self.gauge, self.guard):
            if a is not None:
                a.flags.writeable = False

    def reduce(self, matrix):
        """``P^T matrix P``: a velocity operator on the constrained space."""
        return (self.basis.T @ matrix @ self.basis).tocsr()

    def add_velocity(self, system, A):
        """``system`` with ``P^T A P`` added to its velocity block."""
        R = self.reduce(A)
        R.resize(system.matrix.shape)
        return replace(system, matrix=system.matrix + R)

    def reconstruct(self, x):
        """Split a reduced solution into full velocity, pressure, multipliers."""
        nf, np_ = self.basis.shape[1], len(self.gauge)
        return (self.basis @ x[:nf], x[nf:nf + np_],
                dict(zip(self.labels, x[nf + np_:])))


def _rotation_matrix(fe, frames):
    """Orthogonal block-diagonal map from (normal, tangent) coords to (x, y).

    Blocks [[nx, tx], [ny, ty]] on (i, n + i) at boundary nodes, else 1.
    """
    n = fe.num_velocity_nodes
    x = np.concatenate([frames.vertex_ids, fe.boundary_mid_nodes])
    y = n + x
    nrm = np.vstack([frames.normals, fe.mesh.boundary_normals])
    tan = np.vstack([frames.tangents, fe.mesh.boundary_tangents])
    inner = np.setdiff1d(np.arange(n), x)
    inner = np.concatenate([inner, n + inner])
    vals = np.concatenate([nrm[:, 0], tan[:, 0], nrm[:, 1], tan[:, 1],
                           np.ones(len(inner))])
    T = sparse.coo_matrix((vals, (np.concatenate([x, x, y, y, inner]),
                                  np.concatenate([x, y, x, y, inner]))),
                          shape=(2 * n, 2 * n)).tocsr()
    T.sort_indices()
    return T


def _gauged_plan(fe, rotation, eliminated):
    """The plan keeping the columns of ``rotation`` outside the unique
    ``eliminated``, with the pressure gauge and no guard."""
    free = np.setdiff1d(np.arange(fe.num_velocity_dofs, dtype=np.int64),
                        eliminated, assume_unique=True)
    return ConstraintPlan(basis=rotation[:, free],
                          gauge=forms.pressure_integral_vector(fe))


def build_slip_plan(fe):
    """The data-free part of every slip plan on ``fe``'s mesh.

    Boundary nodes rotated into their frames, normal coordinates (both at
    corners) eliminated, and the pressure gauge.  ``fe.slip_plan()``
    builds it once per live system and shares it.
    """
    n = fe.num_velocity_nodes
    frames = boundary_frames(fe.mesh)
    return _gauged_plan(fe, _rotation_matrix(fe, frames), np.unique(
        np.concatenate([frames.vertex_ids, n + frames.vertex_ids[frames.corner],
                        fe.boundary_mid_nodes])))


def build_constraint_plan(fe, data):
    """The shared ``fe.slip_plan()``, with the guard row exactly when the
    domain is the disk and every boundary sample of ``alpha`` on the friction
    rule is at most ``ALPHA_ZERO_TOL`` (``sample_alpha`` refuses a negative
    or non-finite one with ``InvalidArgument``)."""
    plan = fe.slip_plan()
    _, avals = forms.friction_samples(fe, data.alpha)
    if np.all(np.abs(avals) <= ALPHA_ZERO_TOL) and fe.mesh.domain_tag == "disk":
        return replace(plan, guard=forms.boundary_rotation_functional(fe),
                       labels=("pressure_gauge", "kernel_guard"))
    return plan


def build_dirichlet_plan(fe):
    """Plan clamping every boundary velocity node entirely (no-slip reference).

    Same assembly and reduction path as the slip plans, so limit studies
    compare like with like.
    """
    n = fe.num_velocity_nodes
    bnodes = np.unique(np.concatenate([fe.mesh.boundary_edges.ravel(),
                                       fe.boundary_mid_nodes]))
    return _gauged_plan(fe, sparse.identity(2 * n, format="csr"),
                        np.unique(np.concatenate([bnodes, bnodes + n])))


def border(plan, B, ell):
    """The bordered :class:`SaddleSystem` with an empty velocity block, over
    ``[velocity_free, pressure, gauge multiplier, guard multiplier?]``."""
    P = plan.basis
    B_f = B @ P
    m = sparse.csr_matrix(plan.gauge[None, :])
    blocks = [[None, B_f.T, None], [B_f, None, m.T], [None, m, None]]
    rhs = [P.T @ ell, np.zeros(len(plan.gauge) + 1)]
    if plan.guard is not None:
        g = sparse.csr_matrix((P.T @ plan.guard)[None, :])
        for k, row in enumerate(blocks):
            row.append(g.T if k == 0 else None)
        blocks.append([g, None, None, None])
        rhs.append(np.zeros(1))
    matrix = sparse.bmat(blocks, format="csr")
    matrix.sort_indices()
    return SaddleSystem(matrix=matrix, rhs=np.concatenate(rhs))


def apply_plan(plan, A, B, ell):
    """The blocks reduced and bordered: ``border`` plus ``P^T A P``."""
    return plan.add_velocity(border(plan, B, ell), A)
