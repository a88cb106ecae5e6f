"""Impermeability constraints, pressure gauge and the disk kernel guard.

Boundary velocity nodes are rotated into their local (normal, tangent)
frame by an orthogonal 2x2 block; the normal coordinate is then eliminated.
Corner vertices (square corners) are clamped entirely, since two
non-parallel impermeability conditions meet there.  The pressure mean is
pinned by one dense multiplier row, and on the disk with vanishing friction
an additional multiplier row removes the rigid rotation from the kernel.
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
    labels : tuple
        Names of the multipliers, in row order.
    """

    n_velocity: int
    n_pressure: int
    rotation: sparse.csr_matrix
    eliminated: np.ndarray
    free: np.ndarray
    gauge: np.ndarray | None = None
    guard: np.ndarray | None = None
    labels: tuple = ()

    def __post_init__(self):
        T = self.rotation
        for a in (T.data, T.indices, T.indptr, self.eliminated, self.free,
                  self.gauge, self.guard):
            if a is not None:
                a.flags.writeable = False

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
    """The plan eliminating the unique ``eliminated`` after ``rotation``,
    with the pressure gauge and no guard."""
    n = fe.num_velocity_dofs
    return ConstraintPlan(
        n_velocity=n, n_pressure=fe.num_pressure_dofs, rotation=rotation,
        eliminated=eliminated,
        free=np.setdiff1d(np.arange(n, dtype=np.int64), eliminated,
                          assume_unique=True),
        gauge=forms.pressure_integral_vector(fe), labels=("pressure_gauge",))


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


def friction_vanishes(fe, alpha):
    """Whether every boundary sample of ``alpha`` on the friction form's
    rule is at most 1e-14.

    ``sample_alpha`` refuses a negative or non-finite sample with
    ``InvalidArgument``.
    """
    _, avals = forms.friction_samples(fe, alpha)
    return bool(np.all(np.abs(avals) <= ALPHA_ZERO_TOL))


def build_constraint_plan(fe, data):
    """The shared ``fe.slip_plan()``, with the guard row exactly when the
    domain is the disk and ``friction_vanishes``."""
    plan = fe.slip_plan()
    if friction_vanishes(fe, data.alpha) and fe.mesh.domain_tag == "disk":
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
    return SaddleSystem(matrix=matrix, rhs=np.concatenate(rhs))
