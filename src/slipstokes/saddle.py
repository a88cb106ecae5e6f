"""Direct factorization of the bordered saddle-point systems.

One sparse LU factorization (SuperLU via scipy) handles both the symmetric
Stokes systems and the convection-augmented unsymmetric ones, whose
sparsity pattern ``A + C`` is still structurally symmetric.  SuperLU runs
in its symmetric mode: a minimum-degree ordering of the pattern of
``M^T + M`` applied to rows and columns alike, pivoting on the diagonal
wherever it is nonzero when its column is reached.  Pressures and
multipliers have a zero diagonal, so each such unknown is steered to
follow its mate, the neighbour of nonzero diagonal it couples to most
strongly: its column gets explicit zeros on the mate's pattern, and the
ordering then eliminates the mate first, which fills the diagonal (the
compressed-graph idea of Duff and Pralet, SIAM J. Matrix Anal. Appl. 27,
2005).  The pressure-gauge multiplier couples to pressures only and has
no mate; it may trade pivot rows with one pressure.  This keeps the fill
of the saddle systems, clamped ones included, close to that of a
symmetric factorization.

Static pivots say nothing about singularity, so it is detected on the
symmetrically equilibrated matrix ``D M D``: starting from
``D = diag(1 / sqrt(max_j |m_ij|))``, the same scaling is repeated on
``D M D`` (Ruiz's iteration) until every row maximum lies within a
factor 2 of one.  A zero row, an exactly singular factorization, or a
reciprocal 1-norm condition estimate of ``D M D`` below ``1e-13``
raises.  The test does not depend on the pivot order and barely on a
diagonal rescaling of the unknowns, so large friction coefficients pass
while the unguarded disk kernel (estimate 1e-18 or less) is refused.
A final residual gate rejects inaccurate solves.

Each gate exists once: ``factorize`` is the gated factorization,
``gated_solve`` the finiteness and residual gates around any solve, and
``factor_solve`` the two in a row.  ``krylov_solve`` solves a family of
systems on the factors it holds in :class:`Factors`: the first through
``factorize``, each later one by GMRES preconditioned with them under the
same residual gate, refactoring (the held factors dropped first) when
GMRES misses its cap, or up front when the last solve took over half of it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import NumericalError, SingularSystem

# Smallest admissible reciprocal 1-norm condition estimate of the
# symmetrically equilibrated system matrix (see ``factorize``).
PIVOT_RTOL = 1e-13
RESIDUAL_RTOL = 1e-10
# Relative residual of the preconditioned GMRES solves (``krylov_solve``)
# and the iteration cap of their single restart cycle; a solve that
# misses the residual within the cap is refactored.
KRYLOV_RTOL = 1e-12
KRYLOV_MAXITER = 50


@dataclass
class Factors:
    """SuperLU factors ``lu`` that passed ``factorize`` (None at first), and
    the GMRES iterations of the last solve on them; ``krylov_solve`` sets both."""

    lu: object = None
    iterations: int = 0


@dataclass
class SaddleSystem:
    """A reduced linear system: its matrix and right-hand side."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray


def _ranges(starts, counts):
    """The concatenated ranges ``starts[k] : starts[k] + counts[k]``."""
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return shift + np.arange(shift.size)


def _steered(matrix):
    """``matrix`` as CSC, zero-diagonal columns padded to their mates' patterns.

    The mate of a column ``j`` with ``m_jj == 0`` is the row ``i`` of
    largest ``|m_ij| > 0`` among those with ``m_ii != 0`` (the first such
    row on a tie); a column without one is left alone.  Column ``j`` gets
    an explicit zero in every row of the mate's pattern in ``M^T + M``
    (its column and its row) that it lacks, so ``j`` is adjacent to
    everything the mate is adjacent to.  Values are unchanged, and a
    matrix with a nonzero diagonal is returned as ``matrix.tocsc()``.
    """
    mat = matrix.tocsc()
    diag = mat.diagonal()
    cols = np.flatnonzero(diag == 0.0)
    counts = np.diff(mat.indptr)[cols]
    cols, counts = cols[counts > 0], counts[counts > 0]
    if not cols.size:
        return mat
    at = _ranges(mat.indptr[cols], counts)
    rows = mat.indices[at]
    weight = np.where(diag[rows] != 0.0, np.abs(mat.data[at]), 0.0)
    best = np.maximum.reduceat(weight, np.cumsum(counts) - counts)
    hits = np.flatnonzero(weight == np.repeat(best, counts))
    group = np.repeat(np.arange(cols.size), counts)[hits]
    first = hits[np.concatenate([[True], group[1:] != group[:-1]])]
    cols, mates = cols[best > 0.0], rows[first[best > 0.0]]
    patterns = (mat, matrix.tocsr())
    lengths = [np.diff(p.indptr)[mates] for p in patterns]
    extra = np.concatenate([p.indices[_ranges(p.indptr[mates], k)]
                            for p, k in zip(patterns, lengths)])
    where = np.concatenate([np.repeat(mat.indptr[cols + 1], k)
                            for k in lengths])
    added = np.zeros(mat.shape[1], dtype=np.int64)
    added[cols] = lengths[0] + lengths[1]
    steered = sparse.csc_matrix(
        (np.insert(mat.data, where, 0.0), np.insert(mat.indices, where, extra),
         mat.indptr + np.concatenate([[0], np.cumsum(added)])),
        shape=mat.shape)
    # Rows the column already holds merge with their zero: x + 0.0 == x.
    steered.sum_duplicates()
    return steered


def symmetric_lu(matrix):
    """SuperLU factors of a structurally symmetric sparse matrix.

    Symmetric mode: ``MMD_AT_PLUS_A`` ordering applied to rows and columns
    alike, and the diagonal pivot wherever it is nonzero
    (``diag_pivot_thresh=0``).  A zero diagonal (a pressure or multiplier)
    stays zero if the ordering reaches it before every neighbour it
    couples to, and SuperLU then swaps rows, at a large cost in fill.  So
    each zero-diagonal column first gets explicit zeros on the pattern of
    its mate (``_steered``): adjacent to everything the mate is adjacent
    to, it is ordered after the mate, whose elimination fills its
    diagonal.  A matrix with a nonzero diagonal reaches SuperLU as
    ``matrix.tocsc()``.  Raises scipy's ``RuntimeError`` on an exactly
    singular factorization.
    """
    return spla.splu(_steered(matrix), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _equilibration(matrix):
    """``(d, norm)``: the diagonal ``d`` with every row maximum of
    ``D |M| D`` near 1, ``D = diag(d)``, and the 1-norm of ``D M D``.

    Repeats ``d_i <- d_i / sqrt(row max i)`` until each row maximum is
    within a factor 2 of one.  The log-imbalance roughly halves per
    sweep, so the cap of 32 sweeps is rarely reached: the saddle systems
    here stop after two or three.  ``|M|`` lives only in this call.
    """
    a = abs(matrix).tocsr()
    row_max = a.max(axis=1).toarray().ravel()
    if not row_max.all():
        raise SingularSystem(f"{np.count_nonzero(row_max == 0.0)} zero rows")
    d = np.ones(a.shape[0])
    for _ in range(32):
        if (np.abs(np.log2(row_max)) <= 1.0).all():
            break
        d /= np.sqrt(row_max)
        row_max = d * np.maximum.reduceat(a.data * d[a.indices], a.indptr[:-1])
    return d, (d * (a.T @ d)).max()


def _equilibrated_rcond(norm, lu, d):
    """Reciprocal 1-norm condition estimate of ``D M D``, ``D = diag(d)``,
    whose 1-norm is ``norm``.

    ``(D M D)^-1 = D^-1 M^-1 D^-1`` is applied through the existing
    factors; ``onenormest`` with ``t=1`` draws no random numbers.
    """
    inverse = spla.LinearOperator(
        lu.shape, dtype=float,
        matvec=lambda x: lu.solve(np.ravel(x) / d) / d,
        rmatvec=lambda x: lu.solve(np.ravel(x) / d, trans="T") / d)
    return 1.0 / (norm * spla.onenormest(inverse, t=1))


def factorize(matrix):
    """Gated ``symmetric_lu`` factors of a square saddle matrix.

    The matrix is accepted when the reciprocal 1-norm condition estimate
    of the symmetrically equilibrated ``D M D`` (see ``_equilibration``)
    is at least ``PIVOT_RTOL``.  The estimate reuses the factors and
    leaves numpy's global random state untouched.

    Raises
    ------
    SingularSystem
        On a zero row, an exactly singular factorization, or an
        equilibrated condition estimate below ``PIVOT_RTOL``.
    NumericalError
        On non-finite entries or a non-square matrix.
    """
    if matrix.nnz and not np.isfinite(matrix.data).all():
        raise NumericalError("non-finite entries in system matrix")
    if matrix.shape[0] != matrix.shape[1]:
        raise NumericalError(f"shape mismatch: matrix {matrix.shape}")

    d, norm = _equilibration(matrix)
    try:
        lu = symmetric_lu(matrix)
    except RuntimeError as exc:
        raise SingularSystem(f"sparse factorization failed: {exc}") from exc
    rcond = _equilibrated_rcond(norm, lu, d)
    if not rcond >= PIVOT_RTOL:
        raise SingularSystem(
            f"equilibrated condition estimate {rcond:.3e} below {PIVOT_RTOL:.1e}; "
            "the operator has a kernel to working precision")
    return lu


def gated_solve(system, solve):
    """``x = solve(rhs)`` under the finiteness and residual gates.

    Raises
    ------
    NumericalError
        On a non-finite or mismatched right-hand side, a non-finite
        solution, or a residual relative to the right-hand side that is
        not at most ``RESIDUAL_RTOL`` (NaN included).
    """
    b = np.asarray(system.rhs, dtype=float)
    if not np.isfinite(b).all():
        raise NumericalError("non-finite entries in right-hand side")
    if system.matrix.shape[0] != b.shape[0]:
        raise NumericalError(
            f"shape mismatch: matrix {system.matrix.shape}, rhs {b.shape}")
    x = solve(b)
    if not np.isfinite(x).all():
        raise NumericalError("non-finite entries in solution")
    if b.any():
        residual = relative_residual(system, x)
        if not residual <= RESIDUAL_RTOL:
            raise NumericalError(
                f"solve residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e}")
    return x


def relative_residual(system, x):
    """``|M x - b| / |b|`` of ``x`` on ``system``; ``|M x|`` when ``b = 0``."""
    bnorm = np.linalg.norm(system.rhs)
    return float(np.linalg.norm(system.matrix @ x - system.rhs)
                 / (bnorm if bnorm > 0 else 1.0))


def factor_solve(system):
    """Solve a saddle system by sparse LU; deterministic for fixed input.

    ``factorize`` followed by ``gated_solve`` on its factors, so both
    gates apply.
    """
    return gated_solve(system, factorize(system.matrix).solve)


def krylov_solve(system, factors, x0):
    """GMRES on ``system``, preconditioned by ``factors``, warm-started at ``x0``.

    With empty ``factors``, ``system`` is factored (``x0`` unread);
    otherwise ``factors.lu`` factors the latest gated matrix ``M``.  The correction is
    ``x = x0 + M^-1 z`` with ``z`` from GMRES on ``K M^-1 z = b - K x0``.
    This is right preconditioning, so the residual GMRES minimizes is the
    true residual of ``x``.  One restart cycle of at most
    ``KRYLOV_MAXITER`` iterations aims at ``KRYLOV_RTOL * |b|``, and a
    result that reaches it then passes ``gated_solve``.  A solve that
    misses it within the cap is refactored through ``factorize`` instead,
    so it gets the full singularity gate; so is one whose held factors
    last took more than ``KRYLOV_MAXITER // 2`` iterations, up front,
    without the cycle (every capped cycle of the default friction sweeps
    followed such a solve).  The stale factor leaves ``factors`` before
    SuperLU runs, so one factor is resident, and the new one replaces it
    for the caller's next solves.  Returns ``(x, iterations)``, with
    ``iterations`` None where ``system`` was factored.
    """
    K = system.matrix
    if factors.lu is not None and factors.iterations <= KRYLOV_MAXITER // 2:
        b = np.asarray(system.rhs, dtype=float)
        op = spla.LinearOperator(K.shape, dtype=float,
                                 matvec=lambda z: K @ factors.lu.solve(z))
        residuals = []
        z, info = spla.gmres(op, b - K @ x0, rtol=0.0,
                             atol=KRYLOV_RTOL * np.linalg.norm(b),
                             restart=KRYLOV_MAXITER, maxiter=1,
                             callback=residuals.append, callback_type="pr_norm")
        if info == 0:
            factors.iterations = len(residuals)
            x = x0 + factors.lu.solve(z)
            return gated_solve(system, lambda _: x), len(residuals)
    factors.lu = None           # the stale factor dies before SuperLU runs
    factors.lu, factors.iterations = factorize(K), 0
    return gated_solve(system, factors.lu.solve), None
