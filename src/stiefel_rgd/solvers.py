"""Columnwise SPD linear solves against the anchored elliptic operator.

Preconditioned conjugate gradients, to a relative tolerance or, for
inexact directions, for a fixed iteration count. All N columns run as one
blocked PCG: each step makes one sparse product and one preconditioner
application on the block of columns still running, while every column
keeps its own step lengths, iteration count and stopping test. It is not
block CG: no search space is shared between columns.

The kinetic-shift preconditioner is the exact inverse of ``laplacian + I``:
a sparse LU of the tridiagonal operator in 1D, and in 2D, where that
operator is the Kronecker sum ``L1 (x) I + I (x) L1 + I`` of the 1D stencil
``L1 = Q diag(lam) Q^T``, the product ``(Q (x) Q) diag(1 / (lam_i + lam_j +
1)) (Q (x) Q)^T`` (the fast diagonalization method of Lynch, Rice and
Thomas, 1964), applied to each column as four dense ``(n, n)`` matrix
products; nothing is factored in 2D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .errors import ConvergenceError, OperatorNotSPDError, ShapeError
from .frames import Frame, GridSpec
from .models import DiscreteOperatorA, laplacian

PRECONDITIONER_NONE = "none"
PRECONDITIONER_KINETIC_SHIFT = "kinetic_shift"
PRECONDITIONER_KINDS = (PRECONDITIONER_NONE, PRECONDITIONER_KINETIC_SHIFT)

KINETIC_SHIFT_C0 = 1.0


@dataclass
class SolveConfig:
    """How ``solve`` runs PCG on each column of A X = B.

    Tolerance mode (``fixed_iters`` None) stops a column once its recursive
    residual and then its true residual ``|b - A x|`` fall to ``rel_tol``
    times ``|b|``; a column still above that after ``max_iters`` steps
    makes ``solve`` raise ConvergenceError. Fixed mode (``fixed_iters`` set,
    for the truncated solves of inexact directions) stops a column after
    ``fixed_iters`` steps and ignores ``rel_tol`` and ``max_iters``. In
    either mode a column also stops early once ``r . M r`` is exactly 0.
    ``preconditioner`` is ``none`` or ``kinetic_shift``, the exact inverse
    of ``laplacian + I`` (see the module docstring).
    """

    rel_tol: float = 1e-8
    max_iters: int = 500
    fixed_iters: Optional[int] = None
    preconditioner: str = PRECONDITIONER_NONE

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.fixed_iters is not None and self.fixed_iters < 1:
            raise ValueError("fixed_iters must be at least 1 when present")
        if self.preconditioner not in PRECONDITIONER_KINDS:
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class SolveReport:
    """Per column: the Krylov steps taken and the final relative residual
    ``|b - A x| / |b|`` (0 for a zero column). Tolerance mode measures the
    true residual; fixed mode reports CG's recursive
    residual, which costs no extra sparse product and agrees with the true
    one to round-off over a few steps."""

    iterations_per_column: List[int] = field(default_factory=list)
    final_relative_residuals: List[float] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations_per_column))


@lru_cache(maxsize=None)
def _kinetic_shift_factorization(grid: GridSpec, c0: float):
    mat = (laplacian(grid) + c0 * sp.identity(grid.n_dof)).tocsc()
    return spla.splu(mat)


@lru_cache(maxsize=None)
def _kinetic_shift_eigenbasis(grid: GridSpec, c0: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvectors ``q`` of the 1D stencil ``L1 = q diag(lam) q^T`` of a 2D
    grid, and the ``(n, n)`` eigenvalues ``1 / (lam_i + lam_j + c0)`` of
    ``(laplacian(grid) + c0 I)^-1`` in the basis ``q (x) q``.

    Dirichlet and periodic stencils alike are symmetric, so ``eigh``
    serves both.
    """
    n = grid.points_per_axis
    stencil = laplacian(GridSpec(1, n, grid.domain_length, grid.boundary))
    lam, q = np.linalg.eigh(stencil.toarray())
    inv = 1.0 / (lam[:, None] + lam[None, :] + c0)
    for array in (q, inv):
        array.setflags(write=False)
    return q, inv


def _preconditioner_apply(kind: str, op: DiscreteOperatorA) -> Callable[[np.ndarray], np.ndarray]:
    """The chosen preconditioner as a map on one column or a block of columns.

    ``kinetic_shift`` is the exact inverse of ``laplacian + I``. In 1D the
    operator is tridiagonal (cyclic when periodic), so its sparse LU solve
    costs O(n) and stays. In 2D each column is reshaped to an ``(n, n)``
    array ``X`` (grid index ``i * n + j`` at ``X[i, j]``) and mapped to
    ``q (q^T X q * inv) q^T`` in the tensor eigenbasis of the 1D stencil:
    four dense ``(n, n)`` products per column, each column its own matmul
    slab, so a column's result does not depend on the rest of the block.
    An F-ordered block reshapes without a copy and comes back F-ordered.
    """
    if kind == PRECONDITIONER_NONE:
        return lambda r: r
    if kind == PRECONDITIONER_KINETIC_SHIFT:
        grid = op.model.grid
        if grid.dimension == 1:
            return _kinetic_shift_factorization(grid, KINETIC_SHIFT_C0).solve
        q, inv = _kinetic_shift_eigenbasis(grid, KINETIC_SHIFT_C0)
        n = grid.points_per_axis

        def kinetic_shift(r: np.ndarray) -> np.ndarray:
            y = q.T @ r.T.reshape(-1, n, n) @ q
            y *= inv
            return (q @ y @ q.T).reshape(r.shape[::-1]).T

        return kinetic_shift
    raise ValueError(f"unknown preconditioner {kind!r}")


def apply_preconditioner(kind: str, op: DiscreteOperatorA, r: Frame) -> Frame:
    """Apply the chosen preconditioner to every column of a residual frame."""
    values = _preconditioner_apply(kind, op)(r.values)
    return r if values is r.values else Frame._wrap(values, r.grid)


def _block_product(matrix: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """``block -> matrix @ block`` as an F-ordered block, so each column is
    contiguous.

    Calls the CSR kernel behind ``matrix @ block`` directly: on a 1D grid
    scipy's operator dispatch costs more than the product itself.
    """
    matrix = matrix.tocsr()
    n_rows, n_cols = matrix.shape
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data

    def product(block: np.ndarray) -> np.ndarray:
        out = np.zeros((n_rows, block.shape[1]))
        _sparsetools.csr_matvecs(
            n_rows, n_cols, block.shape[1], indptr, indices, data, block.ravel(), out.ravel()
        )
        return np.asfortranarray(out)

    return product


def _column_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each column of ``u`` with the same column of ``v``.

    Both blocks are F-ordered, so every column is contiguous and ``vecdot``
    runs the same BLAS dot on it as ``np.dot`` on that column alone.
    """
    return np.vecdot(u.T, v.T)


def _columns(positions: List[int], count: int):
    """Index of the given columns of a block of ``count``; a plain slice,
    which neither copies nor gathers, when that is all of them."""
    return slice(None) if len(positions) == count else positions


def _pcg(
    matrix: sp.csr_matrix,
    b: np.ndarray,
    x0: Optional[np.ndarray],
    apply_m: Callable[[np.ndarray], np.ndarray],
    rel_tol: float,
    max_iters: int,
    fixed_iters: Optional[int],
) -> Tuple[np.ndarray, List[int], List[float]]:
    """Preconditioned CG on every column of ``b`` at once.

    Each column runs its own recursion, with its own step lengths, stopping
    test and iteration count, exactly as if it were solved alone; only the
    work is shared: one sparse product and one preconditioner application
    per step on the block of columns still running. A column stops on a
    zero right-hand side (0 iterations, zero solution), on ``rz == 0``, on
    reaching the budget, or in tolerance mode once its recursive residual
    and then its true residual fall below ``rel_tol`` times its norm.
    Returns the solutions and, per column, the iteration count and the
    final relative residual, all written out by ``stop`` when the column
    stops: the recursive residual in fixed mode, the true one in tolerance
    mode, where the columns stopping short of the tolerance at one step
    share one sparse product for it. A zero start takes ``r = b`` and
    fixed mode makes no final product, so a fixed-``k`` solve makes ``k``
    sparse products from a zero start and ``k + 1`` from a warm start.
    """
    n_dof, n_cols = b.shape
    product = _block_product(matrix)
    b = np.asfortranarray(b)
    b_norms = np.sqrt(_column_dots(b, b)).tolist()
    x = np.zeros((n_dof, n_cols))
    iterations = [0] * n_cols
    residuals = [0.0] * n_cols
    cols = [j for j in range(n_cols) if b_norms[j] > 0.0]  # original index of each running column
    if not cols:
        return x, iterations, residuals
    tols = [rel_tol * b_norms[j] for j in cols]

    def stop(positions, confirm=False):
        """Write out the running columns at ``positions`` (iterate, iteration
        count, final relative residual) and drop them from the running
        block; return whether any column is left. The residual is the
        recursive one in fixed mode; in tolerance mode it is the true one,
        measured here in one sparse product. With ``confirm`` the true
        residual replaces the recursive one, and only the columns it
        confirms below the tolerance stop."""
        nonlocal cols, tols, xs, r, p, rz
        running = _columns(positions, len(cols))
        if fixed_iters is not None:
            norms = np.sqrt(_column_dots(r, r))[running].tolist()
        else:
            true_r = b[:, _columns([cols[i] for i in positions], n_cols)] - product(xs[:, running])
            norms = np.sqrt(_column_dots(true_r, true_r)).tolist()
            if confirm:
                r[:, running] = true_r
        final = {i: v for i, v in zip(positions, norms) if not confirm or v <= tols[i]}
        if not final:
            return True
        for i, v in final.items():
            x[:, cols[i]] = xs[:, i]
            iterations[cols[i]] = k
            residuals[cols[i]] = v / b_norms[cols[i]]
        keep = [i for i in range(len(cols)) if i not in final]
        if not keep:
            return False
        cols, tols = [cols[i] for i in keep], [tols[i] for i in keep]
        xs, r, p, rz = xs[:, keep], r[:, keep], p[:, keep], rz[keep]
        return True

    running = _columns(cols, n_cols)
    if x0 is None:
        # A zero start leaves r = b: skip the product with the zero block.
        xs = np.zeros((n_dof, len(cols)), order="F")
        r = np.array(b[:, running], order="F")
    else:
        xs = np.array(x0[:, running], order="F")
        r = b[:, running] - product(xs)
    z = apply_m(r)
    p = np.array(z, order="F")
    rz = _column_dots(r, z)
    budget = fixed_iters if fixed_iters is not None else max_iters
    k = 0

    while True:
        if 0.0 in rz.tolist() and not stop([i for i, v in enumerate(rz.tolist()) if v == 0.0]):
            break
        ap = product(p)
        pap = _column_dots(p, ap)
        if not all(v > 0.0 for v in pap.tolist()):
            raise OperatorNotSPDError("CG detected non-positive curvature")
        alpha = rz / pap
        xs += alpha * p
        ap *= alpha
        r -= ap
        k += 1
        if k == budget:
            stop(range(len(cols)))
            break
        if fixed_iters is None:
            near = [
                i for i, v in enumerate(_column_dots(r, r).tolist())
                if math.sqrt(v) <= tols[i]
            ]
            # Guard against recursion drift: accept only the true residual.
            if near and not stop(near, confirm=True):
                break
        z = apply_m(r)
        rz_next = _column_dots(r, z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    return x, iterations, residuals


def solve(
    op: DiscreteOperatorA,
    b: Frame,
    config: SolveConfig,
    warm_start: Optional[Frame] = None,
) -> Tuple[Frame, SolveReport]:
    """Solve A X = B columnwise; see SolveConfig for the stopping rule.

    Tolerance mode stops each column at a relative residual below
    ``rel_tol`` (or raises ConvergenceError with the report of every
    column) and reports each column's true residual; fixed mode runs at
    most ``fixed_iters`` Krylov steps per column, fewer for a column whose
    ``r . M r`` reaches 0 first, and reports each column's recursive
    residual. A zero column of B gets the zero solution in 0 iterations.
    """
    if b.grid != op.model.grid:
        raise ShapeError("right-hand side lives on a different grid")
    if warm_start is not None and (
        warm_start.grid != b.grid or warm_start.n_orbitals != b.n_orbitals
    ):
        raise ShapeError("warm start is incompatible with the right-hand side")

    x, iterations, residuals = _pcg(
        op.matrix,
        b.values,
        warm_start.values if warm_start is not None else None,
        _preconditioner_apply(config.preconditioner, op),
        config.rel_tol,
        config.max_iters,
        config.fixed_iters,
    )
    report = SolveReport(iterations, residuals)
    if config.fixed_iters is None:
        for j, rel_res in enumerate(residuals):
            if rel_res > config.rel_tol:
                raise ConvergenceError(
                    f"CG stalled on column {j}: relative residual {rel_res:.3e} "
                    f"after {iterations[j]} iterations",
                    report=report,
                )
    # Validated, unlike the frames computed from frames: a CG breakdown is
    # where a NaN can first appear.
    return Frame(x, b.grid), report
