"""Columnwise SPD linear solves against the anchored elliptic operator.

Preconditioned conjugate gradients, to a relative tolerance or, for
inexact directions, for a fixed iteration count. All N columns run as one
blocked PCG: each step makes one sparse product and one preconditioner
application on the block of columns still running, while every column
keeps its own step lengths, iteration count and stopping test. It is not
block CG: no search space is shared between columns. The block state is
F-ordered, so every column is contiguous: the sparse product
(``models.csr_product``) runs the CSR kernel on each column in place, and
no step copies the block to another layout.

The kinetic-shift preconditioner is the exact inverse of ``laplacian + c
I``. A tolerance-mode solve takes ``c`` from its operator, the mean of the
diagonal shift ``V + kappa rho + shift`` but at least
``KINETIC_SHIFT_C0``, and builds its map in O(n_dof); a fixed-mode solve
applies the map of ``c = KINETIC_SHIFT_C0``, built once per grid
(``_preconditioner_apply`` says why). ``_kinetic_shifts`` builds both and
describes the three implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, OperatorNotSPDError, ShapeError
from .frames import DIRICHLET, Frame, GridSpec, same_grid
from .models import DiscreteOperatorA, csr_product, dpttrf, dpttrs, laplacian

PRECONDITIONER_NONE = "none"
PRECONDITIONER_KINETIC_SHIFT = "kinetic_shift"
PRECONDITIONER_KINDS = (PRECONDITIONER_NONE, PRECONDITIONER_KINETIC_SHIFT)

KINETIC_SHIFT_C0 = 1.0

ColumnMap = Callable[[np.ndarray], np.ndarray]


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
    of ``laplacian + c I``: with ``c`` the operator's mean diagonal shift
    in tolerance mode, ``KINETIC_SHIFT_C0`` in fixed mode (see
    ``_preconditioner_apply``).

    Tolerance mode tests a column only after a step, so a column whose start
    already meets ``rel_tol`` (without being exact) still takes one step.
    The exact gradient relies on that step: its recycled starts meet
    ``rel_tol`` on most columns, and stopping those at 0 steps took the 1D
    N=3 ``rgd_fixed`` run from frame 1000 from 481 to 2277 iterations and
    ended the 32x32 N=4 exact ``rgd_ls`` run in ``line_search_failure``
    (README, "Numerical notes").
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
def _kinetic_shifts(grid: GridSpec) -> Tuple[np.ndarray, Callable[[float], ColumnMap], ColumnMap]:
    """The kinetic-shift preconditioners of ``grid``: the diagonal of
    ``laplacian(grid)``, read-only, the map ``c -> M_c`` whose ``M_c`` is
    the exact inverse of ``laplacian(grid) + c I``, on one column or an
    F-ordered block of columns, and the fixed-mode map ``M_c0`` with ``c0 =
    KINETIC_SHIFT_C0``. What does not depend on ``c`` is built here, once
    per grid, and so is ``M_c0``; each other ``M_c`` costs O(n_dof) to
    build.

    - 1D Dirichlet: the operator is tridiagonal. LAPACK ``dpttrf`` factors
      it as L D L^T (one call per ``c``, O(n)), and each application is one
      ``dpttrs`` call on the whole block: O(n) per column, each column
      solved on its own, an F-ordered result for a block and a vector for a
      vector.
    - 1D periodic: the cyclic stencil is a tridiagonal ``B`` plus the
      rank-one ``s w w^T``, with ``s = 1 / h^2`` (its corner entry,
      negated) and ``w = e_0 - e_{n-1}``: ``B`` has ``s`` less on its first
      and last diagonal entries and no corners, so ``B + c I`` is SPD for
      ``c > 0``. The map is ``dpttrf``/``dpttrs`` on ``B + c I`` with the
      Sherman-Morrison correction ``y - z s (w^T y) / (1 + s w^T z)``, where
      ``y = (B + c I)^-1 r`` and ``z = (B + c I)^-1 w`` (one ``z`` per
      ``c``): O(n) per column, each column on its own. With n = 2 the
      stencil is tridiagonal itself and is solved as in the Dirichlet case.
    - 2D: the operator is the Kronecker sum ``L1 (x) I + I (x) L1 + c I``
      of the 1D stencil ``L1 = q diag(lam) q^T`` (Dirichlet and periodic
      stencils alike are symmetric, so ``eigh`` serves both), and its
      inverse is ``(q (x) q) diag(inv) (q (x) q)^T`` with ``inv = 1 /
      (lam_i + lam_j + c)``: the fast diagonalization method of Lynch,
      Rice and Thomas (1964). Each column is reshaped to an ``(n, n)``
      array ``X`` (grid index ``i * n + j`` at ``X[i, j]``) and mapped to
      ``q (q^T X q * inv) q^T``: four dense ``(n, n)`` products per column,
      each column its own matmul slab, so a column's result does not depend
      on the rest of the block. An F-ordered block reshapes without a copy
      and comes back F-ordered. Nothing is factored in 2D.
    """
    lap = laplacian(grid)
    lap_diagonal = lap.diagonal()
    lap_diagonal.setflags(write=False)
    n = grid.points_per_axis
    if grid.dimension == 1:
        off = lap.diagonal(1)
        corner = -lap[0, n - 1] if grid.boundary != DIRICHLET and n > 2 else 0.0
        tridiagonal = lap_diagonal.copy()
        tridiagonal[[0, -1]] -= corner
        w = np.zeros(n)
        w[[0, -1]] = 1.0, -1.0

        def shifted(c: float) -> ColumnMap:
            d, e, info = dpttrf(tridiagonal + c, off)
            if info != 0:
                raise OperatorNotSPDError("kinetic-shift operator is not positive definite")
            if not corner:
                return lambda r: dpttrs(d, e, r)[0]
            z = dpttrs(d, e, w)[0]
            scale = corner / (1.0 + corner * (z[0] - z[-1]))

            def kinetic_shift(r: np.ndarray) -> np.ndarray:
                y = dpttrs(d, e, r)[0]
                y -= np.multiply.outer(z, scale * (y[0] - y[-1]))
                return y

            return kinetic_shift

        return lap_diagonal, shifted, shifted(KINETIC_SHIFT_C0)
    stencil = laplacian(GridSpec(1, n, grid.domain_length, grid.boundary))
    lam, q = np.linalg.eigh(stencil.toarray())
    lam_sum = lam[:, None] + lam[None, :]

    def shifted(c: float) -> ColumnMap:
        inv = 1.0 / (lam_sum + c)

        def kinetic_shift(r: np.ndarray) -> np.ndarray:
            y = q.T @ r.T.reshape(-1, n, n) @ q
            y *= inv
            return (q @ y @ q.T).reshape(r.shape[::-1]).T

        return kinetic_shift

    return lap_diagonal, shifted, shifted(KINETIC_SHIFT_C0)


def _preconditioner_apply(
    kind: str, op: DiscreteOperatorA, tolerance_mode: bool = False
) -> ColumnMap:
    """The chosen preconditioner as a map on one column or a block of
    columns: the identity, or a kinetic-shift inverse on the operator's grid.

    In tolerance mode (a ``solve`` without ``fixed_iters``) the
    kinetic-shift map is built for ``op``: the inverse of ``laplacian + c
    I``, with ``c`` the mean of the operator's diagonal shift ``V +
    kappa rho + shift``, floored at ``KINETIC_SHIFT_C0``. There the
    preconditioner changes only the cost of a solve, whose answer
    ``rel_tol`` fixes. Otherwise the map is the fixed-mode map of
    ``_kinetic_shifts``, built once per grid: in fixed mode the
    preconditioner is part of the direction a truncated solve returns, and
    ``apply_preconditioner`` applies that map too.
    """
    if kind == PRECONDITIONER_NONE:
        return lambda r: r
    if kind == PRECONDITIONER_KINETIC_SHIFT:
        lap_diagonal, shifted, fixed = _kinetic_shifts(op.model.grid)
        if not tolerance_mode:
            return fixed
        # The bits of np.mean, without its Python-level wrapper.
        mean_shift = float((op.diagonal - lap_diagonal).sum()) / lap_diagonal.size
        return shifted(max(KINETIC_SHIFT_C0, mean_shift))
    raise ValueError(f"unknown preconditioner {kind!r}")


def apply_preconditioner(kind: str, op: DiscreteOperatorA, r: Frame) -> Frame:
    """Apply the chosen preconditioner to every column of a residual frame:
    the map a fixed-mode solve applies."""
    values = _preconditioner_apply(kind, op)(r.values)
    return r if values is r.values else Frame._wrap(values, r.grid)


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
    apply_m: ColumnMap,
    rel_tol: float,
    max_iters: int,
    fixed_iters: Optional[int],
) -> Tuple[np.ndarray, List[int], List[float]]:
    """Preconditioned CG on every column of ``b`` at once.

    Each column runs its own recursion, with its own step lengths, stopping
    test and iteration count, exactly as if it were solved alone; only the
    work is shared: one sparse product and one preconditioner application
    per step on the F-ordered block of columns still running, each of
    which returns an F-ordered block. A column stops on a
    zero right-hand side (0 iterations, zero solution), on ``rz == 0``, on
    reaching the budget, or in tolerance mode once its recursive residual
    and then its true residual fall below ``rel_tol`` times its norm. The
    tolerance is tested after each step, never at the start, so a nonzero
    column takes at least one step unless its start is exact (``rz == 0``);
    SolveConfig says why.
    Returns the solutions and, per column, the iteration count and the
    final relative residual, all written out by ``stop`` when the column
    stops: the recursive residual in fixed mode, the true one in tolerance
    mode, where the columns stopping short of the tolerance at one step
    share one sparse product for it. A zero start takes ``r = b`` and
    fixed mode makes no final product, so a fixed-``k`` solve makes ``k``
    sparse products from a zero start and ``k + 1`` from a warm start.
    """
    n_dof, n_cols = b.shape
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
        nonlocal cols, tols, xs, r, p, rz, step
        running = _columns(positions, len(cols))
        if fixed_iters is not None:
            norms = np.sqrt(_column_dots(r, r))[running].tolist()
        else:
            true_r = (b[:, _columns([cols[i] for i in positions], n_cols)]
                      - csr_product(matrix, xs[:, running]))
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
        step = step[:, :len(keep)]
        return True

    running = _columns(cols, n_cols)
    if x0 is None:
        # A zero start leaves r = b: skip the product with the zero block.
        xs = np.zeros((n_dof, len(cols)), order="F")
        r = np.array(b[:, running], order="F")
    else:
        xs = np.array(x0[:, running], order="F")
        r = b[:, running] - csr_product(matrix, xs)
    z = apply_m(r)
    p = np.array(z, order="F")
    rz = _column_dots(r, z)
    step = np.empty_like(xs)  # alpha p, in a buffer that shrinks with the block
    budget = fixed_iters if fixed_iters is not None else max_iters
    k = 0

    while True:
        if 0.0 in rz.tolist() and not stop([i for i, v in enumerate(rz.tolist()) if v == 0.0]):
            break
        ap = csr_product(matrix, p)
        pap = _column_dots(p, ap)
        if not all(v > 0.0 for v in pap.tolist()):
            raise OperatorNotSPDError("CG detected non-positive curvature")
        alpha = rz / pap
        xs += np.multiply(alpha, p, out=step)
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
    if not same_grid(b.grid, op.model.grid):
        raise ShapeError("right-hand side lives on a different grid")
    if warm_start is not None and (
        not same_grid(warm_start.grid, b.grid) or warm_start.n_orbitals != b.n_orbitals
    ):
        raise ShapeError("warm start is incompatible with the right-hand side")

    x, iterations, residuals = _pcg(
        op.matrix,
        b.values,
        warm_start.values if warm_start is not None else None,
        _preconditioner_apply(config.preconditioner, op, config.fixed_iters is None),
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
