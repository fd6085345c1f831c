"""Columnwise SPD linear solves against the anchored elliptic operator.

Two paths: preconditioned conjugate gradients (with optional fixed
iteration count for inexact directions) and a dense Cholesky fallback for
oracle-grade accuracy on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, OperatorNotSPDError, ShapeError
from .frames import Frame, GridSpec
from .models import DiscreteOperatorA, laplacian

KRYLOV_CG = "krylov_cg"
DIRECT_DENSE = "direct_dense"

PRECONDITIONER_NONE = "none"
PRECONDITIONER_DIAGONAL = "diagonal"
PRECONDITIONER_KINETIC_SHIFT = "kinetic_shift"
PRECONDITIONER_KINDS = (
    PRECONDITIONER_NONE,
    PRECONDITIONER_DIAGONAL,
    PRECONDITIONER_KINETIC_SHIFT,
)

DENSE_LIMIT = 8192
KINETIC_SHIFT_C0 = 1.0


@dataclass
class SolveConfig:
    method: str = KRYLOV_CG
    rel_tol: float = 1e-8
    max_iters: int = 500
    fixed_iters: Optional[int] = None
    preconditioner: str = PRECONDITIONER_NONE

    def __post_init__(self):
        if self.method not in (KRYLOV_CG, DIRECT_DENSE):
            raise ValueError(f"unknown solve method {self.method!r}")
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
    iterations_per_column: List[int] = field(default_factory=list)
    final_relative_residuals: List[float] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations_per_column))


@lru_cache(maxsize=None)
def _kinetic_shift_factorization(grid: GridSpec, c0: float):
    mat = (laplacian(grid) + c0 * sp.identity(grid.n_dof)).tocsc()
    return spla.splu(mat)


def _preconditioner_apply(kind: str, op: DiscreteOperatorA) -> Callable[[np.ndarray], np.ndarray]:
    """The chosen preconditioner as a map on one column or a block of columns."""
    if kind == PRECONDITIONER_NONE:
        return lambda r: r
    if kind == PRECONDITIONER_DIAGONAL:
        diag = op.diagonal
        return lambda r: (r.T / diag).T
    if kind == PRECONDITIONER_KINETIC_SHIFT:
        lu = _kinetic_shift_factorization(op.model.grid, KINETIC_SHIFT_C0)
        return lambda r: lu.solve(r)
    raise ValueError(f"unknown preconditioner {kind!r}")


def apply_preconditioner(kind: str, op: DiscreteOperatorA, r: Frame) -> Frame:
    """Apply the chosen preconditioner to every column of a residual frame."""
    values = _preconditioner_apply(kind, op)(r.values)
    return r if values is r.values else Frame(values, r.grid)


def _pcg_column(
    matrix: sp.csr_matrix,
    b: np.ndarray,
    x0: np.ndarray,
    apply_m: Callable[[np.ndarray], np.ndarray],
    rel_tol: float,
    max_iters: int,
    fixed_iters: Optional[int],
) -> Tuple[np.ndarray, int, float]:
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0

    x = np.array(x0, dtype=np.float64)
    r = b - matrix @ x
    z = apply_m(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    iterations = 0
    budget = fixed_iters if fixed_iters is not None else max_iters

    while iterations < budget:
        if rz == 0.0:
            break
        ap = matrix @ p
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            raise OperatorNotSPDError("CG detected non-positive curvature")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        if fixed_iters is None and np.linalg.norm(r) <= rel_tol * b_norm:
            # Guard against recursion drift: accept only the true residual.
            r = b - matrix @ x
            if np.linalg.norm(r) <= rel_tol * b_norm:
                break
        z = apply_m(r)
        rz_next = float(np.dot(r, z))
        beta = rz_next / rz
        p = z + beta * p
        rz = rz_next

    rel_res = float(np.linalg.norm(b - matrix @ x)) / b_norm
    return x, iterations, rel_res


def dense_inverse_applier(op: DiscreteOperatorA) -> Callable[[Frame], Frame]:
    """Columnwise exact inverse via a dense Cholesky factored once."""
    n_dof = op.model.grid.n_dof
    if n_dof > DENSE_LIMIT:
        raise ShapeError(f"dense path limited to {DENSE_LIMIT} unknowns, got {n_dof}")
    try:
        factor = sla.cho_factor(op.matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise OperatorNotSPDError("operator matrix is not positive definite") from exc

    def apply_inverse(b: Frame) -> Frame:
        return Frame(sla.cho_solve(factor, b.values), b.grid)

    return apply_inverse


def solve(
    op: DiscreteOperatorA,
    b: Frame,
    config: SolveConfig,
    warm_start: Optional[Frame] = None,
) -> Tuple[Frame, SolveReport]:
    """Solve A X = B columnwise; see SolveConfig for the stopping rule.

    Tolerance mode stops each column at a relative residual below
    ``rel_tol`` (or raises ConvergenceError with the partial report);
    fixed mode runs exactly ``fixed_iters`` Krylov steps per column.
    """
    if b.grid != op.model.grid:
        raise ShapeError("right-hand side lives on a different grid")
    if warm_start is not None and (
        warm_start.grid != b.grid or warm_start.n_orbitals != b.n_orbitals
    ):
        raise ShapeError("warm start is incompatible with the right-hand side")

    if config.method == DIRECT_DENSE:
        apply_inverse = dense_inverse_applier(op)
        x = apply_inverse(b)
        report = SolveReport()
        for j in range(b.n_orbitals):
            col_b = b.values[:, j]
            norm_b = float(np.linalg.norm(col_b))
            res = float(np.linalg.norm(col_b - op.matrix @ x.values[:, j]))
            report.iterations_per_column.append(0)
            report.final_relative_residuals.append(res / norm_b if norm_b > 0 else 0.0)
        return x, report

    apply_m = _preconditioner_apply(config.preconditioner, op)
    columns = []
    report = SolveReport()
    for j in range(b.n_orbitals):
        x0 = warm_start.values[:, j] if warm_start is not None else np.zeros(b.grid.n_dof)
        x, iters, rel_res = _pcg_column(
            op.matrix,
            b.values[:, j],
            x0,
            apply_m,
            config.rel_tol,
            config.max_iters,
            config.fixed_iters,
        )
        report.iterations_per_column.append(iters)
        report.final_relative_residuals.append(rel_res)
        if config.fixed_iters is None and rel_res > config.rel_tol:
            raise ConvergenceError(
                f"CG stalled on column {j}: relative residual {rel_res:.3e} "
                f"after {iters} iterations",
                report=report,
            )
        columns.append(x)
    return Frame(np.column_stack(columns), b.grid), report
