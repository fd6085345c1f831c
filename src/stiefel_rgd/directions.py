"""Search directions: exact and inexact energy-adaptive gradients, and the
preconditioned direct-constrained-minimization (DCM) direction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateFrameError
from .frames import Frame, inner_h, outer_product
from .models import IterateState
from .solvers import SolveConfig, solve

EXACT_GRAD = "exact_grad"
INEXACT_GRAD = "inexact_grad"
DCM = "dcm"


@dataclass
class SearchDirection:
    direction: Frame
    gram_of_direction: float  # shifted-form energy product of the direction
    inner_effort: int  # total inner Krylov iterations spent
    kind: str
    # X - phi Lambda^{-1} of a tolerance-mode gradient solve, recycled into
    # the next iterate's start; None for truncated solves and DCM.
    correction: Optional[Frame] = None


def _gradient(
    state: IterateState, config: SolveConfig, kind: str, start: Frame
) -> SearchDirection:
    """eta = X G^{-1} - phi, with X from a solve of A X = phi started at
    ``start`` and G = [[phi, X]] the Gram matrix of phi against X. The
    N x N inverse G^{-1} = L^{-T} L^{-1} comes from the Cholesky factor
    G = L L^T and mixes X in one matrix product. A singular G raises
    DegenerateFrameError, with a hint to raise the budget when the solve
    was truncated (``config.fixed_iters``). A tolerance-mode solve keeps
    its correction X - phi Lambda^{-1} on the result."""
    x, report = solve(state.op, state.phi, config, warm_start=start)
    g = outer_product(state.phi, x)
    try:
        lower = np.linalg.cholesky(0.5 * (g + g.T))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(
            "Gram matrix is numerically singular" if config.fixed_iters is None
            else "inexact solve produced a degenerate Gram matrix; increase fixed_iters"
        ) from exc
    lower_inv = np.linalg.inv(lower)
    eta = Frame._wrap(x.values @ (lower_inv.T @ lower_inv) - state.phi.values, x.grid)
    return SearchDirection(
        direction=eta,
        gram_of_direction=state.op.bilinear(eta, eta),
        inner_effort=report.total_iterations,
        kind=kind,
        correction=(x - state.multiplier_warm_start) if config.fixed_iters is None else None,
    )


def recycled_start(state: IterateState, correction: Optional[Frame]) -> Frame:
    """Start phi Lambda^{-1} + E diag(c) of the exact solve at ``state``.

    E is the previous iterate's ``correction`` and c_j = <E_j, rho_j> /
    <E_j, A E_j>, with rho = -r Lambda^{-1} the residual of phi Lambda^{-1},
    read from the state. This c_j minimizes the A-norm error of the start
    along E_j, so column by column that error is never larger than that of
    phi Lambda^{-1}; c_j = 0 where E_j = 0. One sparse product, A E.
    Without a correction the start is phi Lambda^{-1}.
    """
    guess = state.multiplier_warm_start
    if correction is None:
        return guess
    e = correction.values
    rho = -(state.r.values @ state.multiplier_inverse)
    e_rho = np.vecdot(e.T, rho.T)  # one dot per column
    e_ae = np.vecdot(e.T, (state.op.matrix @ e).T)
    c = np.divide(e_rho, e_ae, out=np.zeros_like(e_rho), where=e_ae > 0.0)
    start = e * c
    start += guess.values
    return Frame._wrap(start, guess.grid)


def riemannian_gradient(
    state: IterateState,
    config: SolveConfig,
    previous: Optional[SearchDirection] = None,
) -> SearchDirection:
    """Negative Riemannian gradient in the energy-adaptive metric at ``state``.

    Solves A X = phi to the configured tolerance, then eta = X G^{-1} - phi
    with G the Gram matrix of phi against X. The result is tangent up to
    the linear-solve tolerance. The Krylov solve starts from the iterate's
    multiplier warm start phi Lambda^{-1}, whose residual -r Lambda^{-1}
    vanishes with the eigenvector residual r; for orthonormal phi,
    X G^{-1} - phi vanishes at that guess, so the direction is carried by
    the CG correction alone. Given the previous iterate's direction
    ``previous``, the start adds that solve's correction, scaled per
    column by a Galerkin factor (see ``recycled_start``): consecutive
    corrections are close, so CG has less left to find.
    """
    if config.fixed_iters is not None:
        raise ValueError("the exact gradient requires a tolerance-mode solver config")
    correction = previous.correction if previous is not None else None
    return _gradient(state, config, EXACT_GRAD, recycled_start(state, correction))


def inexact_gradient(
    state: IterateState, fixed_iters: int, config: SolveConfig
) -> SearchDirection:
    """Gradient surrogate from a fixed number of preconditioned CG steps.

    Built like the exact gradient, but with the solve of A Y = phi
    truncated after ``fixed_iters`` steps and started from phi Lambda^{-1}
    alone: adding the recycled correction of the exact gradient to this
    start made the truncated directions worse (README, "Numerical notes").
    Not re-projected: the retraction absorbs the normal component.
    """
    return _gradient(state, replace(config, fixed_iters=fixed_iters), INEXACT_GRAD,
                     state.multiplier_warm_start)


def dcm_direction(
    state: IterateState, fixed_iters: int, config: SolveConfig
) -> SearchDirection:
    """Preconditioned residual direction of direct constrained minimization.

    Applies ``fixed_iters`` CG steps (zero start) to A z = r with
    r = A phi - phi [[phi, A phi]] the residual of ``state`` and returns
    eta = -z. Vanishes at critical points.
    """
    z, report = solve(state.op, state.r, replace(config, fixed_iters=fixed_iters))
    eta = -z
    return SearchDirection(
        direction=eta,
        gram_of_direction=state.op.bilinear(eta, eta),
        inner_effort=report.total_iterations,
        kind=DCM,
    )


def safeguarded_inexact_gradient(
    state: IterateState,
    fixed_iters: int,
    config: SolveConfig,
    max_doublings: int = 4,
) -> SearchDirection:
    """Inexact gradient with a descent safeguard.

    If the slope along the retraction ``<r, eta>`` (r the residual) is
    non-negative, the inner iteration count is doubled (up to
    ``max_doublings`` times); as a last resort the exact gradient is used.
    Effort of discarded attempts counts toward the returned direction.
    """
    effort = 0
    iters = fixed_iters
    for _ in range(max_doublings + 1):
        sd = inexact_gradient(state, iters, config)
        effort += sd.inner_effort
        if inner_h(state.r, sd.direction) < 0.0:
            return replace(sd, inner_effort=effort)
        iters *= 2
    sd = riemannian_gradient(state, config)
    return replace(sd, inner_effort=effort + sd.inner_effort)


def compute_direction(
    state: IterateState,
    kind: str,
    config: SolveConfig,
    fixed_iters: int,
    previous: Optional[SearchDirection] = None,
) -> SearchDirection:
    """The search direction of kind ``kind`` at the evaluated iterate ``state``.

    ``previous`` is the direction taken from the previous iterate; only the
    exact gradient reads it, to recycle its solve's correction.
    """
    if kind == EXACT_GRAD:
        return riemannian_gradient(state, config, previous)
    if kind == INEXACT_GRAD:
        return safeguarded_inexact_gradient(state, fixed_iters, config)
    if kind == DCM:
        return dcm_direction(state, fixed_iters, config)
    raise ValueError(f"unknown direction kind {kind!r}")
