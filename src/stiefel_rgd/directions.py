"""Search directions: exact and inexact energy-adaptive gradients, and the
preconditioned direct-constrained-minimization (DCM) direction."""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _gradient(state: IterateState, config: SolveConfig, kind: str) -> SearchDirection:
    """eta = X G^{-1} - phi, with X from a solve of A X = phi started at the
    iterate's multiplier warm start phi Lambda^{-1} and G = [[phi, X]] the
    Gram matrix of phi against X. The N x N inverse G^{-1} = L^{-T} L^{-1}
    comes from the Cholesky factor G = L L^T and mixes X in one matrix
    product. A singular G raises DegenerateFrameError, with a hint to raise
    the budget when the solve was truncated (``config.fixed_iters``)."""
    x, report = solve(state.op, state.phi, config, warm_start=state.multiplier_warm_start)
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
    )


def riemannian_gradient(state: IterateState, config: SolveConfig) -> SearchDirection:
    """Negative Riemannian gradient in the energy-adaptive metric at ``state``.

    Solves A X = phi to the configured tolerance, then eta = X G^{-1} - phi
    with G the Gram matrix of phi against X. The result is tangent up to
    the linear-solve tolerance. The Krylov solve starts from the iterate's
    multiplier warm start phi Lambda^{-1}, whose residual -r Lambda^{-1}
    vanishes with the eigenvector residual r; for orthonormal phi,
    X G^{-1} - phi vanishes at that guess, so the direction is carried by
    the CG correction alone.
    """
    if config.fixed_iters is not None:
        raise ValueError("the exact gradient requires a tolerance-mode solver config")
    return _gradient(state, config, EXACT_GRAD)


def inexact_gradient(
    state: IterateState, fixed_iters: int, config: SolveConfig
) -> SearchDirection:
    """Gradient surrogate from a fixed number of preconditioned CG steps.

    Built exactly like the exact gradient, from the same warm start, but
    with the solve of A Y = phi truncated after ``fixed_iters`` steps. Not
    re-projected: the retraction absorbs the normal component.
    """
    return _gradient(state, replace(config, fixed_iters=fixed_iters), INEXACT_GRAD)


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
    state: IterateState, kind: str, config: SolveConfig, fixed_iters: int
) -> SearchDirection:
    """The search direction of kind ``kind`` at the evaluated iterate ``state``."""
    if kind == EXACT_GRAD:
        return riemannian_gradient(state, config)
    if kind == INEXACT_GRAD:
        return safeguarded_inexact_gradient(state, fixed_iters, config)
    if kind == DCM:
        return dcm_direction(state, fixed_iters, config)
    raise ValueError(f"unknown direction kind {kind!r}")
