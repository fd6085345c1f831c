"""Search directions: exact and inexact energy-adaptive gradients, and the
preconditioned direct-constrained-minimization (DCM) direction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateFrameError
from .frames import Frame, outer_product
from .models import EnergyModel, IterateState
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


def _gram_inverse_mix(x: Frame, phi: Frame) -> Frame:
    """X times the inverse Gram matrix [[phi, X]]^-1, via Cholesky."""
    g = outer_product(phi, x)
    g = 0.5 * (g + g.T)
    try:
        factor = sla.cho_factor(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError("Gram matrix is numerically singular") from exc
    return Frame(sla.cho_solve(factor, x.values.T).T, x.grid)


def _anchor(model: EnergyModel, phi: Frame, state: Optional[IterateState]) -> IterateState:
    return state if state is not None else IterateState.at(model, phi)


def riemannian_gradient(
    model: EnergyModel,
    phi: Frame,
    config: SolveConfig,
    state: Optional[IterateState] = None,
) -> SearchDirection:
    """Negative Riemannian gradient in the energy-adaptive metric.

    Solves A X = phi to the configured tolerance, then eta = X G^{-1} - phi
    with G the Gram matrix of phi against X. The result is tangent up to
    the linear-solve tolerance. ``state`` is the already evaluated iterate
    phi, if any; the other directions take it too.
    """
    if config.fixed_iters is not None:
        raise ValueError("the exact gradient requires a tolerance-mode solver config")
    op = _anchor(model, phi, state).op
    x, report = solve(op, phi, config)
    psi = _gram_inverse_mix(x, phi)
    eta = psi - phi
    return SearchDirection(
        direction=eta,
        gram_of_direction=op.bilinear(eta, eta),
        inner_effort=report.total_iterations,
        kind=EXACT_GRAD,
    )


def _multiplier_warm_start(phi: Frame, lam: np.ndarray) -> Frame:
    """Initial iterate phi Lambda^{-1}; its error tracks the outer iteration."""
    lam = 0.5 * (lam + lam.T)
    return Frame(np.linalg.solve(lam, phi.values.T).T, phi.grid)


def inexact_gradient(
    model: EnergyModel,
    phi: Frame,
    fixed_iters: int,
    config: SolveConfig,
    state: Optional[IterateState] = None,
) -> SearchDirection:
    """Gradient surrogate from a fixed number of preconditioned CG steps.

    The inner solve for A Y = phi starts from the multiplier-based warm
    start and is truncated after ``fixed_iters`` steps; the direction is
    assembled exactly like the exact gradient but from Y. Not re-projected:
    the retraction absorbs the normal component.
    """
    state = _anchor(model, phi, state)
    warm = _multiplier_warm_start(phi, state.lam)
    inner_config = replace(config, fixed_iters=fixed_iters)
    y, report = solve(state.op, phi, inner_config, warm_start=warm)
    try:
        psi = _gram_inverse_mix(y, phi)
    except DegenerateFrameError as exc:
        raise DegenerateFrameError(
            "inexact solve produced a degenerate Gram matrix; "
            "increase fixed_iters"
        ) from exc
    eta = psi - phi
    return SearchDirection(
        direction=eta,
        gram_of_direction=state.op.bilinear(eta, eta),
        inner_effort=report.total_iterations,
        kind=INEXACT_GRAD,
    )


def dcm_direction(
    model: EnergyModel,
    phi: Frame,
    fixed_iters: int,
    config: SolveConfig,
    state: Optional[IterateState] = None,
) -> SearchDirection:
    """Preconditioned residual direction of direct constrained minimization.

    Applies ``fixed_iters`` CG steps (zero start) to A z = r with
    r = A phi - phi [[phi, A phi]] and returns eta = -z. Vanishes at
    critical points.
    """
    state = _anchor(model, phi, state)
    inner_config = replace(config, fixed_iters=fixed_iters)
    z, report = solve(state.op, state.r, inner_config)
    eta = -z
    return SearchDirection(
        direction=eta,
        gram_of_direction=state.op.bilinear(eta, eta),
        inner_effort=report.total_iterations,
        kind=DCM,
    )


def safeguarded_inexact_gradient(
    model: EnergyModel,
    phi: Frame,
    fixed_iters: int,
    config: SolveConfig,
    max_doublings: int = 4,
    state: Optional[IterateState] = None,
) -> SearchDirection:
    """Inexact gradient with a descent safeguard.

    If the energy derivative along the direction is non-negative, the inner
    iteration count is doubled (up to ``max_doublings`` times); as a last
    resort the exact gradient is used. Effort of discarded attempts counts
    toward the returned direction.
    """
    state = _anchor(model, phi, state)
    effort = 0
    iters = fixed_iters
    for _ in range(max_doublings + 1):
        sd = inexact_gradient(model, phi, iters, config, state)
        effort += sd.inner_effort
        if state.derivative(sd.direction) < 0.0:
            return replace(sd, inner_effort=effort)
        iters *= 2
    sd = riemannian_gradient(model, phi, config, state)
    return replace(sd, inner_effort=effort + sd.inner_effort)


def compute_direction(
    model: EnergyModel,
    phi: Frame,
    kind: str,
    config: SolveConfig,
    fixed_iters: int = 3,
    state: Optional[IterateState] = None,
) -> SearchDirection:
    if kind == EXACT_GRAD:
        return riemannian_gradient(model, phi, config, state)
    if kind == INEXACT_GRAD:
        return safeguarded_inexact_gradient(model, phi, fixed_iters, config, state=state)
    if kind == DCM:
        return dcm_direction(model, phi, fixed_iters, config, state)
    raise ValueError(f"unknown direction kind {kind!r}")
