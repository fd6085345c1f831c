"""Search directions: exact and inexact energy-adaptive gradients, and the
preconditioned direct-constrained-minimization (DCM) direction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .frames import Frame, inner_h, outer_product
from .models import DiscreteOperatorA, IterateState, cholesky_solve, csr_product, spd_inverse
from .solvers import SolveConfig, solve

EXACT_GRAD = "exact_grad"
INEXACT_GRAD = "inexact_grad"
DCM = "dcm"


# The exact gradient's start is a Galerkin projection onto the corrections
# of the last WINDOW exact solves, every column of each. The Galerkin
# matrix G gets a ridge of RIDGE diag(G). It bounds how far round-off in G
# moves the start: with 1e-12, reordering the window's columns or
# recomputing A V by fresh products moved fixed-step starts by up to 3e-10
# relative; with 1e-9, by 5e-12 to 7e-12 (README, "Numerical notes").
WINDOW = 8
RIDGE = 1e-9


class CorrectionWindow:
    """The corrections E = X - phi Lambda^{-1} of the last ``WINDOW`` exact
    gradient solves as the columns of V, all N columns of each, with the
    Galerkin matrix G = V^T A V for the operator A whose diagonal is
    ``diagonal``.

    A descent run with the exact gradient builds one window and hands it to
    every exact gradient, which updates it in place; it always holds valid
    corrections with their G. Between iterates the anchored operator
    changes on its diagonal only (potential + kappa rho + shift on a fixed
    stencil), so ``move_to`` brings G to another iterate's operator without
    a sparse product: G_n = G_{n-1} + V^T diag(d_n - d_{n-1}) V. ``push``
    writes a new correction over the oldest one once the window is full and
    fills its rows and columns of G from V^T (A E), so an entry of G is
    moved at most WINDOW - 1 times before it is written afresh, and the
    round-off it gathers stays bounded. The columns are in ring order, not
    in age order. V is allocated once and F-ordered, so every column is
    contiguous.
    """

    def __init__(self, n_dof: int, n_orbitals: int):
        width = WINDOW * n_orbitals
        self._corrections = np.zeros((n_dof, width), order="F")
        self._gram = np.zeros((width, width), order="F")
        self.diagonal: Optional[np.ndarray] = None
        self._size = 0  # columns held, always the first ones
        self._next = 0  # first column of the next push

    def __len__(self) -> int:
        """The number of columns of V held, N per correction."""
        return self._size

    @property
    def corrections(self) -> np.ndarray:
        """V, a read-only ``(n_dof, size)`` view."""
        return _read_only(self._corrections[:, :self._size])

    @property
    def gram(self) -> np.ndarray:
        """G = V^T A V, a read-only ``(size, size)`` view."""
        return _read_only(self._gram[:self._size, :self._size])

    def move_to(self, op: DiscreteOperatorA) -> None:
        """Bring G to ``op`` by the change of the diagonal alone."""
        v = self.corrections
        self._gram[:self._size, :self._size] += v.T @ (v * (op.diagonal - self.diagonal)[:, None])
        self.diagonal = op.diagonal

    def push(self, correction: np.ndarray, op: DiscreteOperatorA) -> None:
        """Add ``correction``, found at ``op``, to a window at ``op``. One
        sparse product: A E of the new correction."""
        cols = slice(self._next, self._next + correction.shape[1])
        self._corrections[:, cols] = correction
        self._size = max(self._size, cols.stop)
        self._next = cols.stop % self._corrections.shape[1]
        block = self.corrections.T @ csr_product(op.matrix, correction)
        self._gram[:self._size, cols] = block
        self._gram[cols, :self._size] = block.T
        self.diagonal = op.diagonal


def _read_only(view: np.ndarray) -> np.ndarray:
    view.setflags(write=False)
    return view


@dataclass
class SearchDirection:
    """A direction at one iterate: the direction itself, its energy product,
    the inner Krylov effort it took and its kind. It carries no state to the
    next iterate; the exact gradient's window of corrections belongs to the
    descent run (``CorrectionWindow``)."""

    direction: Frame
    gram_of_direction: float  # shifted-form energy product of the direction
    inner_effort: int  # total inner Krylov iterations spent
    kind: str


def _gradient(
    state: IterateState, config: SolveConfig, kind: str,
    window: Optional[CorrectionWindow] = None,
) -> tuple[SearchDirection, Frame]:
    """eta = X G^{-1} - phi and X, with X from a solve of A X = phi
    started at ``recycled_start(state, window)`` and G = [[phi, X]] the
    Gram matrix of phi against X. The N x N inverse G^{-1} comes from one
    Cholesky factorization (``models.spd_inverse``) and mixes X in one
    matrix product. A G that is not numerically positive definite raises
    DegenerateFrameError, with a hint to raise the budget when the solve
    was truncated (``config.fixed_iters``)."""
    x, report = solve(state.op, state.phi, config, warm_start=recycled_start(state, window))
    gram_inverse = spd_inverse(
        outer_product(state.phi, x),
        "Gram matrix is numerically singular" if config.fixed_iters is None
        else "inexact solve produced a degenerate Gram matrix; increase fixed_iters")
    eta = Frame._wrap(x.values @ gram_inverse - state.phi.values, x.grid)
    return SearchDirection(
        direction=eta,
        gram_of_direction=state.op.bilinear(eta, eta),
        inner_effort=report.total_iterations,
        kind=kind,
    ), x


def recycled_start(state: IterateState, window: Optional[CorrectionWindow]) -> Frame:
    """Start phi Lambda^{-1} + V C of the exact solve at ``state``.

    V holds the corrections of ``window``, whose Galerkin matrix
    G = V^T A V this first brings to the state's operator A
    (``CorrectionWindow.move_to``), and C solves the Galerkin system
    G C = V^T rho, with rho = -r Lambda^{-1} the residual of
    phi Lambda^{-1}, read from the state. So each column of the start
    minimizes its A-norm error over phi_j Lambda^{-1} + span(V), which
    mixes all columns of all corrections in the window.

    Consecutive corrections are nearly parallel and shrink by orders of
    magnitude, so G is singular to working precision. The solve takes
    C = (G + D)^{-1} V^T rho with D = RIDGE diag(G), by one Cholesky
    factorization (``models.cholesky_solve``); a column of zero A-norm
    gets a ridge of RIDGE and so a zero coefficient. This is the system of
    G scaled to unit diagonal plus RIDGE I, and it changes the squared
    A-norm error of each column by
    -b^T (G + D)^{-1} (G + 2D) (G + D)^{-1} b <= 0 (b its column of
    V^T rho): never above that of phi Lambda^{-1}. Without a
    window, with an empty one, or when round-off leaves G + D not
    numerically positive definite, the start is phi Lambda^{-1} itself.
    """
    guess = state.multiplier_warm_start
    if window is None or len(window) == 0:
        return guess
    window.move_to(state.op)
    v, gram = window.corrections, window.gram
    norms = gram.diagonal()
    system = gram.copy()
    system.flat[::len(system) + 1] += RIDGE * np.where(norms > 0.0, norms, 1.0)  # its diagonal
    # -V^T rho = V^T r Lambda^{-1}, so the start subtracts V C.
    rhs = (v.T @ state.r.values) @ state.multiplier_inverse
    coeffs = cholesky_solve(system, rhs)
    if coeffs is None:
        return guess
    start = v @ coeffs
    return Frame._wrap(np.subtract(guess.values, start, out=start), guess.grid)


def riemannian_gradient(
    state: IterateState,
    config: SolveConfig,
    window: Optional[CorrectionWindow] = None,
) -> SearchDirection:
    """Negative Riemannian gradient in the energy-adaptive metric at ``state``.

    Solves A X = phi to the configured tolerance, then eta = X G^{-1} - phi
    with G the Gram matrix of phi against X. The result is tangent up to
    the linear-solve tolerance. The Krylov solve starts from the iterate's
    multiplier warm start phi Lambda^{-1}, whose residual -r Lambda^{-1}
    vanishes with the eigenvector residual r; for orthonormal phi,
    X G^{-1} - phi vanishes at that guess, so the direction is carried by
    the CG correction alone. Given a ``window`` of earlier exact solves'
    corrections, the start adds the Galerkin projection onto it (see
    ``recycled_start``): consecutive corrections are close, so CG has less
    left to find. This solve's correction X - phi Lambda^{-1} is then
    pushed into the window, at one sparse product. Without a window the
    solve starts from phi Lambda^{-1} and no correction is kept.
    """
    if config.fixed_iters is not None:
        raise ValueError("the exact gradient requires a tolerance-mode solver config")
    sd, x = _gradient(state, config, EXACT_GRAD, window)
    if window is not None:
        window.push(x.values - state.multiplier_warm_start.values, state.op)
    return sd


def _require_fixed(config: SolveConfig, kind: str) -> None:
    if config.fixed_iters is None:
        raise ValueError(f"the {kind} direction requires a fixed-iteration solver config")


def inexact_gradient(state: IterateState, config: SolveConfig) -> SearchDirection:
    """Gradient surrogate from a fixed number of preconditioned CG steps.

    Built like the exact gradient, but with the solve of A Y = phi
    truncated after ``config.fixed_iters`` steps and started from
    phi Lambda^{-1} alone: adding recycled corrections of the exact
    gradient to this start made the truncated directions worse (README,
    "Numerical notes"). Not re-projected: the retraction absorbs the normal
    component.
    """
    _require_fixed(config, INEXACT_GRAD)
    return _gradient(state, config, INEXACT_GRAD)[0]


def dcm_direction(state: IterateState, config: SolveConfig) -> SearchDirection:
    """Preconditioned residual direction of direct constrained minimization.

    Applies ``config.fixed_iters`` CG steps (zero start) to A z = r with
    r = A phi - phi [[phi, A phi]] the residual of ``state`` and returns
    eta = -z. Vanishes at critical points.
    """
    _require_fixed(config, DCM)
    z, report = solve(state.op, state.r, config)
    eta = -z
    return SearchDirection(
        direction=eta,
        gram_of_direction=state.op.bilinear(eta, eta),
        inner_effort=report.total_iterations,
        kind=DCM,
    )


def safeguarded_inexact_gradient(
    state: IterateState,
    config: SolveConfig,
    max_doublings: int = 4,
) -> SearchDirection:
    """Inexact gradient with a descent safeguard.

    The first attempt runs ``config``, a fixed-iteration config. If the
    slope along the retraction ``<r, eta>`` (r the residual) is
    non-negative, the inner iteration count is doubled (up to
    ``max_doublings`` times); as a last resort the exact gradient is used,
    with ``config`` in tolerance mode, started from phi Lambda^{-1} and
    given no window: the next direction is inexact again and would not
    read one. Effort of discarded attempts counts toward the returned
    direction.
    """
    effort = 0
    attempt = config
    for _ in range(max_doublings + 1):
        sd = inexact_gradient(state, attempt)
        effort += sd.inner_effort
        if inner_h(state.r, sd.direction) < 0.0:
            return replace(sd, inner_effort=effort)
        attempt = replace(attempt, fixed_iters=2 * attempt.fixed_iters)
    sd = riemannian_gradient(state, replace(config, fixed_iters=None))
    return replace(sd, inner_effort=effort + sd.inner_effort)


def compute_direction(
    state: IterateState,
    kind: str,
    config: SolveConfig,
    truncated: SolveConfig,
    window: Optional[CorrectionWindow] = None,
) -> SearchDirection:
    """The search direction of kind ``kind`` at the evaluated iterate ``state``.

    The exact gradient solves with the tolerance-mode ``config``; the
    inexact gradient and DCM with ``truncated``, its fixed-iteration
    counterpart, which the descent driver builds once per run. Only the
    exact gradient reads ``window``, the run's window of corrections: it
    projects its start onto it and pushes its own correction into it.
    Given no window, its solve starts from phi Lambda^{-1}.
    """
    if kind == EXACT_GRAD:
        return riemannian_gradient(state, config, window)
    if kind == INEXACT_GRAD:
        return safeguarded_inexact_gradient(state, truncated)
    if kind == DCM:
        return dcm_direction(state, truncated)
    raise ValueError(f"unknown direction kind {kind!r}")
