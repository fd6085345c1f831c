"""Iteration drivers: fixed-step descent and the non-monotone line search
with alternating Barzilai-Borwein trial steps, plus convergence diagnostics."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from .directions import EXACT_GRAD, CorrectionWindow, SearchDirection, compute_direction
from .errors import ConvergenceError, NumericalError, OperatorNotSPDError
from .frames import Frame, GridSpec, density, inner_h, random_frame
from .geometry import POLAR, retract, retract_qr_mgs
from .models import EnergyModel, IterateState, a0_norm, energy, multiplier_eigenvalues
from .solvers import SolveConfig

TERMINATION_RESIDUAL = "residual_tol"
TERMINATION_MAX_ITER = "max_iter"
TERMINATION_LINE_SEARCH = "line_search_failure"
TERMINATION_DEGENERATE = "degenerate_frame"
TERMINATION_SOLVER = "solver_failure"

# BB denominators below this relative floor fall back to the largest
# admissible trial step.
BB_DENOMINATOR_FLOOR = 1e-14


@dataclass
class LineSearchParams:
    alpha: float = 0.95
    beta: float = 1e-4
    delta: float = 0.5
    gamma_min: float = 1e-4
    gamma_max: float = 1.0
    gamma0: float = 1e-2
    max_backtracks: int = 25

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.gamma_min < self.gamma_max:
            raise ValueError("need 0 < gamma_min < gamma_max")
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be non-negative")


@dataclass
class IterationRecord:
    n: int
    energy: float
    residual_h_norm: float
    grad_a_norm: float
    step_size: float
    backtracks: int
    inner_iterations: int
    c_n: float
    q_n: float
    wall_time_s: float


@dataclass
class LineSearchFailure:
    """Why the line search rejected every trial step.

    ``decrement`` is the last trial's E_trial - E_n, ``target`` its Armijo
    target beta tau a_phi(eta, eta) and ``slack`` the non-monotone allowance
    c_n - E_n: the last trial failed because decrement > slack - target (up
    to rounding). ``backtracks`` counts the step reductions made, i.e.
    ``max_backtracks``.
    """

    decrement: float
    target: float
    slack: float
    backtracks: int


@dataclass
class RunResult:
    final_frame: Frame
    eigenvalues: np.ndarray
    history: List[IterationRecord]
    converged: bool
    termination: str
    frames: Optional[List[Frame]] = None
    line_search_failure: Optional[LineSearchFailure] = None

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def final_energy(self) -> float:
        return self.history[-1].energy

    @property
    def total_inner_iterations(self) -> int:
        return int(sum(rec.inner_iterations for rec in self.history))


def initial_frame(grid: GridSpec, n_orbitals: int, seed: int) -> Frame:
    """Seeded Gaussian frame orthonormalized by modified Gram-Schmidt."""
    rng = np.random.default_rng(seed)
    q, _ = retract_qr_mgs(random_frame(grid, n_orbitals, rng))
    return q


def nonmonotone_update(c: float, q: float, alpha: float, energy_new: float) -> Tuple[float, float]:
    """Advance the averaged-energy reference pair (c, q) after a step."""
    q_next = alpha * q + 1.0
    c_next = (1.0 - 1.0 / q_next) * c + energy_new / q_next
    return c_next, q_next


def bb_trial_step(n: int, s: Frame, y: Frame, params: LineSearchParams) -> float:
    """Alternating Barzilai-Borwein trial step from the last iterate/direction
    differences, clamped to [gamma_min, gamma_max]."""
    ss = inner_h(s, s)
    sy = abs(inner_h(s, y))
    floor = BB_DENOMINATOR_FLOOR * max(1.0, ss)
    if n % 2 == 1:
        gamma = ss / sy if sy >= floor else params.gamma_max
    else:
        yy = inner_h(y, y)
        gamma = sy / yy if yy >= floor else params.gamma_max
    return max(params.gamma_min, min(gamma, params.gamma_max))


def line_search(
    model: EnergyModel,
    state: IterateState,
    sd: SearchDirection,
    gamma: float,
    c: float,
    params: Optional[LineSearchParams],
    retraction: str,
) -> Union[Tuple[IterateState, float, int], LineSearchFailure]:
    """One step from ``state`` along ``sd.direction``, with trial step ``gamma``.

    Backtracks tau = gamma delta^k, k = 0, ..., max_backtracks, until the
    non-monotone Armijo condition
    E(R(phi, tau eta)) <= c - beta tau a_phi(eta, eta)
    holds against the reference energy ``c``. Returns the accepted iterate's
    state, its step tau and the backtracks k. Each trial's density is
    computed once; the accepted trial is evaluated once, from that density,
    and keeps the energy the test read. When every trial fails, returns the
    LineSearchFailure of the last one. With ``params`` None (the
    fixed-step driver) the one trial at ``gamma`` is taken without a test.
    """
    for k in range(1 if params is None else params.max_backtracks + 1):
        tau = gamma if params is None else gamma * params.delta**k
        candidate = retract(state.phi, tau * sd.direction, retraction)
        rho = density(candidate)
        e_trial = energy(model, candidate, rho)
        target = 0.0 if params is None else params.beta * tau * sd.gram_of_direction
        if params is None or e_trial <= c - target:
            return IterateState.at(model, candidate, e_trial, rho), tau, k
    return LineSearchFailure(e_trial - state.energy, target, c - state.energy, k)


def _descend(
    model: EnergyModel,
    phi0: Frame,
    params: Optional[LineSearchParams],
    fixed_tau: Optional[float],
    direction_kind: str,
    retraction: str,
    tol: float,
    max_iter: int,
    config: SolveConfig,
    fixed_iters: int,
    log_frames: bool,
) -> RunResult:
    """The descent loop shared by both drivers.

    Each pass evaluates the direction at the current iterate, stops on a
    failed Krylov solve of that direction (its record counts the failed
    solve's steps, when the error reports them), on a degenerate frame, on
    ``tol`` or at ``max_iter``, and otherwise hands the trial step to
    ``line_search``: ``fixed_tau`` with ``params`` None, else the
    alternating BB step (``gamma0`` at the first iterate). It appends one
    IterationRecord per visited iterate, with the step and backtracks that
    left it. ``config`` is the exact gradient's tolerance-mode solver
    config; the inexact and DCM directions run it truncated at
    ``fixed_iters`` steps, a config built once here. An exact-gradient run
    also builds here the one ``CorrectionWindow`` that every exact gradient
    projects its start onto and pushes its correction into; the other kinds
    get none. With a fixed step the reference pair stays
    (c_n, q_n) = (E_n, 1); otherwise it follows
    ``nonmonotone_update``. A failed line search ends the run and its
    LineSearchFailure is kept on the result.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    history: List[IterationRecord] = []
    frames: Optional[List[Frame]] = [] if log_frames else None
    truncated = replace(config, fixed_iters=fixed_iters)
    window = (CorrectionWindow(phi0.grid.n_dof, phi0.n_orbitals)
              if direction_kind == EXACT_GRAD else None)
    rho = density(phi0)
    state = IterateState.at(model, phi0, energy(model, phi0, rho), rho)
    prev_phi: Optional[Frame] = None
    prev_eta: Optional[SearchDirection] = None
    c, q = state.energy, 1.0
    t0 = time.perf_counter()

    for n in range(max_iter + 1):
        if frames is not None:
            frames.append(state.phi)
        grad_norm, inner, tau, backtracks, failure = float("inf"), 0, 0.0, 0, None
        try:
            sd = compute_direction(state, direction_kind, config, truncated, window)
        except (ConvergenceError, OperatorNotSPDError) as exc:
            termination = TERMINATION_SOLVER
            report = getattr(exc, "report", None)
            inner = report.total_iterations if report is not None else 0
        except NumericalError:
            termination = TERMINATION_DEGENERATE
        else:
            grad_norm = float(np.sqrt(max(sd.gram_of_direction, 0.0)))
            inner = sd.inner_effort
            termination = (TERMINATION_RESIDUAL if state.res_norm <= tol
                           else TERMINATION_MAX_ITER if n == max_iter else None)
        if termination is None:
            if params is None:
                gamma = fixed_tau
            elif n == 0:
                gamma = max(params.gamma_min, min(params.gamma0, params.gamma_max))
            else:
                gamma = bb_trial_step(n, state.phi - prev_phi,
                                      prev_eta.direction - sd.direction, params)
            step = line_search(model, state, sd, gamma, c, params, retraction)
            if isinstance(step, LineSearchFailure):
                termination, failure, backtracks = TERMINATION_LINE_SEARCH, step, step.backtracks
            else:
                accepted, tau, backtracks = step
        history.append(
            IterationRecord(n, state.energy, state.res_norm, grad_norm, tau, backtracks,
                            inner, c, q, time.perf_counter() - t0)
        )
        if termination is not None:
            return RunResult(state.phi, multiplier_eigenvalues(model, state.lam), history,
                             termination == TERMINATION_RESIDUAL, termination, frames,
                             failure)

        prev_phi, prev_eta, state = state.phi, sd, accepted
        if params is None:
            c, q = state.energy, 1.0
        else:
            c, q = nonmonotone_update(c, q, params.alpha, state.energy)

    raise AssertionError("unreachable")


def rgd_fixed_step(
    model: EnergyModel,
    phi0: Frame,
    tau: float,
    retraction: str = POLAR,
    tol: float = 1e-6,
    max_iter: int = 1000,
    solver_config: Optional[SolveConfig] = None,
    log_frames: bool = False,
) -> RunResult:
    """Riemannian gradient descent with a constant step size.

    Every step is the one untested trial ``line_search`` makes at ``tau``
    along the exact gradient, so the run ends on ``tol``, at ``max_iter``, on
    a failed solve or on a degenerate frame, never by a line-search failure;
    its records carry (c_n, q_n) = (E_n, 1) and 0 backtracks.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    config = solver_config if solver_config is not None else SolveConfig()
    return _descend(model, phi0, None, tau, EXACT_GRAD, retraction,
                    tol, max_iter, config, 3, log_frames)


def rgd_line_search(
    model: EnergyModel,
    phi0: Frame,
    params: Optional[LineSearchParams] = None,
    direction_kind: str = EXACT_GRAD,
    retraction: str = POLAR,
    tol: float = 1e-6,
    max_iter: int = 1000,
    solver_config: Optional[SolveConfig] = None,
    fixed_iters: int = 3,
    log_frames: bool = False,
) -> RunResult:
    """Descent with the non-monotone line search and alternating BB steps.

    Each accepted step satisfies
    E(R(phi, tau eta)) <= c_n - beta tau a_phi(eta, eta)
    against the decaying weighted energy average c_n (``line_search``); the
    trial step is the alternating BB formula from the latest
    iterate/direction differences. When no trial within ``max_backtracks``
    passes, the run ends with termination ``line_search_failure`` and
    ``RunResult.line_search_failure`` says by how much the last trial missed.
    """
    params = params if params is not None else LineSearchParams()
    config = solver_config if solver_config is not None else SolveConfig()
    return _descend(model, phi0, params, None, direction_kind, retraction, tol,
                    max_iter, config, fixed_iters, log_frames)


def diagnostics_a2_a3(model: EnergyModel, result: RunResult) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step descent and step-size ratios from a run with stored frames.

    r2(n) = (E_n - E_{n+1}) / (g_n * d_n) and r3(n) = d_n / g_n, with g_n the
    metric gradient norm and d_n the quadratic-form norm of the iterate
    difference. Steps with a vanishing gradient norm report NaN.
    """
    if result.frames is None or len(result.frames) != len(result.history):
        raise ValueError("diagnostics require a run recorded with log_frames=True")
    steps = len(result.history) - 1
    r2 = np.full(steps, np.nan)
    r3 = np.full(steps, np.nan)
    grad_floor = 100.0 * np.finfo(np.float64).eps
    for n in range(steps):
        g = result.history[n].grad_a_norm
        if not np.isfinite(g) or g <= grad_floor:
            continue
        d = a0_norm(model, result.frames[n + 1] - result.frames[n])
        decay = result.history[n].energy - result.history[n + 1].energy
        if d > 0.0:
            r2[n] = decay / (g * d)
        r3[n] = d / g
    return r2, r3
