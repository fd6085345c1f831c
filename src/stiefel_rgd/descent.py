"""Iteration drivers: fixed-step descent and the non-monotone line search
with alternating Barzilai-Borwein trial steps, plus convergence diagnostics."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .directions import EXACT_GRAD, SearchDirection, compute_direction
from .errors import NumericalError
from .frames import Frame, GridSpec, inner_h, norm_h, random_frame
from .geometry import POLAR, retract, retract_qr_mgs
from .models import (
    DiscreteOperatorA,
    EnergyModel,
    IterateState,
    a0_norm,
    energy,
    multiplier_eigenvalues,
    residual,
)
from .solvers import SolveConfig

TERMINATION_RESIDUAL = "residual_tol"
TERMINATION_MAX_ITER = "max_iter"
TERMINATION_LINE_SEARCH = "line_search_failure"
TERMINATION_DEGENERATE = "degenerate_frame"

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
class RunResult:
    final_frame: Frame
    eigenvalues: np.ndarray
    history: List[IterationRecord]
    converged: bool
    termination: str
    frames: Optional[List[Frame]] = None
    directions: Optional[List[Frame]] = None

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


def _evaluate(model: EnergyModel, phi: Frame, e: float) -> IterateState:
    """The state of iterate phi, whose energy ``e`` the caller has already.

    Built here rather than by ``IterateState.at`` so that the residual goes
    through this module's ``residual`` binding, which bench/spans.py wraps.
    """
    op = DiscreteOperatorA.at(model, phi)
    a_phi = op.apply(phi)
    r, lam = residual(model, phi, a_phi)
    return IterateState(phi, op, a_phi, lam, r, norm_h(r), e)


def _descend(
    model: EnergyModel,
    phi0: Frame,
    params: LineSearchParams,
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

    With ``fixed_tau`` set, every step is taken at that size without an
    acceptance test and the reference pair stays (c_n, q_n) = (E_n, 1).
    Otherwise the trial step is the alternating BB step, backtracked until
    the non-monotone Armijo condition holds. Each visited iterate is
    evaluated once; an accepted trial carries its energy into its state.
    """
    history: List[IterationRecord] = []
    frames: Optional[List[Frame]] = [] if log_frames else None
    directions: Optional[List[Frame]] = [] if log_frames else None
    state = _evaluate(model, phi0, energy(model, phi0))
    prev_phi: Optional[Frame] = None
    prev_eta: Optional[SearchDirection] = None
    c, q = state.energy, 1.0
    t0 = time.perf_counter()

    def finish(converged: bool, termination: str) -> RunResult:
        return RunResult(
            final_frame=state.phi,
            eigenvalues=multiplier_eigenvalues(model, state.lam),
            history=history,
            converged=converged,
            termination=termination,
            frames=frames,
            directions=directions,
        )

    for n in range(max_iter + 1):
        phi, e, res_norm = state.phi, state.energy, state.res_norm
        if frames is not None:
            frames.append(phi)
        try:
            sd = compute_direction(model, phi, direction_kind, config, fixed_iters,
                                   state=state)
        except NumericalError:
            history.append(
                IterationRecord(n, e, res_norm, float("inf"), 0.0, 0, 0, c, q,
                                time.perf_counter() - t0)
            )
            return finish(False, TERMINATION_DEGENERATE)
        grad_norm = float(np.sqrt(max(sd.gram_of_direction, 0.0)))
        if directions is not None:
            directions.append(sd.direction)

        converged = res_norm <= tol
        if converged or n == max_iter:
            history.append(
                IterationRecord(n, e, res_norm, grad_norm, 0.0, 0, sd.inner_effort,
                                c, q, time.perf_counter() - t0)
            )
            return finish(converged, TERMINATION_RESIDUAL if converged
                          else TERMINATION_MAX_ITER)

        max_backtracks = 0 if fixed_tau is not None else params.max_backtracks
        if fixed_tau is not None:
            gamma = fixed_tau
        elif n == 0:
            gamma = max(params.gamma_min, min(params.gamma0, params.gamma_max))
        else:
            s = phi - prev_phi
            y = prev_eta.direction - sd.direction
            gamma = bb_trial_step(n, s, y, params)

        accepted = None
        backtracks = 0
        tau = gamma
        for k in range(max_backtracks + 1):
            tau = gamma * params.delta**k
            candidate = retract(phi, tau * sd.direction, retraction)
            e_trial = energy(model, candidate)
            if (fixed_tau is not None
                    or e_trial <= c - params.beta * tau * sd.gram_of_direction):
                accepted = candidate
                backtracks = k
                break
        history.append(
            IterationRecord(n, e, res_norm, grad_norm,
                            tau if accepted is not None else 0.0,
                            backtracks if accepted is not None else max_backtracks,
                            sd.inner_effort, c, q, time.perf_counter() - t0)
        )
        if accepted is None:
            return finish(False, TERMINATION_LINE_SEARCH)

        prev_phi, prev_eta = phi, sd
        state = _evaluate(model, accepted, e_trial)
        if fixed_tau is not None:
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
    """Riemannian gradient descent with a constant step size."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    config = solver_config if solver_config is not None else SolveConfig()
    return _descend(model, phi0, LineSearchParams(), tau, EXACT_GRAD, retraction,
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
    against the decaying weighted energy average c_n; the trial step is the
    alternating BB formula from the latest iterate/direction differences.
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
