"""The descent loop as a generator of steps (``steps``), folded into a run's
result by ``collect``; the two drivers on it, fixed-step descent and the
non-monotone line search with alternating Barzilai-Borwein trial steps; and
the convergence diagnostics of two consecutive steps."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from numbers import Real
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .directions import (EXACT_GRAD, FIXED_ITERS, CorrectionWindow, SearchDirection,
                         compute_direction)
from .errors import ConvergenceError, NumericalError, OperatorNotSPDError, ShapeError
from .frames import Frame, GridSpec, density, inner_h, random_frame
from .geometry import POLAR, retract, retract_qr_mgs
from .models import EnergyModel, IterateState, a0_form, energy, multiplier_eigenvalues
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


@dataclass
class Step:
    """One visited iterate of a descent run, as ``steps`` yields it: the
    iterate's state, the direction found there (None when its solve
    raised) and its record. The last step of a run carries the
    termination and, after a failed line search, its LineSearchFailure."""

    state: IterateState
    direction: Optional[SearchDirection]
    record: IterationRecord
    termination: Optional[str] = None
    line_search_failure: Optional[LineSearchFailure] = None


def steps(
    model: EnergyModel,
    phi0: Frame,
    rule: Union[float, LineSearchParams],
    direction_kind: str,
    retraction: str,
    tol: float,
    max_iter: int,
    config: SolveConfig,
) -> Iterator[Step]:
    """The descent loop of both drivers and of the CLI, one Step per visited
    iterate.

    ``rule`` is the step rule: a finite step size tau > 0 for fixed-step
    descent, or the ``LineSearchParams`` of the line search. The call
    checks ``rule``, ``tol`` (finite, >= 0) and ``max_iter`` (>= 0) and
    raises ValueError, and raises ShapeError when ``phi0`` does not have
    ``model.n_orbitals`` columns, before anything is evaluated; it then
    returns the loop as a generator.

    Each pass evaluates the direction at the current iterate, stops on
    ``tol`` (whether or not that direction was found), on a failed Krylov
    solve of the direction (its record counts the failed solve's steps,
    when the error reports them), on a degenerate frame or at
    ``max_iter``, and otherwise hands the trial step to
    ``line_search``: tau for a fixed step, else the alternating BB step
    (``gamma0`` at the first iterate). It yields one Step per visited
    iterate, whose record holds the step and backtracks that left it; the
    run's last step carries its termination. Every direction solves with
    ``config``, except that an inexact or DCM run given a tolerance-mode
    config truncates it at ``FIXED_ITERS`` steps, a copy built once by the
    generator. An exact-gradient run also builds there the one
    ``CorrectionWindow`` that every exact gradient projects its start onto
    and pushes its correction into; the other kinds get none. With a fixed
    step the reference pair stays (c_n, q_n) = (E_n, 1); otherwise it
    follows ``nonmonotone_update``. A failed line search ends the run. The
    generator keeps no step it has yielded, and runs nothing until the
    first one is asked for.
    """
    if not (isinstance(rule, LineSearchParams) or (
            isinstance(rule, Real) and not isinstance(rule, bool) and 0.0 < rule < math.inf)):
        raise ValueError(f"rule must be a LineSearchParams or a finite step > 0, got {rule!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    if phi0.n_orbitals != model.n_orbitals:
        raise ShapeError(f"start frame has {phi0.n_orbitals} orbitals, the model "
                         f"{model.n_orbitals}")
    return _steps(model, phi0, rule, direction_kind, retraction, tol, max_iter, config)


def _steps(model, phi0, rule, direction_kind, retraction, tol, max_iter, config):
    """The generator ``steps`` returns, on arguments it has checked."""
    params = rule if isinstance(rule, LineSearchParams) else None
    if direction_kind != EXACT_GRAD and config.fixed_iters is None:
        config = replace(config, fixed_iters=FIXED_ITERS)
    window = (CorrectionWindow(phi0.grid.n_dof, phi0.n_orbitals)
              if direction_kind == EXACT_GRAD else None)
    rho = density(phi0)
    state = IterateState.at(model, phi0, energy(model, phi0, rho), rho)
    prev_phi: Optional[Frame] = None
    prev_eta: Optional[SearchDirection] = None
    c, q = state.energy, 1.0
    t0 = time.perf_counter()

    for n in range(max_iter + 1):
        grad_norm, inner, tau, backtracks, failure, sd = float("inf"), 0, 0.0, 0, None, None
        try:
            sd = compute_direction(state, direction_kind, config, window)
        except (ConvergenceError, OperatorNotSPDError) as exc:
            termination = TERMINATION_SOLVER
            report = getattr(exc, "report", None)
            inner = report.total_iterations if report is not None else 0
        except NumericalError:
            termination = TERMINATION_DEGENERATE
        else:
            grad_norm = float(np.sqrt(max(sd.gram_of_direction, 0.0)))
            inner = sd.inner_effort
            termination = TERMINATION_MAX_ITER if n == max_iter else None
        if state.res_norm <= tol:
            termination = TERMINATION_RESIDUAL
        if termination is None:
            if params is None:
                gamma = rule
            elif n == 0:
                gamma = max(params.gamma_min, min(params.gamma0, params.gamma_max))
            else:
                gamma = bb_trial_step(n, state.phi - prev_phi,
                                      prev_eta.direction - sd.direction, params)
            trial = line_search(model, state, sd, gamma, c, params, retraction)
            if isinstance(trial, LineSearchFailure):
                termination, failure, backtracks = TERMINATION_LINE_SEARCH, trial, trial.backtracks
            else:
                accepted, tau, backtracks = trial
        record = IterationRecord(n, state.energy, state.res_norm, grad_norm, tau, backtracks,
                                 inner, c, q, time.perf_counter() - t0)
        yield Step(state, sd, record, termination, failure)
        if termination is not None:
            return

        prev_phi, prev_eta, state = state.phi, sd, accepted
        if params is None:
            c, q = state.energy, 1.0
        else:
            c, q = nonmonotone_update(c, q, params.alpha, state.energy)


def collect(model: EnergyModel, run: Iterable[Step]) -> RunResult:
    """Fold the steps of one run, as ``steps`` yields them, into its
    RunResult: every record, and the last step's frame, multipliers,
    termination and line-search failure; the last step must carry a
    termination, as the last one ``steps`` yields does. Runs the loop, and
    lets each step go before the next is computed."""
    history: List[IterationRecord] = []
    for step in run:
        history.append(step.record)
        if step.termination is None:
            del step  # its iterate is freed while ``run`` computes the next one
    return RunResult(step.state.phi, multiplier_eigenvalues(model, step.state.lam), history,
                     step.termination == TERMINATION_RESIDUAL, step.termination,
                     step.line_search_failure)


def rgd_fixed_step(
    model: EnergyModel,
    phi0: Frame,
    tau: float,
    retraction: str = POLAR,
    tol: float = 1e-6,
    max_iter: int = 1000,
    solver_config: Optional[SolveConfig] = None,
) -> RunResult:
    """Riemannian gradient descent with a constant step size.

    Every step is the one untested trial ``line_search`` makes at ``tau``
    along the exact gradient, so the run ends on ``tol``, at ``max_iter``, on
    a failed solve or on a degenerate frame, never by a line-search failure;
    its records carry (c_n, q_n) = (E_n, 1) and 0 backtracks. ``steps``
    rejects a ``tau`` that is not finite and positive.
    """
    config = solver_config if solver_config is not None else SolveConfig()
    return collect(model, steps(model, phi0, tau, EXACT_GRAD, retraction, tol,
                                max_iter, config))


def rgd_line_search(
    model: EnergyModel,
    phi0: Frame,
    params: Optional[LineSearchParams] = None,
    direction_kind: str = EXACT_GRAD,
    retraction: str = POLAR,
    tol: float = 1e-6,
    max_iter: int = 1000,
    solver_config: Optional[SolveConfig] = None,
) -> RunResult:
    """Descent with the non-monotone line search and alternating BB steps.

    Each accepted step satisfies
    E(R(phi, tau eta)) <= c_n - beta tau a_phi(eta, eta)
    against the decaying weighted energy average c_n (``line_search``); the
    trial step is the alternating BB formula from the latest
    iterate/direction differences. When no trial within ``max_backtracks``
    passes, the run ends with termination ``line_search_failure`` and
    ``RunResult.line_search_failure`` says by how much the last trial missed.
    ``solver_config.fixed_iters`` is the inner budget of the inexact and
    DCM directions (``FIXED_ITERS`` when it is None); the exact gradient
    needs a tolerance-mode config.
    """
    params = params if params is not None else LineSearchParams()
    config = solver_config if solver_config is not None else SolveConfig()
    return collect(model, steps(model, phi0, params, direction_kind, retraction, tol,
                                max_iter, config))


def diagnostics_a2_a3(model: EnergyModel, step: Step, following: Step) -> Tuple[float, float]:
    """Descent and step-size ratios of the step from ``step`` to ``following``,
    two consecutive steps of one run.

    r2(n) = (E_n - E_{n+1}) / (g_n * d_n) and r3(n) = d_n / g_n, with g_n the
    metric gradient norm and d_n the norm of the iterate difference d in the
    shifted quadratic form a0(d, d) + shift (d, d)_H, which
    ``validate_coercivity`` certifies positive definite; a0 alone is
    indefinite where the potential is negative. A vanishing gradient norm
    reports NaN for both, a vanishing d NaN for r2.
    """
    g = step.record.grad_a_norm
    if not np.isfinite(g) or g <= 100.0 * np.finfo(np.float64).eps:
        return np.nan, np.nan
    diff = following.state.phi - step.state.phi
    d = float(np.sqrt(max(a0_form(model, diff, diff) + model.shift * inner_h(diff, diff), 0.0)))
    decay = step.record.energy - following.record.energy
    return (decay / (g * d) if d > 0.0 else np.nan), d / g
