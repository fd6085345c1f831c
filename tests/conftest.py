"""Shared fixtures: reference problems, cached runs, and independent oracles.

The oracle helpers here deliberately avoid the library code paths they are
used to check (dense Cholesky solves, stacked saddle-point solves, classical
Gram-Schmidt, dense eigensolves, double-loop quadrature). The geometry
oracles are the manifold membership test (``is_on_stiefel``, from
``gram_defect``), the tangency check (``is_tangent``, reporting a
``TangentCheckReport``), the metric-orthogonal tangent projection
(``project_tangent``, by the eigenbasis Lyapunov solve ``solve_lyapunov``)
and the Cholesky qR retraction (``retract_qr_cholesky``), the oracle of the
library's modified-Gram-Schmidt qR. ``a_norm`` is the shifted-form norm of
an operator, which the retraction bounds are stated in.
``diagnostics_oracle`` computes the (r2, r3) diagnostics of a whole run from
its stored frames, the oracle of the rows the CLI streams step by step.
``framed_run`` takes a run from its steps and keeps the frames the library
does not.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg as sla

from stiefel_rgd import (
    DegenerateFrameError,
    EnergyModel,
    Frame,
    GridSpec,
    LineSearchParams,
    OperatorNotSPDError,
    SolveConfig,
    SolveReport,
    a0_form,
    collect,
    directions,
    initial_frame,
    inner_h,
    multiply_right,
    norm_h,
    outer_product,
    potential_harmonic,
    random_frame,
    steps,
)
from stiefel_rgd.cli import _diagnosed
from stiefel_rgd.directions import DCM, EXACT_GRAD, INEXACT_GRAD
from stiefel_rgd.frames import DIRICHLET
from stiefel_rgd.geometry import POLAR
from stiefel_rgd.models import DiscreteOperatorA

# Frozen reference problems. The unit-box GPE with a centered harmonic trap
# and strong repulsion, and its three-orbital density-coupled companion.
GPE_SPEC = dict(n=128, length=1.0, omega=10.0, kappa=100.0, n_orbitals=1, seed=7)
COUPLED_SPEC = dict(n=128, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3, seed=7)

RUN_TOL = 1e-6
FIXED_TAU = 0.1
INEXACT_ITERS = 3


def make_model(n, length, omega, kappa, n_orbitals, seed=None, shift=0.0, dimension=1,
               boundary=DIRICHLET):
    grid = GridSpec(dimension, n, length, boundary)
    return EnergyModel(
        grid, potential_harmonic(grid, omega), kappa=kappa, shift=shift,
        n_orbitals=n_orbitals,
    )


def reference_solver_config():
    return SolveConfig(rel_tol=1e-8, max_iters=500, preconditioner="kinetic_shift")


def truncated(config, fixed_iters):
    """``config`` stopped after ``fixed_iters`` Krylov steps, as the inexact
    and DCM directions take it."""
    return replace(config, fixed_iters=fixed_iters)


def a_norm(op, v):
    """The shifted-form norm sqrt(a_phi(v, v) + shift (v, v)_H) of ``op``,
    with a form that round-off leaves slightly negative read as 0."""
    return float(np.sqrt(max(op.bilinear(v, v), 0.0)))


def dense_inverse(op):
    """Oracle: the exact columnwise inverse of ``op``, by one dense Cholesky
    factorization."""
    factor = sla.cho_factor(op.matrix.toarray())
    return lambda b: Frame(sla.cho_solve(factor, b.values), b.grid)


def dense_solve(op, b, config=None, warm_start=None):
    """Oracle in the form of ``stiefel_rgd.solve``: the dense Cholesky solve
    of A X = B, reported as 0 iterations and the true relative residual of
    each column (0 for a zero column). The config and start are ignored."""
    x = dense_inverse(op)(b)
    b_norms = np.linalg.norm(b.values, axis=0)
    res_norms = np.linalg.norm(b.values - op.matrix @ x.values, axis=0)
    residuals = np.divide(res_norms, b_norms, out=np.zeros_like(b_norms), where=b_norms > 0)
    return x, SolveReport([0] * b.n_orbitals, residuals.tolist())


class DenseOracleConfig(SolveConfig):
    """Marks solves for the dense oracle: a solve of the library's directions
    given this config, or a copy ``dataclasses.replace`` made of it, goes to
    ``dense_solve`` (see ``dense_oracle_solves``). The routing is a
    function-scoped fixture, so module- and session-scoped fixtures must
    not rely on it."""


DIRECT = DenseOracleConfig()


@pytest.fixture(autouse=True)
def dense_oracle_solves(monkeypatch):
    """Route the solves of ``stiefel_rgd.directions`` given a
    ``DenseOracleConfig`` to the dense oracle, so exact gradients and whole
    descents run with ``DIRECT`` take exact solves; every other solve goes
    to the library."""
    library_solve = directions.solve

    def routed(op, b, config, warm_start=None):
        chosen = dense_solve if isinstance(config, DenseOracleConfig) else library_solve
        return chosen(op, b, config, warm_start=warm_start)

    monkeypatch.setattr(directions, "solve", routed)


def dense_a_solve(model, phi):
    """Exact columnwise inverse of the operator anchored at phi."""
    return dense_inverse(DiscreteOperatorA.at(model, phi))


@dataclass(frozen=True)
class TangentCheckReport:
    skew_defect: float
    on_manifold_defect: float

    def within(self, tol: float) -> bool:
        return self.skew_defect <= tol


def gram_defect(phi):
    """Oracle: Frobenius distance of the Gram matrix from the identity."""
    g = outer_product(phi, phi)
    return float(np.linalg.norm(g - np.eye(phi.n_orbitals)))


def is_on_stiefel(phi, tol):
    """Oracle: whether phi lies on the manifold, to ``tol`` in ``gram_defect``."""
    return gram_defect(phi) <= tol


def is_tangent(phi, eta):
    """Oracle: the tangency defects of eta at phi; the caller compares
    ``skew_defect`` with its tolerance, e.g. via ``TangentCheckReport.within``."""
    skew = outer_product(eta, phi) + outer_product(phi, eta)
    return TangentCheckReport(
        skew_defect=float(np.linalg.norm(skew)),
        on_manifold_defect=gram_defect(phi),
    )


def solve_lyapunov(g, c):
    """Oracle: the symmetric S with G S + S G = C, for symmetric positive
    definite G, from the eigendecomposition of G and componentwise division
    by the eigenvalue sums, so the residual is at machine-precision level."""
    g = np.asarray(g, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d, q = np.linalg.eigh(g)
    if d.min() <= 0.0:
        raise OperatorNotSPDError("Lyapunov coefficient matrix is not positive definite")
    ctil = q.T @ c @ q
    s = q @ (ctil / (d[:, None] + d[None, :])) @ q.T
    return 0.5 * (s + s.T)


def project_tangent(phi, v, a_solve):
    """Oracle: the metric-orthogonal projection of v onto the tangent space
    at phi.

    ``a_solve`` applies the inverse of the anchored elliptic operator
    columnwise. The projection subtracts the normal component X S where
    X = A^{-1} phi and the symmetric S solves G S + S G = 2 sym([[v, phi]]).
    """
    x = a_solve(phi)
    g = outer_product(phi, x)
    g = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 0.0:
        raise DegenerateFrameError("Gram matrix of A^{-1} phi is not positive definite")
    vp = outer_product(v, phi)
    s = solve_lyapunov(g, vp + vp.T)
    return v - multiply_right(x, s)


def retract_qr_cholesky(phi, eta):
    """Oracle: the qR retraction by Cholesky of the Gram matrix ``L L^T``,
    (phi + eta) times the inverse of the N x N triangular factor ``L^T``,
    in one matrix product."""
    moved = phi + eta
    gram = outer_product(moved, moved)
    try:
        lower = np.linalg.cholesky(0.5 * (gram + gram.T))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError("Gram matrix is not positive definite") from exc
    return Frame(moved.values @ np.linalg.inv(lower).T, moved.grid)


def random_tangent(model, phi, rng, normalized=False):
    """Tangent vector built from the projection of a Gaussian frame,
    using the exact solver."""
    eta = project_tangent(
        phi, random_frame(phi.grid, phi.n_orbitals, rng), dense_a_solve(model, phi)
    )
    if normalized:
        eta = (1.0 / norm_h(eta)) * eta
    return eta


def force_discards(monkeypatch, discards):
    """Make the inexact safeguard discard attempts without relying on round-off.

    Wraps ``directions.inexact_gradient`` so that the first ``discards(k)``
    attempts at the k-th iterate it sees (counting from 0) come back with
    their direction negated when it descends, i.e. with a slope along the
    retraction <r, eta> >= 0, which the safeguard rejects. Their Krylov
    work is done and counted as usual. A count above ``MAX_DOUBLINGS``
    leads to the exact fallback. Returns the list of (fixed_iters,
    SearchDirection) of every attempt, in call order.
    """
    from stiefel_rgd import directions, inner_h

    inexact = directions.inexact_gradient
    states, per_state, attempts = [], [], []

    def forced(state, config):
        sd = inexact(state, config)
        if not states or states[-1] is not state:
            states.append(state)
            per_state.append(0)
        per_state[-1] += 1
        if per_state[-1] <= discards(len(states) - 1):
            if inner_h(state.r, sd.direction) < 0.0:
                sd = replace(sd, direction=-sd.direction)
        attempts.append((config.fixed_iters, sd))
        return sd

    monkeypatch.setattr(directions, "inexact_gradient", forced)
    return attempts


def poison_solve(monkeypatch, at_call):
    """Make the ``at_call``-th Krylov solve (counting from 1) return its
    solution with one entry replaced by NaN, as a CG breakdown would; its
    iteration counts and residuals are reported unchanged. Returns the list
    holding the number of solves made so far."""
    from stiefel_rgd import solvers

    pcg = solvers._pcg
    calls = [0]

    def poisoned(*args, **kwargs):
        x, iterations, residuals = pcg(*args, **kwargs)
        calls[0] += 1
        if calls[0] == at_call:
            x = np.array(x)
            x[0, 0] = np.nan
        return x, iterations, residuals

    monkeypatch.setattr(solvers, "_pcg", poisoned)
    return calls


def symmetric_pair_matrices(n_orbitals):
    """Normalized symmetric basis matrices, one per index pair (i <= j)."""
    pairs = [(i, j) for i in range(n_orbitals) for j in range(i, n_orbitals)]
    mats = []
    for i, j in pairs:
        s = np.zeros((n_orbitals, n_orbitals))
        if i == j:
            s[i, i] = 1.0
        else:
            s[i, j] = s[j, i] = 1.0 / np.sqrt(2.0)
        mats.append(s)
    return pairs, mats


def saddle_normal_basis(model, phi):
    """Oracle: the metric-normal basis frames from stacked saddle solves.

    For every index pair (k, l) solves the constrained system whose
    solution is biorthogonal to the manifold-normal basis frames, using one
    dense block factorization. Returns (pairs, basis_frames, psi_frames).
    """
    grid = model.grid
    n_orb = phi.n_orbitals
    nd, w = grid.n_dof, grid.weight
    op = DiscreteOperatorA.at(model, phi)
    a = op.matrix.toarray()
    pairs, mats = symmetric_pair_matrices(n_orb)
    basis = [Frame(phi.values @ s, grid) for s in mats]
    b = np.column_stack([f.values.reshape(-1, order="F") for f in basis])
    m = len(pairs)
    system = np.block(
        [
            [np.kron(np.eye(n_orb), a), b],
            [w * b.T, np.zeros((m, m))],
        ]
    )
    lu = np.linalg.inv(system)  # small; reused for all right-hand sides
    psis = []
    for idx in range(m):
        rhs = np.zeros(n_orb * nd + m)
        rhs[n_orb * nd + idx] = 1.0
        sol = lu @ rhs
        psis.append(Frame(sol[: n_orb * nd].reshape(nd, n_orb, order="F"), grid))
    return pairs, basis, psis


def saddle_projection_oracle(model, phi, v):
    """Oracle projection assembled from the saddle-basis expansion."""
    _, basis, psis = saddle_normal_basis(model, phi)
    w = model.grid.weight
    values = v.values.copy()
    for b, psi in zip(basis, psis):
        coeff = w * float(np.vdot(b.values, v.values))
        values = values - coeff * psi.values
    return Frame(values, model.grid)


def classical_gram_schmidt(v):
    """Oracle: textbook Gram-Schmidt in the weighted product (not modified)."""
    w = v.grid.weight
    work = np.array(v.values)
    q = np.empty_like(work)
    for j in range(v.n_orbitals):
        col = work[:, j].copy()
        for i in range(j):
            col -= w * float(np.dot(work[:, j], q[:, i])) * q[:, i]
        q[:, j] = col / (np.sqrt(w) * np.linalg.norm(col))
    return Frame(q, v.grid)


def dense_lowest_eigenpairs(model, count):
    """Oracle: dense symmetric eigensolve of the linear operator."""
    eigenvalues, vectors = np.linalg.eigh(model.linear_part.toarray())
    w = model.grid.weight
    modes = vectors[:, :count] / np.sqrt(w * np.sum(vectors[:, :count] ** 2, axis=0))
    return eigenvalues[:count], Frame(modes, model.grid)


@pytest.fixture(scope="session")
def gpe_model():
    return make_model(**{k: v for k, v in GPE_SPEC.items() if k != "seed"})


@pytest.fixture(scope="session")
def coupled_model():
    return make_model(**{k: v for k, v in COUPLED_SPEC.items() if k != "seed"})


@pytest.fixture(scope="session")
def gpe_start(gpe_model):
    return initial_frame(gpe_model.grid, gpe_model.n_orbitals, GPE_SPEC["seed"])


@pytest.fixture(scope="session")
def coupled_start(coupled_model):
    return initial_frame(coupled_model.grid, coupled_model.n_orbitals, COUPLED_SPEC["seed"])


def framed_run(model, phi0, tau=None, direction_kind=EXACT_GRAD, tol=1e-6, max_iter=1000,
               solver_config=None, diagnostics=None):
    """The run of ``rgd_fixed_step`` at step ``tau`` when it is given, else of
    ``rgd_line_search`` with default parameters along ``direction_kind``, as
    ``collect`` folds its steps, and the frame of every iterate it visited,
    read from ``Step.state.phi``. When ``diagnostics`` is a list, the steps
    pass through the CLI's ``--log-frames`` pass-through, which appends
    their streamed (r2, r3) rows to it."""
    config = solver_config if solver_config is not None else SolveConfig()
    rule = LineSearchParams() if tau is None else tau
    run = steps(model, phi0, rule, direction_kind, POLAR, tol, max_iter, config)
    if diagnostics is not None:
        run = _diagnosed(model, run, diagnostics)
    frames = []

    def recorded():
        for step in run:
            frames.append(step.state.phi)
            yield step

    return collect(model, recorded()), frames


def diagnostics_oracle(model, run, frames):
    """Oracle: the (r2, r3) arrays of every step of ``run`` at once, by the
    whole-run formula over its stored ``frames`` (one per record), with
    ``grad_a_norm`` at most 100 eps giving NaN for both and a zero step
    NaN for r2."""
    assert len(frames) == len(run.history)
    count = len(run.history) - 1
    r2 = np.full(count, np.nan)
    r3 = np.full(count, np.nan)
    grad_floor = 100.0 * np.finfo(np.float64).eps
    for n in range(count):
        g = run.history[n].grad_a_norm
        if not np.isfinite(g) or g <= grad_floor:
            continue
        diff = frames[n + 1] - frames[n]
        d = float(np.sqrt(max(a0_form(model, diff, diff) + model.shift * inner_h(diff, diff),
                              0.0)))
        decay = run.history[n].energy - run.history[n + 1].energy
        if d > 0.0:
            r2[n] = decay / (g * d)
        r3[n] = d / g
    return r2, r3


def streamed_columns(rows):
    """The (r2, r3) rows the CLI streams, as the r2 and r3 arrays."""
    return tuple(np.array(rows, dtype=float).reshape(-1, 2).T)


def _all_method_runs(model, phi0):
    """Each method on one problem, taken from its steps: {method: (RunResult,
    frames, (r2, r3))}, with the diagnostics the CLI streams."""
    config = reference_solver_config()
    methods = {
        "rgd_fixed": dict(tau=FIXED_TAU, max_iter=5000, solver_config=config),
        "rgd_ls": dict(max_iter=2000, solver_config=config),
        "rgd_ls_inexact": dict(direction_kind=INEXACT_GRAD, max_iter=2000,
                               solver_config=truncated(config, INEXACT_ITERS)),
        "dcm": dict(direction_kind=DCM, max_iter=2000,
                    solver_config=truncated(config, INEXACT_ITERS)),
    }
    observed = {}
    for name, kwargs in methods.items():
        rows = []
        run, frames = framed_run(model, phi0, tol=RUN_TOL, diagnostics=rows, **kwargs)
        observed[name] = (run, frames, streamed_columns(rows))
    return observed


@pytest.fixture(scope="session")
def gpe_observed(gpe_model, gpe_start):
    return _all_method_runs(gpe_model, gpe_start)


@pytest.fixture(scope="session")
def coupled_observed(coupled_model, coupled_start):
    return _all_method_runs(coupled_model, coupled_start)


@pytest.fixture(scope="session")
def gpe_runs(gpe_observed):
    return {name: run for name, (run, _, _) in gpe_observed.items()}


@pytest.fixture(scope="session")
def coupled_runs(coupled_observed):
    return {name: run for name, (run, _, _) in coupled_observed.items()}
