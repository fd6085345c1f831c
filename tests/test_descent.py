"""Drivers: fixed-step descent, the non-monotone line search, diagnostics."""

import gc
import weakref

import numpy as np
import pytest

from stiefel_rgd import (
    EnergyModel,
    Frame,
    GridSpec,
    LineSearchParams,
    diagnostics_a2_a3,
    energy,
    initial_frame,
    nonmonotone_update,
    norm_h,
    potential_well,
    rgd_fixed_step,
    rgd_line_search,
)
from stiefel_rgd.descent import (
    TERMINATION_DEGENERATE,
    TERMINATION_LINE_SEARCH,
    TERMINATION_MAX_ITER,
    TERMINATION_RESIDUAL,
    TERMINATION_SOLVER,
    LineSearchFailure,
    Step,
    bb_trial_step,
    collect,
    line_search,
    steps,
)
from stiefel_rgd import descent, solvers
from stiefel_rgd.cli import _diagnosed
from stiefel_rgd.directions import DCM, EXACT_GRAD, FIXED_ITERS, INEXACT_GRAD, compute_direction
from stiefel_rgd.errors import OperatorNotSPDError, ShapeError
from stiefel_rgd.frames import density
from stiefel_rgd.geometry import POLAR, retract
from stiefel_rgd.models import DiscreteOperatorA, IterateState, validate_coercivity
from stiefel_rgd.solvers import SolveConfig

from conftest import (
    DIRECT,
    FIXED_TAU,
    RUN_TOL,
    dense_inverse,
    dense_lowest_eigenpairs,
    diagnostics_oracle,
    force_discards,
    framed_run,
    is_on_stiefel,
    is_tangent,
    make_model,
    poison_solve,
    reference_solver_config,
    streamed_columns,
)

# Energy decrements below double-precision evaluation noise cannot be
# resolved; monotonicity assertions use this absolute slack.
def roundoff_slack(e):
    return 1e-12 * (1.0 + abs(e))


class TestFixedStep:
    def test_critical_start_converges_immediately(self):
        model = make_model(n=48, length=1.0, omega=6.0, kappa=0.0, n_orbitals=2)
        _, modes = dense_lowest_eigenpairs(model, 2)
        run = rgd_fixed_step(model, modes, 0.5, tol=1e-8, solver_config=DIRECT)
        assert run.converged
        assert run.iterations <= 1
        assert run.history[-1].energy == pytest.approx(
            run.history[0].energy, abs=1e-12
        )

    def test_unit_step_single_orbital_is_inverse_power_update(self):
        model = make_model(n=64, length=1.0, omega=10.0, kappa=0.0, n_orbitals=1)
        phi0 = initial_frame(model.grid, 1, 3)
        _, frames = framed_run(model, phi0, tau=1.0, tol=1e-12, max_iter=1,
                               solver_config=DIRECT)
        op = DiscreteOperatorA.at(model, phi0)
        pulled = dense_inverse(op)(phi0)
        expected = (1.0 / norm_h(pulled)) * pulled
        gap = min(norm_h(frames[1] - expected), norm_h(frames[1] + expected))
        assert gap <= 1e-12

    def test_reference_energy_decay(self, gpe_runs):
        run = gpe_runs["rgd_fixed"]
        assert run.converged
        energies = [rec.energy for rec in run.history]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + roundoff_slack(a)

    def test_manifold_preserved_along_run(self, gpe_observed):
        _, frames, _ = gpe_observed["rgd_fixed"]
        for frame in frames:
            assert is_on_stiefel(frame, 1e-11)

    def test_max_iter_termination(self):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=10.0, n_orbitals=1)
        run = rgd_fixed_step(
            model, initial_frame(model.grid, 1, 0), 0.05, tol=1e-12, max_iter=3,
            solver_config=DIRECT,
        )
        assert not run.converged
        assert run.termination == TERMINATION_MAX_ITER
        assert len(run.history) == 4
        assert run.line_search_failure is None

    @pytest.mark.parametrize("driver", ["rgd_fixed_step", "rgd_line_search"])
    def test_negative_max_iter_rejected(self, driver):
        # range(max_iter + 1) is empty, so the loop would visit no iterate.
        model = make_model(n=16, length=1.0, omega=5.0, kappa=10.0, n_orbitals=1)
        phi0 = initial_frame(model.grid, 1, 0)
        with pytest.raises(ValueError, match="max_iter"):
            if driver == "rgd_fixed_step":
                rgd_fixed_step(model, phi0, 0.1, max_iter=-1, solver_config=DIRECT)
            else:
                rgd_line_search(model, phi0, max_iter=-1, solver_config=DIRECT)

    def test_degenerate_start_reported(self):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=0.0, n_orbitals=2)
        column = np.ones((32, 1)) / np.sqrt(32 * model.grid.weight)
        collapsed = Frame(np.column_stack([column, column]), model.grid)
        run = rgd_fixed_step(model, collapsed, 0.1, solver_config=DIRECT)
        assert not run.converged
        assert run.termination == TERMINATION_DEGENERATE
        assert run.line_search_failure is None


def collapsed_start(model):
    """A two-column frame whose columns coincide: its Gram and multiplier
    matrices are singular."""
    column = np.ones((model.grid.n_dof, 1)) / np.sqrt(model.grid.n_dof * model.grid.weight)
    return Frame(np.column_stack([column, column]), model.grid)


class TestNonMonotoneBookkeeping:
    def test_hand_traced_recursion(self):
        c1, q1 = nonmonotone_update(3.0, 1.0, 0.95, 2.0)
        assert q1 == pytest.approx(1.95, abs=1e-15)
        assert c1 == pytest.approx((1 - 1 / 1.95) * 3.0 + 2.0 / 1.95, abs=1e-14)
        assert c1 == pytest.approx(2.487179487179487, abs=1e-14)

    def test_alpha_zero_is_monotone_armijo(self):
        model = make_model(n=48, length=1.0, omega=8.0, kappa=10.0, n_orbitals=1)
        params = LineSearchParams(alpha=0.0)
        run = rgd_line_search(
            model, initial_frame(model.grid, 1, 2), params=params, tol=1e-6,
            max_iter=200, solver_config=reference_solver_config(),
        )
        assert run.converged
        for rec in run.history:
            assert rec.q_n == pytest.approx(1.0)
            assert rec.c_n == pytest.approx(rec.energy, rel=1e-12)

    def test_reference_weights_follow_recursion(self, gpe_runs):
        run = gpe_runs["rgd_ls"]
        for prev, nxt in zip(run.history, run.history[1:]):
            c_expected, q_expected = nonmonotone_update(
                prev.c_n, prev.q_n, 0.95, nxt.energy
            )
            assert nxt.q_n == pytest.approx(q_expected, rel=1e-14)
            assert nxt.c_n == pytest.approx(c_expected, rel=1e-12)

    def test_accepted_steps_satisfy_condition_post_hoc(self, gpe_runs, coupled_runs):
        for runs in (gpe_runs, coupled_runs):
            for name in ("rgd_ls", "rgd_ls_inexact", "dcm"):
                run = runs[name]
                assert run.converged
                for rec, nxt in zip(run.history[:-1], run.history[1:]):
                    bound = rec.c_n - 1e-4 * rec.step_size * rec.grad_a_norm**2
                    assert nxt.energy <= bound + roundoff_slack(bound)

    def test_reference_average_is_convex_combination(self, gpe_runs):
        run = gpe_runs["rgd_ls"]
        energies = [rec.energy for rec in run.history]
        for n, rec in enumerate(run.history):
            window = energies[: n + 1]
            assert min(window) - 1e-12 <= rec.c_n <= max(window) + 1e-12

    def test_bb_denominator_floor_gives_gamma_max(self):
        model = make_model(n=16, length=1.0, omega=2.0, kappa=0.0, n_orbitals=1)
        params = LineSearchParams()
        zero = Frame(np.zeros((16, 1)), model.grid)
        s = Frame(np.ones((16, 1)), model.grid)
        assert bb_trial_step(1, s, zero, params) == params.gamma_max
        assert bb_trial_step(2, s, zero, params) == params.gamma_max


class TestLineSearchStep:
    """``line_search`` on its own: one step from an evaluated iterate."""

    def setup_step(self):
        model = make_model(n=48, length=1.0, omega=8.0, kappa=10.0, n_orbitals=2)
        phi = initial_frame(model.grid, 2, 4)
        state = IterateState.at(model, phi, energy(model, phi))
        sd = compute_direction(state, "exact_grad", reference_solver_config())
        return model, state, sd

    def test_untested_trial_takes_gamma_with_one_evaluation(self, monkeypatch):
        import stiefel_rgd.descent as descent

        model, state, sd = self.setup_step()
        calls = []
        monkeypatch.setattr(descent, "energy",
                            lambda *args: calls.append(args) or energy(*args))
        # A reference energy no trial could meet: without a test it is not read.
        accepted, tau, backtracks = line_search(
            model, state, sd, 0.3, state.energy - 1e6, None, POLAR)
        assert len(calls) == 1
        assert tau == 0.3 and backtracks == 0
        trial = retract(state.phi, 0.3 * sd.direction, POLAR)
        assert np.array_equal(accepted.phi.values, trial.values)
        assert accepted.energy == energy(model, trial)

    def test_each_trial_computes_its_density_once(self, monkeypatch):
        # The trial's energy and, for the accepted trial, its operator share
        # one density.
        import stiefel_rgd.descent as descent
        import stiefel_rgd.models as models

        model, state, sd = self.setup_step()
        calls = []

        def counted(phi):
            calls.append(phi)
            return density(phi)

        for module in (descent, models):
            monkeypatch.setattr(module, "density", counted)
        line_search(model, state, sd, 0.3, state.energy, None, POLAR)
        assert len(calls) == 1
        calls.clear()
        params = LineSearchParams(beta=0.5)
        accepted, _, backtracks = line_search(model, state, sd, 4.0, state.energy,
                                              params, POLAR)
        assert backtracks > 0 and len(calls) == backtracks + 1
        assert calls[-1] is accepted.phi

    def test_accepts_first_trial_meeting_armijo(self):
        model, state, sd = self.setup_step()
        params = LineSearchParams(beta=0.5)
        gamma = 4.0  # too long for this beta, so the search backtracks
        accepted, tau, backtracks = line_search(
            model, state, sd, gamma, state.energy, params, POLAR)
        assert backtracks > 0 and tau == gamma * params.delta**backtracks
        assert accepted.energy == energy(model, accepted.phi)
        assert accepted.energy <= state.energy - params.beta * tau * sd.gram_of_direction
        longer = gamma * params.delta**(backtracks - 1)
        rejected = energy(model, retract(state.phi, longer * sd.direction, POLAR))
        assert rejected > state.energy - params.beta * longer * sd.gram_of_direction

    def test_failure_reports_last_trial(self):
        model, state, sd = self.setup_step()
        params = LineSearchParams(max_backtracks=3)
        c = state.energy - 1e6  # a reference energy no trial can meet
        failure = line_search(model, state, sd, 0.5, c, params, POLAR)
        assert isinstance(failure, LineSearchFailure)
        tau = 0.5 * params.delta**3
        assert failure.backtracks == 3
        assert failure.target == params.beta * tau * sd.gram_of_direction
        assert failure.slack == c - state.energy
        trial = retract(state.phi, tau * sd.direction, POLAR)
        assert failure.decrement == energy(model, trial) - state.energy


class TestLineSearchRuns:
    def test_faster_than_fixed_step(self, gpe_runs):
        assert gpe_runs["rgd_ls"].iterations < gpe_runs["rgd_fixed"].iterations

    def test_inexact_saves_inner_iterations(self, gpe_runs):
        assert (
            gpe_runs["rgd_ls_inexact"].total_inner_iterations
            < gpe_runs["rgd_ls"].total_inner_iterations
        )

    def test_method_agreement(self, gpe_runs, coupled_runs):
        for runs in (gpe_runs, coupled_runs):
            energies = [run.final_energy for run in runs.values()]
            for run in runs.values():
                assert run.converged
                assert run.history[-1].residual_h_norm <= RUN_TOL
            assert max(energies) - min(energies) <= 1e-7

    def test_manifold_preserved_along_all_runs(self, gpe_observed, coupled_observed):
        for observed in (gpe_observed, coupled_observed):
            for _, frames, _ in observed.values():
                for frame in frames:
                    assert is_on_stiefel(frame, 1e-11)

    def test_orthogonal_invariance_of_final_energy(self):
        model = make_model(n=64, length=1.0, omega=8.0, kappa=10.0, n_orbitals=3)
        phi0 = initial_frame(model.grid, 3, 11)
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = Frame(phi0.values @ q, model.grid)
        config = reference_solver_config()
        base = rgd_line_search(model, phi0, tol=RUN_TOL, solver_config=config)
        alt = rgd_line_search(model, rotated, tol=RUN_TOL, solver_config=config)
        assert base.converged and alt.converged
        assert abs(base.final_energy - alt.final_energy) <= 1e-8

    def test_line_search_failure_termination(self, monkeypatch):
        import stiefel_rgd.descent as descent

        trials = []  # (state, direction, trial step) of every line search

        def recording(model, state, sd, gamma, c, params, retraction):
            trials.append((state, sd, gamma))
            return line_search(model, state, sd, gamma, c, params, retraction)

        monkeypatch.setattr(descent, "line_search", recording)
        model = make_model(n=64, length=1.0, omega=10.0, kappa=100.0, n_orbitals=1)
        params = LineSearchParams(
            beta=0.999, gamma_min=0.9999, gamma_max=1.0, gamma0=1.0, max_backtracks=0
        )
        run = rgd_line_search(
            model, initial_frame(model.grid, 1, 7), params=params, tol=1e-10,
            max_iter=50, solver_config=reference_solver_config(),
        )
        assert not run.converged
        assert run.termination == TERMINATION_LINE_SEARCH
        failure, last = run.line_search_failure, run.history[-1]
        assert isinstance(failure, LineSearchFailure)
        assert failure.backtracks == params.max_backtracks == last.backtracks
        state, sd, gamma = trials[-1]
        assert len(trials) == run.iterations + 1
        assert failure.target == params.beta * gamma * sd.gram_of_direction
        assert failure.decrement > -failure.target
        assert failure.slack == last.c_n - last.energy
        trial = retract(state.phi, gamma * sd.direction, POLAR)
        assert failure.decrement == energy(model, trial) - last.energy

    @pytest.mark.parametrize(
        "kind, config",
        [("inexact_grad", reference_solver_config()),
         ("exact_grad", reference_solver_config()),
         ("exact_grad", DIRECT)],
        ids=["inexact_grad", "exact_grad-krylov_cg", "exact_grad-direct_dense"],
    )
    def test_degenerate_start_reported_by_every_gradient(self, kind, config):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=0.0, n_orbitals=2)
        run = rgd_line_search(model, collapsed_start(model), direction_kind=kind,
                              solver_config=config)
        assert not run.converged
        assert run.termination == TERMINATION_DEGENERATE
        assert run.line_search_failure is None

    def test_failed_solve_reported_as_solver_failure(self, monkeypatch):
        # The third Krylov solve, that of the third DCM direction, meets
        # negative curvature: the run ends at that iterate, whose record
        # counts no Krylov steps, as the error reports none.
        pcg = solvers._pcg
        calls = [0]

        def failing(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 3:
                raise OperatorNotSPDError("CG detected non-positive curvature")
            return pcg(*args, **kwargs)

        monkeypatch.setattr(solvers, "_pcg", failing)
        model = make_model(n=32, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
        run = rgd_line_search(model, initial_frame(model.grid, 3, 3), direction_kind=DCM,
                              solver_config=reference_solver_config())
        assert calls[0] == 3
        assert not run.converged
        assert run.termination == TERMINATION_SOLVER
        assert run.iterations == 2
        assert run.history[-1].inner_iterations == 0
        assert all(rec.inner_iterations > 0 for rec in run.history[:-1])
        assert run.line_search_failure is None

    def test_converged_iterate_ends_residual_tol_though_its_solve_fails(
            self, gpe_model, gpe_runs):
        # A restart from a converged frame with a one-step budget that no
        # exact solve meets: the failed direction does not hide that the
        # frame meets tol, and below its residual the same restart fails.
        phi = gpe_runs["rgd_ls"].final_frame
        config = SolveConfig(rel_tol=1e-12, max_iters=1)
        run = rgd_line_search(gpe_model, phi, tol=RUN_TOL, solver_config=config)
        assert run.converged and run.termination == TERMINATION_RESIDUAL
        assert run.iterations == 0 and run.history[0].residual_h_norm <= RUN_TOL
        assert run.history[0].inner_iterations == 1  # the failed solve's one step
        assert run.line_search_failure is None
        tight = rgd_line_search(gpe_model, phi, tol=1e-8, solver_config=config)
        assert not tight.converged and tight.termination == TERMINATION_SOLVER
        assert tight.iterations == 0

    def test_converged_invariant(self, gpe_runs, coupled_runs):
        for runs in (gpe_runs, coupled_runs):
            for run in runs.values():
                assert run.termination == TERMINATION_RESIDUAL
                assert run.history[-1].residual_h_norm <= RUN_TOL
                assert run.line_search_failure is None


class TestInnerBudget:
    """A run's inexact and DCM directions take ``fixed_iters`` of its solver
    config as their inner budget, ``FIXED_ITERS`` steps per column when the
    config is in tolerance mode; an exact run needs a tolerance-mode config."""

    @pytest.mark.parametrize("kind", [INEXACT_GRAD, DCM])
    @pytest.mark.parametrize("config, budget", [
        (SolveConfig(fixed_iters=5, preconditioner="kinetic_shift"), 5),
        (reference_solver_config(), FIXED_ITERS),
    ], ids=["fixed5", "tolerance"])
    def test_every_iterate_takes_the_budget(
            self, coupled_model, coupled_start, kind, config, budget):
        run = rgd_line_search(coupled_model, coupled_start, direction_kind=kind,
                              tol=RUN_TOL, solver_config=config)
        assert run.converged
        per_iterate = budget * coupled_model.n_orbitals
        assert [rec.inner_iterations for rec in run.history] == [per_iterate] * len(run.history)

    @pytest.mark.parametrize("driver", ["rgd_fixed_step", "rgd_line_search"])
    def test_exact_run_rejects_fixed_mode_config(self, gpe_model, gpe_start, driver):
        config = SolveConfig(fixed_iters=3, preconditioner="kinetic_shift")
        with pytest.raises(ValueError, match="tolerance-mode"):
            if driver == "rgd_fixed_step":
                rgd_fixed_step(gpe_model, gpe_start, FIXED_TAU, solver_config=config)
            else:
                rgd_line_search(gpe_model, gpe_start, solver_config=config)


class TestDiagnostics:
    def test_reference_ratios_positive_where_resolvable(self, gpe_observed):
        run, _, (r2, r3) = gpe_observed["rgd_fixed"]
        energies = [rec.energy for rec in run.history]
        assert np.all(r3[np.isfinite(r3)] > 0.0)
        for n in range(len(r2)):
            decrement = energies[n] - energies[n + 1]
            if np.isfinite(r2[n]) and decrement > roundoff_slack(energies[n]):
                assert r2[n] > 0.0

    @pytest.mark.parametrize("method", ["rgd_fixed", "rgd_ls", "rgd_ls_inexact", "dcm"])
    def test_streamed_rows_equal_whole_run_oracle(self, gpe_model, gpe_observed, method):
        run, frames, streamed = gpe_observed[method]
        oracle = diagnostics_oracle(gpe_model, run, frames)
        assert len(streamed[0]) == run.iterations > 0
        for got, expected in zip(streamed, oracle):
            assert got.tobytes() == expected.tobytes()  # bit for bit, NaN included

    def test_vanishing_gradient_reports_nan(self):
        from stiefel_rgd import IterationRecord

        model = make_model(n=48, length=1.0, omega=6.0, kappa=0.0, n_orbitals=2)
        _, modes = dense_lowest_eigenpairs(model, 2)
        perturbed = Frame(modes.values + 1e-3, model.grid)

        def step(n, grad, phi):
            record = IterationRecord(n, 1.0, 0.0, grad, 0.1, 0, 0, 1.0, 1.0, 0.0)
            return Step(IterateState.at(model, phi), None, record)

        tiny, fine = 1e-15, 1e-3
        run = [step(0, tiny, modes), step(1, fine, perturbed), step(2, fine, modes)]
        r2, r3 = zip(*(diagnostics_a2_a3(model, a, b) for a, b in zip(run, run[1:])))
        assert np.isnan(r2[0]) and np.isnan(r3[0])
        assert np.isfinite(r2[1]) and np.isfinite(r3[1])

    def test_step_norms_positive_on_shifted_well(self):
        # The well makes the unshifted form a0 = L + V indefinite, and this
        # run's iterate differences have a0(d, d) <= 0 on 768 of its 869
        # steps; the shifted form that validate_coercivity certifies gives
        # every step a finite positive d_n. The sign of r2 is not bounded:
        # near the noise floor, non-monotone steps raise the energy.
        grid = GridSpec(2, 16, 1.0)
        model = EnergyModel(grid, potential_well(grid, depth=-500.0, width=0.5),
                            kappa=100.0, shift=600.0, n_orbitals=4)
        validate_coercivity(model)
        rows = []
        run, frames = framed_run(model, initial_frame(grid, 4, 1000), tol=1e-6, max_iter=2000,
                                 solver_config=reference_solver_config(), diagnostics=rows)
        r2, r3 = streamed_columns(rows)
        for got, expected in zip((r2, r3), diagnostics_oracle(model, run, frames)):
            assert got.tobytes() == expected.tobytes()
        assert len(r3) > 100
        assert np.all(np.isfinite(r2))
        assert np.all(np.isfinite(r3)) and np.all(r3 > 0.0)

    def test_other_critical_point_flagged_by_energy_gap(self):
        model = make_model(n=64, length=1.0, omega=6.0, kappa=0.0, n_orbitals=1)
        eigenvalues, _ = dense_lowest_eigenpairs(model, 2)
        _, modes = dense_lowest_eigenpairs(model, 2)
        second = Frame(modes.values[:, 1:2], model.grid)
        run = rgd_fixed_step(model, second, 0.1, tol=1e-6, solver_config=DIRECT)
        assert run.converged  # critical, but not the ground state
        ground_energy = 0.5 * eigenvalues[0]
        assert run.final_energy - ground_energy > 10 * RUN_TOL

    def test_stationarity_equivalence_constant_finite(self, gpe_runs):
        # residual tolerance controls the gradient norm through a finite
        # run constant
        for run in gpe_runs.values():
            ratios = [
                rec.grad_a_norm / rec.residual_h_norm
                for rec in run.history
                if rec.residual_h_norm > 0
            ]
            assert ratios and np.all(np.isfinite(ratios))

    def test_exact_gradient_tangent_on_every_iterate(
            self, gpe_model, gpe_start, coupled_model, coupled_start):
        for model, phi0 in ((gpe_model, gpe_start), (coupled_model, coupled_start)):
            taken = list(steps(model, phi0, LineSearchParams(), EXACT_GRAD, POLAR, RUN_TOL,
                               2000, reference_solver_config()))
            run = collect(model, taken)
            assert run.converged and len(taken) == len(run.history)
            for step in taken:
                # ten times the 1e-8 inner-solve tolerance
                assert is_tangent(step.state.phi, step.direction.direction).skew_defect <= 1e-7


class TestStepsArguments:
    """``steps`` checks its step rule, ``tol``, ``max_iter`` and start frame
    at the call, before anything is evaluated; a valid call evaluates
    nothing until its first step is asked for."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The arguments of every energy evaluation of the loop."""
        calls = []

        def counted(*args):
            calls.append(args)
            return energy(*args)

        monkeypatch.setattr(descent, "energy", counted)
        return calls

    @staticmethod
    def call(rule=FIXED_TAU, tol=RUN_TOL, max_iter=10, orbitals=2):
        """``steps`` on a 2-orbital model, from a frame with ``orbitals``
        columns."""
        model = make_model(n=32, length=1.0, omega=10.0, kappa=10.0, n_orbitals=2)
        phi0 = initial_frame(model.grid, orbitals, 1)
        return steps(model, phi0, rule, EXACT_GRAD, POLAR, tol, max_iter, DIRECT)

    @pytest.mark.parametrize("rule", [0.0, -0.1, np.nan, np.inf, None, True],
                             ids=["zero", "negative", "nan", "inf", "none", "bool"])
    def test_invalid_step_rule_raises_at_call(self, evaluated, rule):
        # A negative step climbs; None or True would run as no valid rule.
        with pytest.raises(ValueError, match="rule"):
            self.call(rule=rule)
        assert not evaluated

    @pytest.mark.parametrize("tol", [-1e-6, np.nan], ids=["negative", "nan"])
    def test_invalid_tol_raises_at_call(self, evaluated, tol):
        # Neither can ever be met, so the run would end only at max_iter.
        with pytest.raises(ValueError, match="tol"):
            self.call(tol=tol)
        assert not evaluated

    def test_negative_max_iter_raises_at_call(self, evaluated):
        with pytest.raises(ValueError, match="max_iter"):
            self.call(max_iter=-1)
        assert not evaluated

    def test_frame_with_other_orbital_count_raises_at_call(self, evaluated):
        with pytest.raises(ShapeError, match="orbitals"):
            self.call(orbitals=1)
        assert not evaluated

    @pytest.mark.parametrize("rule", [FIXED_TAU, 1, LineSearchParams()],
                             ids=["tau", "int_tau", "line_search"])
    def test_valid_call_evaluates_nothing_until_first_step(self, evaluated, rule):
        run = self.call(rule=rule)
        assert not evaluated
        assert next(run).record.n == 0 and evaluated


class TestStreamedSteps:
    """The path of every CLI method, ``collect`` over ``steps``, keeps a
    bounded number of iterates alive: with the diagnostics pass-through, the
    step being folded and the previous one the diagnostics read; without
    it, the step being folded alone."""

    @staticmethod
    def alive_per_step(model, phi0, kind, diagnose):
        """The number of yielded states still alive as each step reaches
        ``collect``, after ``gc.collect()``, and the run."""
        refs, alive, rows = [], [], []

        def watched(run):
            for step in run:
                refs.append(weakref.ref(step.state))
                gc.collect()
                alive.append(sum(ref() is not None for ref in refs))
                yield step

        run = steps(model, phi0, LineSearchParams(), kind, POLAR, RUN_TOL, 2000,
                    reference_solver_config())
        result = collect(model, watched(_diagnosed(model, run, rows) if diagnose else run))
        assert result.converged and len(alive) == len(result.history) > 10
        assert len(rows) == (result.iterations if diagnose else 0)
        return alive

    @pytest.mark.parametrize("kind", [EXACT_GRAD, DCM])
    def test_at_most_two_states_alive(self, coupled_model, coupled_start, kind):
        assert max(self.alive_per_step(coupled_model, coupled_start, kind, True)) <= 2

    @pytest.mark.parametrize("kind", [EXACT_GRAD, DCM])
    def test_collect_alone_keeps_one_state(self, coupled_model, coupled_start, kind):
        assert max(self.alive_per_step(coupled_model, coupled_start, kind, False)) == 1


class TestOtherDiscretizations:
    def test_2d_run_converges(self):
        from stiefel_rgd import EnergyModel, GridSpec, potential_harmonic

        grid = GridSpec(2, 20, 1.0)
        model = EnergyModel(
            grid,
            potential_harmonic(grid, 12.0, center=(0.42, 0.58)),
            kappa=2.0,
            n_orbitals=1,
        )
        run = rgd_line_search(
            model, initial_frame(grid, 1, 1), tol=1e-6, max_iter=500,
            solver_config=reference_solver_config(),
        )
        assert run.converged
        assert is_on_stiefel(run.final_frame, 1e-11)

    def test_periodic_run_converges(self):
        from stiefel_rgd import EnergyModel, GridSpec, potential_harmonic

        grid = GridSpec(1, 48, 1.0, "periodic")
        model = EnergyModel(
            grid, potential_harmonic(grid, 10.0), kappa=5.0, n_orbitals=2
        )
        run = rgd_line_search(
            model, initial_frame(grid, 2, 6), tol=1e-6, max_iter=500,
            solver_config=reference_solver_config(),
        )
        assert run.converged
        assert np.all(np.diff(run.eigenvalues) >= 0)

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_2d_periodic_linear_run_matches_dense_oracle(self, seed):
        # The only end-to-end run of the periodic fast-diagonalization
        # preconditioner: a linear 2D periodic trap, whose second and third
        # eigenvalues are degenerate, against the dense eigensolve.
        model = make_model(n=12, length=1.0, omega=10.0, kappa=0.0, n_orbitals=3,
                           dimension=2, boundary="periodic")
        run = rgd_line_search(
            model, initial_frame(model.grid, 3, seed), tol=1e-9, max_iter=2000,
            solver_config=SolveConfig(rel_tol=1e-10, max_iters=500,
                                      preconditioner="kinetic_shift"),
        )
        assert run.termination == TERMINATION_RESIDUAL
        expected, _ = dense_lowest_eigenpairs(model, 3)
        assert np.abs(np.asarray(run.eigenvalues) - expected).max() <= 1e-9

    def test_2d_multi_orbital_exact_run_reaches_tol(self):
        # The ROADMAP item 5 regime on a 32^2 grid: from this start frame, exact
        # rgd_ls with zero-started solves stalls in line_search_failure at a
        # residual of ~7e-6, with Armijo targets below the round-off of E.
        model = make_model(n=32, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=2)
        run = rgd_line_search(
            model, initial_frame(model.grid, 4, 4000), tol=1e-6, max_iter=2000,
            solver_config=reference_solver_config(),
        )
        assert run.termination == TERMINATION_RESIDUAL
        assert run.history[-1].residual_h_norm <= 1e-6


def discard_schedule(k):
    """Discarded inexact attempts at the k-th iterate: the first one at
    every iterate, and all of them at every fourth, so that the exact
    fallback runs too."""
    return 99 if k % 4 == 3 else 1


class TestEvaluationCounts:
    """Each visited iterate is evaluated once: one energy per trial step plus
    the start, and one anchored operator and one residual per iterate."""

    @pytest.mark.parametrize("method", ["rgd_fixed", "rgd_ls", "rgd_ls_inexact", "dcm"])
    def test_one_evaluation_per_iterate(self, method, monkeypatch):
        import stiefel_rgd.descent as descent
        import stiefel_rgd.directions as directions
        import stiefel_rgd.models as models

        counts = {"energy": 0, "at": 0, "residual": 0, "inexact": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        if method == "rgd_ls_inexact":
            force_discards(monkeypatch, discard_schedule)
        monkeypatch.setattr(descent, "energy", counted("energy", descent.energy))
        monkeypatch.setattr(DiscreteOperatorA, "at", classmethod(
            counted("at", DiscreteOperatorA.__dict__["at"].__func__)))
        monkeypatch.setattr(models, "residual", counted("residual", models.residual))
        monkeypatch.setattr(directions, "inexact_gradient",
                            counted("inexact", directions.inexact_gradient))

        model = make_model(n=32, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
        phi0 = initial_frame(model.grid, 3, 3)
        config = reference_solver_config()
        if method == "rgd_fixed":
            run = rgd_fixed_step(model, phi0, FIXED_TAU, max_iter=30, solver_config=config)
        else:
            kind = {"rgd_ls": "exact_grad", "rgd_ls_inexact": "inexact_grad",
                    "dcm": "dcm"}[method]
            # Trial steps far too long for the exact gradient, so it backtracks.
            params = (LineSearchParams(gamma0=8.0, gamma_min=4.0, gamma_max=8.0)
                      if method == "rgd_ls" else None)
            run = rgd_line_search(model, phi0, params=params, direction_kind=kind,
                                  max_iter=60, solver_config=config)

        assert run.termination in (TERMINATION_RESIDUAL, TERMINATION_MAX_ITER)
        trials = sum(rec.backtracks + 1 for rec in run.history[:-1])
        assert counts["energy"] == 1 + trials
        assert counts["at"] == len(run.history)
        assert counts["residual"] == len(run.history)
        if method == "rgd_ls":
            assert trials > run.iterations
        if method == "rgd_ls_inexact":
            # The safeguard discarded attempts at some iterates.
            assert counts["inexact"] > len(run.history)

    @pytest.mark.parametrize("method", ["rgd_fixed", "rgd_ls", "rgd_ls_inexact", "dcm"])
    def test_one_warm_start_per_iterate(self, method, monkeypatch):
        """phi Lambda^{-1} is computed at most once per visited iterate. Every
        inexact attempt and exact fallback starts from it, and so does the
        first exact solve. Every later exact solve of the exact methods
        starts from phi Lambda^{-1} + V C, with V the corrections of the
        last eight exact solves and C the Jacobi-scaled, ridged Galerkin
        coefficients, recomputed here with fresh sparse products and the
        true residual of phi Lambda^{-1}."""
        import functools

        import stiefel_rgd.directions as directions

        computed = []
        solves = []
        counts = {"inexact": 0, "exact": 0}
        warm_start = IterateState.__dict__["multiplier_warm_start"]
        solve = directions.solve

        def counted_warm_start(state):
            computed.append(state)
            return warm_start.func(state)

        def recording_solve(op, b, config, warm_start=None):
            x, report = solve(op, b, config, warm_start=warm_start)
            solves.append((op, b, config.fixed_iters, warm_start, x))
            return x, report

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        if method == "rgd_ls_inexact":
            force_discards(monkeypatch, discard_schedule)
        patched = functools.cached_property(counted_warm_start)
        patched.__set_name__(IterateState, "multiplier_warm_start")
        monkeypatch.setattr(IterateState, "multiplier_warm_start", patched)
        monkeypatch.setattr(directions, "solve", recording_solve)
        monkeypatch.setattr(directions, "inexact_gradient",
                            counted("inexact", directions.inexact_gradient))
        monkeypatch.setattr(directions, "riemannian_gradient",
                            counted("exact", directions.riemannian_gradient))

        model = make_model(n=32, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
        phi0 = initial_frame(model.grid, 3, 3)
        config = reference_solver_config()
        if method == "rgd_fixed":
            run = rgd_fixed_step(model, phi0, FIXED_TAU, max_iter=30, solver_config=config)
        else:
            kind = {"rgd_ls": "exact_grad", "rgd_ls_inexact": "inexact_grad",
                    "dcm": "dcm"}[method]
            run = rgd_line_search(model, phi0, direction_kind=kind, max_iter=60,
                                  solver_config=config)

        assert run.termination in (TERMINATION_RESIDUAL, TERMINATION_MAX_ITER)
        assert len({id(state) for state in computed}) == len(computed)
        # Every gradient direction computes the guess; DCM never uses it.
        assert len(computed) == (0 if method == "dcm" else len(run.history))
        guesses = {id(state.op): state.multiplier_warm_start for state in computed}
        corrections = []  # X - phi Lambda^{-1} of every exact solve so far
        recycled = 0
        for op, b, fixed_iters, start, x in solves:
            guess = guesses.get(id(op))
            if fixed_iters is not None or method == "rgd_ls_inexact" or not corrections:
                assert start is guess
            else:
                v = np.hstack(corrections[-8:])
                gram = v.T @ (op.matrix @ v)
                scale = 1.0 / np.sqrt(np.diag(gram))
                rho = b.values - op.matrix @ guess.values
                scaled = scale[:, None] * gram * scale + 1e-9 * np.eye(len(scale))
                c = scale[:, None] * np.linalg.solve(scaled, scale[:, None] * (v.T @ rho))
                expected = guess.values + v @ c
                gap = np.linalg.norm(start.values - expected)
                assert gap <= 1e-10 * np.linalg.norm(expected)
                assert np.linalg.norm(start.values - guess.values) > 1e4 * gap
                recycled += 1
            if fixed_iters is None:
                corrections.append(x.values - guess.values)
        if method in ("rgd_fixed", "rgd_ls"):
            assert recycled == len(solves) - 1 == run.iterations
        if method == "rgd_ls_inexact":
            # Discarded attempts and exact fallbacks shared the guess.
            assert counts["inexact"] > len(run.history)
            assert counts["exact"] >= len(run.history) // 4 > 0


class TestRecycledExactSolves:
    """Projecting the exact gradient's start onto the last eight solves'
    corrections halves the Krylov work on the 2D trap, against recycling
    the last correction alone, without more outer steps."""

    @staticmethod
    def exact_run(frame):
        model = make_model(n=32, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=2)
        run = rgd_line_search(model, initial_frame(model.grid, 4, frame), tol=1e-6,
                              max_iter=2000, solver_config=reference_solver_config())
        assert run.termination == TERMINATION_RESIDUAL
        return run

    def test_inner_iterations_on_2d_trap(self):
        run = self.exact_run(1000)
        # 10746 inner iterations in 622 steps with the previous solve's
        # correction alone, 21789 in 632 from phi Lambda^{-1}.
        assert run.total_inner_iterations <= 0.6 * 10746
        assert run.iterations <= 622

    def test_inner_iterations_on_2d_trap_frame_1001(self):
        run = self.exact_run(1001)
        # 35045 inner iterations in 1299 steps with the previous solve's
        # correction alone, 63973 in 1308 from phi Lambda^{-1}.
        assert run.total_inner_iterations <= 0.5 * 35045
        assert run.iterations <= 1299


class TestCorrectionWindowOwnership:
    """The descent run owns the exact gradient's window of corrections: an
    exact-gradient run builds one before its loop and hands that one to every
    direction; runs of the other kinds build none."""

    @pytest.mark.parametrize("method,built_windows", [
        ("rgd_fixed", 1), ("rgd_ls", 1), ("rgd_ls_inexact", 0), ("dcm", 0)])
    def test_windows_built_per_run(self, method, built_windows, monkeypatch):
        built, given = [], []
        window_class, compute = descent.CorrectionWindow, descent.compute_direction

        def counted_window(*args):
            built.append(window_class(*args))
            return built[-1]

        def recording_compute(state, kind, config, window=None):
            given.append(window)
            return compute(state, kind, config, window)

        monkeypatch.setattr(descent, "CorrectionWindow", counted_window)
        monkeypatch.setattr(descent, "compute_direction", recording_compute)
        model = make_model(n=48, length=1.0, omega=8.0, kappa=10.0, n_orbitals=2)
        phi0 = initial_frame(model.grid, 2, 5)
        config = reference_solver_config()
        if method == "rgd_fixed":
            run = rgd_fixed_step(model, phi0, FIXED_TAU, max_iter=6, solver_config=config)
        else:
            kind = {"rgd_ls": EXACT_GRAD, "rgd_ls_inexact": INEXACT_GRAD, "dcm": DCM}[method]
            run = rgd_line_search(model, phi0, direction_kind=kind, max_iter=6,
                                  solver_config=config)
        assert run.iterations == 6
        assert len(built) == built_windows
        assert given == (built or [None]) * len(run.history)
        if built:
            # Every exact gradient pushed its correction: the window is full
            # after the eight solves of a longer run, here it holds seven.
            assert len(built[0]) == len(run.history) * model.n_orbitals


class TestMeshIndependence:
    """The energy-adaptive metric makes the outer iteration count of exact
    ``rgd_ls`` and of ``dcm`` (whose kinetic-shift preconditioner plays the
    same part) independent of the grid, as the paper claims. On the 1D N=3
    kappa=10 trap every run from frames 1000-1002 and 2000-2001 took 30-51
    outer iterations at n = 128, 512 and 2048. A metric that lost this
    property would see the condition number of the Laplacian, which grows
    256-fold from n = 128 to 2048, so the bounds below leave room for other
    start frames and still catch it: every run reaches ``residual_tol``
    within 80 iterations, and per method the slowest run at n = 2048 takes
    at most 1.5 times the slowest at n = 128."""

    @pytest.mark.parametrize("kind", [EXACT_GRAD, DCM])
    def test_outer_iterations_bounded_across_grids(self, kind):
        slowest = {}
        for n in (128, 512, 2048):
            model = make_model(n=n, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
            counts = []
            for frame in (1000, 1001, 1002):
                run = rgd_line_search(model, initial_frame(model.grid, 3, frame),
                                      direction_kind=kind, tol=1e-6, max_iter=2000,
                                      solver_config=reference_solver_config())
                assert run.termination == TERMINATION_RESIDUAL
                counts.append(run.iterations)
            assert max(counts) <= 80
            slowest[n] = max(counts)
        assert slowest[2048] <= 1.5 * slowest[128]


class TestNonFiniteValues:
    """A solve whose result holds a NaN ends the run with the ValueError of
    a non-finite frame, whichever method made the solve."""

    @pytest.mark.parametrize("method", ["rgd_fixed", "rgd_ls", "rgd_ls_inexact", "dcm"])
    def test_non_finite_solve_raises(self, method, monkeypatch):
        calls = poison_solve(monkeypatch, at_call=5)
        model = make_model(n=32, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
        phi0 = initial_frame(model.grid, 3, 3)
        config = reference_solver_config()
        with pytest.raises(ValueError, match="non-finite"):
            if method == "rgd_fixed":
                rgd_fixed_step(model, phi0, FIXED_TAU, max_iter=30, solver_config=config)
            else:
                kind = {"rgd_ls": "exact_grad", "rgd_ls_inexact": "inexact_grad",
                        "dcm": "dcm"}[method]
                rgd_line_search(model, phi0, direction_kind=kind, max_iter=60,
                                solver_config=config)
        assert calls[0] == 5

    def test_iterate_state_rejects_non_finite_iterate(self):
        model = make_model(n=32, length=1.0, omega=10.0, kappa=10.0, n_orbitals=2)
        phi = initial_frame(model.grid, 2, 3)
        values = np.array(phi.values)
        values[7, 1] = np.inf
        # Frame(values, grid) would refuse these values; bypass it.
        object.__setattr__(phi, "values", values)
        with pytest.raises(ValueError, match="non-finite"):
            IterateState.at(model, phi)
