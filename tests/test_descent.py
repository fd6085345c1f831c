"""Drivers: fixed-step descent, the non-monotone line search, diagnostics."""

import numpy as np
import pytest

from stiefel_rgd import (
    Frame,
    LineSearchParams,
    SolveConfig,
    diagnostics_a2_a3,
    energy,
    initial_frame,
    is_on_stiefel,
    nonmonotone_update,
    norm_h,
    rgd_fixed_step,
    rgd_line_search,
)
from stiefel_rgd.descent import (
    TERMINATION_DEGENERATE,
    TERMINATION_LINE_SEARCH,
    TERMINATION_MAX_ITER,
    TERMINATION_RESIDUAL,
    bb_trial_step,
)
from stiefel_rgd.models import DiscreteOperatorA
from stiefel_rgd.solvers import dense_inverse_applier

from conftest import (
    FIXED_TAU,
    RUN_TOL,
    dense_lowest_eigenpairs,
    make_model,
    reference_solver_config,
)

DIRECT = SolveConfig(method="direct_dense")

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
        run = rgd_fixed_step(
            model, phi0, 1.0, tol=1e-12, max_iter=1, solver_config=DIRECT,
            log_frames=True,
        )
        op = DiscreteOperatorA.at(model, phi0)
        pulled = dense_inverse_applier(op)(phi0)
        expected = (1.0 / norm_h(pulled)) * pulled
        gap = min(norm_h(run.frames[1] - expected), norm_h(run.frames[1] + expected))
        assert gap <= 1e-12

    def test_reference_energy_decay(self, gpe_runs):
        run = gpe_runs["rgd_fixed"]
        assert run.converged
        energies = [rec.energy for rec in run.history]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + roundoff_slack(a)

    def test_manifold_preserved_along_run(self, gpe_runs):
        for frame in gpe_runs["rgd_fixed"].frames:
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

    def test_degenerate_start_reported(self):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=0.0, n_orbitals=2)
        column = np.ones((32, 1)) / np.sqrt(32 * model.grid.weight)
        collapsed = Frame(np.column_stack([column, column]), model.grid)
        run = rgd_fixed_step(model, collapsed, 0.1, solver_config=DIRECT)
        assert not run.converged
        assert run.termination == TERMINATION_DEGENERATE


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

    def test_manifold_preserved_along_all_runs(self, gpe_runs, coupled_runs):
        for runs in (gpe_runs, coupled_runs):
            for run in runs.values():
                for frame in run.frames:
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

    def test_line_search_failure_termination(self):
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

    def test_converged_invariant(self, gpe_runs, coupled_runs):
        for runs in (gpe_runs, coupled_runs):
            for run in runs.values():
                assert run.termination == TERMINATION_RESIDUAL
                assert run.history[-1].residual_h_norm <= RUN_TOL


class TestDiagnostics:
    def test_reference_ratios_positive_where_resolvable(self, gpe_model, gpe_runs):
        run = gpe_runs["rgd_fixed"]
        r2, r3 = diagnostics_a2_a3(gpe_model, run)
        energies = [rec.energy for rec in run.history]
        assert np.all(r3[np.isfinite(r3)] > 0.0)
        for n in range(len(r2)):
            decrement = energies[n] - energies[n + 1]
            if np.isfinite(r2[n]) and decrement > roundoff_slack(energies[n]):
                assert r2[n] > 0.0

    def test_requires_logged_frames(self, gpe_model):
        run = rgd_fixed_step(
            gpe_model,
            initial_frame(gpe_model.grid, 1, 7),
            FIXED_TAU,
            tol=1e-2,
            solver_config=reference_solver_config(),
        )
        with pytest.raises(ValueError):
            diagnostics_a2_a3(gpe_model, run)

    def test_vanishing_gradient_reports_nan(self):
        from stiefel_rgd import IterationRecord, RunResult

        model = make_model(n=48, length=1.0, omega=6.0, kappa=0.0, n_orbitals=2)
        _, modes = dense_lowest_eigenpairs(model, 2)
        perturbed = Frame(modes.values + 1e-3, model.grid)

        def record(n, grad):
            return IterationRecord(n, 1.0, 0.0, grad, 0.1, 0, 0, 1.0, 1.0, 0.0)

        tiny, fine = 1e-15, 1e-3
        run = RunResult(
            final_frame=modes,
            eigenvalues=np.zeros(2),
            history=[record(0, tiny), record(1, fine), record(2, fine)],
            converged=True,
            termination=TERMINATION_RESIDUAL,
            frames=[modes, perturbed, modes],
        )
        r2, r3 = diagnostics_a2_a3(model, run)
        assert np.isnan(r2[0]) and np.isnan(r3[0])
        assert np.isfinite(r2[1]) and np.isfinite(r3[1])

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

    def test_exact_gradient_tangent_on_every_iterate(self, gpe_runs, coupled_runs):
        from stiefel_rgd import is_tangent

        for runs in (gpe_runs, coupled_runs):
            run = runs["rgd_ls"]
            for frame, direction in zip(run.frames, run.directions):
                # ten times the 1e-8 inner-solve tolerance
                assert is_tangent(frame, direction, 0.0).skew_defect <= 1e-7


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


class TestEvaluationCounts:
    """Each visited iterate is evaluated once: one energy per trial step plus
    the start, and one anchored operator per iterate."""

    @pytest.mark.parametrize("method", ["rgd_fixed", "rgd_ls", "rgd_ls_inexact", "dcm"])
    def test_one_evaluation_per_iterate(self, method, monkeypatch):
        import stiefel_rgd.descent as descent
        import stiefel_rgd.directions as directions

        counts = {"energy": 0, "at": 0, "inexact": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(descent, "energy", counted("energy", descent.energy))
        monkeypatch.setattr(DiscreteOperatorA, "at", classmethod(
            counted("at", DiscreteOperatorA.__dict__["at"].__func__)))
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
        if method == "rgd_ls":
            assert trials > run.iterations
        if method == "rgd_ls_inexact":
            # The safeguard discarded attempts at some iterates.
            assert counts["inexact"] > len(run.history)
