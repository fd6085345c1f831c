"""Exact/inexact gradients, the DCM direction, and their structural identities."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from stiefel_rgd import (
    DiscreteOperatorA,
    IterateState,
    SolveConfig,
    dcm_direction,
    energy,
    inexact_gradient,
    initial_frame,
    inner_h,
    multiply_right,
    norm_h,
    outer_product,
    random_frame,
    rgd_fixed_step,
    rgd_line_search,
    riemannian_gradient,
    safeguarded_inexact_gradient,
    solve,
)
from stiefel_rgd import descent, directions, models
from stiefel_rgd.directions import (
    DCM,
    EXACT_GRAD,
    INEXACT_GRAD,
    CorrectionWindow,
    SearchDirection,
    compute_direction,
    recycled_start,
)
from stiefel_rgd.geometry import retract, retract_polar, retract_qr_mgs
from stiefel_rgd.models import csr_product

from conftest import (
    DIRECT,
    FIXED_TAU,
    dense_a_solve,
    dense_lowest_eigenpairs,
    force_discards,
    framed_run,
    is_tangent,
    make_model,
    project_tangent,
    random_tangent,
    reference_solver_config,
    solve_lyapunov,
    truncated,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


@pytest.fixture
def model():
    return make_model(n=64, length=1.0, omega=8.0, kappa=20.0, n_orbitals=2)


@pytest.fixture
def phi(model, rng):
    q, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
    return q


class TestExactGradient:
    def test_vanishes_at_linear_eigenframe(self):
        model = make_model(n=48, length=1.0, omega=6.0, kappa=0.0, n_orbitals=3)
        _, modes = dense_lowest_eigenpairs(model, 3)
        sd = riemannian_gradient(IterateState.at(model, modes), DIRECT)
        assert norm_h(sd.direction) <= 1e-9

    def test_tangency(self, model, phi):
        sd = riemannian_gradient(IterateState.at(model, phi), DIRECT)
        assert is_tangent(phi, sd.direction).skew_defect <= 1e-10

    @pytest.mark.parametrize("dimension, n, n_orbitals", [(1, 64, 1), (1, 64, 3), (2, 12, 3)])
    def test_matches_projection_oracle(self, dimension, n, n_orbitals):
        # The closed form X G^{-1} - phi is the negative metric projection of
        # phi itself onto the tangent space, here from the Lyapunov oracle.
        model = make_model(n=n, length=1.0, omega=8.0, kappa=20.0, n_orbitals=n_orbitals,
                           dimension=dimension)
        phi = initial_frame(model.grid, n_orbitals, 5)
        sd = riemannian_gradient(IterateState.at(model, phi), DIRECT)
        oracle = -project_tangent(phi, phi, dense_a_solve(model, phi))
        assert norm_h(sd.direction - oracle) <= 1e-10 * norm_h(oracle)

    def test_single_orbital_saddle_cross_check(self, rng):
        model = make_model(n=64, length=1.0, omega=10.0, kappa=50.0, n_orbitals=1)
        u = initial_frame(model.grid, 1, 3)
        op = DiscreteOperatorA.at(model, u)
        nd, w = model.grid.n_dof, model.grid.weight
        a = op.matrix.toarray()
        uvec = u.values[:, 0]
        system = np.block(
            [[a, -uvec[:, None]], [w * uvec[None, :], np.zeros((1, 1))]]
        )
        rhs = np.zeros(nd + 1)
        rhs[nd] = 1.0
        psi = np.linalg.solve(system, rhs)[:nd]
        sd = riemannian_gradient(IterateState.at(model, u), DIRECT)
        assert np.sqrt(w) * np.linalg.norm(sd.direction.values[:, 0] - (psi - uvec)) <= 1e-10

    def test_matches_retraction_composed_difference(self, model, phi, rng):
        sd = riemannian_gradient(IterateState.at(model, phi), DIRECT)
        op = DiscreteOperatorA.at(model, phi)
        for _ in range(5):
            u = random_tangent(model, phi, rng, normalized=True)
            t = 1e-4
            fd = (
                energy(model, retract_polar(phi, t * u))
                - energy(model, retract_polar(phi, (-t) * u))
            ) / (2 * t)
            assert op.bilinear(-1.0 * sd.direction, u) == pytest.approx(fd, rel=1e-5)

    def test_metric_identity_against_derivative(self, model, phi, rng):
        sd = riemannian_gradient(IterateState.at(model, phi), DIRECT)
        op = DiscreteOperatorA.at(model, phi)
        for _ in range(5):
            u = random_tangent(model, phi, rng)
            lhs = op.bilinear(-1.0 * sd.direction, u)
            rhs = op.bilinear(phi, u) - model.shift * inner_h(phi, u)
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)

    def test_requires_tolerance_mode(self, model, phi):
        with pytest.raises(ValueError):
            riemannian_gradient(IterateState.at(model, phi), SolveConfig(fixed_iters=3))


@pytest.fixture(scope="module")
def inexact_2d_run():
    """rgd_ls_inexact on 2D 16^2, N=3, kappa=100 from start frame 4000: the
    model, the run, its frames and the count of the safeguard's exact
    fallbacks."""
    model = make_model(n=16, length=1.0, omega=10.0, kappa=100.0, n_orbitals=3,
                       dimension=2)
    exact_calls = []
    exact = directions.riemannian_gradient

    def counted(*args, **kwargs):
        exact_calls.append(1)
        return exact(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(directions, "riemannian_gradient", counted)
        run, frames = framed_run(model, initial_frame(model.grid, 3, 4000),
                                 direction_kind=INEXACT_GRAD, tol=1e-6,
                                 max_iter=2000, solver_config=reference_solver_config())
    return model, run, frames, len(exact_calls)


class TestSlopeAlongRetraction:
    """The slope of E(R(phi, tau eta)) at tau = 0 is <r, eta> for any eta,
    tangent or not: the retractions drop the normal part of eta and E does
    not change under orbital rotations. The ambient first variation is
    another number."""

    @pytest.mark.parametrize("kind", ["polar", "qr_mgs"])
    @pytest.mark.parametrize("iterate", [5, 200])
    def test_central_difference_matches_residual_pairing(self, inexact_2d_run, kind,
                                                         iterate):
        model, _, frames, _ = inexact_2d_run
        phi = frames[iterate]
        state = IterateState.at(model, phi)
        # Not critical: the residual is far above the run's tolerance.
        assert state.res_norm >= 1e-2
        eta = dcm_direction(state, truncated(reference_solver_config(), 3)).direction
        assert is_tangent(phi, eta).skew_defect >= 0.01 * norm_h(eta)
        h = 1e-3
        fd = (energy(model, retract(phi, h * eta, kind))
              - energy(model, retract(phi, (-h) * eta, kind))) / (2 * h)
        slope = inner_h(state.r, eta)
        assert fd == pytest.approx(slope, rel=1e-3)
        # The ambient derivative has the opposite sign: eta descends along
        # the retraction although <A phi - s phi, eta> > 0.
        ambient = state.op.bilinear(phi, eta) - model.shift * inner_h(phi, eta)
        assert slope < 0.0 < ambient


def late_iterates(run, frames, count=3, below=1e-3):
    """The first ``count`` of the ``frames`` of a converged run whose residual
    is at most ``below``: late enough for phi Lambda^{-1} to be a close guess."""
    assert run.converged
    return [frame for frame, rec in zip(frames, run.history)
            if rec.residual_h_norm <= below][:count]


def two_dimensional_run():
    model = make_model(n=16, length=1.0, omega=10.0, kappa=50.0, n_orbitals=3,
                       dimension=2)
    run, frames = framed_run(model, initial_frame(model.grid, 3, 3), tol=1e-6,
                             max_iter=2000, solver_config=reference_solver_config())
    return model, run, frames


class TestWarmStartedExactGradient:
    """The Krylov exact gradient starts from the iterate's multiplier guess
    phi Lambda^{-1}, still solves to ``rel_tol`` and agrees with the dense
    gradient."""

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_matches_dense_gradient_on_late_iterates(self, dimension, request, monkeypatch):
        if dimension == 1:
            model = request.getfixturevalue("coupled_model")
            run, frames, _ = request.getfixturevalue("coupled_observed")["rgd_ls"]
        else:
            model, run, frames = two_dimensional_run()
        frames = late_iterates(run, frames)
        config = reference_solver_config()
        calls = []
        routed = directions.solve  # takes DIRECT to the dense oracle

        def recording_solve(*args, **kwargs):
            x, report = routed(*args, **kwargs)
            calls.append((report, kwargs.get("warm_start")))
            return x, report

        monkeypatch.setattr(directions, "solve", recording_solve)
        assert len(frames) == 3
        for phi in frames:
            state = IterateState.at(model, phi)
            calls.clear()
            sd = riemannian_gradient(state, config)
            (report, warm), = calls
            assert warm is state.multiplier_warm_start
            assert max(report.final_relative_residuals) <= config.rel_tol

            # Each column of X solves A x = phi_j to a Euclidean residual of
            # at most rel_tol * |phi_j|, so the solve error E obeys
            # |E|_H <= rel_tol * |phi|_H / lambda_min(A) = rel_tol sqrt(N) /
            # lambda_min(A) for orthonormal phi. To first order in E,
            # eta = X G^{-1} - phi moves by (I - psi [[phi, .]]) E G^{-1}, a
            # projector of norm 1 + O(|eta|^2) applied to E G^{-1}, so
            # |eta - eta_dense|_H <= rel_tol sqrt(N) |G^{-1}|_2 / lambda_min(A);
            # the factor 2 covers second-order terms and the dense solve's
            # own round-off.
            dense = riemannian_gradient(state, DIRECT)
            gram = outer_product(phi, dense_a_solve(model, phi)(phi))
            lambda_min = np.linalg.eigvalsh(state.op.matrix.toarray())[0]
            bound = (2.0 * config.rel_tol * np.sqrt(phi.n_orbitals)
                     / (np.linalg.eigvalsh(0.5 * (gram + gram.T))[0] * lambda_min))
            assert norm_h(sd.direction - dense.direction) <= bound
            # The bound is far below the direction, so agreement means something.
            assert bound <= 0.1 * norm_h(dense.direction)

            _, cold = solve(state.op, phi, config)
            assert sd.inner_effort < cold.total_iterations


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def early_iterates(request):
    """The start frame and iterates 5 and 20 of a short dcm run: the 1D
    three-orbital reference problem, or 2D 32^2 with four orbitals."""
    if request.param == 1:
        model = make_model(n=128, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
    else:
        model = make_model(n=32, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=2)
    _, frames = framed_run(model, initial_frame(model.grid, model.n_orbitals, 1000),
                           direction_kind=DCM, tol=1e-12, max_iter=20,
                           solver_config=reference_solver_config())
    return model, [frames[k] for k in (0, 5, 20)]


def relative_gap(values, oracle):
    return np.linalg.norm(values - oracle) / np.linalg.norm(oracle)


class TestMixesAgreeWithSolves:
    """The N x N inverses of the warm start phi Lambda^{-1} and of the
    gradient X G^{-1} - phi mix the frame in one matrix product; each agrees
    with the solve against n_dof right-hand sides it replaces."""

    def test_warm_start_matches_solve(self, early_iterates):
        model, frames = early_iterates
        for phi in frames:
            state = IterateState.at(model, phi)
            lam = 0.5 * (state.lam + state.lam.T)
            oracle = np.linalg.solve(lam, phi.values.T).T
            assert relative_gap(state.multiplier_warm_start.values, oracle) <= 1e-13

    def test_exact_gradient_matches_cholesky_solve(self, early_iterates, monkeypatch):
        model, frames = early_iterates
        solutions = []

        def recording_solve(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            solutions.append(x)
            return x, report

        monkeypatch.setattr(directions, "solve", recording_solve)
        for phi in frames:
            solutions.clear()
            sd = riemannian_gradient(IterateState.at(model, phi), reference_solver_config())
            (x,) = solutions
            g = outer_product(phi, x)
            factor = sla.cho_factor(0.5 * (g + g.T))
            oracle = sla.cho_solve(factor, x.values.T).T - phi.values
            assert relative_gap(sd.direction.values, oracle) <= 1e-13


@pytest.fixture(scope="module", params=["1d", "1d_fixed", "2d"])
def exact_solves(request):
    """Every solve of the first 30 iterates from start frame 1000, as
    (operator, right-hand side phi, start), and every exact gradient as
    (state, V, G) with copies of the window it was given, read right after
    it: exact rgd_ls or rgd_fixed on the 1D n=128 N=3 reference problem, or
    exact rgd_ls on 2D 32^2 with four orbitals. Fixed steps make the most
    nearly dependent windows."""
    if request.param == "2d":
        model = make_model(n=32, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=2)
    else:
        model = make_model(n=128, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
    solves, gradients = [], []
    exact = directions.riemannian_gradient

    def recording_solve(op, b, config, warm_start=None):
        solves.append((op, b, warm_start))
        return solve(op, b, config, warm_start=warm_start)

    def recording_gradient(state, config, window=None):
        sd = exact(state, config, window)
        assert window.diagonal is state.op.diagonal
        gradients.append((state, window.corrections.copy(), window.gram.copy()))
        return sd

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(directions, "solve", recording_solve)
        patch.setattr(directions, "riemannian_gradient", recording_gradient)
        phi0 = initial_frame(model.grid, model.n_orbitals, 1000)
        if request.param == "1d_fixed":
            run = rgd_fixed_step(model, phi0, FIXED_TAU, tol=1e-12, max_iter=30,
                                 solver_config=reference_solver_config())
        else:
            run = rgd_line_search(model, phi0, tol=1e-12, max_iter=30,
                                  solver_config=reference_solver_config())
    assert len(solves) == len(gradients) == len(run.history) == 31
    return model, solves, gradients


class TestRecycledStart:
    """From the second iterate on, the exact solve starts from phi Lambda^{-1}
    plus the Galerkin projection onto the run's window of the corrections
    of the last eight exact solves; truncated solves, DCM and the
    safeguard's exact fallback neither read nor fill a window."""

    def test_error_never_above_multiplier_guess(self, exact_solves):
        model, solves, _ = exact_solves
        ratios = []
        for op, phi, start in solves[1:]:
            a = op.matrix
            x = dense_a_solve(model, phi)(phi).values
            lam = model.grid.weight * phi.values.T @ (a @ phi.values)
            guess = np.linalg.solve(0.5 * (lam + lam.T), phi.values.T).T

            def a_norm_error(y):
                e = x - y
                return np.sqrt(np.sum(e * (a @ e), axis=0))

            plain, recycled = a_norm_error(guess), a_norm_error(start.values)
            # Column by column; the slack covers the dense solve's round-off.
            assert np.all(recycled <= plain * (1.0 + 1e-9))
            ratios.extend((recycled / plain).tolist())
        # The bound holds with room to spare: recycling removes most of the error.
        assert np.median(ratios) <= 0.5

    def test_exact_correction_is_solution_minus_guess(self, exact_solves, monkeypatch):
        model, solves, _ = exact_solves
        solutions = []

        def recording_solve(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            solutions.append(x)
            return x, report

        monkeypatch.setattr(directions, "solve", recording_solve)
        state = IterateState.at(model, solves[5][1])
        window = CorrectionWindow(model.grid.n_dof, model.n_orbitals)
        riemannian_gradient(state, reference_solver_config(), window)
        (x,) = solutions
        # Given an empty window, the window holds this correction alone.
        np.testing.assert_array_equal(
            window.corrections, x.values - state.multiplier_warm_start.values)

    def test_truncated_directions_carry_no_correction(self, exact_solves, monkeypatch):
        # A direction is a plain record, and the truncated kinds neither
        # read nor fill a window handed to ``compute_direction``: their
        # solves start from phi Lambda^{-1} and the window stays as it was.
        model, solves, _ = exact_solves
        assert [f.name for f in dataclasses.fields(SearchDirection)] == [
            "direction", "gram_of_direction", "inner_effort", "kind"]
        state = IterateState.at(model, solves[5][1])
        config = reference_solver_config()
        window = CorrectionWindow(model.grid.n_dof, model.n_orbitals)
        riemannian_gradient(IterateState.at(model, solves[4][1]), config, window)
        held, gram = window.corrections.copy(), window.gram.copy()
        starts = []

        def recording_solve(op, b, config, warm_start=None):
            starts.append(warm_start)
            return solve(op, b, config, warm_start=warm_start)

        monkeypatch.setattr(directions, "solve", recording_solve)
        for kind, guess in ((DCM, None), (INEXACT_GRAD, state.multiplier_warm_start)):
            starts.clear()
            sd = compute_direction(state, kind, truncated(config, 3), window)
            assert sd.kind == kind and starts == [guess]
            np.testing.assert_array_equal(window.corrections, held)
            np.testing.assert_array_equal(window.gram, gram)

    def test_window_holds_last_eight_corrections(self, exact_solves):
        # Solve k writes its correction over slot k mod 8 and leaves the
        # other slots as they were.
        model, _, gradients = exact_solves
        n = model.n_orbitals
        newest = []
        for k, (_, v, _) in enumerate(gradients):
            slot = slice(n * (k % 8), n * (k % 8 + 1))
            newest.append(v[:, slot])
            expected = [newest[max(j for j in range(k + 1) if j % 8 == s)]
                        for s in range(min(k + 1, 8))]
            np.testing.assert_array_equal(v, np.hstack(expected))

    def test_tracked_gram_matches_fresh_gram(self, exact_solves):
        # After 30 iterates every entry of G has been moved by up to seven
        # diagonal updates since its row or column was last written afresh.
        _, _, gradients = exact_solves
        for state, v, gram in gradients[-8:]:
            fresh = v.T @ (state.op.matrix @ v)
            norms = np.sqrt(np.diag(fresh))
            assert np.all(np.abs(gram - fresh) <= 1e-12 * np.outer(norms, norms))

    def test_indefinite_gram_falls_back_to_multiplier_guess(self, exact_solves):
        # Round-off could leave G + RIDGE diag(G) not positive definite; the
        # start is then phi Lambda^{-1}, never worse than it.
        model, solves, _ = exact_solves
        state = IterateState.at(model, solves[5][1])
        window = CorrectionWindow(model.grid.n_dof, model.n_orbitals)
        riemannian_gradient(IterateState.at(model, solves[4][1]), reference_solver_config(),
                            window)
        window._gram[:len(window), :len(window)] *= -1.0
        assert recycled_start(state, window) is state.multiplier_warm_start

    def test_one_sparse_product_per_exact_solve_recycles(self, exact_solves, monkeypatch):
        """Outside its Krylov solve an exact gradient makes one sparse product
        more than a truncated one, which makes a(eta, eta) alone: A E of its
        new correction. Moving the window to a new operator takes none."""
        model, _, gradients = exact_solves
        config = reference_solver_config()
        products = []

        def counted(matrix, block):
            products.append(block.shape)
            return csr_product(matrix, block)

        # The Krylov solve binds the helper in ``solvers``, so its products
        # are not counted.
        for module in (models, directions):
            monkeypatch.setattr(module, "csr_product", counted)

        def count(make_direction, state):
            products.clear()
            sd = make_direction(state)
            assert sd.inner_effort > 0
            return len(products)

        window = CorrectionWindow(model.grid.n_dof, model.n_orbitals)
        fixed = truncated(config, 3)
        for state, _, _ in gradients[:12]:
            exact = count(lambda s: riemannian_gradient(s, config, window), state)
            inexact = count(lambda s: inexact_gradient(s, fixed), state)
            assert (exact, inexact) == (2, 1)
        assert window.corrections.shape[1] == 8 * model.n_orbitals

    def test_window_empty_after_other_directions(self, exact_solves, monkeypatch):
        model, solves, _ = exact_solves
        config = reference_solver_config()
        starts = []

        def recording_solve(op, b, config, warm_start=None):
            starts.append(warm_start)
            return solve(op, b, config, warm_start=warm_start)

        monkeypatch.setattr(directions, "solve", recording_solve)
        state = IterateState.at(model, solves[6][1])
        before = IterateState.at(model, solves[5][1])
        # Given no window, as after the other kinds of direction, an exact
        # gradient starts from phi Lambda^{-1}, also after an exact one.
        for kind in (DCM, INEXACT_GRAD, EXACT_GRAD):
            compute_direction(before, kind, config if kind == EXACT_GRAD else truncated(config, 3))
            starts.clear()
            compute_direction(state, EXACT_GRAD, config)
            assert starts == [state.multiplier_warm_start]
        # The window an exact gradient filled does reach the next start.
        window = CorrectionWindow(model.grid.n_dof, model.n_orbitals)
        compute_direction(before, EXACT_GRAD, config, window)
        starts.clear()
        compute_direction(state, EXACT_GRAD, config, window)
        assert starts[0] is not state.multiplier_warm_start


class TestNormalComponentIdentities:
    def test_psi_solves_normal_space_conditions(self, model, phi, rng):
        solve = dense_a_solve(model, phi)
        x = solve(phi)
        g = outer_product(phi, x)
        psi = multiply_right(x, np.linalg.inv(g))
        op = DiscreteOperatorA.at(model, phi)
        eta = random_tangent(model, phi, rng)
        assert abs(op.bilinear(psi, eta)) <= 1e-9 * norm_h(psi) * norm_h(eta)
        sym = 0.5 * (outer_product(psi, phi) + outer_product(phi, psi))
        assert np.abs(sym - np.eye(2)).max() <= 1e-9

    def test_negative_inverse_gram_solves_lyapunov(self, model, phi):
        solve = dense_a_solve(model, phi)
        g = outer_product(phi, solve(phi))
        g = 0.5 * (g + g.T)
        s = -np.linalg.inv(g)
        assert np.linalg.norm(g @ s + s @ g + 2.0 * np.eye(2)) <= 1e-12 * 2
        s_route = solve_lyapunov(g, -2.0 * np.eye(2))
        assert np.abs(s - s_route).max() <= 1e-10 * np.abs(s).max()


class TestInexactGradient:
    def test_large_budget_matches_exact(self, rng):
        model = make_model(n=24, length=1.0, omega=5.0, kappa=10.0, n_orbitals=2)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
        state = IterateState.at(model, phi)
        exact = riemannian_gradient(state, SolveConfig(rel_tol=1e-13, max_iters=500))
        inexact = inexact_gradient(state, SolveConfig(fixed_iters=model.grid.n_dof))
        assert norm_h(inexact.direction - exact.direction) <= 1e-8

    def test_convergence_toward_exact_with_budget(self, model, phi):
        state = IterateState.at(model, phi)
        exact = riemannian_gradient(state, DIRECT)
        gaps = [
            norm_h(
                inexact_gradient(state, truncated(reference_solver_config(), k)).direction
                - exact.direction
            )
            for k in (2, 8, 32)
        ]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 1e-6

    def test_reference_budget_200_matches_exact(self):
        model = make_model(n=128, length=1.0, omega=10.0, kappa=100.0, n_orbitals=1)
        phi = initial_frame(model.grid, 1, 7)
        state = IterateState.at(model, phi)
        exact = riemannian_gradient(
            state, SolveConfig(rel_tol=1e-13, max_iters=2000,
                               preconditioner="kinetic_shift"),
        )
        inexact = inexact_gradient(state, truncated(reference_solver_config(), 200))
        assert norm_h(inexact.direction - exact.direction) <= 1e-6

    def test_descent_on_converging_run(self, rng):
        model = make_model(n=128, length=1.0, omega=10.0, kappa=100.0, n_orbitals=1)
        run, frames = framed_run(
            model,
            initial_frame(model.grid, 1, 7),
            direction_kind=INEXACT_GRAD,
            tol=1e-6,
            max_iter=2000,
            solver_config=reference_solver_config(),
        )
        assert run.converged
        for frame in frames[:-1]:
            state = IterateState.at(model, frame)
            sd = safeguarded_inexact_gradient(state, truncated(reference_solver_config(), 3))
            # The slope of E(R(frame, tau eta)) at tau = 0.
            assert inner_h(state.r, sd.direction) < 0.0

    def test_warm_start_beats_zero_start(self, rng):
        model = make_model(n=64, length=1.0, omega=10.0, kappa=100.0, n_orbitals=1)
        _, frames = framed_run(
            model,
            initial_frame(model.grid, 1, 7),
            tol=1e-6,
            max_iter=5,
            solver_config=reference_solver_config(),
        )
        phi = frames[-1]
        op = DiscreteOperatorA.at(model, phi)
        a_phi = op.apply(phi)
        lam = outer_product(phi, a_phi)
        warm = multiply_right(phi, np.linalg.inv(lam))
        assert norm_h(phi - op.apply(warm)) <= norm_h(phi)


class TestDcmDirection:
    def test_vanishes_at_critical_point(self):
        model = make_model(n=48, length=1.0, omega=6.0, kappa=0.0, n_orbitals=3)
        _, modes = dense_lowest_eigenpairs(model, 3)
        sd = dcm_direction(IterateState.at(model, modes),
                           truncated(reference_solver_config(), 3))
        assert norm_h(sd.direction) <= 1e-9

    def test_residual_orthogonal_to_frame(self, model, phi):
        op = DiscreteOperatorA.at(model, phi)
        a_phi = op.apply(phi)
        lam = outer_product(phi, a_phi)
        r = a_phi - multiply_right(phi, lam)
        assert np.abs(outer_product(phi, r)).max() <= 1e-11 * np.abs(lam).max()

    def test_limit_approaches_gradient_near_convergence(self):
        model = make_model(n=128, length=1.0, omega=10.0, kappa=100.0, n_orbitals=1)
        run, frames = framed_run(
            model,
            initial_frame(model.grid, 1, 7),
            direction_kind="dcm",
            tol=1e-4,
            max_iter=2000,
            solver_config=reference_solver_config(),
        )
        assert run.converged
        dists = []
        for frame in frames[-6:]:
            op = DiscreteOperatorA.at(model, frame)
            ainv = dense_a_solve(model, frame)
            a_phi = op.apply(frame)
            lam = outer_product(frame, a_phi)
            r = a_phi - multiply_right(frame, lam)
            limit = -1.0 * ainv(r)
            grad = riemannian_gradient(IterateState.at(model, frame), DIRECT)
            dists.append(norm_h(limit - grad.direction))
        assert all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))


class TestSafeguard:
    def test_returns_exact_kind_when_doublings_exhausted(self, model, phi, monkeypatch):
        monkeypatch.setattr(directions, "MAX_DOUBLINGS", 2)
        attempts = force_discards(monkeypatch, lambda k: 3)
        windows = []
        exact = directions.riemannian_gradient

        def recording_exact(state, config, window=None):
            windows.append(window)
            return exact(state, config, window)

        monkeypatch.setattr(directions, "riemannian_gradient", recording_exact)
        sd = safeguarded_inexact_gradient(
            IterateState.at(model, phi), truncated(reference_solver_config(), 3)
        )
        assert sd.kind == EXACT_GRAD
        # The next direction is inexact again, so the fallback is given no window.
        assert windows == [None]
        # Every attempt ran, each with twice the budget of the one before.
        assert [iters for iters, _ in attempts] == [3, 6, 12]

    def test_fallback_builds_no_window(self, model, phi, monkeypatch):
        # No direction reads the fallback's correction, so no window is
        # allocated for it and no sparse product is spent on one; its solve
        # starts from the guess. Only the descent driver builds windows.
        discards = [3]
        monkeypatch.setattr(directions, "MAX_DOUBLINGS", 2)
        force_discards(monkeypatch, lambda k: discards[0])
        built, starts, windows = [], [], []
        routed, exact = directions.solve, directions.riemannian_gradient

        def counted_window(*args):
            built.append(args)
            return CorrectionWindow(*args)

        def recording_solve(op, b, config, warm_start=None):
            starts.append(warm_start)
            return routed(op, b, config, warm_start=warm_start)

        monkeypatch.setattr(descent, "CorrectionWindow", counted_window)
        monkeypatch.setattr(directions, "solve", recording_solve)
        state = IterateState.at(model, phi)
        sd = safeguarded_inexact_gradient(state, truncated(reference_solver_config(), 3))
        assert sd.kind == EXACT_GRAD
        assert starts[-1] is state.multiplier_warm_start
        # Through the driver too: an inexact run whose every direction is
        # the exact fallback builds none and hands none to the fallback.
        def recording_exact(state, config, window=None):
            windows.append(window)
            return exact(state, config, window)

        monkeypatch.setattr(directions, "riemannian_gradient", recording_exact)
        discards[0] = 5
        run = rgd_line_search(model, phi, direction_kind=INEXACT_GRAD, max_iter=2,
                              solver_config=reference_solver_config())
        assert run.iterations == 2 and built == []
        assert windows == [None] * 3

    def test_accumulates_effort(self, model, phi):
        # Accepted after 0, 1 or 2 discards, or exact after all 3 attempts.
        for discards in range(4):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(directions, "MAX_DOUBLINGS", 2)
                attempts = force_discards(patch, lambda k: discards)
                fallbacks = []
                exact = directions.riemannian_gradient

                def recording_exact(*args, **kwargs):
                    fallbacks.append(exact(*args, **kwargs))
                    return fallbacks[-1]

                patch.setattr(directions, "riemannian_gradient", recording_exact)
                sd = safeguarded_inexact_gradient(
                    IterateState.at(model, phi), truncated(reference_solver_config(), 3)
                )
            assert len(attempts) == min(discards + 1, 3)
            assert len(fallbacks) == (1 if discards == 3 else 0)
            assert sd.kind == (EXACT_GRAD if fallbacks else INEXACT_GRAD)
            # The returned effort is that of every attempt plus the fallback.
            assert sd.inner_effort == (sum(a.inner_effort for _, a in attempts)
                                       + sum(f.inner_effort for f in fallbacks))
            assert sd.inner_effort >= 3 * phi.n_orbitals

    def test_2d_inexact_run_needs_no_exact_fallback(self, inexact_2d_run):
        # Along some inexact directions of this run that descend, the ambient
        # derivative <A phi - s phi, eta> is positive; a safeguard testing it
        # falls back to the exact gradient 11 times here.
        _, run, _, exact_calls = inexact_2d_run
        assert run.converged
        assert run.history[-1].residual_h_norm <= 1e-6
        assert exact_calls == 0
