"""Blocked CG solves, preconditioners, and their agreement with the dense oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs

from stiefel_rgd import (
    ConvergenceError,
    DiscreteOperatorA,
    Frame,
    GridSpec,
    SolveConfig,
    apply_preconditioner,
    initial_frame,
    norm_h,
    random_frame,
    rgd_fixed_step,
    rgd_line_search,
    solve,
    zero_frame,
)
from stiefel_rgd import solvers
from stiefel_rgd.descent import TERMINATION_RESIDUAL
from stiefel_rgd.directions import EXACT_GRAD
from stiefel_rgd.errors import OperatorNotSPDError
from stiefel_rgd.frames import DIRICHLET, PERIODIC
from stiefel_rgd.geometry import retract_qr_mgs
from stiefel_rgd.models import csr_product, laplacian

from conftest import FIXED_TAU, RUN_TOL, dense_solve, make_model, reference_solver_config


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def model():
    return make_model(n=64, length=1.0, omega=8.0, kappa=20.0, n_orbitals=2)


@pytest.fixture
def op(model, rng):
    anchor, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
    return DiscreteOperatorA.at(model, anchor)


def identity_operator(model):
    """Operator stub whose matrix is the identity (kinetic part removed,
    unit shift): CG must finish in a single step."""
    nd = model.grid.n_dof
    return DiscreteOperatorA(
        model=model, matrix=sp.identity(nd, format="csr")
    )


def mixed_block(grid, rng):
    """Four right-hand sides that CG treats differently: a random column,
    a zero column, a smooth column and a random column scaled by 1e3."""
    values = rng.standard_normal((grid.n_dof, 4))
    values[:, 1] = 0.0
    values[:, 2] = np.prod(np.sin(np.pi * grid.coordinates()), axis=1)
    values[:, 3] *= 1e3
    return Frame(values, grid)


def reference_pcg(matrix, b, x0, apply_m, rel_tol, max_iters, fixed_iters):
    """PCG on one column as a plain loop: the reference the blocked solver
    must reproduce. Tolerance mode accepts the recursive residual only once
    the true residual confirms it."""
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    x = x0.copy()
    r = b - matrix @ x
    z = apply_m(r)
    p = z.copy()
    rz = np.dot(r, z)
    iterations = 0
    while iterations < (fixed_iters or max_iters) and rz != 0.0:
        ap = matrix @ p
        alpha = rz / np.dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        if fixed_iters is None and np.linalg.norm(r) <= rel_tol * b_norm:
            r = b - matrix @ x
            if np.linalg.norm(r) <= rel_tol * b_norm:
                break
        z = apply_m(r)
        rz, rz_old = np.dot(r, z), rz
        p = z + (rz / rz_old) * p
    return x, iterations


def mean_shift(op):
    """The shift a tolerance-mode kinetic-shift map inverts with the
    Laplacian: the mean of the operator's diagonal beyond the Laplacian's,
    floored at KINETIC_SHIFT_C0."""
    lap_diagonal = laplacian(op.model.grid).diagonal()
    return max(solvers.KINETIC_SHIFT_C0, float(np.mean(op.diagonal - lap_diagonal)))


def column(frame, j):
    return None if frame is None else Frame(frame.values[:, [j]], frame.grid)


class TestSolveConfig:
    def test_defaults(self):
        config = SolveConfig()
        assert config.rel_tol == 1e-8
        assert config.max_iters == 500
        assert config.fixed_iters is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=2.0)
        with pytest.raises(ValueError):
            SolveConfig(fixed_iters=0)
        with pytest.raises(TypeError):
            SolveConfig(method="gmres")
        with pytest.raises(ValueError):
            SolveConfig(preconditioner="multigrid")


class TestSolve:
    def test_zero_rhs(self, op, model):
        x, report = solve(op, zero_frame(model.grid, 2), SolveConfig())
        assert norm_h(x) == 0.0
        assert report.iterations_per_column == [0, 0]

    def test_identity_operator_single_iteration(self, model, rng):
        op = identity_operator(model)
        b = random_frame(model.grid, 2, rng)
        x, report = solve(op, b, SolveConfig())
        assert norm_h(x - b) <= 1e-14 * norm_h(b)
        assert report.iterations_per_column == [1, 1]

    def test_cg_matches_dense(self, op, model, rng):
        b = random_frame(model.grid, 2, rng)
        x_cg, _ = solve(op, b, SolveConfig(rel_tol=1e-10, max_iters=2000))
        x_dd, dd_report = dense_solve(op, b)
        assert norm_h(x_cg - x_dd) <= 1e-7 * norm_h(x_dd)
        assert dd_report.iterations_per_column == [0, 0]
        assert max(dd_report.final_relative_residuals) <= 1e-12

    def test_residual_bound_remeasured(self, op, model, rng):
        b = random_frame(model.grid, 2, rng)
        config = SolveConfig(rel_tol=1e-8, max_iters=2000)
        x, report = solve(op, b, config)
        for j in range(2):
            col_b = b.values[:, j]
            res = np.linalg.norm(col_b - op.matrix @ x.values[:, j])
            assert res <= config.rel_tol * np.linalg.norm(col_b)
            assert report.final_relative_residuals[j] <= config.rel_tol

    def test_preconditioned_solutions_agree(self, op, model, rng):
        b = random_frame(model.grid, 2, rng)
        config = SolveConfig(rel_tol=1e-9, max_iters=2000)
        baseline, _ = solve(op, b, config)
        x, _ = solve(
            op, b, SolveConfig(rel_tol=1e-9, max_iters=2000, preconditioner="kinetic_shift")
        )
        assert norm_h(x - baseline) <= 10 * config.rel_tol * norm_h(baseline)

    def test_warm_start_honored(self, op, model, rng):
        b = random_frame(model.grid, 2, rng)
        exact, _ = dense_solve(op, b)
        _, cold = solve(op, b, SolveConfig(rel_tol=1e-10, max_iters=2000))
        _, warm = solve(
            op, b, SolveConfig(rel_tol=1e-10, max_iters=2000), warm_start=exact
        )
        assert warm.total_iterations < cold.total_iterations

    def test_fixed_iteration_mode(self, op, model, rng):
        b = random_frame(model.grid, 2, rng)
        _, report = solve(op, b, SolveConfig(fixed_iters=4))
        assert report.iterations_per_column == [4, 4]

    def test_nonconvergence_carries_report(self, op, model, rng):
        b = random_frame(model.grid, 2, rng)
        with pytest.raises(ConvergenceError) as info:
            solve(op, b, SolveConfig(rel_tol=1e-12, max_iters=3))
        assert info.value.report is not None
        assert info.value.report.iterations_per_column[0] == 3

    def test_indefinite_operator_detected(self, model, rng):
        nd = model.grid.n_dof
        diag = np.ones(nd)
        diag[: nd // 2] = -1.0
        bad = DiscreteOperatorA(
            model=model, matrix=sp.diags(diag, format="csr")
        )
        b = random_frame(model.grid, 1, rng)
        with pytest.raises(OperatorNotSPDError):
            solve(bad, b, SolveConfig())


class TestBlockedColumns:
    """One blocked PCG serves all columns; each column must still run its
    own recursion, as if it were solved alone."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("fixed_iters", [None, 5])
    @pytest.mark.parametrize("kind", solvers.PRECONDITIONER_KINDS)
    def test_columns_are_independent_1d(self, op, model, rng, kind, fixed_iters, warm):
        b = mixed_block(model.grid, rng)
        x0 = None
        if warm:
            # Random starts, but column 3 starts next to its solution and
            # so stops earlier than the others in tolerance mode.
            exact, _ = dense_solve(op, b)
            x0 = rng.standard_normal((model.grid.n_dof, 4))
            x0[:, 3] = exact.values[:, 3] * (1.0 + 1e-6 * rng.standard_normal(model.grid.n_dof))
            x0 = Frame(x0, model.grid)
        config = SolveConfig(
            rel_tol=1e-8, max_iters=2000, fixed_iters=fixed_iters, preconditioner=kind
        )
        x, report = solve(op, b, config, warm_start=x0)
        apply_m = solvers._preconditioner_apply(kind, op, fixed_iters is None)
        for j in range(4):
            alone, alone_report = solve(op, column(b, j), config, warm_start=column(x0, j))
            assert alone_report.iterations_per_column == [report.iterations_per_column[j]]
            assert np.array_equal(alone.values[:, 0], x.values[:, j])
            start = np.zeros(model.grid.n_dof) if x0 is None else x0.values[:, j].copy()
            ref, ref_iters = reference_pcg(
                op.matrix, b.values[:, j], start, apply_m, config.rel_tol,
                config.max_iters, fixed_iters,
            )
            assert ref_iters == report.iterations_per_column[j]
            assert np.array_equal(ref, x.values[:, j])
        assert report.iterations_per_column[1] == 0
        if warm and fixed_iters is None:
            assert len(set(report.iterations_per_column)) == 3

    @pytest.mark.parametrize("fixed_iters", [None, 5])
    def test_columns_are_independent_2d(self, rng, fixed_iters):
        # The blocked kinetic-shift solve may differ from single-column
        # solves in the last bits in 2D, so values agree to the tolerance.
        model = make_model(n=24, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=2)
        anchor, _ = retract_qr_mgs(random_frame(model.grid, 4, rng))
        op = DiscreteOperatorA.at(model, anchor)
        b = mixed_block(model.grid, rng)
        config = SolveConfig(
            rel_tol=1e-8, max_iters=500, fixed_iters=fixed_iters,
            preconditioner="kinetic_shift",
        )
        x, report = solve(op, b, config)
        for j in range(4):
            alone, alone_report = solve(op, column(b, j), config)
            assert alone_report.iterations_per_column == [report.iterations_per_column[j]]
            diff = np.linalg.norm(alone.values[:, 0] - x.values[:, j])
            assert diff <= 10 * config.rel_tol * np.linalg.norm(alone.values[:, 0])

    @pytest.mark.parametrize("fixed_iters", [None, 5])
    def test_columns_are_bitwise_independent_2d(self, rng, fixed_iters):
        # The 2D kinetic-shift inverse runs a separate matmul slab per
        # column, so the blocked solve reproduces single-column solves and
        # the plain-loop reference bit for bit.
        model = make_model(n=24, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=2)
        anchor, _ = retract_qr_mgs(random_frame(model.grid, 4, rng))
        op = DiscreteOperatorA.at(model, anchor)
        b = mixed_block(model.grid, rng)
        config = SolveConfig(
            rel_tol=1e-8, max_iters=500, fixed_iters=fixed_iters,
            preconditioner="kinetic_shift",
        )
        x, report = solve(op, b, config)
        apply_m = solvers._preconditioner_apply("kinetic_shift", op, fixed_iters is None)
        for j in range(4):
            alone, alone_report = solve(op, column(b, j), config)
            assert alone_report.iterations_per_column == [report.iterations_per_column[j]]
            assert np.array_equal(alone.values[:, 0], x.values[:, j])
            ref, ref_iters = reference_pcg(
                op.matrix, b.values[:, j], np.zeros(model.grid.n_dof), apply_m,
                config.rel_tol, config.max_iters, fixed_iters,
            )
            assert ref_iters == report.iterations_per_column[j]
            assert np.array_equal(ref, x.values[:, j])
        assert report.iterations_per_column[1] == 0

    def test_fixed_mode_applies_preconditioner_once_per_step(self, op, model, rng,
                                                             monkeypatch):
        calls = []
        make_applier = solvers._preconditioner_apply

        def counting(*args):
            apply_m = make_applier(*args)

            def counted(r):
                calls.append(r.shape)
                return apply_m(r)

            return counted

        monkeypatch.setattr(solvers, "_preconditioner_apply", counting)
        b = random_frame(model.grid, 4, rng)
        _, report = solve(op, b, SolveConfig(fixed_iters=3, preconditioner="kinetic_shift"))
        assert report.iterations_per_column == [3, 3, 3, 3]
        assert calls == [(model.grid.n_dof, 4)] * 3

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("fixed_iters", [1, 3, 6])
    def test_fixed_mode_sparse_products(self, op, model, rng, monkeypatch, fixed_iters, warm):
        # A zero start takes r = b and fixed mode reads no final true
        # residual: k products from a zero start, one more from a warm start.
        calls = []

        def counting(matrix, block):
            calls.append(block.shape)
            return csr_product(matrix, block)

        monkeypatch.setattr(solvers, "csr_product", counting)
        b = random_frame(model.grid, 4, rng)
        x0 = random_frame(model.grid, 4, rng) if warm else None
        x, report = solve(
            op, b, SolveConfig(fixed_iters=fixed_iters, preconditioner="kinetic_shift"),
            warm_start=x0,
        )
        assert report.iterations_per_column == [fixed_iters] * 4
        assert calls == [(model.grid.n_dof, 4)] * (fixed_iters + warm)
        # The reported recursive residual is the true one up to round-off.
        for j in range(4):
            true_res = np.linalg.norm(b.values[:, j] - op.matrix @ x.values[:, j])
            true_rel = true_res / np.linalg.norm(b.values[:, j])
            assert report.final_relative_residuals[j] == pytest.approx(true_rel, rel=1e-10)


@pytest.fixture
def product_widths(monkeypatch):
    """Column count of every sparse product the solver makes."""
    widths = []

    def counting(matrix, block):
        widths.append(block.shape[1])
        return csr_product(matrix, block)

    monkeypatch.setattr(solvers, "csr_product", counting)
    return widths


class TestStopPaths:
    """Every way a column stops writes out its iterate, its iteration count
    and its final residual."""

    def warm_identity_case(self, model, rng):
        # Column 0 starts at its solution, so its r . M r is 0 from the
        # start; column 1 is solved by one step, after which its r is 0.
        op = identity_operator(model)
        b = random_frame(model.grid, 2, rng)
        x0 = np.column_stack([b.values[:, 0], rng.standard_normal(model.grid.n_dof)])
        return op, b, Frame(x0, model.grid)

    def test_start_at_solution_tolerance_mode(self, model, rng, product_widths):
        op, b, x0 = self.warm_identity_case(model, rng)
        x, report = solve(op, b, SolveConfig(), warm_start=x0)
        assert report.iterations_per_column == [0, 1]
        assert report.final_relative_residuals[0] == 0.0
        assert report.final_relative_residuals[1] <= 1e-8
        assert np.array_equal(x.values[:, 0], b.values[:, 0])
        # Start (both columns), one step, its true residual, and the true
        # residual of column 0, which stopped before any step.
        assert sorted(product_widths) == [1, 1, 1, 2]

    @pytest.mark.parametrize("kind", solvers.PRECONDITIONER_KINDS)
    def test_converged_start_still_takes_one_step(self, op, model, rng, kind):
        # Tolerance mode tests a column only after a step, so a start that
        # already meets rel_tol (but is not exact) takes one step; the
        # exact gradient relies on it (see SolveConfig).
        b = mixed_block(model.grid, rng)
        config = SolveConfig(rel_tol=1e-8, max_iters=2000, preconditioner=kind)
        x, _ = solve(op, b, config)
        start = np.linalg.norm(b.values - op.matrix @ x.values, axis=0)
        b_norms = np.linalg.norm(b.values, axis=0)
        nonzero = [j for j in range(4) if b_norms[j] > 0.0]
        assert nonzero == [0, 2, 3]
        assert all(0.0 < start[j] <= config.rel_tol * b_norms[j] for j in nonzero)
        _, report = solve(op, b, config, warm_start=x)
        assert report.iterations_per_column[1] == 0
        assert all(report.iterations_per_column[j] >= 1 for j in nonzero)

    def test_start_at_solution_fixed_mode(self, model, rng, product_widths):
        op, b, x0 = self.warm_identity_case(model, rng)
        _, report = solve(op, b, SolveConfig(fixed_iters=3), warm_start=x0)
        assert report.iterations_per_column == [0, 1]
        assert report.final_relative_residuals == [0.0, 0.0]
        assert product_widths == [2, 1]

    def test_budget_stop_measures_columns_in_one_product(self, op, model, rng,
                                                         product_widths):
        b = random_frame(model.grid, 2, rng)
        with pytest.raises(ConvergenceError) as info:
            solve(op, b, SolveConfig(rel_tol=1e-12, max_iters=3))
        assert info.value.report.iterations_per_column == [3, 3]
        assert product_widths == [2] * 4

    def test_each_stop_reports_true_residual(self, op, model, rng):
        # Column 0 is zero, column 1 starts at its solution and stops by
        # tolerance, column 2 runs into the budget on its own.
        nd = model.grid.n_dof
        b = rng.standard_normal((nd, 3))
        b[:, 0] = 0.0
        x0 = np.zeros((nd, 3))
        x0[:, 1] = dense_solve(op, Frame(b, model.grid))[0].values[:, 1]
        apply_m = solvers._preconditioner_apply("none", op)
        x, iterations, residuals = solvers._pcg(op.matrix, b, x0, apply_m, 1e-12, 3, None)
        assert iterations[0] == 0 and residuals[0] == 0.0
        assert np.array_equal(x[:, 0], np.zeros(nd))
        assert iterations[1] < 3 and residuals[1] <= 1e-12
        assert iterations[2] == 3
        for j in (1, 2):
            true_res = np.linalg.norm(b[:, j] - op.matrix @ x[:, j]) / np.linalg.norm(b[:, j])
            assert residuals[j] == pytest.approx(true_res, rel=1e-6, abs=1e-15)
        assert residuals[2] > 1e-6


class TestPreconditioners:
    def test_none_is_identity(self, op, model, rng):
        r = random_frame(model.grid, 2, rng)
        assert apply_preconditioner("none", op, r) is r

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("n_cols", [1, 4])
    @pytest.mark.parametrize("boundary", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("dimension, points", [(1, 128), (2, 24)])
    def test_kinetic_shift_is_exact_inverse(self, rng, dimension, points, boundary, n_cols,
                                            order):
        model = make_model(n=points, length=1.0, omega=10.0, kappa=100.0, n_orbitals=n_cols,
                           dimension=dimension, boundary=boundary)
        grid = model.grid
        op = DiscreteOperatorA.at(model, random_frame(grid, n_cols, rng))
        apply_m = solvers._preconditioner_apply("kinetic_shift", op)
        shifted = (laplacian(grid) + sp.identity(grid.n_dof)).toarray()
        r = np.array(rng.standard_normal((grid.n_dof, n_cols)), order=order)
        out = apply_m(r)
        expected = np.linalg.solve(shifted, r)
        assert out.shape == r.shape
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)
        # Symmetric up to round-off: <u, M v> = <M u, v>.
        u, v = rng.standard_normal((2, grid.n_dof))
        lhs, rhs = np.dot(u, apply_m(v)), np.dot(apply_m(u), v)
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(u) * np.linalg.norm(apply_m(v))

    def test_kinetic_shift_is_corrected_pttrs_solve_1d_periodic(self, rng):
        # The cyclic stencil is the tridiagonal B (no corners, 1/h^2 less at
        # both ends) plus (1/h^2) w w^T with w = e_0 - e_{n-1}: dpttrs on the
        # factors of B + I, then one Sherman-Morrison correction.
        model = make_model(n=64, length=1.0, omega=8.0, kappa=20.0, n_orbitals=4,
                           boundary=PERIODIC)
        grid = model.grid
        op = DiscreteOperatorA.at(model, random_frame(grid, 4, rng))
        apply_m = solvers._preconditioner_apply("kinetic_shift", op)
        lap = laplacian(grid)
        s = 1.0 / grid.spacing**2
        assert lap[0, grid.n_dof - 1] == lap[grid.n_dof - 1, 0] == -s
        tridiagonal = lap.diagonal()
        tridiagonal[[0, -1]] -= s
        d, e, info = dpttrf(tridiagonal + 1.0, lap.diagonal(1))
        assert info == 0
        w = np.zeros(grid.n_dof)
        w[[0, -1]] = 1.0, -1.0
        z = dpttrs(d, e, w)[0]
        scale = s / (1.0 + s * (z[0] - z[-1]))
        shifted = (lap + sp.identity(grid.n_dof)).toarray()
        r = np.asfortranarray(rng.standard_normal((grid.n_dof, 4)))
        out = apply_m(r)
        assert out.flags.f_contiguous
        for j in range(4):
            y = dpttrs(d, e, r[:, j])[0]
            expected = y - z * (scale * (y[0] - y[-1]))
            assert np.array_equal(out[:, j], expected)
            # One column of the block is that column solved alone.
            assert np.array_equal(apply_m(r[:, j]), expected)
            exact = np.linalg.solve(shifted, r[:, j])
            assert np.linalg.norm(expected - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_kinetic_shift_two_point_periodic_grid(self, rng):
        # With two points the cyclic stencil is tridiagonal itself.
        model = make_model(n=2, length=1.0, omega=8.0, kappa=20.0, n_orbitals=1,
                           boundary=PERIODIC)
        grid = model.grid
        op = DiscreteOperatorA.at(model, random_frame(grid, 1, rng))
        r = rng.standard_normal((2, 1))
        for tolerance_mode in (False, True):
            apply_m = solvers._preconditioner_apply("kinetic_shift", op, tolerance_mode)
            c = mean_shift(op) if tolerance_mode else 1.0
            shifted = (laplacian(grid) + c * sp.identity(2)).toarray()
            assert np.allclose(apply_m(r), np.linalg.solve(shifted, r), rtol=1e-14, atol=0)

    def test_kinetic_shift_is_pttrs_solve_1d_dirichlet(self, rng):
        model = make_model(n=64, length=1.0, omega=8.0, kappa=20.0, n_orbitals=4)
        grid = model.grid
        op = DiscreteOperatorA.at(model, random_frame(grid, 4, rng))
        apply_m = solvers._preconditioner_apply("kinetic_shift", op)
        # The map is dpttrs on the dpttrf factors of laplacian + I: L D L^T
        # with L unit lower bidiagonal.
        lap = laplacian(grid)
        d, e, info = dpttrf(lap.diagonal() + 1.0, lap.diagonal(1))
        assert info == 0
        unit_l = np.eye(grid.n_dof) + np.diag(e, -1)
        shifted = (lap + sp.identity(grid.n_dof)).toarray()
        assert np.abs(unit_l @ np.diag(d) @ unit_l.T - shifted).max() <= 1e-13 * shifted.max()
        r = np.asfortranarray(rng.standard_normal((grid.n_dof, 4)))
        out = apply_m(r)
        assert out.flags.f_contiguous
        assert np.array_equal(out, dpttrs(d, e, r)[0])
        assert np.array_equal(apply_m(r[:, 0]), dpttrs(d, e, r[:, 0])[0])
        # One column of the block is that column solved alone.
        assert np.array_equal(apply_m(r[:, 2]), out[:, 2])

    @pytest.mark.parametrize("boundary", [DIRICHLET, PERIODIC])
    def test_kinetic_shift_is_fast_diagonalization_2d(self, rng, boundary):
        # The 2D map: q (q^T X q * inv) q^T per column, with q, lam the
        # eigenbasis of the 1D stencil and inv = 1 / (lam_i + lam_j + 1).
        model = make_model(n=12, length=1.0, omega=8.0, kappa=20.0, n_orbitals=4,
                           dimension=2, boundary=boundary)
        grid = model.grid
        op = DiscreteOperatorA.at(model, random_frame(grid, 4, rng))
        apply_m = solvers._preconditioner_apply("kinetic_shift", op)
        n = grid.points_per_axis
        lam, q = np.linalg.eigh(laplacian(GridSpec(1, n, 1.0, boundary)).toarray())
        inv = 1.0 / (lam[:, None] + lam[None, :] + 1.0)
        r = np.asfortranarray(rng.standard_normal((grid.n_dof, 4)))
        out = apply_m(r)
        assert out.flags.f_contiguous
        for j in range(4):
            y = q.T @ r[:, j].reshape(1, n, n) @ q
            y *= inv
            assert np.array_equal(out[:, j], (q @ y @ q.T).ravel())

    @pytest.mark.parametrize("n_cols", [1, 4])
    @pytest.mark.parametrize("boundary", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("dimension, points", [(1, 128), (2, 24)])
    def test_tolerance_mode_map_inverts_mean_shift(self, rng, dimension, points, boundary,
                                                   n_cols):
        # A tolerance-mode solve inverts laplacian + c I with c the mean of
        # the operator's diagonal shift, here well above KINETIC_SHIFT_C0.
        model = make_model(n=points, length=1.0, omega=10.0, kappa=100.0, n_orbitals=n_cols,
                           dimension=dimension, boundary=boundary)
        grid = model.grid
        op = DiscreteOperatorA.at(model, random_frame(grid, n_cols, rng))
        c = mean_shift(op)
        assert c > 10.0
        apply_m = solvers._preconditioner_apply("kinetic_shift", op, tolerance_mode=True)
        shifted = (laplacian(grid) + c * sp.identity(grid.n_dof)).toarray()
        r = np.asfortranarray(rng.standard_normal((grid.n_dof, n_cols)))
        out = apply_m(r)
        expected = np.linalg.solve(shifted, r)
        assert out.shape == r.shape and out.flags.f_contiguous
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)
        for j in range(n_cols):
            assert np.array_equal(apply_m(r[:, j]), out[:, j])

    @pytest.mark.parametrize("dimension, points, boundary",
                             [(1, 128, DIRICHLET), (1, 128, PERIODIC), (2, 24, DIRICHLET),
                              (2, 24, PERIODIC)])
    def test_tolerance_mode_shift_floors_at_c0(self, rng, dimension, points, boundary):
        # A shallow trap (omega 1, kappa 0) has a mean shift of about 0.04,
        # below KINETIC_SHIFT_C0: its tolerance-mode map is the C0 map to
        # the bit.
        model = make_model(n=points, length=1.0, omega=1.0, kappa=0.0, n_orbitals=2,
                           dimension=dimension, boundary=boundary)
        grid = model.grid
        op = DiscreteOperatorA.at(model, random_frame(grid, 2, rng))
        assert 0.0 < np.mean(op.diagonal - laplacian(grid).diagonal()) < 0.1
        fitted = solvers._preconditioner_apply("kinetic_shift", op, tolerance_mode=True)
        fixed = solvers._preconditioner_apply("kinetic_shift", op)
        r = np.asfortranarray(rng.standard_normal((grid.n_dof, 2)))
        assert np.array_equal(fitted(r), fixed(r))

    @pytest.mark.parametrize("dimension, points, boundary",
                             [(1, 64, DIRICHLET), (1, 64, PERIODIC), (2, 12, DIRICHLET),
                              (2, 12, PERIODIC)])
    def test_kinetic_shift_is_built_once_per_grid(self, rng, dimension, points, boundary):
        # Operators anchored at different frames on equal (not identical)
        # grids share one fixed-mode map; a tolerance-mode map is built per
        # operator from the same per-grid parts.
        maps, ops = [], []
        for _ in range(2):
            model = make_model(n=points, length=1.0, omega=8.0, kappa=20.0, n_orbitals=3,
                               dimension=dimension, boundary=boundary)
            ops.append(DiscreteOperatorA.at(model, random_frame(model.grid, 3, rng)))
            maps.append(solvers._preconditioner_apply("kinetic_shift", ops[-1]))
        assert maps[0] is maps[1]
        assert solvers._kinetic_shifts(ops[0].model.grid) is solvers._kinetic_shifts(
            ops[1].model.grid)
        fitted = [solvers._preconditioner_apply("kinetic_shift", op, True) for op in ops]
        assert fitted[0] is not fitted[1] and maps[0] not in fitted
        other = make_model(n=points + 2, length=1.0, omega=8.0, kappa=20.0, n_orbitals=3,
                           dimension=dimension, boundary=boundary)
        other_op = DiscreteOperatorA.at(other, random_frame(other.grid, 3, rng))
        assert solvers._preconditioner_apply("kinetic_shift", other_op) is not maps[0]
        # Nothing per grid is rebuilt by a solve of either mode: each reads
        # the grid's one cache entry, and a tolerance-mode solve builds only
        # its own map from it.
        before = solvers._kinetic_shifts.cache_info()
        b = random_frame(ops[1].model.grid, 3, rng)
        for fixed_iters in (3, 3, None, None):
            solve(ops[1], b, SolveConfig(fixed_iters=fixed_iters, preconditioner="kinetic_shift"))
        after = solvers._kinetic_shifts.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 4)

    def test_kinetic_shift_reduces_iterations(self, rng):
        model = make_model(n=128, length=1.0, omega=10.0, kappa=100.0, n_orbitals=1)
        anchor, _ = retract_qr_mgs(random_frame(model.grid, 1, rng))
        op = DiscreteOperatorA.at(model, anchor)
        b = anchor
        _, plain = solve(op, b, SolveConfig(rel_tol=1e-8, max_iters=5000))
        _, shifted = solve(
            op, b,
            SolveConfig(rel_tol=1e-8, max_iters=5000, preconditioner="kinetic_shift"),
        )
        assert shifted.total_iterations < plain.total_iterations

    def test_solution_frames_reconstruct_rhs(self, op, model, rng):
        b = random_frame(model.grid, 2, rng)
        x, _ = solve(
            op, b, SolveConfig(rel_tol=1e-10, max_iters=2000, preconditioner="kinetic_shift")
        )
        recon = Frame(op.matrix @ x.values, model.grid)
        assert norm_h(recon - b) <= 1e-8 * norm_h(b)


class TestToleranceModeShift:
    """Runs whose exact solves the mean-shift preconditioner makes cheaper,
    with their outer iterations unchanged. With the kinetic-shift map of
    ``laplacian + I`` the 2D run took 5247 inner iterations and the 1D run
    3151; with the mean shift they take 3044 and 2044."""

    def test_exact_rgd_ls_2d_trap(self):
        model = make_model(n=16, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=2)
        run = rgd_line_search(model, initial_frame(model.grid, 4, 1002),
                              direction_kind=EXACT_GRAD, tol=RUN_TOL, max_iter=2000,
                              solver_config=reference_solver_config())
        assert run.termination == TERMINATION_RESIDUAL
        assert run.iterations <= 600
        assert run.total_inner_iterations <= 3600
        assert run.history[-1].energy == pytest.approx(615.343089785, abs=1e-9)

    def test_rgd_fixed_1d_trap(self):
        model = make_model(n=128, length=1.0, omega=10.0, kappa=10.0, n_orbitals=3)
        run = rgd_fixed_step(model, initial_frame(model.grid, 3, 1000), FIXED_TAU,
                             tol=RUN_TOL, max_iter=2000,
                             solver_config=reference_solver_config())
        assert run.termination == TERMINATION_RESIDUAL
        assert run.iterations == 481
        assert run.total_inner_iterations <= 2400
