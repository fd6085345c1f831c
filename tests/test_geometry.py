"""The library's retractions, polar and modified-Gram-Schmidt qR, against
the oracles of ``conftest``: the membership and tangency checks, the
tangent projection with its Lyapunov solve, and the Cholesky qR, each
tested here as an oracle in its own right."""

import numpy as np
import pytest
import scipy.linalg as sla

from stiefel_rgd import (
    DegenerateFrameError,
    Frame,
    GridSpec,
    multiply_right,
    norm_h,
    outer_product,
    random_frame,
    retract,
    retract_polar,
    retract_qr_mgs,
)
from stiefel_rgd.errors import OperatorNotSPDError
from stiefel_rgd.geometry import RETRACTION_KINDS
from stiefel_rgd.models import DiscreteOperatorA

from conftest import (
    a_norm,
    classical_gram_schmidt,
    dense_a_solve,
    is_on_stiefel,
    is_tangent,
    make_model,
    project_tangent,
    random_tangent,
    retract_qr_cholesky,
    saddle_projection_oracle,
    solve_lyapunov,
)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


@pytest.fixture
def model():
    return make_model(n=32, length=1.0, omega=8.0, kappa=5.0, n_orbitals=2)


@pytest.fixture
def phi(model, rng):
    q, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
    return q


class TestMembership:
    def test_retracted_frame_on_manifold(self, phi):
        assert is_on_stiefel(phi, 1e-10)

    def test_scaled_frame_off_manifold(self, phi):
        assert not is_on_stiefel(1.01 * phi, 1e-10)

    def test_random_frame_after_qr(self, model, rng):
        q, _ = retract_qr_mgs(random_frame(model.grid, 3, rng))
        assert is_on_stiefel(q, 1e-10)


class TestTangency:
    def test_zero_direction(self, phi):
        report = is_tangent(phi, 0.0 * phi)
        assert report.skew_defect == 0.0
        assert report.within(1e-10)

    def test_frame_itself_not_tangent(self, phi):
        report = is_tangent(phi, phi)
        assert report.skew_defect == pytest.approx(2.0 * np.sqrt(2), abs=1e-10)
        assert not report.within(1e-10)

    def test_projected_vector_is_tangent(self, model, phi, rng):
        eta = random_tangent(model, phi, rng)
        assert is_tangent(phi, eta).within(1e-10)


class TestLyapunov:
    def test_identity_pair(self):
        assert solve_lyapunov(np.eye(3), 2 * np.eye(3)) == pytest.approx(np.eye(3))

    def test_diagonal_pair(self):
        s = solve_lyapunov(np.diag([1.0, 3.0]), 2 * np.eye(2))
        assert s == pytest.approx(np.diag([1.0, 1.0 / 3.0]))

    def test_against_kronecker_solve(self, rng):
        n = 5
        a = rng.standard_normal((n, n))
        g = a @ a.T + n * np.eye(n)
        c = rng.standard_normal((n, n))
        c = c + c.T
        s = solve_lyapunov(g, c)
        assert np.linalg.norm(g @ s + s @ g - c) <= 1e-12 * np.linalg.norm(c)
        kron = np.kron(np.eye(n), g) + np.kron(g.T, np.eye(n))
        s_oracle = np.linalg.solve(kron, c.reshape(-1, order="F")).reshape(
            (n, n), order="F"
        )
        assert s == pytest.approx(s_oracle, abs=1e-11)

    def test_rejects_indefinite_coefficient(self):
        with pytest.raises(OperatorNotSPDError):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


class TestProjectTangent:
    def test_fixes_tangent_vectors(self, model, phi, rng):
        solve = dense_a_solve(model, phi)
        eta = random_tangent(model, phi, rng)
        again = project_tangent(phi, eta, solve)
        assert norm_h(again - eta) <= 1e-10 * norm_h(eta)

    def test_projecting_phi_matches_gradient_formula(self, model, phi):
        solve = dense_a_solve(model, phi)
        x = solve(phi)
        g = outer_product(phi, x)
        expected = phi - multiply_right(x, np.linalg.inv(g))
        assert norm_h(project_tangent(phi, phi, solve) - expected) <= 1e-11

    def test_matches_saddle_basis_oracle(self, model, phi, rng):
        v = random_frame(model.grid, 2, rng)
        p = project_tangent(phi, v, dense_a_solve(model, phi))
        oracle = saddle_projection_oracle(model, phi, v)
        assert norm_h(p - oracle) <= 1e-9

    def test_orthogonality_and_idempotence(self, model, phi, rng):
        solve = dense_a_solve(model, phi)
        op = DiscreteOperatorA.at(model, phi)
        v = random_frame(model.grid, 2, rng)
        p = project_tangent(phi, v, solve)
        eta = random_tangent(model, phi, rng)
        assert is_tangent(phi, p).skew_defect <= 1e-10
        assert abs(op.bilinear(v - p, eta)) <= 1e-10 * norm_h(v) * norm_h(eta)
        assert norm_h(project_tangent(phi, p, solve) - p) <= 1e-10

    def test_degenerate_frame_detected(self, model, rng):
        values = rng.standard_normal((model.grid.n_dof, 1))
        collapsed = Frame(np.column_stack([values, values]), model.grid)
        with pytest.raises(DegenerateFrameError):
            project_tangent(collapsed, collapsed, dense_a_solve(model, collapsed))


class TestPolarRetraction:
    def test_zero_direction_returns_phi(self, phi):
        out = retract_polar(phi, 0.0 * phi)
        assert norm_h(out - phi) <= 1e-13

    def test_single_orbital_is_normalization(self, rng):
        grid = GridSpec(1, 32, 1.0)
        model = make_model(n=32, length=1.0, omega=4.0, kappa=1.0, n_orbitals=1)
        u, _ = retract_qr_mgs(random_frame(grid, 1, rng))
        eta = random_tangent(model, u, rng)
        moved = u + eta
        expected = (1.0 / norm_h(moved)) * moved
        assert norm_h(retract_polar(u, eta) - expected) <= 1e-12

    def test_single_orbital_three_quarters_step(self, rng):
        grid = GridSpec(1, 32, 1.0)
        u, _ = retract_qr_mgs(random_frame(grid, 1, rng))
        m1 = make_model(n=32, length=1.0, omega=4.0, kappa=1.0, n_orbitals=1)
        eta = random_tangent(m1, u, rng, normalized=True)
        eta = 0.75 * eta
        expected = 0.8 * (u + eta)
        assert norm_h(retract_polar(u, eta) - expected) <= 1e-12

    def test_projective_property(self, model, phi, rng):
        eta = random_tangent(model, phi, rng)
        moved = phi + eta
        dist = norm_h(retract_polar(phi, eta) - moved)
        for _ in range(50):
            xi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
            assert dist <= norm_h(xi - moved) + 1e-12

    def test_rank_deficiency_error(self, model, rng):
        values = rng.standard_normal((model.grid.n_dof, 1))
        collapsed = Frame(np.column_stack([values, values]), model.grid)
        with pytest.raises(DegenerateFrameError):
            retract_polar(collapsed, 0.0 * collapsed)

    @pytest.mark.parametrize("dimension, n", [(1, 40), (2, 9)])
    @pytest.mark.parametrize("n_orbitals", [1, 3, 4])
    def test_matches_eigh_formula(self, rng, dimension, n, n_orbitals):
        """Against (phi + eta) (q diag(d^-1/2) q^T) from numpy's eigh of the
        Gram matrix. To a tolerance, not bit for bit: numpy and scipy each
        ship their own LAPACK build."""
        grid = GridSpec(dimension, n, 1.0)
        for _ in range(5):
            phi, _ = retract_qr_mgs(random_frame(grid, n_orbitals, rng))
            eta = 0.3 * random_frame(grid, n_orbitals, rng)
            moved = (phi + eta).values
            gram = grid.weight * (moved.T @ moved)
            d, q = np.linalg.eigh(0.5 * (gram + gram.T))
            expected = moved @ (q @ np.diag(d**-0.5) @ q.T)
            out = retract_polar(phi, eta).values
            assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)


class TestQrRetraction:
    def test_orthonormal_input_is_fixed_point(self, phi):
        q, r = retract_qr_mgs(phi)
        assert norm_h(q - phi) <= 1e-12
        assert r == pytest.approx(np.eye(2), abs=1e-12)

    def test_uniqueness_against_triangular_mixing(self, phi, rng):
        upper = np.triu(rng.standard_normal((2, 2)))
        upper[np.diag_indices(2)] = np.abs(upper[np.diag_indices(2)]) + 0.5
        q, r = retract_qr_mgs(multiply_right(phi, upper))
        assert norm_h(q - phi) <= 1e-10
        assert r == pytest.approx(upper, abs=1e-10)

    def test_reconstruction_and_classical_oracle(self, rng):
        grid = GridSpec(1, 48, 1.0)
        v = random_frame(grid, 4, rng)
        q, r = retract_qr_mgs(v)
        assert is_on_stiefel(q, 1e-12)
        assert np.all(np.diag(r) > 0)
        assert np.allclose(np.tril(r, -1), 0.0)
        recon = Frame(q.values @ r, grid)
        assert norm_h(v - recon) <= 1e-12 * norm_h(v)
        oracle = classical_gram_schmidt(v)
        assert norm_h(q - oracle) <= 1e-8

    def test_rank_deficiency_error(self, rng):
        grid = GridSpec(1, 16, 1.0)
        col = rng.standard_normal((16, 1))
        v = Frame(np.column_stack([col, col]), grid)
        with pytest.raises(DegenerateFrameError):
            retract_qr_mgs(v)


class TestCholeskyRetraction:
    def test_zero_direction(self, phi):
        assert norm_h(retract_qr_cholesky(phi, 0.0 * phi) - phi) <= 1e-13

    def test_single_orbital_matches_polar(self, rng):
        grid = GridSpec(1, 32, 1.0)
        m1 = make_model(n=32, length=1.0, omega=4.0, kappa=1.0, n_orbitals=1)
        u, _ = retract_qr_mgs(random_frame(grid, 1, rng))
        eta = random_tangent(m1, u, rng)
        assert norm_h(retract_qr_cholesky(u, eta) - retract_polar(u, eta)) <= 1e-12

    @pytest.mark.parametrize("dimension, n", [(1, 32), (2, 12)])
    def test_matches_mgs_route(self, rng, dimension, n):
        # The oracle against the library's one qR.
        model = make_model(n=n, length=1.0, omega=8.0, kappa=5.0, n_orbitals=2,
                           dimension=dimension)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
        eta = random_tangent(model, phi, rng)
        mgs, _ = retract_qr_mgs(phi + eta)
        assert norm_h(retract_qr_cholesky(phi, eta) - mgs) <= 1e-10

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_matches_triangular_solve(self, rng, dimension):
        # One product with the inverse N x N factor replaces a triangular
        # solve against n_dof right-hand sides.
        n = 128 if dimension == 1 else 32
        model = make_model(n=n, length=1.0, omega=10.0, kappa=100.0, n_orbitals=4,
                           dimension=dimension)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 4, rng))
        for scale in (0.1, 1.0):
            eta = scale * random_tangent(model, phi, rng, normalized=True)
            moved = phi + eta
            gram = outer_product(moved, moved)
            f = sla.cholesky(0.5 * (gram + gram.T), lower=False)
            oracle = sla.solve_triangular(f.T, moved.values.T, lower=True).T
            values = retract_qr_cholesky(phi, eta).values
            assert np.linalg.norm(values - oracle) <= 1e-13 * np.linalg.norm(oracle)


class TestRetractionAxioms:
    @pytest.mark.parametrize("kind", RETRACTION_KINDS)
    def test_axioms_sampled(self, model, rng, kind):
        for _ in range(10):
            phi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
            eta = random_tangent(model, phi, rng, normalized=True)
            assert is_on_stiefel(retract(phi, eta, kind), 1e-11)
            assert norm_h(retract(phi, 0.0 * eta, kind) - phi) <= 1e-13
            t = 1e-4
            fd = (1.0 / (2 * t)) * (
                retract(phi, t * eta, kind) - retract(phi, (-t) * eta, kind)
            )
            assert norm_h(fd - eta) <= 1e-6

    @pytest.mark.parametrize("dimension, n", [(1, 32), (2, 12)])
    def test_cholesky_name_is_the_mgs_retraction(self, rng, dimension, n):
        model = make_model(n=n, length=1.0, omega=8.0, kappa=5.0, n_orbitals=3,
                           dimension=dimension)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 3, rng))
        eta = random_tangent(model, phi, rng)
        assert np.array_equal(retract(phi, eta, "qr_cholesky").values,
                              retract(phi, eta, "qr_mgs").values)

    def test_unknown_kind_rejected(self, phi):
        with pytest.raises(ValueError):
            retract(phi, 0.0 * phi, "exponential")


class TestSecondOrderBounds:
    def test_polar_and_qr_bounds_sampled(self, model, rng):
        for _ in range(25):
            phi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
            op = DiscreteOperatorA.at(model, phi)
            eta = random_tangent(model, phi, rng)
            eta_h = norm_h(eta)
            for t in (0.01, 0.1, 0.5, 1.0):
                moved = phi + t * eta
                na = a_norm(op, moved)
                lhs_polar = a_norm(op, retract_polar(phi, t * eta) - moved)
                assert lhs_polar <= t**2 * na * eta_h**2
                lhs_qr = a_norm(op, retract(phi, t * eta, "qr_mgs") - moved)
                bound_qr = (
                    t**2 / np.sqrt(2.0) * na * np.sqrt(1 + t**2 * eta_h**2) * eta_h**2
                )
                assert lhs_qr <= bound_qr
