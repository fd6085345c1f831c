"""Energy, operator application, derivatives, residuals, and their oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from stiefel_rgd import (
    DiscreteOperatorA,
    EnergyModel,
    Frame,
    GridSpec,
    ShapeError,
    a0_form,
    directional_derivative,
    energy,
    inner_h,
    norm_h,
    outer_product,
    potential_harmonic,
    potential_well,
    potential_zero,
    random_frame,
    residual,
    zero_frame,
)
from stiefel_rgd.errors import OperatorNotSPDError
from stiefel_rgd.geometry import retract_qr_mgs
from stiefel_rgd.models import laplacian, linear_part_matrix, validate_coercivity

from conftest import dense_lowest_eigenpairs, make_model


def dirichlet_eigenpair(grid, k):
    """Analytic eigenpair of the 1D three-point stencil with zero boundary."""
    n, h, length = grid.points_per_axis, grid.spacing, grid.domain_length
    lam = (4.0 / h**2) * np.sin(np.pi * k * h / (2.0 * length)) ** 2
    x = grid.axis_coordinates()
    vec = np.sin(np.pi * k * x / length)
    vec = vec / (np.sqrt(grid.weight) * np.linalg.norm(vec))
    return lam, Frame(vec[:, None], grid)


@pytest.fixture
def rng():
    return np.random.default_rng(9)


class TestLaplacian:
    def test_1d_dirichlet_spectrum(self):
        grid = GridSpec(1, 24, 1.0)
        dense = laplacian(grid).toarray()
        computed = np.sort(np.linalg.eigvalsh(dense))
        analytic = np.sort(
            [dirichlet_eigenpair(grid, k)[0] for k in range(1, 25)]
        )
        assert computed == pytest.approx(analytic, rel=1e-12)

    def test_1d_periodic_spectrum(self):
        grid = GridSpec(1, 16, 1.0, "periodic")
        computed = np.sort(np.linalg.eigvalsh(laplacian(grid).toarray()))
        h = grid.spacing
        analytic = np.sort([(4.0 / h**2) * np.sin(np.pi * k / 16) ** 2 for k in range(16)])
        assert computed == pytest.approx(analytic, abs=1e-10)

    def test_2d_dirichlet_spectrum(self):
        grid = GridSpec(2, 8, 1.0)
        computed = np.sort(np.linalg.eigvalsh(laplacian(grid).toarray()))
        lam1 = [dirichlet_eigenpair(GridSpec(1, 8, 1.0), k)[0] for k in range(1, 9)]
        analytic = np.sort([a + b for a in lam1 for b in lam1])
        assert computed == pytest.approx(analytic, rel=1e-12)


class TestPotentials:
    def test_harmonic_centered_minimum(self):
        grid = GridSpec(1, 31, 1.0)
        v = potential_harmonic(grid, 6.0)
        assert v.min() >= 0.0
        assert np.argmin(v) == 15

    def test_well_footprint(self):
        grid = GridSpec(1, 31, 1.0)
        v = potential_well(grid, depth=-4.0, width=0.25)
        inside = np.abs(grid.axis_coordinates() - 0.5) <= 0.125
        assert np.all(v[inside] == -4.0)
        assert np.all(v[~inside] == 0.0)

    def test_zero(self):
        grid = GridSpec(1, 8, 1.0)
        assert np.all(potential_zero(grid) == 0.0)

    def test_potential_length_checked(self):
        grid = GridSpec(1, 8, 1.0)
        with pytest.raises(ShapeError):
            EnergyModel(grid, np.zeros(7))


class TestEnergy:
    def test_zero_frame_has_zero_energy(self):
        model = make_model(n=16, length=1.0, omega=5.0, kappa=3.0, n_orbitals=2)
        assert energy(model, zero_frame(model.grid, 2)) == 0.0

    def test_linear_ground_mode_energy(self):
        grid = GridSpec(1, 32, 1.0)
        model = EnergyModel(grid, potential_zero(grid), kappa=0.0, n_orbitals=1)
        lam, mode = dirichlet_eigenpair(grid, 1)
        assert energy(model, mode) == pytest.approx(0.5 * lam, rel=1e-12)

    def test_orthogonal_invariance(self, rng):
        model = make_model(n=24, length=1.0, omega=5.0, kappa=7.0, n_orbitals=3)
        phi = random_frame(model.grid, 3, rng)
        e0 = energy(model, phi)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            assert energy(model, Frame(phi.values @ q, model.grid)) == pytest.approx(
                e0, rel=1e-12
            )


class TestOperator:
    def test_zero_maps_to_zero(self, rng):
        model = make_model(n=16, length=1.0, omega=5.0, kappa=3.0, n_orbitals=2)
        phi = random_frame(model.grid, 2, rng)
        op = DiscreteOperatorA.at(model, phi)
        assert norm_h(op.apply(zero_frame(model.grid, 2))) == 0.0

    def test_laplacian_eigenvector_reproduced(self):
        grid = GridSpec(1, 32, 1.0)
        model = EnergyModel(grid, potential_zero(grid), kappa=0.0, n_orbitals=1)
        phi = zero_frame(grid, 1)
        op = DiscreteOperatorA.at(model, phi)
        for k in (1, 3, 7):
            lam, mode = dirichlet_eigenpair(grid, k)
            assert norm_h(op.apply(mode) - lam * mode) <= 1e-10 * lam

    def test_symmetry(self, rng):
        model = make_model(n=24, length=1.0, omega=5.0, kappa=7.0, n_orbitals=2)
        anchor = random_frame(model.grid, 2, rng)
        op = DiscreteOperatorA.at(model, anchor)
        v = random_frame(model.grid, 2, rng)
        w = random_frame(model.grid, 2, rng)
        lhs = inner_h(op.apply(v), w)
        rhs = inner_h(v, op.apply(w))
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)

    def test_positive_definite_after_shift(self, rng):
        grid = GridSpec(1, 24, 1.0)
        well = potential_well(grid, depth=-5.0, width=0.3)
        model = EnergyModel(grid, well, kappa=0.0, shift=6.0, n_orbitals=1)
        anchor = random_frame(grid, 1, rng)
        op = DiscreteOperatorA.at(model, anchor)
        for _ in range(100):
            v = random_frame(grid, 1, rng)
            assert inner_h(op.apply(v), v) > 0.0

    def test_coercivity_validation(self):
        grid = GridSpec(1, 24, 1.0)
        well = potential_well(grid, depth=-1000.0, width=0.5)
        bad = EnergyModel(grid, well, kappa=0.0, shift=0.0, n_orbitals=1)
        with pytest.raises(OperatorNotSPDError):
            validate_coercivity(bad)
        good = EnergyModel(grid, well, kappa=0.0, shift=1001.0, n_orbitals=1)
        validate_coercivity(good)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
    def test_anchored_matrix_equals_assembled_sum(self, dimension, boundary, rng):
        grid = GridSpec(dimension, 9, 1.0, boundary)
        model = EnergyModel(grid, potential_harmonic(grid, 7.0), kappa=13.0,
                            shift=2.5, n_orbitals=2)
        phi = random_frame(grid, 2, rng)
        op = DiscreteOperatorA.at(model, phi)
        rho = np.einsum("ij,ij->i", phi.values, phi.values)
        diag = model.potential + model.kappa * rho + model.shift
        assembled = laplacian(grid) + sp.diags(diag, format="csr")
        assert np.array_equal(op.matrix.indptr, assembled.indptr)
        assert np.array_equal(op.matrix.indices, assembled.indices)
        assert np.array_equal(op.matrix.data, assembled.data)

    def test_linear_part_cached_per_model(self):
        grid = GridSpec(1, 12, 1.0)
        trap = EnergyModel(grid, potential_harmonic(grid, 5.0))
        well = EnergyModel(grid, potential_well(grid, depth=-3.0, width=0.5))
        assert linear_part_matrix(trap) is linear_part_matrix(trap)
        assert not np.array_equal(linear_part_matrix(trap).toarray(),
                                  linear_part_matrix(well).toarray())
        expected = laplacian(grid) + sp.diags(well.potential, format="csr")
        assert np.array_equal(linear_part_matrix(well).toarray(), expected.toarray())


class TestDirectionalDerivative:
    def test_zero_direction(self, rng):
        model = make_model(n=16, length=1.0, omega=5.0, kappa=3.0, n_orbitals=2)
        phi = random_frame(model.grid, 2, rng)
        assert directional_derivative(model, phi, zero_frame(model.grid, 2)) == 0.0

    def test_quadratic_identity_for_linear_model(self, rng):
        grid = GridSpec(1, 24, 1.0)
        model = EnergyModel(
            grid, potential_harmonic(grid, 5.0), kappa=0.0, n_orbitals=2
        )
        phi = random_frame(grid, 2, rng)
        assert directional_derivative(model, phi, phi) == pytest.approx(
            2.0 * energy(model, phi), rel=1e-12
        )

    def test_matches_centered_difference(self, rng):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=50.0, n_orbitals=2)
        phi = random_frame(model.grid, 2, rng)
        v = random_frame(model.grid, 2, rng)
        t = 1e-5
        fd = (energy(model, phi + t * v) - energy(model, phi - t * v)) / (2 * t)
        assert directional_derivative(model, phi, v) == pytest.approx(fd, rel=1e-6)


class TestResidual:
    def test_vanishes_at_linear_eigenframe(self):
        model = make_model(n=48, length=1.0, omega=6.0, kappa=0.0, n_orbitals=3)
        _, modes = dense_lowest_eigenpairs(model, 3)
        r, _ = residual(model, modes)
        assert norm_h(r) <= 1e-10

    def test_multiplier_symmetric_on_manifold(self, rng):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=9.0, n_orbitals=3)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 3, rng))
        _, lam = residual(model, phi)
        assert np.abs(lam - lam.T).max() <= 1e-11 * max(np.abs(lam).max(), 1.0)

    def test_positive_away_from_critical_points(self, rng):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=9.0, n_orbitals=2)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
        r, _ = residual(model, phi)
        assert norm_h(r) > 0.0

    def test_multiplier_orthogonality_identity(self, rng):
        model = make_model(n=32, length=1.0, omega=5.0, kappa=9.0, n_orbitals=2)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
        r, lam = residual(model, phi)
        assert np.abs(outer_product(phi, r)).max() <= 1e-11 * np.abs(lam).max()


class TestInverseContract:
    def test_inverse_bilinear_identity(self, rng):
        from conftest import dense_a_solve

        model = make_model(n=32, length=1.0, omega=5.0, kappa=9.0, n_orbitals=2)
        phi, _ = retract_qr_mgs(random_frame(model.grid, 2, rng))
        op = DiscreteOperatorA.at(model, phi)
        solve = dense_a_solve(model, phi)
        v = random_frame(model.grid, 2, rng)
        w = random_frame(model.grid, 2, rng)
        assert op.bilinear(solve(v), w) == pytest.approx(inner_h(v, w), rel=1e-10)

    def test_inverse_gram_positive_definite(self, rng):
        from conftest import dense_a_solve

        model = make_model(n=32, length=1.0, omega=5.0, kappa=9.0, n_orbitals=3)
        solve_anchor, _ = retract_qr_mgs(random_frame(model.grid, 3, rng))
        solve = dense_a_solve(model, solve_anchor)
        v = random_frame(model.grid, 3, rng)
        gram = outer_product(v, solve(v))
        assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()
        assert np.linalg.eigvalsh(0.5 * (gram + gram.T)).min() > 0.0


class TestEigenvalueConsistency:
    def test_linear_case_matches_dense_eigensolve(self):
        from stiefel_rgd import SolveConfig, initial_frame, rgd_line_search

        model = make_model(n=64, length=1.0, omega=8.0, kappa=0.0, n_orbitals=3)
        result = rgd_line_search(
            model,
            initial_frame(model.grid, 3, 5),
            tol=1e-9,
            max_iter=500,
            solver_config=SolveConfig(method="direct_dense"),
        )
        assert result.converged
        lam_oracle, _ = dense_lowest_eigenpairs(model, 3)
        assert result.eigenvalues == pytest.approx(lam_oracle, abs=1e-8)


class TestA0Form:
    def test_matches_energy_for_linear_model(self, rng):
        grid = GridSpec(1, 24, 1.0)
        model = EnergyModel(grid, potential_harmonic(grid, 5.0), n_orbitals=2)
        phi = random_frame(grid, 2, rng)
        assert 0.5 * a0_form(model, phi, phi) == pytest.approx(
            energy(model, phi), rel=1e-12
        )

    def test_matches_stencil_quadrature(self, rng):
        grid = GridSpec(1, 24, 1.0)
        model = EnergyModel(grid, potential_harmonic(grid, 5.0), n_orbitals=1)
        v = random_frame(grid, 1, rng)
        w = random_frame(grid, 1, rng)
        dense = linear_part_matrix(model).toarray()
        expected = grid.weight * float(w.values[:, 0] @ dense @ v.values[:, 0])
        assert a0_form(model, v, w) == pytest.approx(expected, rel=1e-12)
