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
from stiefel_rgd.errors import DegenerateFrameError, OperatorNotSPDError
from stiefel_rgd.geometry import retract_qr_mgs
from stiefel_rgd.models import (
    csr_product,
    laplacian,
    linear_part_matrix,
    _identity,
    spd_inverse,
    stencil_plus,
    validate_coercivity,
)

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

    @pytest.mark.parametrize("dimension, center", [
        (1, [0.5, 0.5]), (1, []), (2, [0.5]), (2, 0.5), (2, [0.5, 0.5, 0.5]),
    ])
    @pytest.mark.parametrize("kind", ["harmonic", "well"])
    def test_center_needs_one_entry_per_dimension(self, kind, dimension, center):
        # A short center must not broadcast over the axes, nor a long one
        # fail inside numpy: both kinds reject it by name.
        grid = GridSpec(dimension, 9, 1.0)
        with pytest.raises(ShapeError, match="one entry per dimension"):
            if kind == "harmonic":
                potential_harmonic(grid, 6.0, center)
            else:
                potential_well(grid, depth=-4.0, width=0.25, center=center)

    def test_well_off_center_footprint(self):
        grid = GridSpec(2, 9, 1.0)
        v = potential_well(grid, depth=-4.0, width=0.3, center=[0.3, 0.7])
        coords = grid.coordinates()
        inside = (np.abs(coords[:, 0] - 0.3) <= 0.15) & (np.abs(coords[:, 1] - 0.7) <= 0.15)
        assert inside.any() and not inside.all()
        assert np.array_equal(v, np.where(inside, -4.0, 0.0))

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

    @pytest.mark.parametrize("dimension, n", [(1, 24), (1, 128), (2, 9), (2, 24)])
    @pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
    @pytest.mark.parametrize("potential", ["harmonic", "deep_well", "shallow_well"])
    def test_coercivity_decision_matches_dense_cholesky(self, dimension, n, boundary,
                                                        potential):
        # The potentials the other tests build, and shifts on either side of
        # -lambda_min of the linear part, clear of the singular point.
        grid = GridSpec(dimension, n, 1.0, boundary)
        pot = {"harmonic": lambda: potential_harmonic(grid, 10.0),
               "deep_well": lambda: potential_well(grid, depth=-1000.0, width=0.5),
               "shallow_well": lambda: potential_well(grid, depth=-5.0, width=0.3)}[potential]()
        linear = linear_part_matrix(EnergyModel(grid, pot)).toarray()
        lam_min = np.linalg.eigvalsh(linear)[0]
        margin = 1e-3 * max(1.0, abs(lam_min))
        shifts = {0.0, 6.0, 1001.0, max(0.0, margin - lam_min),
                  max(0.0, -margin - lam_min)}
        for shift in sorted(shifts):
            try:
                np.linalg.cholesky(linear + shift * np.eye(grid.n_dof))
                dense_spd = True
            except np.linalg.LinAlgError:
                dense_spd = False
            model = EnergyModel(grid, pot, shift=shift)
            if dense_spd:
                validate_coercivity(model)
            else:
                with pytest.raises(OperatorNotSPDError):
                    validate_coercivity(model)

    @pytest.mark.parametrize("dimension, n", [(1, 24), (1, 64), (1, 128), (2, 24), (2, 64)])
    def test_singular_periodic_stencil_rejected_at_every_size(self, dimension, n):
        # The constant vector is a null vector of the periodic stencil; a dense
        # Cholesky accepts or rejects it by round-off, depending on n.
        grid = GridSpec(dimension, n, 1.0, "periodic")
        with pytest.raises(OperatorNotSPDError):
            validate_coercivity(EnergyModel(grid, potential_zero(grid)))
        validate_coercivity(EnergyModel(grid, potential_zero(grid), shift=1e-3))

    def test_coercivity_checked_above_8192_dof(self):
        # 91^2 = 8281 unknowns, past the size where a dense check is affordable.
        grid = GridSpec(2, 91, 1.0)
        well = potential_well(grid, depth=-1000.0, width=0.5)
        with pytest.raises(OperatorNotSPDError):
            validate_coercivity(EnergyModel(grid, well, shift=0.0))
        validate_coercivity(EnergyModel(grid, well, shift=1001.0))

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

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
    @pytest.mark.parametrize("n", [3, 9])
    def test_stencil_plus_equals_sparse_sum(self, dimension, boundary, n, rng):
        # The linear part and the kinetic-shift matrix put their diagonal on
        # the stencil by the same fill as the anchored operator; it stores
        # what the sparse sum stores.
        grid = GridSpec(dimension, n, 1.0, boundary)
        lap = laplacian(grid)

        def assert_same_csr(matrix, expected):
            assert np.array_equal(matrix.indptr, expected.indptr)
            assert np.array_equal(matrix.indices, expected.indices)
            assert matrix.data.tobytes() == expected.data.tobytes()

        for potential in (potential_harmonic(grid, 7.0), potential_zero(grid),
                          potential_well(grid, depth=-30.0, width=0.5)):
            assert_same_csr(linear_part_matrix(EnergyModel(grid, potential)),
                            lap + sp.diags(potential, format="csr"))
        matrix, diagonal = stencil_plus(grid, 1.0)
        assert_same_csr(matrix, (lap + sp.identity(grid.n_dof)).tocsr())
        assert np.array_equal(diagonal, lap.diagonal() + 1.0)
        # A diagonal that cancels exactly stays an explicit zero, which the
        # sparse sum drops; the dense form and products do not change.
        cancelled, diagonal = stencil_plus(grid, -lap.diagonal())
        summed = lap + sp.diags(-lap.diagonal(), format="csr")
        assert not diagonal.any() and cancelled.nnz == summed.nnz + grid.n_dof
        assert cancelled.toarray().tobytes() == summed.toarray().tobytes()
        block = rng.standard_normal((grid.n_dof, 3))
        assert (cancelled @ block).tobytes() == (summed @ block).tobytes()

    @pytest.mark.parametrize("dimension, boundary", [(1, "dirichlet_zero"),
                                                     (2, "dirichlet_zero"), (1, "periodic"),
                                                     (2, "periodic")])
    def test_handed_over_diagonal_is_matrix_diagonal(self, dimension, boundary, rng):
        grid = GridSpec(dimension, 9, 1.0, boundary)
        model = EnergyModel(grid, potential_harmonic(grid, 7.0), kappa=13.0,
                            shift=2.5, n_orbitals=2)
        op = DiscreteOperatorA.at(model, random_frame(grid, 2, rng))
        assert np.array_equal(op.diagonal, op.matrix.diagonal())
        assert not op.diagonal.flags.writeable
        # Built from a matrix alone, the operator reads its diagonal.
        same = DiscreteOperatorA(model=model, matrix=op.matrix)
        assert np.array_equal(same.diagonal, op.diagonal)

    def test_linear_part_cached_per_model(self):
        grid = GridSpec(1, 12, 1.0)
        trap = EnergyModel(grid, potential_harmonic(grid, 5.0))
        well = EnergyModel(grid, potential_well(grid, depth=-3.0, width=0.5))
        assert linear_part_matrix(trap) is linear_part_matrix(trap)
        assert not np.array_equal(linear_part_matrix(trap).toarray(),
                                  linear_part_matrix(well).toarray())
        expected = laplacian(grid) + sp.diags(well.potential, format="csr")
        assert np.array_equal(linear_part_matrix(well).toarray(), expected.toarray())

    def test_unshifted_form_is_first_variation_of_energy(self, rng):
        """a_phi(phi, v) = <A phi - s phi, v> is the ambient derivative of E
        at phi along v."""
        model = make_model(n=32, length=1.0, omega=5.0, kappa=50.0, n_orbitals=2,
                           shift=3.0)
        phi = random_frame(model.grid, 2, rng)
        v = random_frame(model.grid, 2, rng)
        t = 1e-5
        fd = (energy(model, phi + t * v) - energy(model, phi - t * v)) / (2 * t)
        op = DiscreteOperatorA.at(model, phi)
        assert op.bilinear(phi, v) - model.shift * inner_h(phi, v) == pytest.approx(fd, rel=1e-6)


class TestCsrProduct:
    """``csr_product`` equals ``matrix @ block`` bit for bit in every layout,
    and returns F order for an F-ordered block, C order otherwise."""

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
    @pytest.mark.parametrize("n_orbitals", [1, 3])
    def test_equals_scipy_product(self, dimension, boundary, n_orbitals, rng):
        grid = GridSpec(dimension, 41 if dimension == 1 else 11, 1.0, boundary)
        model = EnergyModel(grid, potential_harmonic(grid, 7.0), kappa=13.0, shift=2.5,
                            n_orbitals=n_orbitals)
        frame = random_frame(grid, n_orbitals, rng)
        # Entries over sixteen orders of magnitude, so that any change in the
        # order of a row's sum shows in the last bits.
        scales = 10.0 ** rng.uniform(-8.0, 8.0, (grid.n_dof, 2 * n_orbitals))
        wide = scales * rng.standard_normal((grid.n_dof, 2 * n_orbitals))
        fortran = np.asfortranarray(wide)
        blocks = {
            "C frame": (frame.values, "C"),
            "F block": (fortran, "F"),
            "F column subset": (fortran[:, [n_orbitals, 0]], "F"),
            "C column subset": (wide[:, [2 * n_orbitals - 1]], "F"),
            "strided block": (wide[:, ::2], "C"),
        }
        for matrix in (DiscreteOperatorA.at(model, frame).matrix, linear_part_matrix(model)):
            for name, (block, order) in blocks.items():
                product = csr_product(matrix, block)
                expected = matrix @ block
                assert product.shape == expected.shape, name
                assert product.tobytes() == expected.tobytes(), name
                assert product.flags[f"{order}_CONTIGUOUS"], name


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
        from stiefel_rgd import initial_frame, rgd_line_search

        from conftest import DIRECT

        model = make_model(n=64, length=1.0, omega=8.0, kappa=0.0, n_orbitals=3)
        result = rgd_line_search(
            model,
            initial_frame(model.grid, 3, 5),
            tol=1e-9,
            max_iter=500,
            solver_config=DIRECT,
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


class TestSpdInverse:
    def test_inverts_symmetric_part(self, rng):
        m = rng.standard_normal((4, 4))
        spd = m @ m.T + 4.0 * np.eye(4)
        np.testing.assert_allclose(spd_inverse(spd + 1e-3 * (m - m.T), "singular"),
                                   np.linalg.inv(spd), rtol=1e-12, atol=1e-14)

    def test_repeated_calls_leave_shared_identity_intact(self, rng):
        """Every call of one order solves against the same read-only
        identity; no call may write into it."""
        a = rng.standard_normal((3, 3))
        matrix = a @ a.T + 3.0 * np.eye(3)
        first = spd_inverse(matrix, "singular")
        for _ in range(3):
            again = spd_inverse(matrix, "singular")
            assert again.tobytes() == first.tobytes()
            again[:] = 0.0  # the caller owns the result
        assert np.array_equal(_identity(3), np.eye(3))
        assert not _identity(3).flags.writeable
        assert np.allclose(first @ matrix, np.eye(3), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("matrix", [np.zeros((3, 3)), np.diag([1.0, -1.0, 2.0]),
                                        np.array([[1.0, 1.0], [1.0, 1.0]])],
                             ids=["zero", "indefinite", "singular"])
    def test_raises_degenerate_frame_error(self, matrix):
        with pytest.raises(DegenerateFrameError, match="the message"):
            spd_inverse(matrix, "the message")
