"""Frame algebra: outer/inner products, densities, and the mixing identities."""

import numpy as np
import pytest

from stiefel_rgd import (
    Frame,
    GridSpec,
    ShapeError,
    density,
    inner_h,
    multiply_right,
    norm_h,
    outer_product,
    random_frame,
    zero_frame,
)
from stiefel_rgd.geometry import retract_qr_mgs


def oracle_outer(v, w):
    """Double-loop quadrature, one orbital pair at a time."""
    n = v.n_orbitals
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for r in range(v.grid.n_dof):
                acc += v.values[r, i] * w.values[r, j]
            out[i, j] = v.grid.weight * acc
    return out


@pytest.fixture
def grid():
    return GridSpec(1, 16, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestGridSpec:
    def test_dirichlet_spacing_and_weight(self):
        g = GridSpec(1, 3, 1.0)
        assert g.spacing == pytest.approx(0.25)
        assert g.weight == pytest.approx(0.25)
        assert g.n_dof == 3

    def test_periodic_spacing(self):
        g = GridSpec(1, 4, 2.0, "periodic")
        assert g.spacing == pytest.approx(0.5)

    def test_2d_dof_and_weight(self):
        g = GridSpec(2, 5, 1.0)
        assert g.n_dof == 25
        assert g.weight == pytest.approx(g.spacing**2)

    def test_cached_spacing_leaves_equality_and_hash(self):
        g, fresh = GridSpec(2, 5, 1.0), GridSpec(2, 5, 1.0)
        assert g.weight == pytest.approx(g.spacing**2)  # now cached on g alone
        assert g == fresh and hash(g) == hash(fresh)
        assert g != GridSpec(2, 5, 2.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ShapeError):
            GridSpec(3, 4, 1.0)
        with pytest.raises(ShapeError):
            GridSpec(1, 1, 1.0)
        with pytest.raises(ShapeError):
            GridSpec(1, 4, -1.0)
        with pytest.raises(ShapeError):
            GridSpec(1, 4, 1.0, "absorbing")


class TestOuterProduct:
    def test_orthonormal_frame_gives_identity(self, grid, rng):
        phi, _ = retract_qr_mgs(random_frame(grid, 3, rng))
        assert np.linalg.norm(outer_product(phi, phi) - np.eye(3)) <= 1e-12

    def test_constant_orbital_small_grid(self):
        g = GridSpec(1, 3, 1.0)
        v = Frame(np.ones((3, 1)), g)
        assert outer_product(v, v) == pytest.approx(np.array([[0.75]]))

    def test_matches_double_loop_quadrature(self, grid, rng):
        v = random_frame(grid, 3, rng)
        w = random_frame(grid, 3, rng)
        assert np.abs(outer_product(v, w) - oracle_outer(v, w)).max() <= 1e-13

    def test_mixing_identities(self, grid, rng):
        v = random_frame(grid, 3, rng)
        w = random_frame(grid, 3, rng)
        s = rng.standard_normal((3, 3))
        scale = np.abs(outer_product(v, w)).max()
        assert np.abs(
            outer_product(v, multiply_right(w, s)) - outer_product(v, w) @ s
        ).max() <= 1e-12 * scale
        assert np.abs(
            outer_product(multiply_right(v, s), w) - s.T @ outer_product(v, w)
        ).max() <= 1e-12 * scale
        assert np.abs(outer_product(v, w) - outer_product(w, v).T).max() <= 1e-12 * scale

    def test_self_product_positive_semidefinite(self, grid, rng):
        v = random_frame(grid, 4, rng)
        gram = outer_product(v, v)
        assert np.linalg.eigvalsh(gram).min() >= -1e-12 * np.trace(gram)

    def test_shape_mismatch_raises(self, grid, rng):
        v = random_frame(grid, 2, rng)
        w = random_frame(grid, 3, rng)
        with pytest.raises(ShapeError):
            outer_product(v, w)
        other = random_frame(GridSpec(1, 8, 1.0), 2, rng)
        with pytest.raises(ShapeError):
            outer_product(v, other)

    def test_equal_grids_of_distinct_objects_combine(self, grid, rng):
        twin = GridSpec(grid.dimension, grid.points_per_axis, grid.domain_length,
                        grid.boundary)
        assert twin is not grid
        v, w = random_frame(grid, 2, rng), random_frame(twin, 2, rng)
        np.testing.assert_array_equal((v + w).values, v.values + w.values)
        np.testing.assert_array_equal(outer_product(v, w),
                                      grid.weight * (v.values.T @ w.values))


class TestInnerH:
    def test_stiefel_frame_traces_to_n(self, grid, rng):
        phi, _ = retract_qr_mgs(random_frame(grid, 4, rng))
        assert inner_h(phi, phi) == pytest.approx(4.0, abs=1e-12)

    def test_zero_frame(self, grid, rng):
        v = random_frame(grid, 2, rng)
        assert inner_h(v, zero_frame(grid, 2)) == 0.0

    def test_matches_columnwise_quadrature(self, grid, rng):
        v = random_frame(grid, 3, rng)
        w = random_frame(grid, 3, rng)
        expected = sum(
            grid.weight * float(np.dot(v.values[:, j], w.values[:, j]))
            for j in range(3)
        )
        assert inner_h(v, w) == pytest.approx(expected, rel=1e-13)

    def test_cauchy_schwarz(self, grid, rng):
        for _ in range(20):
            v = random_frame(grid, 3, rng)
            w = random_frame(grid, 3, rng)
            bound = norm_h(v) * norm_h(w)
            assert abs(inner_h(v, w)) <= bound * (1 + 1e-12)


class TestDensity:
    def test_mass_constraint_on_manifold(self, grid, rng):
        phi, _ = retract_qr_mgs(random_frame(grid, 2, rng))
        rho = density(phi)
        assert rho.min() >= 0.0
        assert grid.weight * rho.sum() == pytest.approx(2.0, abs=1e-12)

    def test_constant_orbital(self, grid):
        v = Frame(np.full((grid.n_dof, 1), 3.0), grid)
        assert density(v) == pytest.approx(np.full(grid.n_dof, 9.0))

    def test_matches_elementwise_loop(self, grid, rng):
        phi = random_frame(grid, 3, rng)
        expected = np.array(
            [sum(phi.values[r, j] ** 2 for j in range(3)) for r in range(grid.n_dof)]
        )
        assert density(phi) == pytest.approx(expected, rel=1e-14)


class TestMultiplyRight:
    def test_identity_leaves_frame(self, grid, rng):
        v = random_frame(grid, 3, rng)
        assert np.array_equal(multiply_right(v, np.eye(3)).values, v.values)

    def test_diagonal_scaling(self, grid, rng):
        v = random_frame(grid, 2, rng)
        out = multiply_right(v, np.diag([2.0, 0.0]))
        assert out.values[:, 0] == pytest.approx(2.0 * v.values[:, 0])
        assert np.all(out.values[:, 1] == 0.0)

    def test_shape_mismatch(self, grid, rng):
        v = random_frame(grid, 2, rng)
        with pytest.raises(ShapeError):
            multiply_right(v, np.eye(3))


class TestFrameValue:
    def test_values_are_read_only(self, grid, rng):
        v = random_frame(grid, 2, rng)
        with pytest.raises(ValueError):
            v.values[0, 0] = 1.0

    def test_non_finite_rejected(self, grid):
        bad = np.zeros((grid.n_dof, 1))
        bad[3] = np.inf
        with pytest.raises(ValueError):
            Frame(bad, grid)

    def test_arithmetic(self, grid, rng):
        v = random_frame(grid, 2, rng)
        w = random_frame(grid, 2, rng)
        assert np.allclose((v + w).values, v.values + w.values)
        assert np.allclose((v - w).values, v.values - w.values)
        assert np.allclose((2.0 * v).values, 2.0 * v.values)
        assert np.allclose((-v).values, -v.values)
