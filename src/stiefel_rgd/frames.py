"""Uniform grids, orbital frames, and the weighted L2 frame algebra.

A frame packs N orbitals as the columns of an (n_dof, N) array. All inner
products are lumped-mass L2 products: plain dot products scaled by the
cell weight h^d, so every frame identity is exact matrix algebra.

Values are validated where they enter the library: ``Frame(values, grid)``
copies, shape-checks and finiteness-checks its array. Frames the library
computes from frames it already holds (frame arithmetic, ``multiply_right``,
the operator product, the preconditioner, the retractions) wrap their fresh
result read-only without a copy or a scan; ``IterateState.at`` scans each
visited iterate once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError

DIRICHLET = "dirichlet_zero"
PERIODIC = "periodic"


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on a box of edge length ``domain_length``.

    Dirichlet grids store interior points only (boundary values are
    implicitly zero); periodic grids store one point per cell.
    """

    dimension: int
    points_per_axis: int
    domain_length: float
    boundary: str = DIRICHLET

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ShapeError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.points_per_axis < 2:
            raise ShapeError("points_per_axis must be at least 2")
        if not self.domain_length > 0:
            raise ShapeError("domain_length must be positive")
        if self.boundary not in (DIRICHLET, PERIODIC):
            raise ShapeError(f"unknown boundary condition {self.boundary!r}")

    # Computed once per grid: every inner product reads the weight. A cached
    # property writes the instance dict directly, past the frozen
    # __setattr__, and is not a field, so equality and hashing ignore it.
    @cached_property
    def spacing(self) -> float:
        n = self.points_per_axis
        if self.boundary == DIRICHLET:
            return self.domain_length / (n + 1)
        return self.domain_length / n

    @cached_property
    def weight(self) -> float:
        """Quadrature weight of one grid point, h^d."""
        return self.spacing**self.dimension

    @property
    def n_dof(self) -> int:
        return self.points_per_axis**self.dimension

    def axis_coordinates(self) -> np.ndarray:
        n, h = self.points_per_axis, self.spacing
        if self.boundary == DIRICHLET:
            return h * np.arange(1, n + 1)
        return h * np.arange(n)

    def coordinates(self) -> np.ndarray:
        """All grid points as an (n_dof, dimension) array, row-major order."""
        axis = self.axis_coordinates()
        if self.dimension == 1:
            return axis[:, None]
        x, y = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([x.ravel(), y.ravel()])


def same_grid(a: GridSpec, b: GridSpec) -> bool:
    """``a == b``, settled by identity first: the frames and operators of one
    run all hold one grid object, and comparing fields costs more than the
    frame arithmetic on a small grid."""
    return a is b or a == b


@dataclass(frozen=True, eq=False)
class Frame:
    """N orbitals on a grid, one per column of ``values``.

    ``Frame(values, grid)`` validates: it copies ``values`` into a read-only
    C-ordered float64 array and rejects a wrong shape or a non-finite entry.
    It serves values from outside the frame algebra: callers, ``zero_frame``,
    ``random_frame`` and the result of a linear solve, the one kernel that
    can turn finite inputs into NaN. Frames computed from frames the library
    already holds go through ``_wrap``, which neither copies nor scans.
    """

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True, order="C")
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ShapeError(f"frame values must be 2-D, got ndim={values.ndim}")
        if values.shape[0] != self.grid.n_dof:
            raise ShapeError(
                f"frame has {values.shape[0]} rows but grid has {self.grid.n_dof} points"
            )
        if values.shape[1] < 1:
            raise ShapeError("frame needs at least one orbital")
        if not np.isfinite(values).all():
            raise ValueError("frame contains non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _wrap(cls, values: np.ndarray, grid: GridSpec) -> "Frame":
        """A frame around a fresh ``(n_dof, N)`` result computed from valid
        frames: made C-contiguous (copied only if it is not) and read-only,
        and not scanned."""
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        frame = object.__new__(cls)
        frame.__dict__.update(values=values, grid=grid)  # bypasses the frozen __setattr__
        return frame

    @property
    def n_orbitals(self) -> int:
        return self.values.shape[1]

    def _check_same_space(self, other: "Frame"):
        if not same_grid(self.grid, other.grid) or self.n_orbitals != other.n_orbitals:
            raise ShapeError("frames live on different grids or have different N")

    def __add__(self, other: "Frame") -> "Frame":
        self._check_same_space(other)
        return Frame._wrap(self.values + other.values, self.grid)

    def __sub__(self, other: "Frame") -> "Frame":
        self._check_same_space(other)
        return Frame._wrap(self.values - other.values, self.grid)

    def __mul__(self, scalar: float) -> "Frame":
        return Frame._wrap(self.values * float(scalar), self.grid)

    __rmul__ = __mul__

    def __neg__(self) -> "Frame":
        return Frame._wrap(-self.values, self.grid)


def outer_product(v: Frame, w: Frame) -> np.ndarray:
    """Matrix of all pairwise weighted L2 products, entry (i,j) = (v_i, w_j)."""
    v._check_same_space(w)
    return v.grid.weight * (v.values.T @ w.values)


def inner_h(v: Frame, w: Frame) -> float:
    """Frame inner product: trace of the outer product."""
    v._check_same_space(w)
    return v.grid.weight * float(np.vdot(v.values, w.values))


def norm_h(v: Frame) -> float:
    return float(np.sqrt(max(inner_h(v, v), 0.0)))


def density(phi: Frame) -> np.ndarray:
    """Pointwise density, the sum of squared orbital values."""
    return np.einsum("ij,ij->i", phi.values, phi.values)


def multiply_right(v: Frame, s: np.ndarray) -> Frame:
    """Mix orbitals by a matrix acting from the right."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != v.n_orbitals:
        raise ShapeError(
            f"matrix of shape {s.shape} cannot act on a frame with N={v.n_orbitals}"
        )
    return Frame._wrap(v.values @ s, v.grid)


def zero_frame(grid: GridSpec, n_orbitals: int) -> Frame:
    return Frame(np.zeros((grid.n_dof, n_orbitals)), grid)


def random_frame(grid: GridSpec, n_orbitals: int, rng: np.random.Generator) -> Frame:
    """Gaussian frame; not orthonormal."""
    return Frame(rng.standard_normal((grid.n_dof, n_orbitals)), grid)
