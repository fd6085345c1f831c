"""Energy functionals and the frame-dependent elliptic operator.

The implemented family couples a kinetic stencil and an external potential
with a density nonlinearity that is linear in the total density:
gamma(rho) = kappa * rho. For a single orbital this is the standard cubic
Gross-Pitaevskii energy; for several orbitals it is a density-coupled
multi-orbital model on the Stiefel manifold.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import OperatorNotSPDError, ShapeError
from .frames import (
    DIRICHLET,
    Frame,
    GridSpec,
    density,
    inner_h,
    multiply_right,
    norm_h,
    outer_product,
)


@lru_cache(maxsize=None)
def laplacian(grid: GridSpec) -> sp.csr_matrix:
    """Negative discrete Laplacian: 3-point stencil in 1D, 5-point in 2D."""
    n, h = grid.points_per_axis, grid.spacing
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    lap1 = sp.diags([off, main, off], offsets=(-1, 0, 1), format="lil")
    if grid.boundary != DIRICHLET:
        lap1[0, n - 1] += -1.0
        lap1[n - 1, 0] += -1.0
    lap1 = (lap1 / h**2).tocsr()
    if grid.dimension == 1:
        return lap1
    eye = sp.identity(n, format="csr")
    return (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsr()


class _OperatorPattern(NamedTuple):
    """The stencil stored on the CSR pattern every anchored operator shares."""

    stencil: sp.csr_matrix
    diagonal_slots: np.ndarray  # positions of the diagonal entries in ``stencil.data``


@lru_cache(maxsize=None)
def _operator_pattern(grid: GridSpec) -> _OperatorPattern:
    """The stencil on the pattern of ``laplacian(grid) + I``.

    Adding a diagonal to ``stencil.data`` in the ``diagonal_slots`` gives the
    same ``indptr``, ``indices`` and ``data`` as the sparse sum
    ``laplacian(grid) + sp.diags(diagonal)``, because the stencil diagonal is
    nonzero and every entry is one floating-point addition either way.
    """
    lap = laplacian(grid)
    stencil = lap + sp.identity(grid.n_dof, format="csr")
    rows = np.repeat(np.arange(grid.n_dof), np.diff(stencil.indptr))
    slots = np.flatnonzero(stencil.indices == rows)
    stencil.data[slots] = lap.diagonal()
    for array in (stencil.indptr, stencil.indices, stencil.data, slots):
        array.setflags(write=False)
    return _OperatorPattern(stencil, slots)


def potential_zero(grid: GridSpec) -> np.ndarray:
    return np.zeros(grid.n_dof)


def potential_harmonic(
    grid: GridSpec, omega: float, center: Union[float, Sequence[float], None] = None
) -> np.ndarray:
    """Harmonic trap omega^2 * |r - r0|^2 / 2, centered in the box by default."""
    coords = grid.coordinates()
    if center is None:
        center = [grid.domain_length / 2.0] * grid.dimension
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if center.shape != (grid.dimension,):
        raise ShapeError("potential center must have one entry per dimension")
    r2 = np.sum((coords - center[None, :]) ** 2, axis=1)
    return 0.5 * omega**2 * r2


def potential_well(
    grid: GridSpec,
    depth: float,
    width: float,
    center: Union[float, Sequence[float], None] = None,
) -> np.ndarray:
    """Rectangular well/barrier: value ``depth`` inside the box of edge ``width``."""
    coords = grid.coordinates()
    if center is None:
        center = [grid.domain_length / 2.0] * grid.dimension
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    inside = np.all(np.abs(coords - center[None, :]) <= width / 2.0, axis=1)
    return np.where(inside, float(depth), 0.0)


def potential_from_file(grid: GridSpec, path) -> np.ndarray:
    """Tabulated potential: plain text, one value per grid point, row-major."""
    values = np.loadtxt(path, dtype=np.float64).ravel()
    if values.size != grid.n_dof:
        raise ShapeError(
            f"potential file holds {values.size} values, grid needs {grid.n_dof}"
        )
    return values


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """Problem definition: grid, external potential, nonlinearity, shift."""

    grid: GridSpec
    potential: np.ndarray
    kappa: float = 0.0
    shift: float = 0.0
    n_orbitals: int = 1

    def __post_init__(self):
        pot = np.array(self.potential, dtype=np.float64, copy=True).ravel()
        if pot.size != self.grid.n_dof:
            raise ShapeError("potential length must equal the number of grid points")
        if not np.isfinite(pot).all():
            raise ValueError("potential contains non-finite entries")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")
        if self.n_orbitals < 1:
            raise ValueError("n_orbitals must be at least 1")
        pot.setflags(write=False)
        object.__setattr__(self, "potential", pot)

    def gamma(self, rho: np.ndarray) -> np.ndarray:
        return self.kappa * rho

    def gamma_primitive(self, rho: np.ndarray) -> np.ndarray:
        return 0.5 * self.kappa * rho**2

    @cached_property
    def _linear_part(self) -> sp.csr_matrix:
        return laplacian(self.grid) + sp.diags(self.potential, format="csr")


def linear_part_matrix(model: EnergyModel) -> sp.csr_matrix:
    """Stencil plus external potential, without nonlinearity or shift.

    Assembled on first use and then kept on the model; callers must not
    modify the returned matrix.
    """
    return model._linear_part


def validate_coercivity(model: EnergyModel, max_dense: int = 8192) -> None:
    """Check that the shifted quadratic form is positive definite.

    Attempts a dense Cholesky for small problems; larger problems defer to
    the runtime negative-curvature check inside CG.
    """
    if model.grid.n_dof > max_dense:
        return
    mat = (
        linear_part_matrix(model) + model.shift * sp.identity(model.grid.n_dof)
    ).toarray()
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise OperatorNotSPDError(
            "shifted quadratic form is not positive definite; increase the shift"
        ) from exc


@dataclass(eq=False)
class DiscreteOperatorA:
    """The elliptic operator anchored at a frame, with the coercivity shift.

    ``matrix`` acts columnwise as stencil + V_ext + gamma(rho) + shift and is
    the H-representative of the (shifted) bilinear form. The anchor density
    is cached at construction; instances are read-only afterwards.
    """

    model: EnergyModel
    rho: np.ndarray
    matrix: sp.csr_matrix

    @classmethod
    def at(cls, model: EnergyModel, phi: Frame) -> "DiscreteOperatorA":
        if phi.grid != model.grid:
            raise ShapeError("anchor frame lives on a different grid")
        rho = density(phi)
        pattern = _operator_pattern(model.grid)
        data = pattern.stencil.data.copy()
        data[pattern.diagonal_slots] += model.potential + model.gamma(rho) + model.shift
        # A shallow copy shares the read-only index arrays of the pattern.
        matrix = copy.copy(pattern.stencil)
        matrix.data = data
        return cls(model=model, rho=rho, matrix=matrix)

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def apply(self, v: Frame) -> Frame:
        """H-representative of the shifted form applied to each orbital."""
        if v.grid != self.model.grid:
            raise ShapeError("frame lives on a different grid")
        return Frame(self.matrix @ v.values, v.grid)

    def bilinear(self, v: Frame, w: Frame) -> float:
        """Shifted bilinear form a_phi(v, w) + shift * (v, w)_H."""
        return inner_h(self.apply(v), w)

    def bilinear_unshifted(self, v: Frame, w: Frame) -> float:
        return self.bilinear(v, w) - self.model.shift * inner_h(v, w)

    def norm_a(self, v: Frame) -> float:
        return float(np.sqrt(max(self.bilinear(v, v), 0.0)))


def a0_form(model: EnergyModel, v: Frame, w: Frame) -> float:
    """Quadratic part of the energy: kinetic stencil plus external potential."""
    v._check_same_space(w)
    lv = linear_part_matrix(model) @ v.values
    return model.grid.weight * float(np.vdot(lv, w.values))


def a0_norm(model: EnergyModel, v: Frame) -> float:
    return float(np.sqrt(max(a0_form(model, v, v), 0.0)))


def energy(model: EnergyModel, phi: Frame) -> float:
    """Total energy: half the quadratic form plus the integrated nonlinearity."""
    rho = density(phi)
    nonlinear = model.grid.weight * float(np.sum(model.gamma_primitive(rho)))
    return 0.5 * a0_form(model, phi, phi) + 0.5 * nonlinear


def directional_derivative(model: EnergyModel, phi: Frame, v: Frame) -> float:
    """First variation of the energy at phi along v (no shift involved)."""
    op = DiscreteOperatorA.at(model, phi)
    return op.bilinear_unshifted(phi, v)


def residual(
    model: EnergyModel, phi: Frame, a_phi: Optional[Frame] = None
) -> "tuple[Frame, np.ndarray]":
    """Eigenvector-equation defect r = A phi - phi Lambda and the multiplier.

    Lambda includes the shift; subtract shift * I for reported eigenvalues.
    The H-norm of r is the convergence monitor: it vanishes exactly at
    critical points of the energy. ``a_phi`` is A phi when already known.
    """
    if a_phi is None:
        a_phi = DiscreteOperatorA.at(model, phi).apply(phi)
    lam = outer_product(phi, a_phi)
    r = a_phi - multiply_right(phi, lam)
    return r, lam


def multiplier_eigenvalues(model: EnergyModel, lam: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a multiplier matrix, with the shift removed."""
    lam_sym = 0.5 * (lam + lam.T) - model.shift * np.eye(lam.shape[0])
    return np.linalg.eigvalsh(lam_sym)


def eigenvalues_at(model: EnergyModel, phi: Frame) -> np.ndarray:
    """Ascending eigenvalues of the (unshifted) multiplier matrix."""
    _, lam = residual(model, phi)
    return multiplier_eigenvalues(model, lam)


@dataclass(frozen=True, eq=False)
class IterateState:
    """Everything derived from one iterate, evaluated once and then shared.

    Holds the iterate, its anchored operator (which carries the density),
    A phi, the multiplier Lambda = [[phi, A phi]], the residual
    r = A phi - phi Lambda with its H-norm, and the energy. The descent
    driver builds one per visited iterate and hands it to the direction,
    the non-monotone update and the final report.
    """

    phi: Frame
    op: DiscreteOperatorA
    a_phi: Frame
    lam: np.ndarray
    r: Frame
    res_norm: float
    energy: float

    @classmethod
    def at(cls, model: EnergyModel, phi: Frame) -> "IterateState":
        op = DiscreteOperatorA.at(model, phi)
        a_phi = op.apply(phi)
        r, lam = residual(model, phi, a_phi)
        return cls(phi, op, a_phi, lam, r, norm_h(r), energy(model, phi))

    def derivative(self, v: Frame) -> float:
        """First variation of the energy at phi along v, from the cached A phi."""
        return inner_h(self.a_phi, v) - self.op.model.shift * inner_h(self.phi, v)
