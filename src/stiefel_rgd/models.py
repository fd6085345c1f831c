"""Energy functionals and the frame-dependent elliptic operator.

The implemented family couples a kinetic stencil and an external potential
with a density nonlinearity that is linear in the total density:
gamma(rho) = kappa * rho. For a single orbital this is the standard cubic
Gross-Pitaevskii energy; for several orbitals it is a density-coupled
multi-orbital model on the Stiefel manifold.

Small dense systems go to LAPACK through ``scipy.linalg.lapack`` directly:
``dposv`` for the Cholesky solves here, ``dsyevd`` for the polar
retraction in ``geometry``, and ``dpttrf``/``dpttrs`` for the tridiagonal
kinetic-shift preconditioner of 1D grids in ``solvers``. On
N x N matrices, and on O(n) tridiagonal solves, the checking wrappers of
numpy and scipy cost more than the factorizations. ``scipy.linalg`` is
imported after ``scipy.sparse``: the other order made every fresh
``import stiefel_rgd`` about 50 ms slower.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools
# After scipy.sparse (see the module docstring); ``geometry`` and
# ``solvers`` take their LAPACK routines from here, so that they keep this
# order too.
from scipy.linalg.lapack import dposv, dpttrf, dpttrs, dsyevd

from .errors import DegenerateFrameError, OperatorNotSPDError, ShapeError
from .frames import (
    DIRICHLET,
    Frame,
    GridSpec,
    density,
    inner_h,
    multiply_right,
    norm_h,
    outer_product,
    same_grid,
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


def csr_product(matrix: sp.csr_matrix, block: np.ndarray) -> np.ndarray:
    """``matrix @ block`` for a float64 block of columns, by the CSR kernels
    behind ``@`` called directly: scipy's operator dispatch costs more than
    the product itself on a 1D grid, and it copies an F-ordered block.

    An F-ordered block (a single column included) is multiplied one
    contiguous column at a time into an F-ordered result, which the blocked
    PCG keeps; any other block as C-ordered rows, copied to C order when it
    is not, into a C-ordered result, as ``@`` returns. Both kernels sum each
    row's entries in the order they are stored, so the result equals
    ``matrix @ block`` bit for bit.
    """
    n_rows, n_cols = matrix.shape
    csr = (matrix.indptr, matrix.indices, matrix.data)
    if block.flags.f_contiguous:
        out = np.zeros((n_rows, block.shape[1]), order="F")
        for j in range(block.shape[1]):
            _sparsetools.csr_matvec(n_rows, n_cols, *csr, block[:, j], out[:, j])
        return out
    out = np.zeros((n_rows, block.shape[1]))
    _sparsetools.csr_matvecs(n_rows, n_cols, block.shape[1], *csr,
                             np.ascontiguousarray(block).ravel(), out.ravel())
    return out


class _OperatorPattern(NamedTuple):
    """The stencil stored on the CSR pattern every anchored operator shares."""

    stencil: sp.csr_matrix
    diagonal_slots: np.ndarray  # positions of the diagonal entries in ``stencil.data``


@lru_cache(maxsize=None)
def _operator_pattern(grid: GridSpec) -> _OperatorPattern:
    """The stencil on the pattern of ``laplacian(grid) + I``, read-only."""
    lap = laplacian(grid)
    stencil = lap + sp.identity(grid.n_dof, format="csr")
    rows = np.repeat(np.arange(grid.n_dof), np.diff(stencil.indptr))
    slots = np.flatnonzero(stencil.indices == rows)
    stencil.data[slots] = lap.diagonal()
    for array in (stencil.indptr, stencil.indices, stencil.data, slots):
        array.setflags(write=False)
    return _OperatorPattern(stencil, slots)


def stencil_plus(grid: GridSpec, diagonal) -> Tuple[sp.csr_matrix, np.ndarray]:
    """``laplacian(grid) + diag(diagonal)`` for a vector or scalar
    ``diagonal``, and a copy of its diagonal entries.

    The one way a diagonal is put on the stencil: a copy of the data of the
    grid's cached pattern, with ``diagonal`` added in its diagonal slots.
    The matrix shares the pattern's read-only index arrays, so callers must
    not modify it. Its ``indptr``, ``indices`` and ``data`` equal those of
    the sparse sum ``laplacian(grid) + sp.diags(diagonal)``, every entry
    being one floating-point addition either way, except where a diagonal
    entry cancels exactly: the fill keeps an explicit zero there, which
    the sparse sum drops. Products and dense forms do not change even
    then, because a CSR row sum starts at +0 and adding 0 x to it never
    changes a bit (x finite).
    """
    pattern = _operator_pattern(grid)
    matrix = copy.copy(pattern.stencil)  # shares the pattern's read-only index arrays
    matrix.data = pattern.stencil.data.copy()
    matrix.data[pattern.diagonal_slots] += diagonal
    return matrix, matrix.data[pattern.diagonal_slots]


def potential_zero(grid: GridSpec) -> np.ndarray:
    return np.zeros(grid.n_dof)


def _offsets(grid: GridSpec, center: Union[float, Sequence[float], None]) -> np.ndarray:
    """Every grid point minus the potential's center (the middle of the box
    by default), as an ``(n_dof, dimension)`` array; the center needs one
    entry per dimension."""
    if center is None:
        center = [grid.domain_length / 2.0] * grid.dimension
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if center.shape != (grid.dimension,):
        raise ShapeError("potential center must have one entry per dimension")
    return grid.coordinates() - center[None, :]


def potential_harmonic(
    grid: GridSpec, omega: float, center: Union[float, Sequence[float], None] = None
) -> np.ndarray:
    """Harmonic trap omega^2 * |r - r0|^2 / 2, centered in the box by default."""
    r2 = np.sum(_offsets(grid, center) ** 2, axis=1)
    return 0.5 * omega**2 * r2


def potential_well(
    grid: GridSpec,
    depth: float,
    width: float,
    center: Union[float, Sequence[float], None] = None,
) -> np.ndarray:
    """Rectangular well/barrier: value ``depth`` inside the box of edge ``width``."""
    inside = np.all(np.abs(_offsets(grid, center)) <= width / 2.0, axis=1)
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
        return stencil_plus(self.grid, self.potential)[0]


def linear_part_matrix(model: EnergyModel) -> sp.csr_matrix:
    """Stencil plus external potential, without nonlinearity or shift.

    Assembled on first use and then kept on the model; callers must not
    modify the returned matrix.
    """
    return model._linear_part


def validate_coercivity(model: EnergyModel) -> None:
    """Check that the shifted quadratic form is positive definite, at any size.

    Factors M = L + diag(V + shift) once by sparse LU with a symmetric
    fill-reducing ordering and diagonal pivots only, which for symmetric M
    is an LDL^T factorization: M is positive definite exactly when every
    pivot stayed on the diagonal and is positive (Sylvester's law of
    inertia). Round-off leaves the zero pivot of a singular M within about
    n_dof * eps * max|M_ii| of zero, in either sign, so pivots must clear
    ten times that. A singular M is thus rejected at every size; one
    example is the periodic stencil with zero potential, whose constant
    vector is a null vector, so such a problem needs shift > 0.
    """
    mat = stencil_plus(model.grid, model.potential + model.shift)[0].tocsc()
    floor = 10.0 * model.grid.n_dof * np.finfo(np.float64).eps * np.abs(mat.diagonal()).max()
    try:
        factor = spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        definite = (np.array_equal(factor.perm_r, factor.perm_c)
                    and bool(np.all(factor.U.diagonal() > floor)))
    except RuntimeError:  # SuperLU met an exactly zero pivot
        definite = False
    if not definite:
        raise OperatorNotSPDError(
            "shifted quadratic form is not positive definite; increase the shift"
        )


def cholesky_solve(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """``matrix^{-1} rhs`` for a small symmetric ``matrix``, read from its
    upper triangle, by one Cholesky factorization (LAPACK ``dposv``); None
    when ``matrix`` is not numerically positive definite."""
    _, solution, info = dposv(matrix, rhs)
    return solution if info == 0 else None


def spd_inverse(matrix: np.ndarray, singular: str) -> np.ndarray:
    """Inverse of the symmetric part of the small ``matrix`` by
    ``cholesky_solve``. Raises DegenerateFrameError(``singular``) when that
    part is not numerically positive definite."""
    inverse = cholesky_solve(0.5 * (matrix + matrix.T), _identity(len(matrix)))
    if inverse is None:
        raise DegenerateFrameError(singular)
    return inverse


@lru_cache(maxsize=None)
def _identity(order: int) -> np.ndarray:
    """A read-only identity of ``order``, shared by every call: ``dposv``
    solves in a copy of its right-hand side."""
    eye = np.eye(order)
    eye.setflags(write=False)
    return eye


@dataclass(eq=False)
class DiscreteOperatorA:
    """The elliptic operator anchored at a frame, with the coercivity shift.

    ``matrix`` acts columnwise as stencil + V_ext + gamma(rho) + shift and is
    the H-representative of the (shifted) bilinear form, with gamma(rho)
    taken at the anchor's density; instances are read-only after ``at``,
    which takes that density when the caller has it.
    ``diagonal`` is the diagonal of ``matrix``, read-only: ``at`` hands over
    the entries it has just filled, and it is read from ``matrix`` when not
    given.
    """

    model: EnergyModel
    matrix: sp.csr_matrix
    diagonal: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.diagonal is None:
            self.diagonal = self.matrix.diagonal()
        self.diagonal.setflags(write=False)

    @classmethod
    def at(cls, model: EnergyModel, phi: Frame,
           rho: Optional[np.ndarray] = None) -> "DiscreteOperatorA":
        if not same_grid(phi.grid, model.grid):
            raise ShapeError("anchor frame lives on a different grid")
        if rho is None:
            rho = density(phi)
        return cls(model, *stencil_plus(
            model.grid, model.potential + model.gamma(rho) + model.shift))

    def apply(self, v: Frame) -> Frame:
        """H-representative of the shifted form applied to each orbital."""
        if not same_grid(v.grid, self.model.grid):
            raise ShapeError("frame lives on a different grid")
        return Frame._wrap(csr_product(self.matrix, v.values), v.grid)

    def bilinear(self, v: Frame, w: Frame) -> float:
        """Shifted bilinear form a_phi(v, w) + shift * (v, w)_H."""
        return inner_h(self.apply(v), w)

    def norm_a(self, v: Frame) -> float:
        return float(np.sqrt(max(self.bilinear(v, v), 0.0)))


def a0_form(model: EnergyModel, v: Frame, w: Frame) -> float:
    """Quadratic part of the energy: kinetic stencil plus external potential."""
    v._check_same_space(w)
    lv = csr_product(linear_part_matrix(model), v.values)
    return model.grid.weight * float(np.vdot(lv, w.values))


def a0_norm(model: EnergyModel, v: Frame) -> float:
    return float(np.sqrt(max(a0_form(model, v, v), 0.0)))


def energy(model: EnergyModel, phi: Frame, rho: Optional[np.ndarray] = None) -> float:
    """Total energy: half the quadratic form plus the integrated nonlinearity.
    ``rho`` is the density of ``phi`` when the caller has it."""
    if rho is None:
        rho = density(phi)
    nonlinear = model.grid.weight * float(np.sum(model.gamma_primitive(rho)))
    return 0.5 * a0_form(model, phi, phi) + 0.5 * nonlinear


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


@dataclass(frozen=True, eq=False)
class IterateState:
    """Everything derived from one iterate, evaluated once and then shared.

    Holds the iterate, its anchored operator, the multiplier
    Lambda = [[phi, A phi]], the residual r = A phi - phi Lambda with its
    H-norm, and the energy. ``at`` is the one place an iterate is evaluated
    and checked for non-finite entries: the descent driver builds one state
    per visited iterate and hands it to the search direction (every
    direction takes a state, not a frame), the non-monotone update and the
    final report. The multiplier inverse and the warm start phi Lambda^{-1}
    of the gradient solves are computed on first use and then kept.
    """

    phi: Frame
    op: DiscreteOperatorA
    lam: np.ndarray
    r: Frame
    res_norm: float
    energy: float

    @classmethod
    def at(cls, model: EnergyModel, phi: Frame, e: Optional[float] = None,
           rho: Optional[np.ndarray] = None) -> "IterateState":
        """Evaluate iterate phi; ``e`` is its energy and ``rho`` its density
        when the caller has them. The density is computed at most once.

        The one finiteness check of an iterate: retractions and frame
        arithmetic do not scan their results.
        """
        if not np.isfinite(phi.values).all():
            raise ValueError("frame contains non-finite entries")
        if rho is None:
            rho = density(phi)
        op = DiscreteOperatorA.at(model, phi, rho)
        r, lam = residual(model, phi, op.apply(phi))
        return cls(phi, op, lam, r, norm_h(r), energy(model, phi, rho) if e is None else e)

    @cached_property
    def multiplier_inverse(self) -> np.ndarray:
        """Lambda^{-1} of the symmetrized multiplier, computed on first use
        by one Cholesky factorization (``spd_inverse``).

        Lambda = [[phi, A phi]] is positive definite for SPD A and
        independent columns of phi, so DegenerateFrameError is raised when
        the factorization fails: Lambda is singular or, through round-off,
        not positive definite, which means phi has (nearly) dependent columns.
        """
        return spd_inverse(self.lam, "multiplier matrix is singular")

    @cached_property
    def multiplier_warm_start(self) -> Frame:
        """The guess phi Lambda^{-1} for A X = phi, computed on first use.

        Exact at a critical point, where A phi = phi Lambda, so its error
        tracks the outer iteration: its residual phi - A phi Lambda^{-1}
        is -r Lambda^{-1}, known without a product. Every truncated solve
        at this iterate starts from it; the exact solve adds to it the
        Galerkin projection onto the corrections of the last exact solves
        (see ``directions.recycled_start``), which reads this residual.
        The N x N inverse mixes phi in one matrix product.
        """
        return Frame._wrap(self.phi.values @ self.multiplier_inverse, self.phi.grid)
