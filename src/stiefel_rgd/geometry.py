"""Stiefel-manifold geometry: membership tests, tangent projection, retractions.

A frame phi is on the manifold when its Gram matrix is the identity; a
frame eta is tangent at phi when the Gram cross-product is skew-symmetric.
The tangent projection is orthogonal in the frame-dependent energy metric
and reduces to a single small Lyapunov solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateFrameError, OperatorNotSPDError, RankDeficiencyError
from .frames import Frame, multiply_right, outer_product

# Relative eigenvalue threshold below which a Gram matrix counts as rank
# deficient; matches double-precision conditioning of the square-root and
# Cholesky steps.
EPS_RANK = 1e-12

POLAR = "polar"
QR_MGS = "qr_mgs"
QR_CHOLESKY = "qr_cholesky"
RETRACTION_KINDS = (POLAR, QR_MGS, QR_CHOLESKY)


@dataclass(frozen=True)
class TangentCheckReport:
    skew_defect: float
    on_manifold_defect: float

    def within(self, tol: float) -> bool:
        return self.skew_defect <= tol


def gram_defect(phi: Frame) -> float:
    """Frobenius distance of the Gram matrix from the identity."""
    g = outer_product(phi, phi)
    return float(np.linalg.norm(g - np.eye(phi.n_orbitals)))


def is_on_stiefel(phi: Frame, tol: float) -> bool:
    return gram_defect(phi) <= tol


def is_tangent(phi: Frame, eta: Frame, tol: float) -> TangentCheckReport:
    """Report tangency defects; the caller compares ``skew_defect`` with tol."""
    del tol  # threshold applied by the caller via TangentCheckReport.within
    skew = outer_product(eta, phi) + outer_product(phi, eta)
    return TangentCheckReport(
        skew_defect=float(np.linalg.norm(skew)),
        on_manifold_defect=gram_defect(phi),
    )


def solve_lyapunov(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve G S + S G = C for symmetric S, with G symmetric positive definite.

    Uses the eigendecomposition of G and componentwise division by the
    eigenvalue sums, so the residual is at machine-precision level.
    """
    g = np.asarray(g, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d, q = np.linalg.eigh(g)
    if d.min() <= 0.0:
        raise OperatorNotSPDError("Lyapunov coefficient matrix is not positive definite")
    ctil = q.T @ c @ q
    s = q @ (ctil / (d[:, None] + d[None, :])) @ q.T
    return 0.5 * (s + s.T)


def project_tangent(phi: Frame, v: Frame, a_solve: Callable[[Frame], Frame]) -> Frame:
    """Metric-orthogonal projection of v onto the tangent space at phi.

    ``a_solve`` applies the inverse of the anchored elliptic operator
    columnwise. The projection subtracts the normal component X S where
    X = A^{-1} phi and the symmetric S solves G S + S G = 2 sym([[v, phi]]).
    """
    x = a_solve(phi)
    g = outer_product(phi, x)
    g = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 0.0:
        raise DegenerateFrameError("Gram matrix of A^{-1} phi is not positive definite")
    vp = outer_product(v, phi)
    s = solve_lyapunov(g, vp + vp.T)
    return v - multiply_right(x, s)


def _spectral_sqrt_inverse(gram: np.ndarray) -> np.ndarray:
    d, q = np.linalg.eigh(gram)
    if d.min() <= EPS_RANK * d.max():
        raise RankDeficiencyError("frame is numerically rank deficient")
    return q @ np.diag(1.0 / np.sqrt(d)) @ q.T


def retract_polar(phi: Frame, eta: Frame) -> Frame:
    """Polar-decomposition retraction, evaluated in its stable Gram form.

    Returns (phi + eta) scaled by the inverse square root of its own Gram
    matrix; this is the closest manifold point to phi + eta in the ambient
    norm.
    """
    moved = phi + eta
    gram = outer_product(moved, moved)
    return multiply_right(moved, _spectral_sqrt_inverse(0.5 * (gram + gram.T)))


def retract_qr_mgs(v: Frame) -> Tuple[Frame, np.ndarray]:
    """Modified Gram-Schmidt qR factorization in the weighted L2 product.

    Returns (q, R) with v = q R, q orthonormal and R upper triangular with
    positive diagonal; the q factor defines the qR retraction.
    """
    weight = v.grid.weight
    n = v.n_orbitals
    work = np.array(v.values, dtype=np.float64)
    q = np.empty_like(work)
    r = np.zeros((n, n))
    scale = max(float(np.sqrt(weight) * np.linalg.norm(work, axis=0).max()), 0.0)
    floor = np.sqrt(EPS_RANK) * scale
    for i in range(n):
        rii = float(np.sqrt(weight) * np.linalg.norm(work[:, i]))
        if rii <= floor:
            raise RankDeficiencyError(f"column {i} became numerically dependent")
        r[i, i] = rii
        q[:, i] = work[:, i] / rii
        for j in range(i + 1, n):
            rij = weight * float(np.dot(work[:, j], q[:, i]))
            r[i, j] = rij
            work[:, j] -= rij * q[:, i]
    return Frame(q, v.grid), r


def retract_qr_cholesky(phi: Frame, eta: Frame) -> Frame:
    """qR retraction computed via Cholesky of the Gram matrix."""
    moved = phi + eta
    gram = outer_product(moved, moved)
    try:
        f = sla.cholesky(0.5 * (gram + gram.T), lower=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("Gram matrix is not positive definite") from exc
    values = sla.solve_triangular(f.T, moved.values.T, lower=True).T
    return Frame(values, moved.grid)


def retract(phi: Frame, eta: Frame, kind: str = POLAR) -> Frame:
    if kind == POLAR:
        return retract_polar(phi, eta)
    if kind == QR_MGS:
        return retract_qr_mgs(phi + eta)[0]
    if kind == QR_CHOLESKY:
        return retract_qr_cholesky(phi, eta)
    raise ValueError(f"unknown retraction {kind!r}; pick one of {RETRACTION_KINDS}")
