"""Stiefel-manifold retractions: polar and modified-Gram-Schmidt qR.

The descent takes one retraction per trial step. The exact gradient is
tangent by its closed form ``X G^{-1} - phi`` (``directions._gradient``),
and the retraction absorbs the normal part of the inexact and DCM
directions, so the library has no tangent projection. That projection,
the membership and tangency checks and a Cholesky qR are test oracles
(``tests/conftest.py``). The config value ``qr_cholesky`` names the one
qR retraction, as ``qr_mgs`` does, so that configs and callers naming it
still run.

The polar retraction decomposes its N x N Gram matrix by calling LAPACK
``dsyevd`` from ``scipy.linalg.lapack`` directly, as ``models.cholesky_solve``
calls ``dposv``: on matrices this small, ``np.linalg.eigh``'s Python wrapper
costs more than the decomposition. ``np.linalg.eigh`` calls the same routine
on the same (lower) triangle; with the numpy and scipy builds of the README's
numerical notes both gave the same bits.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import DegenerateFrameError
from .frames import Frame, multiply_right, outer_product
from .models import dsyevd  # imported there after scipy.sparse, see models

# Relative eigenvalue threshold below which a Gram matrix counts as rank
# deficient; matches double-precision conditioning of the square-root and
# Gram-Schmidt steps.
EPS_RANK = 1e-12

POLAR = "polar"
QR_MGS = "qr_mgs"
QR_CHOLESKY = "qr_cholesky"  # the same retraction as QR_MGS
RETRACTION_KINDS = (POLAR, QR_MGS, QR_CHOLESKY)


def _spectral_sqrt_inverse(gram: np.ndarray) -> np.ndarray:
    """The inverse square root of the symmetric ``gram``, read from its lower
    triangle, by one LAPACK ``dsyevd``. Scaling the columns of q by
    1/sqrt(d) gives the bits of ``q @ diag(1/sqrt(d))``: the diagonal
    product only adds exact zeros."""
    d, q, info = dsyevd(gram, lower=1)
    if info != 0 or d[0] <= EPS_RANK * d[-1]:  # d ascends
        raise DegenerateFrameError("frame is numerically rank deficient")
    return (q * (1.0 / np.sqrt(d))) @ q.T


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
            raise DegenerateFrameError(f"column {i} became numerically dependent")
        r[i, i] = rii
        q[:, i] = work[:, i] / rii
        for j in range(i + 1, n):
            rij = weight * float(np.dot(work[:, j], q[:, i]))
            r[i, j] = rij
            work[:, j] -= rij * q[:, i]
    return Frame._wrap(q, v.grid), r


def retract(phi: Frame, eta: Frame, kind: str = POLAR) -> Frame:
    """``phi`` moved along ``eta`` by the retraction ``kind``, one of
    ``RETRACTION_KINDS``; ``qr_mgs`` and ``qr_cholesky`` name the one qR."""
    if kind == POLAR:
        return retract_polar(phi, eta)
    if kind in (QR_MGS, QR_CHOLESKY):
        return retract_qr_mgs(phi + eta)[0]
    raise ValueError(f"unknown retraction {kind!r}; pick one of {RETRACTION_KINDS}")
