"""Structure tests (Z, Metzler, M, H, Hurwitz) and positive diagonal scalings.

A Hurwitz Metzler matrix, and more generally a Hurwitz H-matrix, can be made
strictly row-dominant by a positive diagonal similarity.  The scaling vector
is constructed, not searched: ``d`` solves ``M_A d = 1`` where ``M_A`` is the
comparison matrix; a nonsingular M-matrix has an entrywise nonnegative
inverse, so ``d > 0`` and the rows of ``diag(d)^{-1} A diag(d)`` keep margins
``1 / d_i``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (Axis, DominanceReport, _comparison, _diag_similarity, _dominance,
                   _singular_ratio, _tolerance, as_matrix)
from .errors import NumericallySingular, PreconditionViolated

#: Default tolerance on eigenvalue real parts for Hurwitz / M-matrix tests.
HURWITZ_TOL = 1e-9


class DiagonalSign(enum.Enum):
    ALL_NEGATIVE = "AllNegative"
    MIXED = "Mixed"


@dataclass(frozen=True)
class ScalingCertificate:
    """Positive diagonal ``K`` with ``B = K A K^{-1}`` strictly row-dominant."""

    K: np.ndarray
    B: np.ndarray
    dominance: DominanceReport
    diagonal_sign: DiagonalSign


def _z(a) -> bool:
    """Every off-diagonal entry of a validated ``a`` is nonpositive."""
    return bool(np.all(a[~np.eye(a.shape[0], dtype=bool)] <= 0.0))


def is_z_matrix(a) -> bool:
    """All off-diagonal entries nonpositive (exact sign test)."""
    return _z(as_matrix(a))


def is_metzler(a) -> bool:
    """All off-diagonal entries nonnegative (exact sign test)."""
    return _z(-as_matrix(a))


def is_hurwitz(a, tol: float = HURWITZ_TOL) -> bool:
    """All eigenvalue real parts below ``-tol``."""
    return _hurwitz(as_matrix(a), _tolerance(tol))


def _hurwitz(a, tol) -> bool:
    return bool(np.max(np.linalg.eigvals(a).real) < -tol)


def is_m_matrix(a, tol: float = HURWITZ_TOL) -> bool:
    """Z-matrix whose eigenvalue real parts all exceed ``tol`` (nonsingular
    convention; singular M-matrices such as graph Laplacians test False)."""
    return _m_matrix(as_matrix(a), _tolerance(tol))


def _m_matrix(a, tol) -> bool:
    return _z(a) and bool(np.min(np.linalg.eigvals(a).real) > tol)


def is_h_matrix(a, tol: float = HURWITZ_TOL) -> bool:
    """Comparison matrix is an M-matrix."""
    return _m_matrix(_comparison(as_matrix(a)), _tolerance(tol))


def _positive_scaling(a) -> ScalingCertificate:
    """The certificate of both scalings, for an ``a`` already validated."""
    m = _comparison(a)
    ratio = _singular_ratio(m)
    if ratio:
        raise NumericallySingular(f"comparison matrix is numerically singular ({ratio})")
    d = np.linalg.solve(m, np.ones(a.shape[0]))
    if np.any(d <= 0.0):
        raise NumericallySingular(
            "scaling vector has nonpositive entries; the comparison matrix is "
            "not a usable M-matrix at working precision")
    # K = diag(d)^{-1}, rescaled so its largest entry is exactly 1
    k = d.min() / d
    b = _diag_similarity(a, k)
    dominance = _dominance(b, Axis.ROW, 0.0)
    if not dominance.strict:
        raise NumericallySingular(
            "scaled matrix misses strict dominance at working precision")
    sign = (DiagonalSign.ALL_NEGATIVE if np.all(np.diag(a) < 0.0)
            else DiagonalSign.MIXED)
    return ScalingCertificate(K=np.diag(k), B=b, dominance=dominance,
                              diagonal_sign=sign)


def metzler_hurwitz_scaling(a, tol: float = HURWITZ_TOL) -> ScalingCertificate:
    """Scaling certificate for a Metzler Hurwitz matrix.

    Raises :class:`PreconditionViolated` unless ``a`` is Metzler with all
    eigenvalue real parts below ``-tol``.
    """
    a = as_matrix(a)
    tol = _tolerance(tol)
    if not _z(-a):
        raise PreconditionViolated("matrix is not Metzler")
    if not _hurwitz(a, tol):
        raise PreconditionViolated("matrix is not Hurwitz")
    return _positive_scaling(a)


def h_matrix_scaling(a, tol: float = HURWITZ_TOL) -> ScalingCertificate:
    """Scaling certificate for a Hurwitz H-matrix.

    Same scaling vector construction as the Metzler case, applied to the
    comparison matrix.  The diagonal sign is reported, not asserted: a
    Hurwitz H-matrix is expected to come out all-negative.
    """
    a = as_matrix(a)
    tol = _tolerance(tol)
    if not _hurwitz(a, tol):
        raise PreconditionViolated("matrix is not Hurwitz")
    if not _m_matrix(_comparison(a), tol):
        raise PreconditionViolated("matrix is not an H-matrix")
    return _positive_scaling(a)
