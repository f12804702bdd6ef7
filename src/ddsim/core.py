"""Dense square matrices: dominance predicates, comparison matrix, Gershgorin discs.

Matrices are plain ``numpy.ndarray`` values.  Real matrices are the inputs of
every public decision routine; complex arrays are accepted by the predicates
so that certificates produced by the complex construction path can be checked
with the same code (all comparisons go through magnitudes).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularTransform

#: Relative singular-value gap below which a transform counts as singular.
SINGULAR_SV_RTOL = 1e-12


class Axis(enum.Enum):
    ROW = "Row"
    COLUMN = "Column"


def as_matrix(values) -> np.ndarray:
    """Validate ``values`` as a dense square real matrix and return float64.

    Rejects complex or text entries, non-square shapes, empty matrices and
    non-finite values.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError("matrix entries must be real")
    return _square(arr)


def _square(values) -> np.ndarray:
    """Like :func:`as_matrix` but keeps complex dtype when present."""
    arr = np.asarray(values)
    # text (also held in objects), times and records convert under
    # astype(float); they are not matrices of numbers
    if arr.dtype.kind in "USmMV" or (
            arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat)):
        raise ValueError("matrix entries must be real numbers")
    if arr.dtype.kind != "c":
        try:
            arr = arr.astype(float, order="C")
        except (TypeError, ValueError, OverflowError):
            # an object entry that is complex, not a number or too large
            raise ValueError("matrix entries must be real numbers") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("matrix must have dimension at least 1")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError("matrix entries must be finite")
    return arr


@np.errstate(over="ignore")
def _frobenius(x) -> float:
    """``np.linalg.norm(x)``; only when it overflows on finite entries is it
    recomputed as ``peak * ||x / peak||_F`` with ``peak = max |x_ij|``."""
    x = np.asarray(x)
    norm = float(np.linalg.norm(x))
    if norm == np.inf and np.isfinite(x).all():
        peak = float(np.abs(x).max())
        norm = peak * float(np.linalg.norm(x / peak))
    return norm


def _scale(a) -> float:
    """``1 + ||a||_F``, which every absolute threshold is relative to: the
    cluster band, the zero band and the residual limit.  ``ValueError`` when
    ``||a||_F`` exceeds the largest float, so the scale is always finite;
    Jordan chains are not scale-free yet, so a defective eigenvalue is still
    refused at large scale (their vectors, and from about 1e154 the powers
    of ``a - lambda I``, grow with ``||a||``)."""
    scale = 1.0 + _frobenius(a)
    if scale == math.inf:
        raise ValueError("matrix Frobenius norm overflows the largest float")
    return scale


def _tolerance(value, name="tol"):
    """``value`` when it is a number that is finite and at least 0, else
    ``ValueError``: the one rule for every tolerance argument."""
    try:
        valid = 0.0 <= value and math.isfinite(value)
    except (TypeError, OverflowError):  # None, text, complex; an int beyond float range
        valid = False
    if not valid:
        raise ValueError(f"{name} must be finite and nonnegative")
    return value


def default_dominance_tol(a) -> float:
    """Scale-aware slack for dominance comparisons: 1e-12 * (1 + max |a_ij|)."""
    a = _square(a)
    return 1e-12 * (1.0 + float(np.abs(a).max()))


def _off_diagonal_sums(a: np.ndarray, axis: Axis):
    """``(|diag(a)|, off-diagonal sums of |a| along axis)`` from one ``|a|``."""
    off = np.abs(a)
    diag = off.diagonal().copy()
    np.fill_diagonal(off, 0.0)
    return diag, off.sum(axis=1 if axis is Axis.ROW else 0)


@dataclass(frozen=True)
class GershgorinDisc:
    """One disc: centred at a diagonal entry, radius the off-diagonal abs sum."""

    center: float
    radius: float
    index: int
    axis: Axis

    def contains_origin(self) -> bool:
        return abs(self.center) <= self.radius


@dataclass(frozen=True)
class DominanceReport:
    """Per-index dominance margins plus the strict / non-strict verdicts.

    ``margins[i] = |a_ii| - sum_{j != i} |a_ij|`` (row axis; column sums for
    the column axis).  ``strict`` holds when every margin exceeds ``tol``,
    ``non_strict`` when every margin is at least ``-tol``.
    """

    axis: Axis
    margins: np.ndarray
    tol: float
    requested_strict: bool
    strict: bool
    non_strict: bool

    @property
    def satisfied(self) -> bool:
        """The verdict matching the strictness that was asked for."""
        return self.strict if self.requested_strict else self.non_strict


def is_diag_dominant(a, axis: Axis = Axis.ROW, strict: bool = False,
                     tol: float | None = None) -> DominanceReport:
    """Check diagonal dominance of ``a`` along ``axis``, an :class:`Axis` or its value.

    Total function: always returns a report, never raises on content.
    Complex entries are compared by magnitude.
    """
    a, axis = _square(a), Axis(axis)
    tol = default_dominance_tol(a) if tol is None else _tolerance(tol)
    return _dominance(a, axis, strict, tol)


def _dominance(a, axis, strict, tol) -> DominanceReport:
    """:func:`is_diag_dominant` of an ``a`` the program built itself, with a
    ``tol`` already validated."""
    margins = np.subtract(*_off_diagonal_sums(a, axis))
    return DominanceReport(
        axis=axis,
        margins=margins,
        tol=tol,
        requested_strict=strict,
        strict=bool((margins > tol).all()),
        non_strict=bool((margins >= -tol).all()),
    )


def comparison_matrix(a) -> np.ndarray:
    """Absolute values on the diagonal, negated absolute values elsewhere."""
    return _comparison(as_matrix(a))


def _comparison(a) -> np.ndarray:
    """:func:`comparison_matrix` of an ``a`` already validated."""
    m = -np.abs(a)
    np.fill_diagonal(m, np.abs(np.diag(a)))
    return m


def gershgorin_discs(a, axis: Axis = Axis.ROW) -> list[GershgorinDisc]:
    """All discs of ``a`` along ``axis``, an :class:`Axis` or its value; their
    union contains the spectrum."""
    a, axis = as_matrix(a), Axis(axis)
    _, radii = _off_diagonal_sums(a, axis)
    diag = np.diag(a)
    return [
        GershgorinDisc(center=float(diag[i]), radius=float(radii[i]), index=i, axis=axis)
        for i in range(a.shape[0])
    ]


def _singular_ratio(m) -> str | None:
    """``"sv ratio lo / hi"`` when ``m`` is numerically singular, else None:
    its smallest singular value is below ``SINGULAR_SV_RTOL`` times the
    largest, the largest is 0, or either is not a number (an overflowed
    ``m`` gives NaN singular values)."""
    sv = np.linalg.svd(m, compute_uv=False)
    if not (sv[0] > 0.0 and sv[-1] >= SINGULAR_SV_RTOL * sv[0]):
        return f"sv ratio {sv[-1]:.3e} / {sv[0]:.3e}"
    return None


def _diag_similarity(a, d) -> np.ndarray:
    """Exact diagonal similarity ``diag(d) @ a @ diag(d)^{-1}``: each
    off-diagonal entry scaled by ``d_i / d_j``, the diagonal copied."""
    out = a * (d[:, None] / d[None, :])
    np.fill_diagonal(out, np.diag(a))
    return out


def similarity_residual(a, p, b) -> float:
    """Relative failure of ``b = p a p^{-1}``: ||pa - bp||_F / (1 + ||a||_F).

    Raises :class:`SingularTransform` when the smallest singular value of
    ``p`` falls below ``SINGULAR_SV_RTOL`` times the largest.
    """
    a, p, b = _square(a), _square(p), _square(b)
    if not (a.shape == p.shape == b.shape):
        raise ValueError("a, p, b must share one square shape")
    return _residual(a, p, b, _scale(a))


def _residual(a, p, b, scale) -> float:
    """:func:`similarity_residual` of matrices already validated or built by
    the program, where ``scale`` is ``_scale(a)``."""
    ratio = _singular_ratio(p)
    if ratio:
        raise SingularTransform(f"transform is numerically singular ({ratio})")
    return _frobenius(p @ a - b @ p) / scale
