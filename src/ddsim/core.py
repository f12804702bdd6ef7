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
#: A condition bound up to which the singular-value ratio test passes with
#: 1000x to spare, so it is not taken (:func:`_singular_ratio`).
_PROVEN_COND = 1e-3 / SINGULAR_SV_RTOL


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


def _norm(x) -> float:
    """``np.linalg.norm(x)`` of an inexact array, by numpy's own formula."""
    v = x.ravel(order="K")
    if v.dtype.kind == "c":
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


@np.errstate(over="ignore")
def _frobenius(x) -> float:
    """``np.linalg.norm(x)`` of an inexact ``x``; only when it overflows on
    finite entries is it recomputed as ``peak * ||x / peak||_F`` with ``peak
    = max |x_ij|``."""
    x = np.asarray(x)
    norm = _norm(x)
    if norm == math.inf and np.logical_and.reduce(np.isfinite(x), axis=None):
        peak = float(np.maximum.reduce(np.abs(x), axis=None))
        norm = peak * _norm(x / peak)
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
    """``value`` when it is a number, not a Python or numpy bool, that is
    finite and at least 0, else ``ValueError``: the one rule for every
    tolerance argument.  A zero comes back as ``+0.0``, so ``-0.0`` decides
    and prints as ``0.0``."""
    try:
        if not isinstance(value, (bool, np.bool_)) and 0.0 <= value and math.isfinite(value):
            return value + 0.0
    except (TypeError, OverflowError):  # None, text, complex; an int beyond float range
        pass
    raise ValueError(f"{name} must be finite and nonnegative")


def default_dominance_tol(a) -> float:
    """Scale-aware slack for dominance comparisons: 1e-12 * (1 + max |a_ij|)."""
    a = _square(a)
    return 1e-12 * (1.0 + float(np.maximum.reduce(np.abs(a), axis=None)))


@np.errstate(over="ignore")
def _off_diagonal_sums(a: np.ndarray, axis: Axis):
    """``(|diag(a)|, off-diagonal sums of |a| along axis)`` from one ``|a|``;
    a magnitude or sum that overflows is ``inf``, with no warning."""
    off = np.abs(a)
    diag = off.diagonal().copy()
    off.flat[::len(off) + 1] = 0.0
    return diag, np.add.reduce(off, axis=1 if axis is Axis.ROW else 0)


@dataclass(frozen=True)
class GershgorinDisc:
    """One disc: centred at a diagonal entry, radius the off-diagonal abs sum."""

    center: float
    radius: float
    index: int
    axis: Axis


@dataclass(frozen=True)
class DominanceReport:
    """Per-index dominance margins plus both verdicts, read off the same margins.

    ``margins[i] = |a_ii| - sum_{j != i} |a_ij|`` (row axis; column sums for
    the column axis).  ``strict`` holds when every margin exceeds ``tol``,
    ``non_strict`` when every margin is at least ``-tol``.
    """

    axis: Axis
    margins: np.ndarray
    tol: float
    strict: bool
    non_strict: bool


def is_diag_dominant(a, axis: Axis = Axis.ROW, *, tol: float | None = None) -> DominanceReport:
    """Strict and non-strict diagonal dominance of ``a`` along ``axis``, an
    :class:`Axis` or its value, as one report: read ``.strict`` or
    ``.non_strict``.

    Total function: always returns a report, never raises on content.
    Complex entries are compared by magnitude.
    """
    a, axis = _square(a), Axis(axis)
    tol = default_dominance_tol(a) if tol is None else _tolerance(tol)
    return _dominance(a, axis, tol)


@np.errstate(invalid="ignore")
def _dominance(a, axis, tol) -> DominanceReport:
    """:func:`is_diag_dominant` of an ``a`` the program built itself, with a
    ``tol`` already validated.  Both verdicts read the smallest margin, which
    is NaN when any margin is: an entry whose magnitude overflows gives the
    margin ``inf - inf``, which fails both; :func:`_off_diagonal_sums`
    guards the overflow itself."""
    margins = np.subtract(*_off_diagonal_sums(a, axis))
    low = np.minimum.reduce(margins)
    return DominanceReport(
        axis=axis,
        margins=margins,
        tol=tol,
        strict=bool(low > tol),
        non_strict=bool(low >= -tol),
    )


def comparison_matrix(a) -> np.ndarray:
    """Absolute values on the diagonal, negated absolute values elsewhere."""
    return _comparison(as_matrix(a))


def _comparison(a) -> np.ndarray:
    """:func:`comparison_matrix` of an ``a`` already validated."""
    m = -np.abs(a)
    m.flat[::len(m) + 1] = np.abs(a.diagonal())
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


def _singular_ratio(m, cond_bound=math.inf) -> str | None:
    """``"sv ratio lo / hi"`` when ``m`` is numerically singular, else None:
    its smallest singular value is below ``SINGULAR_SV_RTOL`` times the
    largest, the largest is 0, or either is not a number (an overflowed
    ``m`` gives NaN singular values).

    The SVD is taken only when ``cond_bound``, a bound on ``cond_2(m)`` that
    the caller derived from an inverse it computed, such as ``||m||_F
    ||m^{-1}||_F``, is not at most ``_PROVEN_COND = 1e9``; NaN and ``inf``
    take it.  A bound within that limit proves the test passes with 1000x
    to spare (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 14): the rounding of a computed inverse perturbs the condition
    number it gives by about ``n eps kappa`` relative, at most 1e-5 at
    ``kappa <= 1e9`` and ``n <= 12``, and the SVD finds each singular value
    to within ``p(n) eps sigma_max``, so the ratio it would find is at least
    ``1e-9 (1 - 1e-5) - p(n) eps``, far above ``SINGULAR_SV_RTOL``."""
    if cond_bound <= _PROVEN_COND:
        return None
    sv = np.linalg.svd(m, compute_uv=False)
    if not (sv[0] > 0.0 and sv[-1] >= SINGULAR_SV_RTOL * sv[0]):
        return f"sv ratio {sv[-1]:.3e} / {sv[0]:.3e}"
    return None


def _diag_similarity(a, d) -> np.ndarray:
    """Exact diagonal similarity ``diag(d) @ a @ diag(d)^{-1}``: each
    off-diagonal entry scaled by ``d_i / d_j``, the diagonal copied."""
    out = a * (d[:, None] / d[None, :])
    out.flat[::len(out) + 1] = a.diagonal()
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


def _residual(a, p, b, scale, cond_bound=math.inf) -> float:
    """:func:`similarity_residual` of matrices already validated or built by
    the program, where ``scale`` is ``_scale(a)``.  The singularity test of
    ``p`` takes an SVD only when ``cond_bound``, a bound on ``cond_2(p)``
    from the builder of ``p``, cannot prove the test
    (:func:`_singular_ratio`); :func:`similarity_residual`, whose ``p``
    comes from the caller, always takes it."""
    ratio = _singular_ratio(p, cond_bound)
    if ratio:
        raise SingularTransform(f"transform is numerically singular ({ratio})")
    return _frobenius(p @ a - b @ p) / scale
