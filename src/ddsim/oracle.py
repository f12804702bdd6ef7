"""Brute-force cross-validation of the 2x2 trichotomy and randomized
falsification of impossibility verdicts.

The 2x2 similarity class of a rotation-like cell is exactly two-dimensional
in the parameters (x, y), so a grid scan over them is exhaustive up to
resolution.  The grid always contains the symmetry anchors x = 0 and
|y| = 1 (when the ranges cover them): those are the only points where the
boundary equality ``|alpha| = |beta|`` can be met, so including them makes
the scan decisive on the boundary as well.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .classify import TwoByTwoParams
from .core import SINGULAR_SV_RTOL, Axis, as_matrix, is_diag_dominant

#: Transforms with 2-norm condition number above this (exactly 1e12) are rejected.
COND_LIMIT = 1 / SINGULAR_SV_RTOL
_BATCH = 4096


@dataclass(frozen=True)
class GridSearchResult:
    found: bool
    witness: TwoByTwoParams | None
    best_margin: float
    samples: int


@dataclass(frozen=True)
class RandomSearchResult:
    found: bool
    witness: np.ndarray | None
    best_margin: float
    samples: int


def _with_anchor(vals, lo, hi, anchor):
    if lo < anchor < hi and anchor not in vals:
        vals = np.sort(np.append(vals, anchor))
    return vals


@functools.lru_cache(maxsize=8)
def _axes(endpoints: bytes, steps: int):
    """The grid's x values, its |y| magnitudes and ``ext``, the magnitudes
    between a 0 and a padding of infs to ``2**k + 1`` entries, read-only.

    ``endpoints`` is ``x_lo, x_hi, y_lo, y_hi`` packed as four doubles, so
    the key is their bits: -0.0 and 0.0 start different grids.
    """
    x_lo, x_hi, y_lo, y_hi = struct.unpack("4d", endpoints)
    with np.errstate(all="ignore"):
        xs = _with_anchor(np.linspace(x_lo, x_hi, steps), x_lo, x_hi, 0.0)
        mags = _with_anchor(np.logspace(np.log10(y_lo), np.log10(y_hi), steps // 2),
                            y_lo, y_hi, 1.0)
    n = len(mags)
    ext = np.concatenate(([0.0], mags, np.full((1 << n.bit_length()) - n, np.inf)))
    xs.flags.writeable = ext.flags.writeable = False
    return xs, ext[1:n + 1], ext


def _cuts(r, d1, d2, mags, ext):
    """Per x row, the number of magnitudes at which m1 < m2.

    Along a row, m1 = d1 - r / |y| never falls and m2 = d2 - r * |y| never
    rises as |y| grows (rounded arithmetic is monotone), so m1 < m2 holds on
    a prefix of ``ext``, of length cut + 1; the row's best min(m1, m2) is
    max(m1 at ext[cut], m2 at ext[cut + 1]).  In exact arithmetic m1 < m2
    when |y| - 1 / |y| < c = (d2 - d1) / r, that is below the positive root
    of t^2 - c t - 1, which proposes each row's cut.  The rounded predicate
    confirms it, true at the cut and false at the cut + 1, and only the rows
    it refutes are bisected, so every cut is the rounded predicate's own.
    ``ext``'s 0, where m1 is -inf, and infs, where m2 is -inf and m1 >= m2,
    mean that no index needs a bounds test.
    """
    c = (d2 - d1) / r
    # the root for |c|, whose reciprocal is the root for -|c|: neither form
    # cancels, and an overflow only proposes a cut that the check refutes
    root = 0.5 * (np.abs(c) + np.hypot(c, 2.0))
    cut = np.searchsorted(mags, np.where(c < 0.0, 1.0 / root, root))
    lo, hi = ext[cut], ext[cut + 1]
    miss = np.flatnonzero(~(d1 - r / lo < d2 - r * lo) | (d1 - r / hi < d2 - r * hi))
    if miss.size:
        r, d1, d2 = r[miss], d1[miss], d2[miss]
        bisected = np.zeros(miss.size, dtype=np.intp)
        for b in reversed(range(len(mags).bit_length())):
            m = ext[bisected + (1 << b)]
            bisected += (d1 - r / m < d2 - r * m) << b
        cut[miss] = bisected
    return cut


def _check_count(name, value, least):
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}")


def grid_search_2x2(alpha: float, beta: float,
                    x_range: tuple[float, float] = (-10.0, 10.0),
                    y_abs_range: tuple[float, float] = (0.01, 10.0),
                    steps: int = 400, strict: bool = False) -> GridSearchResult:
    """Scan (x, y) for a dominance witness of the pair ``(alpha, beta)``.

    ``x`` takes ``steps`` linearly spaced values over ``x_range``, an
    ordered pair ``(x_lo, x_hi)`` with ``x_lo <= x_hi``, plus the anchor 0
    when the range covers it.  ``y_abs_range`` is the magnitude
    interval |y| in (0, inf): ``steps // 2`` log-spaced magnitudes, plus the
    anchor 1 when the range covers it, each scanned with both signs, so ``y``
    takes ``2 * (steps // 2)`` values, or 2 more with the anchor.
    ``samples`` is ``len(xs) * len(ys)``.  The witness is the first feasible
    point in scan order (x outer, y inner, negative y before positive);
    ``best_margin`` is the largest min-row margin seen over the whole grid
    (negative when every point violates dominance).

    The results are those of evaluating every grid point, at a cost of
    O(steps) margins and one binary search over |y| per x row, and
    O(steps) memory: each row's best margin lies at the cut where m1 < m2
    stops holding, which a closed form proposes and the rounded margins
    confirm (``_cuts``); a row whose proposal they refute is bisected, in
    O(log steps) margins.  Only the first row that holds a feasible point
    is evaluated in full.  The axes are built once per grid and cached,
    keyed on ``steps`` and the bits of the four endpoints: the cache keeps
    the last 8 grids, each at most 16 * (steps + 2) bytes (about 3.2 MB
    at ``steps = 200_000``).  Raises ``ValueError``
    when the grid overflows, that is when an ``x``, ``hypot(beta, x)`` or
    ``|alpha -+ x|`` is not finite (for instance a range so wide that its
    step overflows).
    """
    if not np.isfinite([alpha, beta, *x_range, *y_abs_range]).all():
        raise ValueError("alpha, beta and the range endpoints must be finite")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    _check_count("steps", steps, 2)
    x_lo, x_hi = map(float, x_range)
    y_lo, y_hi = map(float, y_abs_range)
    if x_lo > x_hi:
        raise ValueError("x range must be ordered (x_lo <= x_hi)")
    if not 0.0 < y_lo <= y_hi:
        raise ValueError("y magnitude range must be positive")

    xs, mags, ext = _axes(struct.pack("4d", x_lo, x_hi, y_lo, y_hi), steps)
    # An overflowing x, r or |alpha -+ x| is an error, checked below; an
    # overflowing r / |y| or r * |y| is a margin of -inf.
    with np.errstate(all="ignore"):
        r = np.hypot(beta, xs)
        d1 = np.abs(alpha - xs)
        d2 = np.abs(alpha + xs)
        if not all(np.isfinite(v).all() for v in (r, d1, d2)):
            raise ValueError("the grid overflows: x, hypot(beta, x) and "
                             "|alpha -+ x| must be finite")
        samples = len(xs) * 2 * len(mags)
        # each margin is the full scan's expression, so it equals that
        # scan's bit for bit
        cut = _cuts(r, d1, d2, mags, ext)
        row_best = np.maximum(d1 - r / ext[cut], d2 - r * ext[cut + 1])
        best = float(row_best.max())
        rows = np.flatnonzero(row_best > 0.0 if strict else row_best >= 0.0)
        if not rows.size:
            return GridSearchResult(found=False, witness=None,
                                    best_margin=best, samples=samples)
        i = rows[0]
        margins = np.minimum(d1[i] - r[i] / mags, d2[i] - r[i] * mags)
    feasible = margins > 0.0 if strict else margins >= 0.0
    # The margins depend on |y| only, so each magnitude stands for both
    # y = -|y| and y = +|y|.  The negative half comes first in scan order,
    # so the first feasible point has y = -mags[j].
    j = int(np.argmax(feasible))
    witness = TwoByTwoParams(alpha=float(alpha), beta=float(beta),
                             x=float(xs[i]), y=float(-mags[j]))
    return GridSearchResult(found=True, witness=witness,
                            best_margin=best, samples=samples)


def _fold(ufunc, parts):
    """``ufunc`` applied across ``parts[0], parts[1], ...`` in index order."""
    acc = parts[0].copy()
    for part in parts[1:]:
        ufunc(acc, part, out=acc)
    return acc


def _batch_margins(b_stack):
    """Worst row / column margin per matrix in a stack, and the per-matrix
    score max(worst_row, worst_col).  ``b_stack`` is overwritten with its
    absolute values.

    Each sum and minimum runs across the whole stack, one index of the short
    axes at a time, instead of one numpy reduction per matrix row.  The sums
    add in index order, as ``sum`` does over a column and over a row shorter
    than 8, so every margin is the reduction's bit for bit; from 8 entries
    ``sum`` adds a row pairwise, so longer rows keep it.
    """
    mag = np.abs(b_stack, out=b_stack)
    n = mag.shape[1]
    # (n, stack) views: diag[i], and by_row[i][j] = mag[:, i, j]
    diag = mag.diagonal(axis1=1, axis2=2).T
    by_row = mag.transpose(1, 2, 0)
    rows = _fold(np.add, by_row.transpose(1, 0, 2)) if n < 8 else mag.sum(axis=2).T
    cols = _fold(np.add, by_row)
    return np.maximum(_fold(np.minimum, diag - (rows - diag)),
                      _fold(np.minimum, diag - (cols - diag)))


def _inverses(batch):
    """The inverse of each matrix in a stack.

    A 2x2 inverse is its adjugate over its determinant ``a d - b c``, taken
    across the whole stack: one LAPACK call per matrix costs more than that
    arithmetic.  The adjugate is exact and the determinant's relative error
    is at most about ``u * cond_F(P)``, with ``cond_F(P) = ||P||_F^2 / |det P|``
    the screen's Frobenius bound, so each entry is within about
    ``(cond_F + 2) u`` of the exact one.  An exactly singular 2x2 gets
    non-finite entries, not an error.  Larger matrices have no
    forward-stable closed form and go to ``np.linalg.inv``, which raises
    ``LinAlgError`` on an exactly singular one.
    """
    if batch.shape[1] != 2:
        return np.linalg.inv(batch)
    a, b, c, d = (batch[:, i, j] for i in (0, 1) for j in (0, 1))
    inverse = np.empty_like(batch)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = a * d - b * c
        np.divide(d, det, out=inverse[:, 0, 0])
        np.divide(-b, det, out=inverse[:, 0, 1])
        np.divide(-c, det, out=inverse[:, 1, 0])
        np.divide(a, det, out=inverse[:, 1, 1])
    return inverse


def _screened(batch):
    """The candidates of ``batch`` with condition number at most ``COND_LIMIT``,
    and their inverses.

    One batched inverse (``_inverses``) serves both the screen and the
    search: ``||P||_F * ||P^{-1}||_F`` is never below ``cond_2(P)``, so a
    candidate whose bound is at most half the limit passes without an SVD.
    Only the rest, and a bound that is not finite (an exactly singular 2x2),
    get ``np.linalg.cond``.  The factor 2 exceeds the rounding error of the
    bound and of the SVD's condition number (about ``cond * eps`` relative),
    so the kept set is the one ``np.linalg.cond`` alone would keep.
    """
    try:
        inverse = _inverses(batch)
    except np.linalg.LinAlgError:
        # an exactly singular n >= 3 candidate: screen every one by its SVD first
        conds = np.linalg.cond(batch)
        batch = batch[np.isfinite(conds) & (conds <= COND_LIMIT)]
        return batch, np.linalg.inv(batch)
    bound = np.sqrt(np.einsum("bij,bij->b", batch, batch)
                    * np.einsum("bij,bij->b", inverse, inverse))
    doubtful = np.flatnonzero(~(bound <= 0.5 * COND_LIMIT))
    if not doubtful.size:
        return batch, inverse
    conds = np.linalg.cond(batch[doubtful])
    keep = np.ones(len(batch), dtype=bool)
    keep[doubtful] = np.isfinite(conds) & (conds <= COND_LIMIT)
    return batch[keep], inverse[keep]


def random_similarity_search(a, trials: int = 1000, seed: int = 0,
                             strict: bool = False) -> RandomSearchResult:
    """Try ``trials`` random well-conditioned transforms on ``a``.

    The identity is always the first candidate; the rest have standard
    normal entries, rejected (not counted) when the condition number
    exceeds ``COND_LIMIT``.  Each drawn candidate is inverted once, in its
    batch: a 2x2 as its adjugate over its determinant, a larger one by
    LAPACK.  The Frobenius bound ``||P||_F * ||P^{-1}||_F >= cond_2(P)``
    screens it; only a candidate whose bound exceeds ``COND_LIMIT / 2`` or
    is not finite (an exactly singular 2x2) pays for an exact condition
    number (one SVD).  A candidate qualifies when
    ``P A P^{-1}`` is diagonally dominant on either axis.

    ``seed`` must be an integer >= 0 (numpy integers included); the
    candidate stream, and so the result, is a function of ``a``,
    ``trials``, ``seed`` and ``strict`` alone.  Failure to find a witness
    is evidence, not proof.
    """
    a = as_matrix(a)
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    n = a.shape[0]
    rng = np.random.default_rng(seed)

    examined = 0
    best = -np.inf
    batch = inverse = np.eye(n)[None, :, :]
    while True:
        # P A as one (stack * n) x n product, the stacked product's bits
        transformed = (batch.reshape(-1, n) @ a).reshape(batch.shape) @ inverse
        scores = _batch_margins(transformed)
        qualifying = np.flatnonzero(scores > 0.0 if strict else scores >= 0.0)
        for idx in qualifying:
            p = batch[idx]
            b = p @ a @ inverse[idx]
            reports = [is_diag_dominant(b, axis, tol=0.0) for axis in Axis]
            if any(r.strict if strict else r.non_strict for r in reports):
                best = max(best, float(scores[: idx + 1].max()))
                return RandomSearchResult(found=True, witness=p.copy(),
                                          best_margin=best,
                                          samples=examined + int(idx) + 1)
        best = max(best, float(scores.max())) if scores.size else best
        examined += batch.shape[0]
        if examined == trials:
            return RandomSearchResult(found=False, witness=None,
                                      best_margin=float(best), samples=examined)
        # Draw no more candidates than the trials left: a smaller draw is a
        # prefix of the larger one, so the candidate stream is the same
        # whatever the batch size.
        batch, inverse = _screened(
            rng.standard_normal((min(_BATCH, trials - examined), n, n)))
