import hashlib
import struct
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddsim.oracle

from ddsim import (Axis, classify_2x2, grid_search_2x2, is_diag_dominant,
                   params_feasible, random_similarity_search, Verdict)


def test_grid_finds_strict_witness_for_dominant_pair():
    res = grid_search_2x2(-2.0, 1.0, x_range=(-5, 5), y_abs_range=(0.1, 5),
                          steps=100, strict=True)
    assert res.found
    w = res.witness
    assert params_feasible(w.alpha, w.beta, w.x, w.y, strict=True)
    assert res.best_margin > 0


def test_grid_finds_nothing_for_rotation():
    res = grid_search_2x2(0.0, 1.0, x_range=(-10, 10), y_abs_range=(0.01, 10),
                          steps=400, strict=False)
    assert not res.found
    assert res.witness is None
    assert res.best_margin < 0


def test_grid_boundary_equality_witness():
    res = grid_search_2x2(-1.0, 1.0, x_range=(-10, 10), y_abs_range=(0.01, 10),
                          steps=400, strict=False)
    assert res.found
    assert res.witness.x == 0.0 and abs(res.witness.y) == 1.0
    assert res.best_margin == 0.0
    # the same point is not a strict witness
    strict = grid_search_2x2(-1.0, 1.0, x_range=(-10, 10),
                             y_abs_range=(0.01, 10), steps=400, strict=True)
    assert not strict.found


def test_grid_is_deterministic():
    a = grid_search_2x2(-1.5, 1.0, steps=200)
    b = grid_search_2x2(-1.5, 1.0, steps=200)
    assert a == b


def test_grid_validates_arguments():
    with pytest.raises(ValueError):
        grid_search_2x2(1.0, 0.0)
    with pytest.raises(ValueError):
        grid_search_2x2(1.0, 1.0, steps=1)
    with pytest.raises(ValueError):
        grid_search_2x2(1.0, 1.0, y_abs_range=(0.0, 1.0))


def test_grid_rejects_reversed_x_range():
    # reversed, the range would skip the x = 0 anchor, the only boundary witness
    assert grid_search_2x2(-1.0, 1.0, x_range=(-10, 10)).found
    with pytest.raises(ValueError, match="x range"):
        grid_search_2x2(-1.0, 1.0, x_range=(10, -10))


def test_grid_oracle_agrees_with_classifier():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        a = rng.standard_normal((2, 2))
        tr2 = (a[0, 0] + a[1, 1]) / 2.0
        disc = tr2 ** 2 - np.linalg.det(a)
        if disc >= 0:
            continue
        alpha, beta = tr2, np.sqrt(-disc)
        if abs(abs(alpha) - beta) <= 1e-6 * (abs(alpha) + beta):
            continue
        checked += 1
        verdict = classify_2x2(a).verdict
        res = grid_search_2x2(alpha, beta, x_range=(-20, 20),
                              y_abs_range=(0.01, 20), steps=400, strict=False)
        assert res.found == (verdict != Verdict.IMPOSSIBLE)


def test_random_search_identity_first():
    res = random_similarity_search(np.diag([-2.0, -3.0]), trials=1, seed=0)
    assert res.found and res.samples == 1
    np.testing.assert_array_equal(res.witness, np.eye(2))


def test_random_search_witness_verified():
    a = np.array([[-2.0, 1.0], [-1.0, -2.0]])
    res = random_similarity_search(a, trials=50, seed=4, strict=True)
    assert res.found
    p = res.witness
    b = p @ a @ np.linalg.inv(p)
    assert (is_diag_dominant(b, Axis.ROW, tol=0.0).strict
            or is_diag_dominant(b, Axis.COLUMN, tol=0.0).strict)


def test_random_search_finds_nothing_for_rotation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = random_similarity_search(a, trials=5000, seed=1)
    assert not res.found
    assert res.best_margin < 0
    assert res.samples == 5000


def test_random_search_deterministic():
    a = np.array([[0.3, 1.0], [-1.0, 0.3]])
    r1 = random_similarity_search(a, trials=2000, seed=42)
    r2 = random_similarity_search(a, trials=2000, seed=42)
    assert r1.found == r2.found and r1.samples == r2.samples
    assert r1.best_margin == r2.best_margin


# Results recorded from the full-grid scan and the fixed-size search batches
# that preceded the half-grid scan and the trimmed batches; the cases cover
# the boundary witness (negative y), odd and minimal steps, ranges without
# the 0 / 1 anchors, strict and non-strict, and searches that cross a batch.
GRID_GOLDEN = [
    ((-1.0, 1.0), {}, (True, (0.0, -1.0), 0.0, 161202)),
    ((-1.0, 1.0), {"strict": True}, (False, None, 0.0, 161202)),
    ((0.0, 1.0), {}, (False, None, -0.049875621120889946, 161202)),
    ((2.0, 1.0), {}, (True, (-1.177944862155389, -0.4880251583654431), 1.0, 161202)),
    ((-2.0, 1.0), {"x_range": (-5.0, 5.0), "y_abs_range": (0.1, 5.0), "steps": 101,
                   "strict": True},
     (True, (-1.0999999999999996, -1.77101753144965), 1.0, 10302)),
    ((-1.5, 1.0), {"steps": 2}, (True, (0.0, -1.0), 0.5, 12)),
    ((1.3, 0.7), {"x_range": (0.5, 4.0), "y_abs_range": (2.0, 9.0), "steps": 37},
     (True, (0.5, -2.0), 0.07953494659147475, 1332)),
    ((-1.2, -0.9), {"x_range": (-3.0, 3.0), "y_abs_range": (0.05, 0.8), "steps": 51,
                    "strict": True},
     (True, (0.0, -0.8), 0.21483961457951906, 2550)),
    ((0.5, 2.0), {"steps": 3}, (False, None, -0.698039027185569, 12)),
]

_ROT = [[0.0, 1.0], [-1.0, 0.0]]
_AFTER_IDENTITY = [[-3.0, 4.0], [-1.0, -3.0]]
_AFTER_IDENTITY_WITNESS = [[0.7487457707345911, 1.6347830429585775],
                           [0.27276877584472176, -1.2333286640307717]]
SEARCH_GOLDEN = [
    ([[-2.0, 0.0], [0.0, -3.0]], {"trials": 1, "seed": 0},
     (True, [[1.0, 0.0], [0.0, 1.0]], 2.0, 1)),
    (_ROT, {"trials": 2000, "seed": 1}, (False, None, -0.08191752983589495, 2000)),
    (_ROT, {"trials": 5000, "seed": 3}, (False, None, -0.12152511650147346, 5000)),
    ([[0.3, 1.0], [-1.0, 0.3]], {"trials": 9000, "seed": 42},
     (False, None, -0.02831146055162037, 9000)),
    (_AFTER_IDENTITY, {"trials": 2000, "seed": 5},
     (True, _AFTER_IDENTITY_WITNESS, 0.2865502545911012, 4)),
    (_AFTER_IDENTITY, {"trials": 2000, "seed": 5, "strict": True},
     (True, _AFTER_IDENTITY_WITNESS, 0.2865502545911012, 4)),
    ([[0.5, 2.0, 0.0], [-2.0, 0.5, 0.0], [0.0, 0.0, -1.0]], {"trials": 4097, "seed": 7},
     (False, None, -0.8598111100875538, 4097)),
]


def _dense_grid(alpha, beta, x_range=(-10.0, 10.0), y_abs_range=(0.01, 10.0),
                steps=400, strict=False):
    """The full broadcast scan: every (x, |y|) margin of the grid at once."""
    x_lo, x_hi = x_range
    y_lo, y_hi = y_abs_range
    xs = ddsim.oracle._with_anchor(np.linspace(x_lo, x_hi, steps), x_lo, x_hi, 0.0)
    mags = ddsim.oracle._with_anchor(
        np.logspace(np.log10(y_lo), np.log10(y_hi), steps // 2), y_lo, y_hi, 1.0)
    r = np.hypot(beta, xs)[:, None]
    with np.errstate(over="ignore", divide="ignore"):
        m1 = np.abs(alpha - xs)[:, None] - r / mags
        m2 = np.abs(alpha + xs)[:, None] - r * mags
    margins = np.minimum(m1, m2)
    feasible = margins > 0.0 if strict else margins >= 0.0
    witness = None
    if feasible.any():
        i, j = np.unravel_index(int(np.argmax(feasible)), margins.shape)
        witness = (float(xs[i]), float(-mags[j]))
    return (bool(feasible.any()), witness, float(margins.max()),
            len(xs) * 2 * len(mags))


def _bits(found, witness, best_margin, samples):
    """A result with every float as its hex string, so equal means bit-equal."""
    witness = None if witness is None else tuple(v.hex() for v in witness)
    return found, witness, best_margin.hex(), samples


def _grid_bits(alpha, beta, **kwargs):
    res = grid_search_2x2(alpha, beta, **kwargs)
    witness = None if res.witness is None else (res.witness.x, res.witness.y)
    return _bits(res.found, witness, res.best_margin, res.samples)


@st.composite
def _grid_cases(draw):
    beta = 10.0 ** draw(st.floats(-8, 8)) * draw(st.sampled_from([-1.0, 1.0]))
    if draw(st.booleans()):
        # a boundary pair, |alpha| within a few ulps of |beta|
        alpha = abs(beta) * draw(st.sampled_from([-1.0, 1.0]))
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            alpha = float(np.nextafter(alpha, np.inf if ulps > 0 else -np.inf))
    else:
        alpha = 10.0 ** draw(st.floats(-8, 8)) * draw(st.sampled_from([-1.0, 0.0, 1.0]))
    width = 10.0 ** draw(st.floats(-3, 3))
    x_lo, x_hi = sorted(draw(st.lists(st.floats(-width, width), min_size=2,
                                      max_size=2)))
    if draw(st.integers(0, 3)) == 0:
        x_lo = x_hi
    y_lo, y_hi = sorted(10.0 ** np.array(draw(st.lists(st.floats(-4, 4), min_size=2,
                                                       max_size=2))))
    if draw(st.integers(0, 3)) == 0:
        y_hi = y_lo
    return alpha, beta, {"x_range": (x_lo, x_hi), "y_abs_range": (y_lo, y_hi),
                         "steps": draw(st.integers(2, 600)),
                         "strict": draw(st.booleans())}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grid_cases())
def test_grid_equals_the_dense_scan(case):
    alpha, beta, kwargs = case
    assert _grid_bits(alpha, beta, **kwargs) == _bits(*_dense_grid(alpha, beta, **kwargs))


def _bisected_cut(r, d1, d2, mags, ext):
    """The shift-and-add bisection over every x row that preceded the
    closed-form cut, kept as the reference ``_cuts`` must match."""
    cut = np.zeros(len(r), dtype=np.intp)
    for b in reversed(range(len(mags).bit_length())):
        m = ext[cut + (1 << b)]
        cut += (d1 - r / m < d2 - r * m) << b
    return cut


def _proposed_cut(r, d1, d2, mags):
    """The closed form's cut alone, before the rounded margins check it."""
    c = (d2 - d1) / r
    h = np.hypot(c, 2.0)
    return np.searchsorted(mags, np.where(c < 0.0, 2.0 / (h - c), (c + h) / 2.0))


def _grid_rows(alpha, beta, x_range=(-10.0, 10.0), y_abs_range=(0.01, 10.0), steps=400):
    """The cut ``_cuts`` finds in each x row, the reference's, and the
    closed form's proposal; None when the grid overflows."""
    xs, mags, ext = ddsim.oracle._axes(
        struct.pack("4d", *map(float, (*x_range, *y_abs_range))), steps)
    with np.errstate(all="ignore"):
        r = np.hypot(beta, xs)
        d1 = np.abs(alpha - xs)
        d2 = np.abs(alpha + xs)
        if not all(np.isfinite(v).all() for v in (r, d1, d2)):
            return None
        return (ddsim.oracle._cuts(r, d1, d2, mags, ext),
                _bisected_cut(r, d1, d2, mags, ext), _proposed_cut(r, d1, d2, mags))


@st.composite
def _cut_cases(draw):
    sign = st.sampled_from([-1.0, 1.0])
    beta = 10.0 ** draw(st.floats(-300, 300)) * draw(sign)
    if draw(st.booleans()):
        # a boundary pair, |alpha| within 3 ulps of |beta|
        alpha = abs(beta) * draw(sign)
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            alpha = float(np.nextafter(alpha, np.inf if ulps > 0 else -np.inf))
    else:
        alpha = 10.0 ** draw(st.floats(-300, 300)) * draw(sign)
    width = 10.0 ** draw(st.floats(-300, 300))
    x_range = tuple(sorted(draw(st.lists(st.floats(-width, width), min_size=2,
                                         max_size=2))))
    y_abs_range = tuple(sorted(10.0 ** np.array(draw(st.lists(st.floats(-300, 300),
                                                              min_size=2, max_size=2)))))
    return alpha, beta, x_range, y_abs_range, draw(st.integers(2, 600))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cut_cases())
def test_cuts_equal_the_bisection(case):
    rows = _grid_rows(*case)
    if rows is not None:
        cut, reference, _ = rows
        assert cut.tolist() == reference.tolist()


#: Grids on which the closed form misses the rounded cut: alpha at 1e16
#: misses by up to 10 rows, alpha at 1e300 by up to 133, and the last is a
#: random miss.
_MISSED = [
    ((1e16, 1.0), {"x_range": (-1.0, 1.0)}),
    ((1e300, 1e-300), {}),
    ((-35697684.12509518, -1.4671291733153291e-08),
     {"x_range": (-0.050136084252584534, 0.06531797447801764),
      "y_abs_range": (0.004603395196078397, 4741.07529623238), "steps": 172}),
]


@pytest.mark.parametrize("args, kwargs", _MISSED)
def test_rows_the_closed_form_misses_are_bisected(args, kwargs):
    cut, reference, proposed = _grid_rows(*args, **kwargs)
    assert (proposed != reference).any()
    assert cut.tolist() == reference.tolist()
    for strict in (False, True):
        assert (_grid_bits(*args, **kwargs, strict=strict)
                == _bits(*_dense_grid(*args, **kwargs, strict=strict)))


@pytest.mark.parametrize("ranges, witness_x", [
    ([(-0.0, 5.0), (0.0, 5.0)], [0.0, 0.0]),
    ([(0.0, 5.0), (-0.0, 5.0)], [0.0, 0.0]),
    # linspace ends on x_hi, so the boundary witness is x = -0.0 or 0.0
    ([(-5.0, -0.0), (-5.0, 0.0)], [-0.0, 0.0]),
    ([(-5.0, 0.0), (-5.0, -0.0)], [0.0, -0.0]),
])
def test_signed_zero_endpoints_are_distinct_grids(ranges, witness_x):
    ddsim.oracle._axes.cache_clear()
    for x_range, x in zip(ranges, witness_x):
        res = _grid_bits(-1.0, 1.0, x_range=x_range)
        assert res == _bits(*_dense_grid(-1.0, 1.0, x_range=x_range))
        assert res[1] == (x.hex(), (-1.0).hex())


def test_overflowing_grid_raises_on_every_call():
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows") as info:
            grid_search_2x2(1.0, 1.0, x_range=(-1e308, 1e308))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_integer_and_float_endpoints_share_a_grid():
    ddsim.oracle._axes.cache_clear()
    kwargs = {"x_range": (-3, 7), "y_abs_range": (1, 4), "steps": 41}
    as_floats = {"x_range": (-3.0, 7.0), "y_abs_range": (1.0, 4.0), "steps": 41}
    expected = _bits(*_dense_grid(1.5, 1.0, **kwargs))
    assert _grid_bits(1.5, 1.0, **kwargs) == expected
    assert _grid_bits(1.5, 1.0, **as_floats) == expected
    info = ddsim.oracle._axes.cache_info()
    assert (info.hits, info.currsize) == (1, 1)


def test_threads_sharing_cached_grids_get_the_serial_results():
    grids = [((-1.5, 1.0), {"x_range": (-k, k + 1.0), "steps": 50 + 17 * k})
             for k in range(6)]
    expected = [_bits(*_dense_grid(*args, **kwargs)) for args, kwargs in grids]
    ddsim.oracle._axes.cache_clear()
    calls = [i % len(grids) for i in range(240)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda i: _grid_bits(*grids[i][0], **grids[i][1]),
                                    calls, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[i] for i in calls]


def test_cached_axes_reject_writes():
    for array in ddsim.oracle._axes(struct.pack("4d", -1.0, 1.0, 0.5, 2.0), 10):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("args, kwargs, expected", GRID_GOLDEN)
def test_grid_matches_recorded_results(args, kwargs, expected):
    res = grid_search_2x2(*args, **kwargs)
    witness = None if res.witness is None else (res.witness.x, res.witness.y)
    assert (res.found, witness, res.best_margin, res.samples) == expected


@pytest.mark.parametrize("a, kwargs, expected", SEARCH_GOLDEN)
def test_search_matches_recorded_results(a, kwargs, expected):
    res = random_similarity_search(np.array(a), **kwargs)
    witness = None if res.witness is None else res.witness.tolist()
    assert (res.found, witness, res.best_margin, res.samples) == expected


# Results recorded with the SVD screen that preceded the Frobenius-bound
# screen: the criterion 7 chain over three refills, a 6x6 input over one
# full refill and, with ``COND_LIMIT`` lowered, streams in which the exact
# condition check rejects candidates.
_CHAIN = [[-1.0, 1.0, 1.0, 0.0], [-1.0, -1.0, 0.0, 1.0],
          [0.0, 0.0, -1.0, 1.0], [0.0, 0.0, -1.0, -1.0]]
_SIX = [[1.1, 1.8, -2.6, -0.1, 1.0, 1.4], [0.7, 1.5, 0.3, 0.6, 0.2, -1.1],
        [-0.8, 0.4, -0.6, 1.3, 1.3, 1.8], [0.0, 1.4, -0.9, -0.8, 0.1, 0.3],
        [-1.6, -1.7, 0.4, -0.9, 1.2, 0.4], [0.3, 0.2, 0.9, -0.2, 1.1, -0.5]]
_PAIR_3 = [[0.5, 2.0, 0.0], [-2.0, 0.5, 0.0], [0.0, 0.0, -1.0]]
SCALE_GOLDEN = [
    (_CHAIN, {"trials": 9000, "seed": 42}, 1e12, "-0x1.b92aa54276cf8p-1", 9000),
    (_SIX, {"trials": 4097, "seed": 7}, 1e12, "-0x1.143707e6bda8cp+2", 4097),
    (_SIX, {"trials": 4097, "seed": 7, "strict": True}, 1e12,
     "-0x1.143707e6bda8cp+2", 4097),
    (_ROT, {"trials": 2000, "seed": 1}, 5.0, "-0x1.1338474f8f9f0p-2", 2000),
    (_ROT, {"trials": 2000, "seed": 1}, 30.0, "-0x1.4f88c179d4100p-4", 2000),
    (_PAIR_3, {"trials": 4097, "seed": 3}, 5.0, "-0x1.037a5ab5eff08p+0", 4097),
    (_PAIR_3, {"trials": 4097, "seed": 3}, 30.0, "-0x1.fd7437119d806p-1", 4097),
]


@pytest.mark.parametrize("a, kwargs, limit, margin_hex, samples", SCALE_GOLDEN)
def test_search_matches_recorded_results_at_scale(monkeypatch, a, kwargs, limit,
                                                  margin_hex, samples):
    monkeypatch.setattr(ddsim.oracle, "COND_LIMIT", limit)
    res = random_similarity_search(np.array(a), **kwargs)
    assert not res.found and res.witness is None
    assert (res.best_margin.hex(), res.samples) == (margin_hex, samples)


# Recorded before the margins ran across the whole batch: an 8x8 witness
# found after 212 random candidates and a spent 12x12 search over two
# refills.  From 8 entries numpy sums a matrix row pairwise, which the
# 6x6 goldens above cannot see; summed in index order, both best margins
# move.  The witness is recorded as the SHA-256 of its float64 bytes.
_WIDE_WITNESS = "3c0b3e9143ea2b44d57731533cd91ddc62f60836246b3d174d97831a900fecb5"
WIDE_GOLDEN = [
    (8, 4, False, _WIDE_WITNESS, "0x1.5080c124f7188p-3", 213),
    (8, 4, True, _WIDE_WITNESS, "0x1.5080c124f7188p-3", 213),
    (12, 3, False, None, "-0x1.21e39b94e06c0p-6", 4097),
    (12, 3, True, None, "-0x1.21e39b94e06c0p-6", 4097),
]


@pytest.mark.parametrize("n, seed, strict, witness_sha, margin_hex, samples", WIDE_GOLDEN)
def test_search_matches_recorded_results_at_n_8_and_12(n, seed, strict, witness_sha,
                                                       margin_hex, samples):
    # I + 1.1 e_1 e_2^T: the identity misses row dominance by 0.1
    a = np.eye(n)
    a[0, 1] = 1.1
    res = random_similarity_search(a, trials=4097, seed=seed, strict=strict)
    witness = (None if res.witness is None
               else hashlib.sha256(res.witness.tobytes()).hexdigest())
    assert (res.found, witness, res.best_margin.hex(), res.samples) == (
        witness_sha is not None, witness_sha, margin_hex, samples)


def _reference_batch_margins(b_stack):
    """The per-row numpy reductions that ``_batch_margins`` replaced, kept as
    the reference it must match bit for bit."""
    mag = np.abs(b_stack)
    diag = np.diagonal(mag, axis1=1, axis2=2)
    row = (diag - (mag.sum(axis=2) - diag)).min(axis=1)
    col = (diag - (mag.sum(axis=1) - diag)).min(axis=1)
    return np.maximum(row, col)


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 12))
    size = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # small integers times one power of two: every sum is exact, so rows
        # and columns tie, and a diagonal set to its row's off-diagonal sum
        # gives a margin of exactly 0
        stack = rng.integers(-3, 4, (size, n, n)).astype(float)
        off = np.abs(stack).sum(axis=2) - np.abs(np.diagonal(stack, axis1=1, axis2=2))
        tied = rng.random((size, n)) < 0.5
        idx = np.nonzero(tied)
        stack[idx[0], idx[1], idx[1]] = off[tied]
        stack *= 2.0 ** draw(st.integers(-498, 498))
    else:
        lo, hi = sorted(draw(st.lists(st.floats(-150, 150), min_size=2, max_size=2)))
        stack = rng.standard_normal((size, n, n)) * 10.0 ** rng.uniform(lo, hi, (size, n, n))
    stack[rng.random(stack.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    # a random sign on every entry, so zeros are +0.0 and -0.0
    return np.copysign(stack, rng.choice([-1.0, 1.0], stack.shape))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stacks())
def test_batch_margins_match_the_reference_reductions(stack):
    expected = _reference_batch_margins(stack)
    scores = ddsim.oracle._batch_margins(stack)
    assert scores.shape == expected.shape
    # equal bit patterns: equal values with the same sign, zeros included
    assert scores.view(np.int64).tolist() == expected.view(np.int64).tolist()


def _bound(p):
    return np.linalg.norm(p) * np.linalg.norm(np.linalg.inv(p))


def _scaled_column(rng, n, target):
    """Orthogonal n x n matrices with the last column scaled by s, for s a
    few ulps either side of the s at which ``target(p)`` crosses 0."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]

    def at(s):
        p = q.copy()
        p[:, -1] *= s
        return p

    lo, hi = 1e-300, 1.0   # target(at(lo)) > 0 >= target(at(hi))
    while np.nextafter(lo, hi) < hi:
        mid = np.sqrt(lo * hi) if hi / lo > 4.0 else 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if target(at(mid)) > 0 else (lo, mid)
    return [at(hi * (1.0 + k * np.finfo(float).eps)) for k in range(-8, 9)]


@pytest.mark.parametrize("limit, n", [(5.0, 2), (30.0, 2), (30.0, 4), (1e12, 2), (1e12, 4)])
def test_screen_keeps_what_the_condition_number_keeps(monkeypatch, limit, n):
    monkeypatch.setattr(ddsim.oracle, "COND_LIMIT", limit)
    rng = np.random.default_rng(int(limit) + n)
    # bounds within a few ulps of COND_LIMIT / 2, where the screen passes a
    # candidate directly or by its exact condition number, and condition
    # numbers within a few ulps of COND_LIMIT, where only cond decides
    half = _scaled_column(rng, n, lambda p: _bound(p) - 0.5 * limit)
    bounds = [_bound(p) for p in half]
    assert min(bounds) <= 0.5 * limit < max(bounds)
    edge = _scaled_column(rng, n, lambda p: np.linalg.cond(p) - limit)
    assert min(np.linalg.cond(edge)) <= limit < max(np.linalg.cond(edge))
    batch = np.concatenate([rng.standard_normal((300, n, n)), half, edge])
    conds = np.linalg.cond(batch)
    expected = batch[np.isfinite(conds) & (conds <= limit)]
    assert 0 < len(expected) < len(batch)

    kept, inverse = ddsim.oracle._screened(batch)
    assert kept.tobytes() == expected.tobytes()
    if n > 2:
        assert inverse.tobytes() == np.linalg.inv(expected).tobytes()
        return
    # a 2x2 inverse is the adjugate over the determinant: each entry within
    # (cond_F + 2) * 2^-52 of the exact inverse, relative, where
    # cond_F = ||P||_F^2 / |det P| is the screen's bound at n = 2
    for p, p_inv in zip(kept, inverse):
        a, b, c, d = map(Fraction, p.ravel().tolist())
        det = a * d - b * c
        cond_f = (a * a + b * b + c * c + d * d) / abs(det)
        exact = [d / det, -b / det, -c / det, a / det]
        for got, want in zip(map(Fraction, p_inv.ravel().tolist()), exact):
            assert abs(got - want) <= (cond_f + 2) * Fraction(1, 2 ** 52) * abs(want)


def _counting(monkeypatch, name, module=np.linalg):
    rows = []
    wrapped = getattr(module, name)

    def counting(batch, *args, **kwargs):
        rows.append(len(batch) if np.ndim(batch) == 3 else None)
        return wrapped(batch, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return rows


@pytest.mark.parametrize("trials", [2000, 5000])
def test_search_condition_checks_only_examined_candidates(monkeypatch, trials):
    kernel = _counting(monkeypatch, "_inverses", ddsim.oracle)
    inverted = _counting(monkeypatch, "inv")
    conditioned = _counting(monkeypatch, "cond")
    res = random_similarity_search(np.array(_ROT), trials=trials, seed=1)
    assert res.samples == trials
    # every drawn candidate is inverted once, in its batch; the identity is
    # examined without an inverse
    assert None not in kernel
    assert sum(kernel) == trials - 1
    assert max(kernel) <= ddsim.oracle._BATCH
    # a 2x2 batch is inverted in closed form, with no LAPACK call
    assert inverted == []
    # every bound of this stream is within COND_LIMIT / 2: no SVD is paid
    assert conditioned == []
    # from 3x3, each batch is one np.linalg.inv
    kernel.clear()
    res = random_similarity_search(np.array(_PAIR_3), trials=trials, seed=1)
    assert res.samples == trials
    assert sum(kernel) == trials - 1
    assert inverted == kernel


def test_search_screens_by_svd_when_a_batch_will_not_invert(monkeypatch):
    # a 2x2 batch never raises (a singular draw gets a non-finite inverse),
    # so the failing batch is 3x3
    expected = random_similarity_search(np.array(_PAIR_3), trials=5000, seed=1)
    inv = np.linalg.inv
    calls = []

    def singular_once(batch, *args, **kwargs):
        calls.append(len(batch))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(batch, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", singular_once)
    conditioned = _counting(monkeypatch, "cond")
    res = random_similarity_search(np.array(_PAIR_3), trials=5000, seed=1)
    assert (res.found, res.best_margin, res.samples) == (
        expected.found, expected.best_margin, expected.samples)
    # the failed batch is condition-checked, then its kept candidates inverted
    assert conditioned == [ddsim.oracle._BATCH]
    assert calls[:2] == [ddsim.oracle._BATCH, ddsim.oracle._BATCH]


def test_screen_conditions_only_the_singular_2x2_draws(monkeypatch):
    rng = np.random.default_rng(17)
    batch = np.concatenate([rng.standard_normal((200, 2, 2)),
                            [[[1.0, 2.0], [2.0, 4.0]]], np.zeros((1, 2, 2)),
                            rng.standard_normal((200, 2, 2))])
    conds = np.linalg.cond(batch)
    expected = batch[np.isfinite(conds) & (conds <= ddsim.oracle.COND_LIMIT)]
    assert len(expected) == len(batch) - 2
    conditioned = _counting(monkeypatch, "cond")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept, _ = ddsim.oracle._screened(batch)
    assert kept.tobytes() == expected.tobytes()
    # the two singular draws have non-finite bounds and pay one SVD each
    assert conditioned == [2]


def _lapack_screened(batch):
    """``_screened`` with every candidate inverted by ``np.linalg.inv``, as
    before 2x2 batches were inverted in closed form: the reference the
    closed form must match."""
    try:
        inverse = np.linalg.inv(batch)
    except np.linalg.LinAlgError:
        conds = np.linalg.cond(batch)
        batch = batch[np.isfinite(conds) & (conds <= ddsim.oracle.COND_LIMIT)]
        return batch, np.linalg.inv(batch)
    bound = np.sqrt(np.einsum("bij,bij->b", batch, batch)
                    * np.einsum("bij,bij->b", inverse, inverse))
    doubtful = np.flatnonzero(~(bound <= 0.5 * ddsim.oracle.COND_LIMIT))
    if not doubtful.size:
        return batch, inverse
    conds = np.linalg.cond(batch[doubtful])
    keep = np.ones(len(batch), dtype=bool)
    keep[doubtful] = np.isfinite(conds) & (conds <= ddsim.oracle.COND_LIMIT)
    return batch[keep], inverse[keep]


@st.composite
def _rotation_like(draw):
    """``Q [[alpha, beta], [-beta, alpha]] Q^{-1}`` and search arguments."""
    alpha = draw(st.floats(-3.0, 3.0))
    beta = draw(st.floats(0.05, 3.0))
    q = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((2, 2))
    a = q @ np.array([[alpha, beta], [-beta, alpha]]) @ np.linalg.inv(q)
    return a, {"trials": draw(st.integers(1, 5000)), "seed": draw(st.integers(0, 2 ** 16)),
               "strict": draw(st.booleans())}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rotation_like())
def test_closed_form_search_matches_the_lapack_search(case):
    a, kwargs = case
    res = random_similarity_search(a, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ddsim.oracle, "_screened", _lapack_screened)
        ref = random_similarity_search(a, **kwargs)
    assert (res.found, res.samples) == (ref.found, ref.samples)
    assert (None if res.witness is None else res.witness.tobytes()) == (
        None if ref.witness is None else ref.witness.tobytes())
    assert abs(res.best_margin - ref.best_margin) <= 1e-13 * (1.0 + np.linalg.norm(a))


@pytest.mark.parametrize("bad", [
    {"alpha": np.nan}, {"alpha": np.inf}, {"beta": np.nan}, {"beta": -np.inf},
    {"x_range": (-np.inf, 1.0)}, {"x_range": (0.0, np.nan)},
    {"y_abs_range": (0.1, np.inf)}, {"y_abs_range": (np.nan, 1.0)},
])
def test_grid_rejects_non_finite_arguments(bad):
    kwargs = {"alpha": 1.0, "beta": 1.0, **bad}
    with pytest.raises(ValueError, match="finite"):
        grid_search_2x2(**kwargs)


@pytest.mark.parametrize("alpha, beta, x_range", [
    (1.0, 1.0, (-1e308, 1e308)),            # the x step overflows
    (1.0, 1.7e308, (0.0, 1.7e308)),         # hypot(beta, x) overflows
    (1e308, 1.0, (1e308, 1e308)),           # |alpha + x| overflows
])
def test_grid_rejects_an_overflowing_grid(alpha, beta, x_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            grid_search_2x2(alpha, beta, x_range=x_range)


@pytest.mark.parametrize("args, kwargs", [
    ((-2.0, 1.0), {}),
    ((0.0, 1.0), {"strict": True}),
    # r / |y| and r * |y| overflow: those margins are -inf
    ((1e10, 1.0), {"y_abs_range": (1e-308, 1e308), "steps": 50}),
])
def test_grid_emits_no_warning_on_valid_input(args, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _grid_bits(*args, **kwargs)
    assert res == _bits(*_dense_grid(*args, **kwargs))


def test_grid_never_builds_the_grid():
    grid_search_2x2(-2.0, 1.0)
    tracemalloc.start()
    try:
        grid_search_2x2(-2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 401 x 201 float array alone is 645 KB
    assert peak < 128 * 1024
    res = grid_search_2x2(-2.0, 1.0, steps=200_000)
    assert res.found and res.samples == 40_000_200_000


@pytest.mark.parametrize("steps", [400.0, 1e2, "400", None, True])
def test_grid_rejects_non_integer_steps(steps):
    with pytest.raises(ValueError, match="steps"):
        grid_search_2x2(-1.5, 1.0, steps=steps)


@pytest.mark.parametrize("trials", [1e5, 2000.0, "10", None, True, 0])
def test_search_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        random_similarity_search(np.array(_ROT), trials=trials)


@pytest.mark.parametrize("seed", [None, True, 1.5, "3", -1])
def test_search_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        random_similarity_search(np.array(_ROT), trials=3, seed=seed)


def test_counts_accept_numpy_integers():
    assert grid_search_2x2(-1.5, 1.0, steps=np.int64(2)).samples == 12
    assert random_similarity_search(np.array(_ROT), trials=np.int32(3)).samples == 3
    res = random_similarity_search(np.array(_ROT), trials=2000, seed=np.uint8(1))
    assert res == random_similarity_search(np.array(_ROT), trials=2000, seed=1)
