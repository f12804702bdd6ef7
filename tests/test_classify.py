import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import spectrum_matrix, well_conditioned
from ddsim import (TwoByTwoParams, Verdict, classify, classify_2x2, is_borderline,
                   params_feasible, params_to_matrix)
from ddsim.errors import DimensionMismatch


def test_classify_all_real_nonzero():
    assert classify([[-2.0, 1.0], [0.0, -3.0]]).verdict == Verdict.STRICT_ACHIEVABLE


def test_classify_subdominant_pair_impossible():
    res = classify([[-1.0, 2.0], [-2.0, -1.0]])
    assert res.verdict == Verdict.IMPOSSIBLE
    assert any(f.case == "pair-subdominant" for f in res.evidence)


def test_classify_boundary_pair_non_strict_only():
    res = classify([[-1.0, 1.0], [-1.0, -1.0]])
    assert res.verdict == Verdict.NON_STRICT_ONLY
    assert res.borderline_pairs
    alpha, beta = res.borderline_pairs[0]
    np.testing.assert_allclose([alpha, beta], [-1.0, 1.0], atol=1e-9)


def test_classify_defective_boundary_chain_impossible():
    a = np.array([[-1.0, 1.0, 1.0, 0.0],
                  [-1.0, -1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 1.0],
                  [0.0, 0.0, -1.0, -1.0]])
    res = classify(a)
    assert res.verdict == Verdict.IMPOSSIBLE
    assert any(f.case == "pair-borderline-defective" for f in res.evidence)


def test_classify_singular_out_of_scope():
    assert classify(np.diag([0.0, -1.0])).verdict == Verdict.OUT_OF_SCOPE_SINGULAR


def test_classify_evidence_covers_every_cluster():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = spectrum_matrix(rng, 6, dominant_pairs_only=False)
        res = classify(a)
        total = sum(f.alg_mult * (2 if f.kind == "pair" else 1)
                    for f in res.evidence)
        assert total == 6


def test_classify_2x2_dominant_pair():
    assert classify_2x2([[-2.0, 1.0], [-1.0, -2.0]]).verdict == Verdict.STRICT_ACHIEVABLE


def test_classify_2x2_rotation_impossible():
    assert classify_2x2([[0.0, 1.0], [-1.0, 0.0]]).verdict == Verdict.IMPOSSIBLE


def test_classify_2x2_diagonal():
    assert classify_2x2([[-3.0, 0.0], [0.0, -1.0]]).verdict == Verdict.STRICT_ACHIEVABLE


def test_classify_2x2_rejects_other_sizes():
    with pytest.raises(DimensionMismatch):
        classify_2x2(np.eye(3))


def test_classify_2x2_singular():
    assert classify_2x2([[1.0, 1.0], [1.0, 1.0]]).verdict == Verdict.OUT_OF_SCOPE_SINGULAR


def test_classify_agrees_with_2x2_specialisation():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = rng.standard_normal((2, 2))
        assert classify(a).verdict == classify_2x2(a).verdict


def test_classify_transpose_invariant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = spectrum_matrix(rng, n, dominant_pairs_only=False)
        assert classify(a).verdict == classify(a.T).verdict


def test_classify_similarity_invariant():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = spectrum_matrix(rng, n, dominant_pairs_only=False)
        p = well_conditioned(rng, n, cond_limit=50.0)
        b = p @ a @ np.linalg.inv(p)
        assert classify(b).verdict == classify(a).verdict


def test_params_to_matrix_boundary_cell():
    k = params_to_matrix(TwoByTwoParams(alpha=-1.0, beta=1.0, x=0.0, y=1.0))
    np.testing.assert_array_equal(k, [[-1.0, 1.0], [-1.0, -1.0]])


def test_params_to_matrix_hand_values():
    k = params_to_matrix(TwoByTwoParams(alpha=0.0, beta=1.0, x=0.0, y=2.0))
    np.testing.assert_allclose(k, [[0.0, 0.5], [-2.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(np.trace(k), 0.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.det(k), 1.0, atol=1e-15)

    k2 = params_to_matrix(TwoByTwoParams(alpha=-2.0, beta=1.0, x=1.0, y=1.0))
    r = math.sqrt(2.0)
    np.testing.assert_allclose(k2, [[-3.0, r], [-r, -1.0]], atol=1e-15)
    np.testing.assert_allclose(np.linalg.det(k2), 5.0, atol=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        TwoByTwoParams(alpha=0.0, beta=0.0, x=0.0, y=1.0)
    with pytest.raises(ValueError):
        TwoByTwoParams(alpha=0.0, beta=1.0, x=0.0, y=0.0)
    for field in ("alpha", "beta", "x", "y"):
        for bad in (math.nan, math.inf, -math.inf):
            args = {"alpha": -2.0, "beta": 1.0, "x": 0.0, "y": 1.0, field: bad}
            with pytest.raises(ValueError, match="^alpha, beta, x and y must be finite$"):
                TwoByTwoParams(**args)


@pytest.mark.parametrize("alpha, beta", [
    (math.inf, 1.0), (math.nan, 1.0), (1.0, -math.inf), (1.0, math.nan),
])
def test_is_borderline_rejects_non_finite_arguments(alpha, beta):
    with pytest.raises(ValueError, match="^alpha and beta must be finite$"):
        is_borderline(alpha, beta)


@pytest.mark.parametrize("alpha, beta, x, y, expected", [
    (-2.0, 1.0, 0.0, 1.0, True),
    (-1.0, 1.0, 0.0, 1.0, True),   # equality case, non-strict
    (0.0, 1.0, 0.5, 2.0, False),
    (0.0, 1.0, -3.0, 0.7, False),
])
def test_params_feasible(alpha, beta, x, y, expected):
    assert params_feasible(alpha, beta, x, y) is expected


@pytest.mark.parametrize("beta, y, message", [
    (0.0, 1.0, "beta must be nonzero"),
    (1.0, 0.0, "y must be nonzero"),
])
def test_params_feasible_rejects_degenerate_parameters(beta, y, message):
    with pytest.raises(ValueError, match=message):
        params_feasible(-1.0, beta, 0.0, y)


def test_params_feasible_strict_at_boundary():
    assert params_feasible(-1.0, 1.0, 0.0, 1.0, strict=False)
    assert not params_feasible(-1.0, 1.0, 0.0, 1.0, strict=True)


@pytest.mark.parametrize("bad", [
    {"alpha": math.inf}, {"alpha": math.nan}, {"beta": -math.inf},
    {"beta": math.nan}, {"x": math.inf}, {"x": math.nan}, {"y": -math.inf},
    {"y": math.nan},
])
def test_params_feasible_rejects_non_finite_arguments(bad):
    args = {"alpha": -2.0, "beta": 1.0, "x": 0.0, "y": 1.0, **bad}
    with pytest.raises(ValueError, match="finite"):
        params_feasible(**args)


@settings(max_examples=200, deadline=None)
@given(st.floats(-5, 5), st.floats(0.1, 5), st.floats(-20, 20),
       st.floats(0.05, 20), st.booleans())
def test_subdominant_pair_never_feasible(alpha_scale, beta, x, y_mag, y_neg):
    # |alpha| < |beta| rules out dominance for every (x, y)
    alpha = alpha_scale * beta / 10.0  # keeps |alpha| <= |beta| / 2
    y = -y_mag if y_neg else y_mag
    assert not params_feasible(alpha, beta, x, y)


@settings(max_examples=200, deadline=None)
@given(st.floats(-5, 5), st.floats(0.05, 5), st.floats(-10, 10),
       st.floats(0.05, 10))
def test_params_matrix_trace_det(alpha, beta, x, y):
    k = params_to_matrix(TwoByTwoParams(alpha=alpha, beta=beta, x=x, y=y))
    np.testing.assert_allclose(np.trace(k), 2 * alpha,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(k), alpha ** 2 + beta ** 2,
                               rtol=1e-12, atol=1e-12)
