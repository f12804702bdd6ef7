import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ddsim
from ddsim import (Axis, as_matrix, comparison_matrix, default_dominance_tol,
                   gershgorin_discs, is_diag_dominant, similarity_residual)
from ddsim.core import _dominance, _frobenius, _scale, _singular_ratio
from ddsim.errors import SingularTransform

matrices = arrays(np.float64, (3, 3),
                  elements=st.floats(min_value=-100, max_value=100))


def test_dominance_strict_triangular():
    rep = is_diag_dominant([[-2, 1], [0, -3]], Axis.ROW, tol=0.0)
    assert rep.strict and rep.non_strict
    np.testing.assert_array_equal(rep.margins, [1.0, 3.0])


def test_dominance_takes_tol_by_keyword_only():
    # every report holds both verdicts; a positional strictness request
    # must fail instead of being read as a tolerance
    with pytest.raises(TypeError):
        is_diag_dominant([[-2, 1], [0, -3]], Axis.ROW, True)


def test_dominance_boundary_pair():
    rep = is_diag_dominant([[-1, 1], [-1, -1]], Axis.ROW, tol=0.0)
    assert not rep.strict
    assert rep.non_strict
    np.testing.assert_array_equal(rep.margins, [0.0, 0.0])


def test_dominance_default_tol_scales_with_the_largest_entry():
    a = [[2.0, 1.0], [1.0, 2.0]]
    rep = is_diag_dominant(a)
    assert rep.tol == default_dominance_tol(a) == pytest.approx(3e-12, rel=1e-15)
    assert rep.non_strict


def test_dominance_violated():
    rep = is_diag_dominant([[-1, 2], [-2, -1]], Axis.ROW, tol=0.0)
    assert not rep.strict and not rep.non_strict
    np.testing.assert_array_equal(rep.margins, [-1.0, -1.0])


def test_dominance_column_axis():
    # row-dominant but not column-dominant
    a = [[-3, 2.9], [0.1, -1]]
    assert is_diag_dominant(a, Axis.ROW, tol=0.0).strict
    assert not is_diag_dominant(a, Axis.COLUMN, tol=0.0).strict


@pytest.mark.parametrize("a, expected", [
    ([[2, -1], [3, 4]], [[2, -1], [-3, 4]]),
    (np.eye(3), np.eye(3)),
    ([[-5, 0], [0, -5]], [[5, 0], [0, 5]]),
])
def test_comparison_matrix(a, expected):
    np.testing.assert_array_equal(comparison_matrix(a), expected)


def test_gershgorin_discs_row():
    discs = gershgorin_discs([[-2, 1], [0, -3]], Axis.ROW)
    assert [(g.center, g.radius) for g in discs] == [(-2.0, 1.0), (-3.0, 0.0)]


def test_gershgorin_discs_pair_contains_origin():
    discs = gershgorin_discs([[-1, 2], [-2, -1]], Axis.ROW)
    assert [(g.center, g.radius) for g in discs] == [(-1.0, 2.0), (-1.0, 2.0)]
    assert all(abs(g.center) <= g.radius for g in discs)


def test_gershgorin_discs_zero_matrix():
    discs = gershgorin_discs(np.zeros((3, 3)), Axis.COLUMN)
    assert [(g.center, g.radius) for g in discs] == [(0.0, 0.0)] * 3


@pytest.mark.parametrize("axis", list(Axis))
def test_an_axis_value_means_its_member(axis):
    a = [[-3.0, 2.0], [0.0, -1.0]]  # strictly row-dominant, not column-dominant
    by_value = is_diag_dominant(a, axis.value, tol=0.0)
    by_member = is_diag_dominant(a, axis, tol=0.0)
    assert by_value.axis is by_member.axis is axis
    assert by_value.strict is by_member.strict is (axis is Axis.ROW)
    np.testing.assert_array_equal(by_value.margins, by_member.margins)
    assert gershgorin_discs(a, axis.value) == gershgorin_discs(a, axis)


@pytest.mark.parametrize("axis", ["row", True, None])
def test_an_axis_that_is_no_member_nor_its_value_is_rejected(axis):
    with pytest.raises(ValueError, match="is not a valid Axis"):
        is_diag_dominant([[-3.0, 2.0], [0.0, -1.0]], axis)
    with pytest.raises(ValueError, match="is not a valid Axis"):
        gershgorin_discs([[-3.0, 2.0], [0.0, -1.0]], axis)


def test_similarity_residual_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert similarity_residual(a, np.eye(2), a) == 0.0


def test_similarity_residual_diagonal_scaling():
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    p = np.diag([1.0, 10.0])
    b = np.array([[-2.0, 0.1], [0.0, -3.0]])
    assert similarity_residual(a, p, b) <= 1e-15


def test_similarity_residual_positive_for_nonsimilar_placement():
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    b = np.array([[-3.0, 0.0], [0.0, -2.0]])
    assert similarity_residual(a, np.eye(2), b) > 0.1


def test_similarity_residual_rejects_singular_transform():
    a = np.eye(2)
    with pytest.raises(SingularTransform):
        similarity_residual(a, np.array([[1.0, 1.0], [1.0, 1.0]]), a)


@pytest.mark.parametrize("bad", [
    [[1, 2, 3], [4, 5, 6]],            # not square
    [[np.nan, 0], [0, 1]],             # not finite
    [[1 + 1j, 0], [0, 1]],             # complex input
])
def test_as_matrix_rejects(bad):
    with pytest.raises(ValueError):
        as_matrix(bad)


@pytest.mark.parametrize("bad, message", [
    (np.ones((2, 3)), "matrix must be square, got shape (2, 3)"),
    (np.ones(3), "matrix must be square, got shape (3,)"),
    (np.zeros((0, 0)), "matrix must have dimension at least 1"),
    (np.diag([np.inf, 1.0]), "matrix entries must be finite"),
])
@pytest.mark.parametrize("check", [
    as_matrix, is_diag_dominant, lambda m: similarity_residual(m, m, m)])
def test_every_validator_gives_the_same_message(bad, message, check):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(bad)


# each converts under astype(float), or fails to with a TypeError or an
# OverflowError, so without the dtype and object-text tests and the caught
# conversion these read as a matrix or escape untyped
_TEXT = {
    "str": [["1", "0"], ["0", "1"]],
    "bytes": [[b"1", b"0"], [b"0", b"1"]],
    "timedelta": np.array([[1, 0], [0, 2]], dtype="m8[s]"),
    "datetime": np.array([[1, 0], [0, 2]], dtype="M8[s]"),
    "record": np.zeros((2, 2), dtype=[("x", "f8")]),
    "complex-object": np.array([[1j, 0], [0, 1]], dtype=object),
    "huge-int-object": np.array([[10 ** 400, 0], [0, 1]], dtype=object),
    "str-object": np.array([["1", "0"], ["0", "2"]], dtype=object),
    "bytes-object": np.array([[b"1", b"0"], [b"0", b"2"]], dtype=object),
}
_TEXT_CHECKS = {
    "classify": ddsim.classify,
    "classify_2x2": ddsim.classify_2x2,
    "build_real": lambda m: ddsim.build_real_dd_transform(m, ddsim.Target.STRICT),
    "build_complex": ddsim.build_complex_dd_transform,
    **{f.__name__: f for f in (ddsim.is_z_matrix, ddsim.is_metzler, ddsim.is_hurwitz,
                               ddsim.is_m_matrix, ddsim.is_h_matrix,
                               ddsim.metzler_hurwitz_scaling, ddsim.h_matrix_scaling)},
    "is_diag_dominant": is_diag_dominant,
    "residual-a": lambda m: similarity_residual(m, np.eye(2), np.eye(2)),
    "residual-p": lambda m: similarity_residual(np.eye(2), m, np.eye(2)),
    "residual-b": lambda m: similarity_residual(np.eye(2), np.eye(2), m),
    "random_similarity_search": lambda m: ddsim.random_similarity_search(m, trials=1),
}


@pytest.mark.parametrize("text", list(_TEXT))
@pytest.mark.parametrize("check", list(_TEXT_CHECKS))
def test_text_entries_are_not_real_numbers(text, check):
    with pytest.raises(ValueError, match="^matrix entries must be real numbers$"):
        _TEXT_CHECKS[check](_TEXT[text])


@pytest.mark.parametrize("values", [
    np.array([[True, False], [False, True]]),
    np.array([[3, -1], [0, 2]], dtype=np.int8),
    np.array([[3, 2 ** 63], [0, 2]], dtype=np.uint64),
    np.array([[3.5, -1.0], [0.0, 2.0]], dtype=np.float32),
    np.array([[Fraction(1, 3), -1], [0.5, 10 ** 300]], dtype=object),
], ids=["bool", "int8", "uint64", "float32", "object"])
def test_real_number_dtypes_are_accepted(values):
    arr = as_matrix(values)
    assert arr.dtype == np.float64
    np.testing.assert_array_equal(arr, [[float(v) for v in row] for row in values])


_I2 = np.eye(2)
_SHARED_SHAPE = "a, p, b must share one square shape"


# the builders pass their own P and B unvalidated; these public entries are
# where a caller's matrices are checked
@pytest.mark.parametrize("p, b, message", [
    (np.ones((2, 3)), _I2, "matrix must be square, got shape (2, 3)"),
    (_I2, np.ones((2, 3), dtype=complex), "matrix must be square, got shape (2, 3)"),
    (np.diag([np.inf, 1.0]), _I2, "matrix entries must be finite"),
    (_I2, np.diag([complex(1.0, np.nan), 1.0]), "matrix entries must be finite"),
    (np.eye(3), _I2, _SHARED_SHAPE),
    (_I2, np.eye(3, dtype=complex), _SHARED_SHAPE),
], ids=["p-shape", "b-shape", "p-finite", "b-finite", "p-size", "b-size"])
def test_similarity_residual_validates_p_and_b(p, b, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        similarity_residual(_I2, p, b)


@pytest.mark.parametrize("bad, message", [
    (np.ones((2, 3), dtype=complex), "matrix must be square, got shape (2, 3)"),
    (np.diag([complex(np.inf, 1.0), 1.0]), "matrix entries must be finite"),
])
def test_dominance_validates_complex_input(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        is_diag_dominant(bad, tol=0.0)


@pytest.mark.parametrize("m", [
    [[np.inf, 1.0], [0.0, 1.0]],   # LAPACK returns NaN singular values
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 1.0], [1.0, 1.0]],
])
def test_singular_ratio_fails_closed(m):
    assert _singular_ratio(np.array(m)) is not None
    assert _singular_ratio(np.eye(2)) is None


def test_scale_keeps_the_plain_norm_bits_and_survives_overflow():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-100, 150)
        assert _scale(a) == 1.0 + float(np.linalg.norm(a))
    # the plain norm overflows from entries of about 1.3e154
    assert _scale(np.diag([1e300, -2e300])) == pytest.approx(np.sqrt(5.0) * 1e300)
    assert _scale(np.full((2, 2), 1e154)) == pytest.approx(2e154)
    assert _frobenius(np.array([[1e300, np.inf]])) == np.inf


#: An int that compares below infinity but converts to no float.
_BEYOND_FLOAT = pytest.param(10 ** 400, id="int-beyond-float")


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), _BEYOND_FLOAT])
def test_dominance_rejects_negative_or_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        is_diag_dominant([[-3, 1], [1, -3]], Axis.ROW, tol=tol)


_BOUNDARY_PAIR = [[-1.0, 1.0], [-1.0, -1.0]]
_METZLER_HURWITZ = [[-3.0, 1.0], [1.0, -3.0]]
_TOLERANCE_ARGUMENTS = {
    "classify-tol": lambda v: ddsim.classify(_BOUNDARY_PAIR, tol=v),
    "classify-cluster_tol": lambda v: ddsim.classify(_BOUNDARY_PAIR, cluster_tol=v),
    "classify_2x2-tol": lambda v: ddsim.classify_2x2(_BOUNDARY_PAIR, tol=v),
    "eigen_structure-cluster_tol":
        lambda v: ddsim.eigen_structure(_BOUNDARY_PAIR, cluster_tol=v),
    "real_jordan_form-cluster_tol":
        lambda v: ddsim.real_jordan_form(_BOUNDARY_PAIR, cluster_tol=v),
    "build_real-tol": lambda v: ddsim.build_real_dd_transform(
        _BOUNDARY_PAIR, ddsim.Target.NON_STRICT, tol=v),
    "build_real-cluster_tol": lambda v: ddsim.build_real_dd_transform(
        _BOUNDARY_PAIR, ddsim.Target.NON_STRICT, cluster_tol=v),
    "build_complex-tol": lambda v: ddsim.build_complex_dd_transform(_BOUNDARY_PAIR, tol=v),
    "build_complex-cluster_tol":
        lambda v: ddsim.build_complex_dd_transform(_BOUNDARY_PAIR, cluster_tol=v),
    "is_borderline-tol": lambda v: ddsim.is_borderline(1.0, 3.0, tol=v),
    "is_hurwitz-tol": lambda v: ddsim.is_hurwitz(_METZLER_HURWITZ, v),
    "is_m_matrix-tol": lambda v: ddsim.is_m_matrix(comparison_matrix(_METZLER_HURWITZ), v),
    "is_h_matrix-tol": lambda v: ddsim.is_h_matrix(_METZLER_HURWITZ, v),
    "metzler_hurwitz_scaling-tol":
        lambda v: ddsim.metzler_hurwitz_scaling(_METZLER_HURWITZ, v),
    "h_matrix_scaling-tol": lambda v: ddsim.h_matrix_scaling(_METZLER_HURWITZ, v),
}


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), None, "1e-9", 1j,
                                   _BEYOND_FLOAT, True, False, np.True_, np.False_])
@pytest.mark.parametrize("argument", list(_TOLERANCE_ARGUMENTS))
def test_every_tolerance_argument_must_be_finite_and_nonnegative(argument, value):
    name = argument.split("-")[1]
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative$"):
        _TOLERANCE_ARGUMENTS[argument](value)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_transpose_duality(a):
    row = is_diag_dominant(a, Axis.ROW, tol=0.0)
    col = is_diag_dominant(a.T, Axis.COLUMN, tol=0.0)
    np.testing.assert_array_equal(row.margins, col.margins)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_comparison_is_idempotent(a):
    m = comparison_matrix(a)
    np.testing.assert_array_equal(comparison_matrix(m), m)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_strict_implies_non_strict(a):
    rep = is_diag_dominant(a, Axis.ROW, tol=0.0)
    if rep.strict:
        assert rep.non_strict


def _reference_margins(a, axis):
    """``|a_ii|`` minus the off-diagonal sums, in the two passes ``_dominance``
    replaced."""
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    return np.abs(np.diag(a)) - off.sum(axis=1 if axis is Axis.ROW else 0)


@st.composite
def _dominance_cases(draw):
    n = draw(st.integers(1, 5))
    # small integers make exact margins, and so margins exactly at +-tol, common
    entries = st.one_of(st.integers(-4, 4).map(float), st.floats(-100, 100))
    a = draw(arrays(np.float64, (n, n), elements=entries))
    if draw(st.booleans()):
        a = a + 1j * draw(arrays(np.float64, (n, n), elements=entries))
    axis = draw(st.sampled_from(Axis))
    margins = _reference_margins(a, axis)
    tol = draw(st.one_of(st.sampled_from(sorted(np.abs(margins).tolist())),
                         st.just(0.0), st.floats(0.0, 10.0)))
    return a, axis, tol


@settings(max_examples=400, deadline=None)
@given(_dominance_cases())
@example((np.array([[2.0, 1.0], [1.0, 2.0]]), Axis.ROW, 1.0))      # margins = tol
@example((np.array([[1.0, 2.0], [2.0, 1.0]]), Axis.COLUMN, 1.0))   # margins = -tol
@example((np.array([[3j, 1.0], [1.0, -2.0]]), Axis.ROW, 1.0))
def test_dominance_matches_the_two_pass_reference(case):
    a, axis, tol = case
    report = _dominance(a, axis, tol)
    reference = _reference_margins(a, axis)
    assert report.margins.dtype == reference.dtype
    assert report.margins.tobytes() == reference.tobytes()
    assert report.strict == bool(np.all(reference > tol))
    assert report.non_strict == bool(np.all(reference >= -tol))


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_disc_radii_recompute_bit_exact(a):
    for axis in (Axis.ROW, Axis.COLUMN):
        for disc in gershgorin_discs(a, axis):
            off = np.abs(a)
            np.fill_diagonal(off, 0.0)
            expected = off.sum(axis=1 if axis is Axis.ROW else 0)[disc.index]
            assert disc.radius == expected
            assert disc.radius >= 0.0
