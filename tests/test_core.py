import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ddsim import (Axis, as_matrix, comparison_matrix, gershgorin_discs,
                   is_diag_dominant, similarity_residual)
from ddsim.errors import SingularTransform

matrices = arrays(np.float64, (3, 3),
                  elements=st.floats(min_value=-100, max_value=100))


def test_dominance_strict_triangular():
    rep = is_diag_dominant([[-2, 1], [0, -3]], Axis.ROW, strict=True, tol=0.0)
    assert rep.strict and rep.satisfied
    np.testing.assert_array_equal(rep.margins, [1.0, 3.0])


def test_dominance_boundary_pair():
    rep = is_diag_dominant([[-1, 1], [-1, -1]], Axis.ROW, strict=True, tol=0.0)
    assert not rep.strict
    assert rep.non_strict
    np.testing.assert_array_equal(rep.margins, [0.0, 0.0])


def test_dominance_violated():
    rep = is_diag_dominant([[-1, 2], [-2, -1]], Axis.ROW, strict=True, tol=0.0)
    assert not rep.strict and not rep.non_strict
    np.testing.assert_array_equal(rep.margins, [-1.0, -1.0])


def test_dominance_column_axis():
    # row-dominant but not column-dominant
    a = [[-3, 2.9], [0.1, -1]]
    assert is_diag_dominant(a, Axis.ROW, strict=True, tol=0.0).strict
    assert not is_diag_dominant(a, Axis.COLUMN, strict=True, tol=0.0).strict


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
    assert all(g.contains_origin() for g in discs)


def test_gershgorin_discs_zero_matrix():
    discs = gershgorin_discs(np.zeros((3, 3)), Axis.COLUMN)
    assert [(g.center, g.radius) for g in discs] == [(0.0, 0.0)] * 3


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


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_dominance_rejects_negative_or_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        is_diag_dominant([[-3, 1], [1, -3]], Axis.ROW, strict=True, tol=tol)


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
