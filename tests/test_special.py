import numpy as np
import pytest

from _gen import hurwitz_h_matrix, metzler_hurwitz_matrix
from ddsim import (DiagonalSign, comparison_matrix, h_matrix_scaling,
                   is_h_matrix, is_hurwitz, is_m_matrix, is_metzler,
                   is_z_matrix, metzler_hurwitz_scaling)
import ddsim.special
from ddsim.errors import NumericallySingular, PreconditionViolated


@pytest.mark.parametrize("a, z, metzler", [
    ([[2, -1], [-3, 4]], True, False),
    ([[-2, 1], [1, -2]], False, True),
    (np.diag([3.0, -4.0]), True, True),
])
def test_sign_structure_tests(a, z, metzler):
    assert is_z_matrix(a) is z
    assert is_metzler(a) is metzler


def test_m_matrix_examples():
    assert is_m_matrix([[2.0, -1.0], [-1.0, 2.0]])        # eigenvalues 1, 3
    assert not is_m_matrix([[1.0, -2.0], [-2.0, 1.0]])    # eigenvalue -1
    assert not is_m_matrix([[1.0, 1.0], [0.0, 1.0]])      # not a Z-matrix


def test_h_matrix_examples():
    assert is_h_matrix([[-2.0, 1.0], [1.0, -2.0]])
    assert not is_h_matrix([[-1.0, 2.0], [-2.0, -1.0]])


def test_strictly_dominant_matrices_are_h_matrices():
    # Levy-Desplanques: strict dominance with nonzero diagonal forces the
    # comparison matrix to be an M-matrix; checked through eigenvalues
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        np.fill_diagonal(a, rng.choice([-1.0, 1.0], size=n)
                         * (np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, size=n)))
        assert is_h_matrix(a)
        m = comparison_matrix(a)
        assert np.min(np.linalg.eigvals(m).real) > 0


def test_metzler_scaling_identity_case():
    cert = metzler_hurwitz_scaling([[-2.0, 1.0], [1.0, -2.0]])
    np.testing.assert_array_equal(cert.K, np.eye(2))
    np.testing.assert_array_equal(cert.B, [[-2.0, 1.0], [1.0, -2.0]])
    assert cert.diagonal_sign is DiagonalSign.ALL_NEGATIVE


def test_metzler_scaling_uniform_vector():
    a = [[-1.0, 0.9], [0.9, -1.0]]
    cert = metzler_hurwitz_scaling(a)
    np.testing.assert_allclose(cert.K, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(cert.B, a, atol=1e-12)
    np.testing.assert_allclose(cert.dominance.margins, [0.1, 0.1], atol=1e-12)


def test_metzler_scaling_hand_solve():
    # comparison system [[1,0],[-5,10]] d = 1 gives d = (1, 0.6)
    a = np.array([[-1.0, 0.0], [5.0, -10.0]])
    cert = metzler_hurwitz_scaling(a)
    np.testing.assert_allclose(np.diag(cert.K), [0.6, 1.0], atol=1e-12)
    np.testing.assert_allclose(cert.B, [[-1.0, 0.0], [25.0 / 3.0, -10.0]],
                               rtol=1e-12)
    np.testing.assert_allclose(cert.dominance.margins, [1.0, 10.0 - 25.0 / 3.0],
                               rtol=1e-10)
    assert cert.dominance.strict


def test_h_scaling_sign_flipped_case():
    a = np.array([[-2.0, -1.0], [-1.0, -2.0]])
    cert = h_matrix_scaling(a)
    np.testing.assert_array_equal(cert.K, np.eye(2))
    np.testing.assert_array_equal(cert.B, a)
    assert cert.diagonal_sign is DiagonalSign.ALL_NEGATIVE


def test_h_scaling_bits_on_non_dominant_input():
    # row 0 is not dominant; K = diag(d)^{-1} from M_A d = 1, largest entry 1
    cert = h_matrix_scaling([[-2, 3, 0], [1, -3, 1], [0, -1, -2]])
    hexes = [[float(x).hex() for x in row] for row in [*cert.K, *cert.B]]
    assert hexes == [
        ["0x1.b6db6db6db6dap-2", "0x0.0p+0", "0x0.0p+0"],
        ["0x0.0p+0", "0x1.7ffffffffffffp-1", "0x0.0p+0"],
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        ["-0x1.0000000000000p+1", "0x1.b6db6db6db6dbp+0", "0x0.0p+0"],
        ["0x1.c000000000000p+0", "-0x1.8000000000000p+1", "0x1.7ffffffffffffp-1"],
        ["0x0.0p+0", "-0x1.5555555555556p+0", "-0x1.0000000000000p+1"]]


def test_h_scaling_agrees_with_metzler_on_metzler_input():
    a = np.array([[-2.0, 1.0], [1.0, -2.0]])
    cm = metzler_hurwitz_scaling(a)
    ch = h_matrix_scaling(a)
    np.testing.assert_array_equal(cm.K, ch.K)
    np.testing.assert_array_equal(cm.B, ch.B)


@pytest.mark.parametrize("a, scaling", [
    ([[1.0, 1.0], [0.0, 1.0]], metzler_hurwitz_scaling),   # not Hurwitz
    ([[-1.0, -1.0], [1.0, -1.0]], metzler_hurwitz_scaling),  # not Metzler
    ([[-1.0, 2.0], [-2.0, -1.0]], h_matrix_scaling),       # not an H-matrix
    ([[3.0, 1.0], [1.0, 3.0]], h_matrix_scaling),          # an H-matrix, not Hurwitz
])
def test_scaling_precondition_violations(a, scaling):
    with pytest.raises(PreconditionViolated):
        scaling(a)


def test_metzler_scaling_refuses_a_numerically_singular_comparison_matrix():
    # Hurwitz at tol 0 (eigenvalues about -1 +/- (1 - 5e-14)), but the
    # comparison matrix [[1, -1], [-(1 - 1e-13), 1]] is singular to 1e-13
    a = [[-1.0, 1.0], [1.0 - 1e-13, -1.0]]
    with pytest.raises(NumericallySingular, match="comparison matrix is numerically singular"):
        metzler_hurwitz_scaling(a, tol=0.0)


def test_scaling_vector_with_a_nonpositive_entry_is_refused():
    # the comparison matrix [[1, -2], [-2, 1]] is nonsingular but not an
    # M-matrix: M d = 1 gives d = (-1, -1)
    with pytest.raises(NumericallySingular) as info:
        ddsim.special._positive_scaling(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert str(info.value) == ("scaling vector has nonpositive entries; the comparison "
                               "matrix is not a usable M-matrix at working precision")


def test_scaled_matrix_that_misses_strict_dominance_is_refused(monkeypatch):
    # the margins are 1 / d_i before rounding, and no M-matrix that passes the
    # singularity test has been seen to lose one to rounding; a similarity
    # whose first row loses its dominance stands in for such a loss
    similarity = ddsim.special._diag_similarity

    def lossy(a, d):
        b = similarity(a, d)
        b[0, 1] = 2.0 * abs(b[0, 0])
        return b

    monkeypatch.setattr(ddsim.special, "_diag_similarity", lossy)
    with pytest.raises(NumericallySingular) as info:
        metzler_hurwitz_scaling([[-2.0, 1.0], [1.0, -2.0]])
    assert str(info.value) == "scaled matrix misses strict dominance at working precision"


def test_random_m_matrix_solves_positive():
    # d = M^{-1} 1 > 0 for nonsingular M-matrices sI - N
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        nonneg = rng.uniform(0.0, 1.0, size=(n, n))
        s = float(np.abs(np.linalg.eigvals(nonneg)).max()) + rng.uniform(0.2, 2.0)
        m = s * np.eye(n) - nonneg
        d = np.linalg.solve(m, np.ones(n))
        assert np.all(d > 0)
        assert np.all(m @ d > 0)


def test_random_scaling_certificates():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = metzler_hurwitz_matrix(rng, n)
        cert = metzler_hurwitz_scaling(a)
        k = np.diag(cert.K)
        assert np.all(k > 0) and k.max() == 1.0
        assert cert.dominance.strict
        assert np.all(cert.dominance.margins > 0)
        np.testing.assert_array_equal(np.diag(cert.B), np.diag(a))
        assert cert.diagonal_sign is DiagonalSign.ALL_NEGATIVE

        h = hurwitz_h_matrix(rng, n)
        cert_h = h_matrix_scaling(h)
        assert np.all(np.diag(cert_h.K) > 0)
        assert cert_h.dominance.strict
        np.testing.assert_array_equal(np.diag(cert_h.B), np.diag(h))
        assert cert_h.diagonal_sign is DiagonalSign.ALL_NEGATIVE
