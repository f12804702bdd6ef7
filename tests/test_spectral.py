import numpy as np
import pytest

from _gen import spectrum_matrix, well_conditioned
from ddsim import (ComplexJordanBlock, RealJordanBlock, eigen_structure,
                   jordan_residual_tol, real_jordan_form, similarity_residual)
from ddsim.errors import ClusterAmbiguity, IllConditionedJordan
from ddsim.spectral import _checked_residual


def test_eigen_structure_triangular():
    es = eigen_structure([[-2.0, 1.0], [0.0, -3.0]])
    assert [(e.value, e.alg_mult, e.geo_mult) for e in es.real_eigs] == \
        [(-3.0, 1, 1), (-2.0, 1, 1)]
    assert es.complex_pairs == ()


def test_eigen_structure_rotation_pair():
    es = eigen_structure([[-1.0, 2.0], [-2.0, -1.0]])
    assert es.real_eigs == ()
    (p,) = es.complex_pairs
    assert p.alg_mult == 1 and p.geo_mult == 1
    np.testing.assert_allclose([p.alpha, p.beta], [-1.0, 2.0], atol=1e-9)


def test_eigen_structure_defective():
    es = eigen_structure([[-2.0, 1.0], [0.0, -2.0]])
    (e,) = es.real_eigs
    # rank(A + 2I) = 1, hence one eigenvector only
    assert (e.alg_mult, e.geo_mult) == (2, 1)
    np.testing.assert_allclose(e.value, -2.0, atol=1e-9)


def test_eigen_structure_multiplicity_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = spectrum_matrix(rng, n, dominant_pairs_only=False)
        es = eigen_structure(a)
        assert es.multiplicity_total() == n
        for e in es.real_eigs:
            assert 1 <= e.geo_mult <= e.alg_mult
        for p in es.complex_pairs:
            assert 1 <= p.geo_mult <= p.alg_mult
            assert p.beta > 0


def test_jordan_already_diagonal():
    jf = real_jordan_form(np.diag([-2.0, -3.0]))
    np.testing.assert_array_equal(jf.J, np.diag([-3.0, -2.0]))
    assert jf.residual <= 1e-12


def test_jordan_rotation_cell_is_its_own_form():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    jf = real_jordan_form(a)
    np.testing.assert_allclose(jf.J, a, atol=1e-12)
    assert jf.blocks == (ComplexJordanBlock(alpha=0.0, beta=1.0, chain_length=1),)


def test_jordan_defective_real_block():
    a = np.array([[-2.0, 1.0], [0.0, -2.0]])
    jf = real_jordan_form(a)
    np.testing.assert_allclose(jf.J, a, atol=1e-9)
    assert jf.blocks == (RealJordanBlock(eigenvalue=-2.0, size=2),)
    assert jf.residual <= 1e-8


def test_jordan_defective_pair_chain():
    a = np.array([[-1.0, 1.0, 1.0, 0.0],
                  [-1.0, -1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 1.0],
                  [0.0, 0.0, -1.0, -1.0]])
    jf = real_jordan_form(a)
    (block,) = jf.blocks
    assert isinstance(block, ComplexJordanBlock) and block.chain_length == 2
    np.testing.assert_allclose([block.alpha, block.beta], [-1.0, 1.0], atol=1e-7)
    np.testing.assert_allclose(jf.J, a, atol=1e-6)


def test_jordan_transformed_defective_real_block():
    # integer-entry similarity keeps the eigenvalue split inside the band
    a0 = np.array([[3.0, 1.0], [0.0, 3.0]])
    q = np.array([[2.0, 1.0], [1.0, 1.0]])
    a = q @ a0 @ np.linalg.inv(q)
    jf = real_jordan_form(a)
    assert jf.blocks == (RealJordanBlock(eigenvalue=jf.blocks[0].eigenvalue, size=2),)
    np.testing.assert_allclose(jf.blocks[0].eigenvalue, 3.0, atol=1e-7)
    assert jf.residual <= jordan_residual_tol(a)


def test_jordan_three_chain_needs_wider_clustering():
    # a transformed 3-chain splits eigenvalues by ~eps^(1/3), beyond the
    # default band: the documented retry path is a wider cluster_tol
    a0 = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    rng = np.random.default_rng(0)
    q = well_conditioned(rng, 3, cond_limit=20.0)
    a = q @ a0 @ np.linalg.inv(q)
    try:
        jf = real_jordan_form(a, cluster_tol=1e-4)
    except IllConditionedJordan:
        pytest.fail("wider clustering tolerance should recover the 3-chain")
    assert jf.blocks == (RealJordanBlock(eigenvalue=jf.blocks[0].eigenvalue, size=3),)
    np.testing.assert_allclose(jf.blocks[0].eigenvalue, 2.0, atol=1e-4)
    assert jf.residual <= jordan_residual_tol(a)


def test_jordan_semisimple_double_eigenvalue():
    rng = np.random.default_rng(3)
    q = well_conditioned(rng, 4, cond_limit=20.0)
    a = q @ np.diag([2.0, 2.0, -1.0, 5.0]) @ np.linalg.inv(q)
    jf = real_jordan_form(a)
    sizes = sorted((b.eigenvalue, b.size) for b in jf.blocks)
    np.testing.assert_allclose([s[0] for s in sizes], [-1.0, 2.0, 2.0, 5.0], atol=1e-6)
    assert [s[1] for s in sizes] == [1, 1, 1, 1]


def test_jordan_block_ordering_deterministic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = spectrum_matrix(rng, 6, dominant_pairs_only=False)
        jf = real_jordan_form(a)
        reals = [b for b in jf.blocks if isinstance(b, RealJordanBlock)]
        pairs = [b for b in jf.blocks if isinstance(b, ComplexJordanBlock)]
        # real blocks first, ascending; then pairs in (alpha, beta) order
        assert jf.blocks[:len(reals)] == tuple(reals)
        assert [b.eigenvalue for b in reals] == sorted(b.eigenvalue for b in reals)
        assert [(b.alpha, b.beta) for b in pairs] == \
            sorted((b.alpha, b.beta) for b in pairs)


def test_jordan_random_recovery_and_invariants():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = spectrum_matrix(rng, n, dominant_pairs_only=False)
        jf = real_jordan_form(a)
        assert jf.residual <= jordan_residual_tol(a)
        assert similarity_residual(a, jf.P, jf.J) == jf.residual
        assert sum(b.dim for b in jf.blocks) == n
        tr_a, tr_j = np.trace(a), np.trace(jf.J)
        assert abs(tr_a - tr_j) <= 1e-6 * (1.0 + abs(tr_a))
        det_a, det_j = np.linalg.det(a), np.linalg.det(jf.J)
        assert abs(det_a - det_j) <= 1e-6 * (1.0 + abs(det_a))


def test_eigenvalue_recovery_within_tolerance():
    # diagonalizable with well-separated sampled eigenvalues: recovery to
    # 1e-6 and full geometric multiplicity everywhere
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a, reals, pairs = spectrum_matrix(rng, n, dominant_pairs_only=False,
                                          return_spectrum=True)
        expected = sorted(reals) + [complex(al, be) for al, be in pairs]
        es = eigen_structure(a)
        got = [e.value for e in es.real_eigs]
        got += [complex(p.alpha, p.beta) for p in es.complex_pairs]
        got.sort(key=lambda z: (np.real(z), np.imag(z)))
        expected.sort(key=lambda z: (np.real(z), np.imag(z)))
        np.testing.assert_allclose(got, expected, atol=1e-6)
        assert all(e.geo_mult == e.alg_mult for e in es.real_eigs)
        assert all(p.geo_mult == p.alg_mult for p in es.complex_pairs)


def test_cluster_ambiguity_raised_for_near_tolerance_gap():
    # two eigenvalues separated by ~1.5x the clustering band
    gap = 1.5e-7 * (1.0 + np.linalg.norm(np.diag([1.0, 1.0])))
    a = np.diag([1.0, 1.0 + gap])
    with pytest.raises(ClusterAmbiguity) as info:
        eigen_structure(a)
    assert info.value.groupings  # both candidate groupings reported


@pytest.mark.parametrize("what", ["Jordan", "certificate"])
def test_residual_limit_names_its_check(what):
    a = np.diag([-2.0, -3.0])
    assert _checked_residual(a, np.eye(2), a, what) == 0.0
    swapped = np.diag([-3.0, -2.0])
    with pytest.raises(IllConditionedJordan,
                       match=rf"^{what} residual 3\.071e-01 exceeds tolerance 4\.606e-06$"):
        _checked_residual(a, np.eye(2), swapped, what)
