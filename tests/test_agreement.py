"""Agreement of the two ways to the same answer.

Simple clusters take their eigenvector from ``eig``; the nullspace filtration
must give the same blocks.  ``classify`` and the real construction decide
from separate passes; their verdicts must agree.
"""

from collections import Counter

import numpy as np
import pytest

from _gen import chain_matrix, spectrum_matrix
from ddsim import (CLUSTER_TOL, Target, Verdict, as_matrix, build_real_dd_transform,
                   certificate_tol, classify, classify_2x2, eigen_structure,
                   jordan_residual_tol, similarity_residual)
from ddsim.errors import DdsimError, NotAchievable, PreconditionViolated
from ddsim.spectral import _assemble_jordan, _Spectrum


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_eigenvector_path_matches_filtration(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        a = as_matrix(spectrum_matrix(rng, n, dominant_pairs_only=False))
        from_eig = _Spectrum(a, CLUSTER_TOL, vectors=True)
        from_filtration = _Spectrum(a, CLUSTER_TOL, vectors=True)
        for cluster in [c for group in from_filtration.clusters for c in group]:
            assert cluster.vector is not None
            cluster.vector = None
        blocks_eig, p_eig = from_eig.chain_inverse()
        blocks_filtration, p_filtration = from_filtration.chain_inverse()
        assert blocks_eig == blocks_filtration
        j = _assemble_jordan(blocks_eig, n)
        assert similarity_residual(a, p_eig, j) <= jordan_residual_tol(a)
        assert similarity_residual(a, p_filtration, j) <= jordan_residual_tol(a)


def _agreement_families():
    rng = np.random.default_rng(2718)
    for n in (2, 4, 8, 12):
        for dominant in (True, False):
            for _ in range(8):
                yield spectrum_matrix(rng, n, dominant_pairs_only=dominant)
    for kind in ("real", "pair"):
        for length in (2, 3, 4):
            for _ in range(8):
                yield chain_matrix(rng, kind, length)


def test_real_build_never_contradicts_classify():
    verdicts = Counter()
    for a in _agreement_families():
        try:
            verdict = classify(a).verdict
        except DdsimError as exc:
            with pytest.raises(type(exc)):
                build_real_dd_transform(a, Target.STRICT)
            continue
        verdicts[verdict] += 1
        try:
            build_real_dd_transform(a, Target.STRICT)
        except NotAchievable as exc:
            assert verdict is not Verdict.STRICT_ACHIEVABLE
            assert exc.classification is verdict
        except PreconditionViolated:
            pytest.fail("strict build refused a precondition after the verdict allowed it")
        except DdsimError:
            assert verdict is Verdict.STRICT_ACHIEVABLE
        else:
            assert verdict is Verdict.STRICT_ACHIEVABLE
    assert verdicts[Verdict.STRICT_ACHIEVABLE] and verdicts[Verdict.IMPOSSIBLE]


def test_classification_carries_its_structure():
    a = spectrum_matrix(np.random.default_rng(4), 6, dominant_pairs_only=False)
    assert classify(a).structure == eigen_structure(a)


def test_certificate_tol_is_the_jordan_tolerance():
    assert certificate_tol is jordan_residual_tol


_TWO_BY_TWO = {
    "real": ([[1.0, 0.0], [0.0, 2.0]], Verdict.STRICT_ACHIEVABLE),
    "real-mixed-signs": ([[1.0, 0.0], [0.0, -3.0]], Verdict.STRICT_ACHIEVABLE),
    "rotation": ([[0.0, 1.0], [-1.0, 0.0]], Verdict.IMPOSSIBLE),
    "boundary-pair": ([[-1.0, 1.0], [-1.0, -1.0]], Verdict.NON_STRICT_ONLY),
    "dominant-pair": ([[-2.0, 1.0], [-1.0, -2.0]], Verdict.STRICT_ACHIEVABLE),
}


@pytest.mark.parametrize("c", [1e154, 1e200, 1e300])
@pytest.mark.parametrize("case", list(_TWO_BY_TWO))
def test_closed_form_2x2_agrees_with_classify_at_large_scale(case, c):
    # from about 1e154 the plain trace/determinant quadratic overflows
    m, verdict = _TWO_BY_TWO[case]
    a = c * np.array(m)
    closed = classify_2x2(a)
    assert closed.verdict is classify(a).verdict is verdict
    values = [e.value for e in closed.structure.real_eigs]
    values += [v for p in closed.structure.complex_pairs for v in (p.alpha, p.beta)]
    assert np.isfinite(values).all()
