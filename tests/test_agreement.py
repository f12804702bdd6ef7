"""Agreement of the two ways to the same answer.

Simple clusters take their eigenvector from ``eig``; the nullspace filtration
must give the same blocks.  ``classify`` and the real construction decide
from separate passes (the spectrum slot is emptied between them); their
verdicts must agree, and a build that shares ``classify``'s pass ends
exactly as the separate one does.
"""

import contextlib
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _gen import chain_matrix, spectrum_matrix, well_conditioned
from ddsim import (BORDERLINE_TOL, CLUSTER_TOL, Target, Verdict, as_matrix,
                   build_complex_dd_transform, build_real_dd_transform, certificate_tol,
                   classify, classify_2x2, eigen_structure, jordan_residual_tol,
                   similarity_residual)
from ddsim.core import _scale
from ddsim.errors import (ClusterAmbiguity, DdsimError, NotAchievable, PreconditionViolated,
                          SingularInput)
from ddsim.spectral import _assemble_jordan, _forget, _Spectrum


def _bits(x):
    """``x`` as comparable bits: arrays by dtype, shape and bytes, floats
    by ``hex``, dataclasses and tuples member by member, the rest by repr."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    return repr(x)


def _end(call, *args, **kwargs):
    """How ``call(*args, **kwargs)`` ends: the bits of its result, or the
    type and message of what it raised."""
    try:
        return _bits(call(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def _assert_warm_ends_as_cold(a, build):
    """``build(a)`` right after ``classify(a)``, sharing its spectrum, ends
    as it does from an empty slot."""
    with contextlib.suppress(DdsimError):
        classify(a)
    warm = _end(build, a)
    _forget()
    assert warm == _end(build, a)


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
        _, j = _assemble_jordan(blocks_eig, len(a))
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


def _strict_build(a):
    return build_real_dd_transform(a, Target.STRICT)


def test_real_build_never_contradicts_classify():
    verdicts = Counter()
    for a in _agreement_families():
        _assert_warm_ends_as_cold(a, _strict_build)
        _forget()
        try:
            verdict = classify(a).verdict
        except DdsimError as exc:
            _forget()
            with pytest.raises(type(exc)):
                _strict_build(a)
            continue
        verdicts[verdict] += 1
        _forget()
        try:
            _strict_build(a)
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


@st.composite
def _straddling_clusters(draw):
    """``Q diag(cluster, others) Q^{-1}`` with cond(Q) <= 100, where the real
    cluster straddles the zero band: it has members inside and outside the
    band, or beyond both of its ends.  Members are drawn in units of the
    band's approximate half-width ``BORDERLINE_TOL * _scale`` of the matrix
    without the cluster; a cluster mean within 0.1 % of the band's edge is
    skipped, as ``eig`` and ``eigvals`` may round it apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    others = draw(st.lists(st.sampled_from((-3.0, -1.0, 0.5, 2.0)), min_size=1,
                           max_size=3, unique=True))
    below, above = st.floats(-4.0, -1.01), st.floats(1.01, 4.0)
    if draw(st.booleans()):  # members inside and outside the band
        sides = (st.floats(-0.99, 0.99), st.one_of(below, above))
    else:  # members beyond both ends of it
        sides = (below, above)
    units = [u for side in sides for u in draw(st.lists(side, min_size=1, max_size=2))]
    assume(abs(abs(sum(units) / len(units)) - 1.0) > 1e-3)
    n = len(units) + len(others)
    q = well_conditioned(rng, n)
    q_inv = np.linalg.inv(q)
    width = BORDERLINE_TOL * _scale(q @ np.diag([0.0] * len(units) + others) @ q_inv)
    return q @ np.diag([u * width for u in units] + others) @ q_inv


@settings(max_examples=200, deadline=None)
@given(_straddling_clusters())
def test_complex_build_is_singular_exactly_when_classify_says_so(a):
    _assert_warm_ends_as_cold(a, build_complex_dd_transform)
    _forget()
    try:
        verdict = classify(a).verdict
    except ClusterAmbiguity:
        _forget()
        with pytest.raises(ClusterAmbiguity):
            build_complex_dd_transform(a)
        return
    _forget()
    try:
        build_complex_dd_transform(a)
        singular = False
    except SingularInput:
        singular = True
    except DdsimError:
        singular = False
    assert singular is (verdict is Verdict.OUT_OF_SCOPE_SINGULAR)
