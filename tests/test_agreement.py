"""Agreement of the two ways to the same answer.

Simple clusters take their eigenvector from ``eig``; the nullspace filtration
must give the same blocks.  ``classify`` and the real construction decide
from separate passes (the spectrum slot is emptied between them); their
verdicts must agree, and a build that shares ``classify``'s pass ends
exactly as the separate one does.
"""

import contextlib
import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import chain_matrix, spectrum_matrix, well_conditioned
from ddsim import (BORDERLINE_TOL, CLUSTER_TOL, Target, Verdict, as_matrix,
                   build_complex_dd_transform, build_real_dd_transform, classify,
                   classify_2x2, eigen_structure, jordan_residual_tol, real_jordan_form,
                   similarity_residual)
from ddsim.core import _scale
from ddsim.errors import (ClusterAmbiguity, DdsimError, IllConditionedJordan, NotAchievable,
                          PreconditionViolated, SingularInput)
from ddsim.spectral import _assemble_jordan, _complex_inverse, _forget, _Spectrum


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
        from_eig = _Spectrum(a, CLUSTER_TOL)
        from_filtration = _Spectrum(a, CLUSTER_TOL)
        for cluster in [c for group in from_filtration.clusters for c in group]:
            del cluster.chains  # the eig eigenvector, set when the cluster is made
        blocks_eig, p_eig, _ = from_eig.basis
        blocks_filtration, p_filtration, _ = from_filtration.basis
        assert blocks_eig == blocks_filtration
        _, j = _assemble_jordan(blocks_eig, len(a))
        assert similarity_residual(a, p_eig, j) <= jordan_residual_tol(a)
        assert similarity_residual(a, p_filtration, j) <= jordan_residual_tol(a)


def _direct_complex_basis(spectrum):
    """The complex chain basis assembled column by column, as the complex
    certificate once built it: a pair's chain vector ``w`` gives the columns
    ``(w, conj(w)) / sqrt(2)``."""
    columns = []
    for pairs, clusters in enumerate(spectrum.clusters):
        for cluster in clusters:
            for chain in cluster.chains:
                for w in chain:
                    columns += (w / np.sqrt(2.0), w.conj() / np.sqrt(2.0)) if pairs else (w,)
    return np.array(columns).T


@pytest.mark.parametrize("family, size", [
    *(("spectrum", n) for n in (2, 4, 8, 12)),
    *(("pair-chain", length) for length in (2, 3, 4))])
def test_mapped_complex_inverse_matches_direct_inverse(family, size):
    # the complex inverse is the real one with each pair's rows mapped by a
    # unitary 2x2; it must agree with inverting the complex basis itself to
    # within a few units of cond(Q) eps max|P|
    rng = np.random.default_rng(500 + size)
    checked = 0
    for _ in range(10):
        if family == "spectrum":
            a, cluster_tol = spectrum_matrix(rng, size, dominant_pairs_only=False), CLUSTER_TOL
        else:
            # a looser tolerance keeps a chain of length 3 or 4 in one cluster
            a, cluster_tol = chain_matrix(rng, "pair", size), 1e-4
        spectrum = _Spectrum(as_matrix(a), cluster_tol)
        try:
            blocks, p, _ = spectrum.basis
        except IllConditionedJordan:
            continue
        mapped = _complex_inverse(blocks, p)
        q = _direct_complex_basis(spectrum)
        direct = np.linalg.inv(q)
        bound = 8.0 * np.linalg.cond(q) * np.finfo(float).eps * np.abs(direct).max()
        assert np.abs(mapped - direct).max() <= bound
        checked += 1
    assert checked > 0


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
        except SingularInput:
            assert verdict is Verdict.OUT_OF_SCOPE_SINGULAR
        except NotAchievable as exc:
            assert verdict not in (Verdict.STRICT_ACHIEVABLE, Verdict.OUT_OF_SCOPE_SINGULAR)
            assert f"verdict {verdict.value} " in str(exc)
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


#: Calls that decide at ``tol`` from the case table the spectrum keeps.
_TABLE_CALLS = {
    "classify": classify,
    "build_real": lambda a, tol: build_real_dd_transform(a, Target.NON_STRICT, tol),
    "build_complex": build_complex_dd_transform,
}
#: A zero eigenvalue, a boundary pair, and both.
_ZERO_BAND_MATRICES = ([[0.0, 1.0], [0.0, -2.0]], [[-1.0, 1.0], [-1.0, -1.0]],
                       [[0.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, -1.0, -1.0]])
#: The default band and both zeros, which compare equal as table keys.
_ZERO_OR_DEFAULT = st.sampled_from((BORDERLINE_TOL, 0.0, -0.0))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ZERO_BAND_MATRICES),
       st.lists(st.tuples(st.sampled_from(list(_TABLE_CALLS)), _ZERO_OR_DEFAULT), max_size=4),
       st.sampled_from(list(_TABLE_CALLS)), _ZERO_OR_DEFAULT)
def test_a_call_after_any_history_of_tols_ends_as_from_an_empty_slot(a, history, name, tol):
    # -0.0 and 0.0 are equal keys of the kept case table, so they must decide and print alike
    _forget()
    for past, past_tol in history:
        _end(_TABLE_CALLS[past], a, past_tol)
    warm = _end(_TABLE_CALLS[name], a, tol)
    _forget()
    assert warm == _end(_TABLE_CALLS[name], a, tol)


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
    without the cluster."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    others = draw(st.lists(st.sampled_from((-3.0, -1.0, 0.5, 2.0)), min_size=1,
                           max_size=3, unique=True))
    below, above = st.floats(-4.0, -1.01), st.floats(1.01, 4.0)
    if draw(st.booleans()):  # members inside and outside the band
        sides = (st.floats(-0.99, 0.99), st.one_of(below, above))
    else:  # members beyond both ends of it
        sides = (below, above)
    units = [u for side in sides for u in draw(st.lists(side, min_size=1, max_size=2))]
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


@pytest.mark.parametrize("c", [1e-7, 1e-9, 1e-12])
def test_builders_refuse_inconsistent_multiplicities_as_classify_does(c):
    # the pair sits within the clustering band of the real axis, so both
    # eigenvalues join one real cluster whose a - mean I has no numerical
    # kernel; at 1e-12 the cluster also lies in the zero band, which is only
    # read once the multiplicities are known
    a = c * np.array([[-2.0, 1.0], [-1.0, -2.0]])
    message = (f"inconsistent multiplicities for eigenvalue {-2.0 * c:.6g}: "
               "geometric 0, algebraic 2")
    for call in (classify, build_real_dd_transform, build_complex_dd_transform,
                 real_jordan_form):
        _forget()
        with pytest.raises(IllConditionedJordan, match=re.escape(message)):
            call(a)
