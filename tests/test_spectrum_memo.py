"""The spectrum each thread keeps of its last matrix: every public spectral
call ends as it does from an empty slot, whatever ran before it, and the
slot misses whenever the matrix, its tolerance or the thread differ."""

import functools
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import chain_matrix, spectrum_matrix
from ddsim import (CLUSTER_TOL, Target, build_complex_dd_transform, build_real_dd_transform,
                   classify, eigen_structure, real_jordan_form)
import ddsim.spectral
from ddsim.core import as_matrix
from ddsim.errors import ClusterAmbiguity, IllConditionedJordan
from ddsim.spectral import _forget, _Spectrum
from test_agreement import _end, _straddling_clusters

#: Every public call that takes its spectrum from the slot, by name.
CALLS = {
    "classify": classify,
    "eigen_structure": eigen_structure,
    "real_jordan_form": real_jordan_form,
    "build_real_strict": lambda a, **kw: build_real_dd_transform(a, Target.STRICT, **kw),
    "build_real_non_strict": lambda a, **kw: build_real_dd_transform(a, Target.NON_STRICT, **kw),
    "build_complex": build_complex_dd_transform,
}

#: A matrix other than any drawn below, to hold the slot between two calls.
_OTHER = spectrum_matrix(np.random.default_rng(0), 5, dominant_pairs_only=False)


@pytest.fixture(autouse=True)
def empty_slot():
    _forget()


@st.composite
def _matrices(draw):
    """A separated spectrum, a Jordan chain, or a real cluster straddling the
    zero band."""
    family = draw(st.sampled_from(("spectrum", "chain", "straddling")))
    if family == "straddling":
        return draw(_straddling_clusters())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "spectrum":
        return spectrum_matrix(rng, draw(st.sampled_from((2, 3, 4, 8))),
                               dominant_pairs_only=draw(st.booleans()))
    return chain_matrix(rng, draw(st.sampled_from(("real", "pair"))), draw(st.integers(2, 4)))


@settings(max_examples=150, deadline=None)
@given(a=_matrices(), name=st.sampled_from(sorted(CALLS)),
       cluster_tol=st.sampled_from((CLUSTER_TOL, 1e-4)),
       history=st.lists(st.tuples(st.sampled_from(sorted(CALLS)), st.booleans()), max_size=4))
def test_every_call_ends_as_from_an_empty_slot(a, name, cluster_tol, history):
    cold = _end(CALLS[name], a, cluster_tol=cluster_tol)
    _forget()
    # earlier calls on the same matrix, or on another one
    for before, same in history:
        _end(CALLS[before], a if same else _OTHER, cluster_tol=cluster_tol)
    assert _end(CALLS[name], a, cluster_tol=cluster_tol) == cold
    assert _end(CALLS[name], a, cluster_tol=cluster_tol) == cold


@pytest.fixture
def solves(monkeypatch):
    """Counter of ``eig`` and ``eigvals`` calls, from every thread."""
    calls = Counter()
    for name in ("eig", "eigvals"):
        def counting(a, _name=name, _fn=getattr(np.linalg, name)):
            calls[_name] += 1
            return _fn(a)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def a():
    return spectrum_matrix(np.random.default_rng(3), 6, dominant_pairs_only=False)


def test_repeated_call_solves_once(a, solves):
    for _ in range(3):
        classify(a)
    assert solves == {"eig": 1}


def test_in_place_change_misses(a, solves):
    before = _end(classify, a)
    a[0, 0] += 0.25
    after = _end(classify, a)
    assert solves == {"eig": 2}
    assert after != before
    _forget()
    assert _end(classify, a) == after


def test_other_cluster_tol_misses(a, solves):
    classify(a)
    classify(a, cluster_tol=2 * CLUSTER_TOL)
    assert solves == {"eig": 2}


@pytest.mark.parametrize("kept, asked", [(0.0, False), (1.0, True)])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_kept_spectrum_admits_no_bool_cluster_tol(a, name, kept, asked):
    # a bool equals, and hashes as, the number it is refused in place of
    _end(CALLS[name], a, cluster_tol=kept)
    with pytest.raises(ValueError, match="^cluster_tol must be finite and nonnegative$"):
        CALLS[name](a, cluster_tol=asked)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_other_layout_hits(a, solves, name):
    # validation makes every matrix C-ordered, so the same values in
    # column-major memory are the same matrix: kept or not, the bits match
    cold = _end(CALLS[name], a)
    f_ordered = np.asfortranarray(a)
    assert _end(CALLS[name], f_ordered) == cold
    assert solves == {"eig": 1}
    _forget()
    assert _end(CALLS[name], f_ordered) == cold


def test_each_thread_keeps_its_own(a, solves):
    classify(a)
    worker = threading.Thread(target=classify, args=(a,))
    worker.start()
    worker.join()
    assert solves == {"eig": 2}
    classify(a)
    assert solves == {"eig": 2}


def test_one_slot(a, solves):
    b = spectrum_matrix(np.random.default_rng(4), 6)
    for m in (a, b, a):
        classify(m)
    assert solves == {"eig": 3}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_after_classify_makes_no_solve(solves, name):
    # classify solves with eig, so a builder after it reads the same values
    # and takes each simple cluster's vector from the same solve
    a = spectrum_matrix(np.random.default_rng(5), 6, require_pair=True)
    classify(a)
    CALLS[name](a)
    assert solves == {"eig": 1}


#: A separated spectrum, a real length-2 chain and a pair length-2 chain.
_FAILING = {
    "separated": spectrum_matrix(np.random.default_rng(7), 6),
    "real chain": chain_matrix(np.random.default_rng(10), "real", 2),
    "pair chain": chain_matrix(np.random.default_rng(11), "pair", 2),
}


@functools.cache
def _cold_ends(matrix):
    """How each of :data:`CALLS` ends on ``_FAILING[matrix]`` from an empty slot."""
    ends = {}
    for name, call in CALLS.items():
        _forget()
        ends[name] = _end(call, _FAILING[matrix])
    return ends


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("function", ["svd", "inv"])
@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("matrix", sorted(_FAILING))
def test_untyped_failure_leaves_every_call_as_from_an_empty_slot(monkeypatch, matrix, name,
                                                                 function, k):
    # the first k calls of np.linalg.<function> go through and the next one
    # raises, wherever the call is in the spectrum, its chains or its basis
    a, cold = _FAILING[matrix], _cold_ends(matrix)
    _forget()
    real, made = getattr(np.linalg, function), []

    def failing(*args, **kwargs):
        made.append(None)
        if len(made) == k + 1:
            raise np.linalg.LinAlgError(f"{function} did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, function, failing)
    _end(CALLS[name], a)
    monkeypatch.setattr(np.linalg, function, real)
    assert {other: _end(call, a) for other, call in CALLS.items()} == cold


def test_untyped_failure_keeps_the_spectrum(monkeypatch, solves):
    # the spectrum classify made is complete, so a build that fails on its
    # way to the basis leaves it kept, and the retry solves nothing again
    a = _FAILING["separated"]
    classify(a)
    svd = np.linalg.svd

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(np.linalg.LinAlgError):
        build_real_dd_transform(a)
    monkeypatch.setattr(np.linalg, "svd", svd)
    build_real_dd_transform(a)
    assert solves == {"eig": 1}


#: Matrices whose spectrum every call refuses while it is made, with the
#: type and message of the refusal.
_REFUSED = {
    "ambiguous": (np.diag([-1.0, -1.00000036]), ClusterAmbiguity,
                  "real eigenvalue clusters at -1 and -1 are separated by 3.600e-07, "
                  "within 2.0x the clustering tolerance 2.414e-07"),
    "inconsistent": (1e-7 * np.array([[-2.0, 1.0], [-1.0, -2.0]]), IllConditionedJordan,
                     "inconsistent multiplicities for eigenvalue -2e-07: "
                     "geometric 0, algebraic 2"),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_matrix_is_not_kept(a, solves, case, name):
    refused, kind, message = _REFUSED[case]
    classify(a)
    kept = ddsim.spectral._slot.last
    for _ in range(2):
        with pytest.raises(kind) as refusal:
            CALLS[name](refused)
        assert str(refusal.value) == message
        assert ddsim.spectral._slot.last is kept
    # each refusal solved afresh, and the matrix before it is still kept
    classify(a)
    assert solves == {"eig": 3}


def test_failed_filtration_step_changes_nothing(monkeypatch):
    a = chain_matrix(np.random.default_rng(6), "real", 3)
    (cluster,) = _Spectrum(a, 1e-4).clusters[0]
    assert cluster.geo_mult == 1
    first = cluster._first
    state = [m.tobytes() for m in first[:2]] + [first[2]]
    nullspace = ddsim.spectral._nullspace

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # the power-2 SVD fails: no chains are kept, and the first power stays
    monkeypatch.setattr(ddsim.spectral, "_nullspace", failing)
    with pytest.raises(np.linalg.LinAlgError):
        cluster.chains
    assert "chains" not in vars(cluster)
    assert cluster._first is first
    assert [m.tobytes() for m in first[:2]] + [first[2]] == state
    monkeypatch.setattr(ddsim.spectral, "_nullspace", nullspace)
    (fresh,) = _Spectrum(a, 1e-4).clusters[0]
    assert [[v.tobytes() for v in chain] for chain in cluster.chains] == \
        [[v.tobytes() for v in chain] for chain in fresh.chains]


def test_chains_are_built_once():
    a = chain_matrix(np.random.default_rng(8), "pair", 3)
    (cluster,) = _Spectrum(a, 1e-4).clusters[1]
    assert cluster.chains is cluster.chains


def test_refused_basis_is_not_kept():
    # the basis ratio test refuses; the next call builds the basis again
    # and refuses it the same way
    a = 1e160 * np.array([[-2.0, 1.0], [0.0, -2.0]])
    spectrum = _Spectrum(as_matrix(a), CLUSTER_TOL)
    ends = []
    for _ in range(2):
        with pytest.raises(IllConditionedJordan,
                           match="Jordan basis is numerically singular") as refusal:
            spectrum.basis
        assert "basis" not in vars(spectrum)
        ends.append(str(refusal.value))
    assert ends[0] == ends[1]


def test_returned_jordan_basis_is_not_the_kept_one():
    # real_jordan_form hands out a copy of the kept inverse, so writing into
    # it changes no later certificate
    a = spectrum_matrix(np.random.default_rng(9), 6, require_pair=True)
    cold = _end(build_complex_dd_transform, a)
    _forget()
    real_jordan_form(a).P[:] = 0.0
    assert _end(build_complex_dd_transform, a) == cold
