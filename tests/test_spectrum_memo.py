"""The spectrum each thread keeps of its last matrix: every public spectral
call ends as it does from an empty slot, whatever ran before it, and the
slot misses whenever the matrix, its tolerance or the thread differ."""

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
    assert solves["eigvals"] == 1


def test_in_place_change_misses(a, solves):
    before = _end(classify, a)
    a[0, 0] += 0.25
    after = _end(classify, a)
    assert solves["eigvals"] == 2
    assert after != before
    _forget()
    assert _end(classify, a) == after


def test_other_cluster_tol_misses(a, solves):
    classify(a)
    classify(a, cluster_tol=2 * CLUSTER_TOL)
    assert solves["eigvals"] == 2


def test_other_layout_misses(a, solves):
    # the same values in column-major memory are solved again
    classify(a)
    classify(np.asfortranarray(a))
    assert solves["eigvals"] == 2


def test_each_thread_keeps_its_own(a, solves):
    classify(a)
    worker = threading.Thread(target=classify, args=(a,))
    worker.start()
    worker.join()
    assert solves["eigvals"] == 2
    classify(a)
    assert solves["eigvals"] == 2


def test_one_slot(a, solves):
    b = spectrum_matrix(np.random.default_rng(4), 6)
    for m in (a, b, a):
        classify(m)
    assert solves["eigvals"] == 3


def test_eig_apart_from_eigvals_rebuilds_from_eig(monkeypatch, solves):
    # eig moves one value by one ulp: the build must not keep classify's
    # clusters, and ends as a build from an empty slot does under the patch
    a = spectrum_matrix(np.random.default_rng(5), 6, require_pair=True)
    eig = np.linalg.eig

    def nudged(m):
        values, vectors = eig(m)
        values = values.copy()
        values[0] = np.nextafter(values[0].real, np.inf) + 1j * values[0].imag
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", nudged)
    for name in ("build_real_strict", "build_complex", "real_jordan_form"):
        _forget()
        cold = _end(CALLS[name], a)
        _forget()
        classify(a)
        assert _end(CALLS[name], a) == cold
        assert ddsim.spectral._slot.last[1].solvers == {"eig"}
        # and classify after it solves with eigvals again, as from an empty slot
        _forget()
        cold_classify = _end(classify, a)
        CALLS[name](a)
        assert _end(classify, a) == cold_classify


def test_untyped_failure_empties_the_slot(monkeypatch):
    a = spectrum_matrix(np.random.default_rng(7), 6)
    classify(a)
    assert ddsim.spectral._slot.last is not None

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(np.linalg.LinAlgError):
        build_real_dd_transform(a)
    assert ddsim.spectral._slot.last is None


def test_failed_filtration_step_changes_nothing(monkeypatch):
    a = chain_matrix(np.random.default_rng(6), "real", 3)
    (cluster,) = _Spectrum(a, 1e-4, vectors=True).clusters[0]
    assert cluster.geo_mult == 1
    state = (len(cluster.bases), cluster.power.tobytes(), cluster.sig)
    nullspace = ddsim.spectral._nullspace

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(ddsim.spectral, "_nullspace", failing)
    with pytest.raises(np.linalg.LinAlgError):
        cluster.chains()
    assert (len(cluster.bases), cluster.power.tobytes(), cluster.sig) == state
    monkeypatch.setattr(ddsim.spectral, "_nullspace", nullspace)
    (fresh,) = _Spectrum(a, 1e-4, vectors=True).clusters[0]
    assert [[v.tobytes() for v in chain] for chain in cluster.chains()] == \
        [[v.tobytes() for v in chain] for chain in fresh.chains()]


def test_chains_are_built_once():
    a = chain_matrix(np.random.default_rng(8), "pair", 3)
    (cluster,) = _Spectrum(a, 1e-4, vectors=True).clusters[1]
    assert cluster.chains() is cluster.chains()
