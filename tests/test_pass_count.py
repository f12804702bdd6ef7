"""Work counted at the ``numpy.linalg`` boundary and at the program's own
helpers.

From an empty spectrum slot (an autouse fixture empties it before each
test), each public call makes one spectral pass and takes one ``||A||_F``.
On one matrix, ``classify`` followed by both builders shares one pass: one
``eig`` (and no ``eigvals``), one scale, each filtration SVD once, one case
table and one real chain basis, tested and inverted once, while each build
still verifies its own certificate.  Each certificate build and each
structure test or scaling validates ``A`` once, and only ``classify`` builds
evidence."""

import contextlib
import importlib
import sys
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from _gen import canonical_from_spectrum, chain_matrix, spectrum_matrix, well_conditioned
from ddsim import (CLUSTER_TOL, ComplexPair, EigenStructure, RealEigenvalue, Target, Verdict,
                   build_complex_dd_transform, build_real_dd_transform, classify,
                   h_matrix_scaling, is_h_matrix, is_hurwitz, is_m_matrix, is_metzler,
                   is_z_matrix, metzler_hurwitz_scaling, real_jordan_form, scale_jordan_to_dd)
import ddsim
import ddsim.core
import ddsim.spectral
from ddsim.classify import _cases, _classification
from ddsim.cli import main as cli_main
from ddsim.errors import IllConditionedJordan

#: SVDs that verify a real or complex certificate from an empty slot: the
#: chain basis singular-value ratio and the singularity test of the
#: certificate residual.  A second build on the same matrix reuses the basis.
VERIFICATION_SVDS = 2


@pytest.fixture(autouse=True)
def empty_slot():
    """Every count below starts from an empty spectrum slot: the fixture
    matrices of one test would otherwise be warm from the test before."""
    ddsim.spectral._forget()


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of eigen-solves, SVDs and inverses; a norm that takes an SVD
    (the 2-norm) counts as one SVD and also as "norm svd", and an inverse of
    a complex matrix also counts as "complex inv"."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name == "inv" and np.iscomplexobj(args[0]):
                calls["complex inv"] += 1
            if name != "norm":
                calls[name] += 1
            elif kwargs.get("ord", args[1] if len(args) > 1 else None) in (2, -2, "nuc"):
                calls["svd"] += 1
                calls["norm svd"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eig", "eigvals", "svd", "norm", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture
def frobenius_calls(monkeypatch):
    """Number of Frobenius norms taken through ``core._frobenius``."""
    calls = Counter()
    frobenius = ddsim.core._frobenius

    def counting(x):
        calls["frobenius"] += 1
        return frobenius(x)

    monkeypatch.setattr(ddsim.core, "_frobenius", counting)
    return calls


@pytest.fixture
def square_calls(monkeypatch):
    """Number of matrix validations through ``core._square``."""
    calls = Counter()
    square = ddsim.core._square

    def counting(values):
        calls["square"] += 1
        return square(values)

    monkeypatch.setattr(ddsim.core, "_square", counting)
    return calls


@pytest.fixture
def separated8():
    return spectrum_matrix(np.random.default_rng(8), 8)


def test_classify_is_one_eigen_solve_without_svd(separated8, linalg_calls):
    classify(separated8)
    assert (linalg_calls["eig"], linalg_calls["eigvals"]) == (1, 0)
    assert linalg_calls["svd"] == 0


def test_real_build_is_one_eigen_solve(separated8, linalg_calls):
    build_real_dd_transform(separated8, Target.STRICT)
    assert (linalg_calls["eig"], linalg_calls["eigvals"]) == (1, 0)
    assert linalg_calls["svd"] == VERIFICATION_SVDS


def test_complex_build_is_one_eigen_solve(separated8, linalg_calls):
    build_complex_dd_transform(separated8)
    assert (linalg_calls["eig"], linalg_calls["eigvals"]) == (1, 0)
    assert linalg_calls["svd"] == VERIFICATION_SVDS
    # the complex basis is a unitary image of the real one: one real inverse
    assert (linalg_calls["inv"], linalg_calls["complex inv"]) == (1, 0)


def test_cli_classify_is_one_eigen_solve(tmp_path, capsys, separated8, linalg_calls):
    path = tmp_path / "a.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in separated8) + "\n")
    assert cli_main(["classify", "--input", str(path)]) == 0
    capsys.readouterr()
    assert (linalg_calls["eig"], linalg_calls["eigvals"]) == (1, 0)
    assert linalg_calls["svd"] == 0


# Frobenius norms per public call: the scale ``1 + ||A||_F``, plus the
# numerator of the certificate residual when a certificate is built.
@pytest.mark.parametrize("call, norms", [
    (classify, 1),
    (lambda a: build_real_dd_transform(a, Target.STRICT), 2),
    (build_complex_dd_transform, 2),
], ids=["classify", "build_real", "build_complex"])
def test_one_scale_per_public_call(separated8, frobenius_calls, call, norms):
    call(separated8)
    assert frobenius_calls["frobenius"] == norms


def _classify_then_build(a, cluster_tol=CLUSTER_TOL, forget_between=False):
    """The usual sequence on one matrix: the verdict, then both certificates,
    of which a defective input's may be refused; with ``forget_between``
    each call makes its own pass."""
    assert classify(a, cluster_tol=cluster_tol).verdict is Verdict.STRICT_ACHIEVABLE
    for build in (lambda: build_real_dd_transform(a, Target.STRICT, cluster_tol=cluster_tol),
                  lambda: build_complex_dd_transform(a, cluster_tol=cluster_tol)):
        if forget_between:
            ddsim.spectral._forget()
        with contextlib.suppress(IllConditionedJordan):
            build()


def test_classify_then_both_builds_share_one_pass(separated8, linalg_calls, frobenius_calls):
    _classify_then_build(separated8)
    assert (linalg_calls["eig"], linalg_calls["eigvals"]) == (1, 0)
    # one scale, and the numerator of each certificate residual
    assert frobenius_calls["frobenius"] == 1 + 2
    # one basis ratio test, and the singularity test of each certificate
    assert linalg_calls["svd"] == 1 + 2
    assert linalg_calls["inv"] == 1


@pytest.mark.parametrize("kind, length", [
    (kind, length) for kind in ("real", "pair") for length in (2, 3, 4)])
def test_each_filtration_svd_runs_once_across_the_calls(monkeypatch, kind, length):
    a = chain_matrix(np.random.default_rng(length), kind, length)
    powers = Counter()
    nullspace = ddsim.spectral._nullspace

    def counting(m, extra_tol=0.0):
        powers[m.tobytes()] += 1
        return nullspace(m, extra_tol)

    monkeypatch.setattr(ddsim.spectral, "_nullspace", counting)
    # rounding splits a chain of length k by about eps**(1 / k), beyond the
    # default tolerance from k = 3 on
    _classify_then_build(a, 1e-4, forget_between=True)
    separate = Counter(powers)
    assert max(separate.values()) > 1
    powers.clear()
    ddsim.spectral._forget()
    _classify_then_build(a, 1e-4)
    assert powers.keys() == separate.keys()
    assert set(powers.values()) == {1}


@pytest.mark.parametrize("kind, length", [
    (kind, length) for kind in ("real", "pair") for length in (2, 3, 4)])
def test_filtration_takes_no_norm_svd(linalg_calls, kind, length):
    # the first power's SVD gives ||A - lambda I||_2 for every later cut
    a = chain_matrix(np.random.default_rng(length), kind, length)
    _classify_then_build(a, 1e-4)
    assert linalg_calls["svd"] > 0
    assert linalg_calls["norm svd"] == 0


@pytest.mark.parametrize("build", [
    lambda a: build_real_dd_transform(a, Target.STRICT),
    build_complex_dd_transform,
], ids=["build_real", "build_complex"])
def test_builder_validates_only_its_input(separated8, square_calls, build):
    # the P, J and B the builder makes are checked by the certificate
    # residual and dominance, not validated again as inputs
    build(separated8)
    assert square_calls["square"] == 1


_METZLER_HURWITZ = [[-3.0, 1.0, 0.5], [1.0, -3.0, 0.0], [0.2, 1.0, -2.0]]
_M_MATRIX = [[3.0, -1.0, -0.5], [-1.0, 3.0, 0.0], [-0.2, -1.0, 2.0]]


@pytest.mark.parametrize("call", [
    is_z_matrix, is_metzler, is_hurwitz, is_m_matrix, is_h_matrix,
    metzler_hurwitz_scaling, h_matrix_scaling,
], ids=lambda call: call.__name__)
def test_special_call_validates_once(square_calls, call):
    # every test passes, so each call runs its whole body
    assert call(_M_MATRIX if call in (is_z_matrix, is_m_matrix) else _METZLER_HURWITZ)
    assert square_calls["square"] == 1


@pytest.fixture
def finding_calls(monkeypatch):
    """Number of evidence entries built through ``classify.Finding``."""
    calls = Counter()
    # the package's ``classify`` attribute is the function, not the module
    module = importlib.import_module("ddsim.classify")
    finding = module.Finding

    def counting(*args, **kwargs):
        calls["finding"] += 1
        return finding(*args, **kwargs)

    monkeypatch.setattr(module, "Finding", counting)
    return calls


def test_only_classify_builds_evidence(separated8, finding_calls):
    # the builder reads only the verdict, so it formats no condition text
    build_real_dd_transform(separated8, Target.STRICT)
    assert finding_calls["finding"] == 0
    structure = classify(separated8).structure
    assert finding_calls["finding"] == (len(structure.real_eigs)
                                        + len(structure.complex_pairs)) > 0


_TOL, _SCALE = 1e-9, 10.0
_ZERO_TOL = _TOL * _SCALE
#: One eigenvalue or pair in each case; the real zero sits on the band's edge.
_CASE_EXAMPLES = {
    "real-zero": RealEigenvalue(-_ZERO_TOL, 1, 1),
    "real-nonzero": RealEigenvalue(-2.0, 2, 2),
    "pair-zero": ComplexPair(0.3 * _ZERO_TOL, 0.4 * _ZERO_TOL, 1, 1),
    "pair-borderline-semisimple": ComplexPair(-1.0, 1.0 + 1e-9, 2, 2),
    "pair-borderline-defective": ComplexPair(1.0, 1.0 - 1e-9, 2, 1),
    "pair-dominant": ComplexPair(-2.0, 1.0, 2, 1),
    "pair-subdominant": ComplexPair(-1.0, 2.0, 1, 1),
}


def _reference_verdict(cases):
    """The trichotomy of the ``ddsim.classify`` module docstring."""
    if {"real-zero", "pair-zero"} & set(cases):
        return Verdict.OUT_OF_SCOPE_SINGULAR
    if {"pair-subdominant", "pair-borderline-defective"} & set(cases):
        return Verdict.IMPOSSIBLE
    if "pair-borderline-semisimple" in cases:
        return Verdict.NON_STRICT_ONLY
    return Verdict.STRICT_ACHIEVABLE


@pytest.mark.parametrize("names", [
    names for k in (1, 2) for names in combinations_with_replacement(_CASE_EXAMPLES, k)
], ids="+".join)
def test_case_table_and_evidence_give_one_verdict(names):
    examples = [_CASE_EXAMPLES[name] for name in names]
    structure = EigenStructure(
        tuple(e for e in examples if isinstance(e, RealEigenvalue)),
        tuple(e for e in examples if isinstance(e, ComplexPair)))
    cases, verdict, zero_tol = _cases(structure, _TOL, _SCALE)
    result = _classification(structure, _TOL, _cases(structure, _TOL, _SCALE))
    assert zero_tol == _ZERO_TOL
    assert sorted(case for _, case in cases) == sorted(names)
    assert [(e, f.case) for e, f in zip(structure.real_eigs + structure.complex_pairs,
                                        result.evidence)] == cases
    assert verdict is result.verdict is _reference_verdict(names)
    assert result.borderline_pairs == tuple((e.alpha, e.beta) for name, e in zip(names, examples)
                                            if "borderline" in name)


@pytest.mark.parametrize("call", [
    classify,
    lambda a: build_real_dd_transform(a, Target.STRICT),
    build_complex_dd_transform,
    lambda a: scale_jordan_to_dd(real_jordan_form(a)),
    lambda a: (classify(a), build_real_dd_transform(a, Target.STRICT),
               build_complex_dd_transform(a)),
], ids=["classify", "build_real", "build_complex", "scale_jordan_to_dd",
        "classify_then_builds"])
def test_borderline_band_is_tested_once_per_pair(monkeypatch, call):
    # each call decides each pair's case once, and the builders read it;
    # calls on one matrix share the case table the spectrum keeps; every
    # module that holds the band test counts through it
    calls = Counter()
    is_borderline = ddsim.is_borderline

    def counting(*args):
        calls["is_borderline"] += 1
        return is_borderline(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("ddsim.") and getattr(module, "is_borderline", None) is is_borderline:
            monkeypatch.setattr(module, "is_borderline", counting)
    q = well_conditioned(np.random.default_rng(6), 6)
    a = q @ canonical_from_spectrum([-1.0, 3.0], [(-3.0, 1.0), (2.5, 0.5)]) @ np.linalg.inv(q)
    call(a)
    assert calls["is_borderline"] == 2
