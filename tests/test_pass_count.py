"""One spectral pass per public call, counted at the ``numpy.linalg`` boundary,
one ``||A||_F`` per call, and one validation of ``A`` per certificate build."""

from collections import Counter

import numpy as np
import pytest

from _gen import spectrum_matrix
from ddsim import (Target, build_complex_dd_transform, build_real_dd_transform,
                   classify)
import ddsim.core
from ddsim.cli import main as cli_main

#: SVDs that verify a real or complex certificate: the chain basis
#: singular-value ratio and the singularity test of the certificate residual.
VERIFICATION_SVDS = 2


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of eigen-solves and SVDs; a 2-norm counts as one SVD."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name != "norm":
                calls[name] += 1
            elif kwargs.get("ord", args[1] if len(args) > 1 else None) in (2, -2, "nuc"):
                calls["svd"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eig", "eigvals", "svd", "norm"):
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
    assert linalg_calls["eig"] + linalg_calls["eigvals"] == 1
    assert linalg_calls["svd"] == 0


def test_real_build_is_one_eigen_solve(separated8, linalg_calls):
    build_real_dd_transform(separated8, Target.STRICT)
    assert linalg_calls["eig"] + linalg_calls["eigvals"] == 1
    assert linalg_calls["svd"] == VERIFICATION_SVDS


def test_complex_build_is_one_eigen_solve(separated8, linalg_calls):
    build_complex_dd_transform(separated8)
    assert linalg_calls["eig"] + linalg_calls["eigvals"] == 1
    assert linalg_calls["svd"] == VERIFICATION_SVDS


def test_cli_classify_is_one_eigen_solve(tmp_path, capsys, separated8, linalg_calls):
    path = tmp_path / "a.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in separated8) + "\n")
    assert cli_main(["classify", "--input", str(path)]) == 0
    capsys.readouterr()
    assert linalg_calls["eig"] + linalg_calls["eigvals"] == 1
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


@pytest.mark.parametrize("build", [
    lambda a: build_real_dd_transform(a, Target.STRICT),
    build_complex_dd_transform,
], ids=["build_real", "build_complex"])
def test_builder_validates_only_its_input(separated8, square_calls, build):
    # the P, J and B the builder makes are checked by the certificate
    # residual and dominance, not validated again as inputs
    build(separated8)
    assert square_calls["square"] == 1
