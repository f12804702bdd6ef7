"""One spectral pass per public call, counted at the ``numpy.linalg`` boundary,
and one ``||A||_F`` per call."""

from collections import Counter

import numpy as np
import pytest

from _gen import spectrum_matrix
from ddsim import (Target, build_complex_dd_transform, build_real_dd_transform,
                   classify)
import ddsim.core
from ddsim.cli import main as cli_main

#: SVDs that verify a real or complex certificate: the Jordan basis
#: singular-value ratio and the singularity tests of the Jordan and
#: certificate residuals.
VERIFICATION_SVDS = 3


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
# numerators of the Jordan and certificate residuals when a certificate
# is built.
@pytest.mark.parametrize("call, norms", [
    (classify, 1),
    (lambda a: build_real_dd_transform(a, Target.STRICT), 3),
    (build_complex_dd_transform, 3),
], ids=["classify", "build_real", "build_complex"])
def test_one_scale_per_public_call(separated8, frobenius_calls, call, norms):
    call(separated8)
    assert frobenius_calls["frobenius"] == norms
