"""The singular-value ratio tests of the Jordan basis and of each
certificate, proven by the condition bound ``||Q||_F ||inv(Q)||_F`` where it
reaches, and taken as an SVD everywhere else."""

import numpy as np
import pytest

from _gen import spectrum_matrix, workloads
from ddsim import (CLUSTER_TOL, Target, build_complex_dd_transform, build_real_dd_transform,
                   real_jordan_form)
import ddsim.core
from ddsim.core import SINGULAR_SV_RTOL, _PROVEN_COND, as_matrix
from ddsim.errors import IllConditionedJordan, SingularInput
from ddsim.spectral import _forget, _Spectrum
from test_pass_count import counted, linalg_calls  # noqa: F401 (a fixture)

#: A separated spectrum whose basis and certificates the bound proves.
_SEPARATED = spectrum_matrix(np.random.default_rng(7), 6)


@pytest.fixture(autouse=True)
def empty_slot():
    _forget()


def _ratio_test(args):
    """A ratio test asked for, as ``(dtype, shape, bytes of m, bound)``."""
    m = args["m"]
    return m.dtype.str, m.shape, m.tobytes(), args["cond_bound"]


@pytest.mark.parametrize("pool", ["separated", "defective"])
@pytest.mark.parametrize("seed", [1, 3, 7919])
def test_every_skipped_test_passes_with_room(tmp_path, pool, seed):
    # each op of the benchmark pool, plus the Jordan form: a test the bound
    # skips is one the SVD passes, with its ratio 1000x above the threshold
    pools = workloads()
    make, call, _ = pools.WORKLOADS[pool]
    with counted(ddsim.core._singular_ratio, key=_ratio_test) as asked:
        for item in make(np.random.default_rng(seed), tmp_path):
            for run in (call, lambda item: real_jordan_form(item["a"])):
                _forget()
                try:
                    run(item)
                except pools.NUMERICAL_ERRORS:
                    pass
    skipped = [np.frombuffer(data, dtype).reshape(shape)
               for dtype, shape, data, bound in asked if bound <= _PROVEN_COND]
    assert skipped
    if pool == "separated":
        # every basis and certificate of a separated spectrum is proven
        assert len(skipped) == len(asked)
    for m in skipped:
        assert ddsim.core._singular_ratio(m) is None
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[-1] >= 1e3 * SINGULAR_SV_RTOL * sv[0]


#: How each call refuses ``c * [[-2, 1], [0, -2]]``: the chain basis is not
#: scale-free, and at 1e-13 the builders' zero band refuses first.
_SINGULAR_BASIS = "Jordan basis is numerically singular (sv ratio {} / 1.000e+00)"
_SCALED_CHAIN_REFUSALS = {
    1e-13: {"jordan": (IllConditionedJordan, _SINGULAR_BASIS.format("1.000e-13")),
            "builders": (SingularInput, "an eigenvalue lies within 1.000e-09 of zero")},
    3e12: {"jordan": (IllConditionedJordan, _SINGULAR_BASIS.format("3.333e-13")),
           "builders": (IllConditionedJordan, _SINGULAR_BASIS.format("3.333e-13"))},
}


@pytest.mark.parametrize("c", sorted(_SCALED_CHAIN_REFUSALS))
@pytest.mark.parametrize("name, call", [
    ("jordan", real_jordan_form),
    ("builders", lambda a: build_real_dd_transform(a, Target.STRICT)),
    ("builders", lambda a: build_real_dd_transform(a, Target.NON_STRICT)),
    ("builders", build_complex_dd_transform),
], ids=["real_jordan_form", "build_real_strict", "build_real_non_strict", "build_complex"])
def test_scaled_chain_refusals_are_unchanged(c, name, call):
    kind, message = _SCALED_CHAIN_REFUSALS[c][name]
    with pytest.raises(kind) as refusal:
        call(c * np.array([[-2.0, 1.0], [0.0, -2.0]]))
    assert str(refusal.value) == message


def _raising_inv(monkeypatch, calls):
    """Make ``np.linalg.inv`` raise as on an exactly singular matrix."""
    def raising(*args, **kwargs):
        calls["inv"] += 1
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", raising)


def test_singular_basis_is_refused_by_its_svd(monkeypatch, linalg_calls):
    # inv raises: the SVD decides, and a singular basis gets its message
    _raising_inv(monkeypatch, linalg_calls)
    spectrum = _Spectrum(as_matrix(3e12 * np.array([[-2.0, 1.0], [0.0, -2.0]])), CLUSTER_TOL)
    with pytest.raises(IllConditionedJordan,
                       match=r"^Jordan basis is numerically singular \(sv ratio 3.333e-13"):
        spectrum.basis
    assert (linalg_calls["ratio svd"], linalg_calls["inv"]) == (1, 1)


def test_basis_that_passes_its_svd_raises_as_inv_does(monkeypatch, linalg_calls):
    # inv raises on a basis that passes the ratio test: the LinAlgError
    # reaches the caller, as it did when the SVD came first
    _raising_inv(monkeypatch, linalg_calls)
    spectrum = _Spectrum(as_matrix(_SEPARATED), CLUSTER_TOL)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        spectrum.basis
    assert (linalg_calls["ratio svd"], linalg_calls["inv"]) == (1, 2)


def test_overflowing_inverse_falls_back_to_the_svd(linalg_calls):
    # the basis [[1e-310, 0], [0, 1]] of a subnormal chain inverts to inf
    a = 1e-310 * np.array([[-2.0, 1.0], [0.0, -2.0]])
    with pytest.raises(IllConditionedJordan) as refusal:
        real_jordan_form(a)
    assert str(refusal.value) == _SINGULAR_BASIS.format("1.000e-310")
    assert (linalg_calls["ratio svd"], linalg_calls["inv"]) == (1, 1)


def test_overflowed_inverse_of_a_sound_basis_keeps_every_svd(monkeypatch, linalg_calls):
    # an inverse with an overflowed entry gives kappa = inf, so the basis
    # ratio test is an SVD of Q, which passes
    inv = np.linalg.inv

    def overflowed(q):
        x = inv(q)
        x[0, 0] = np.inf
        return x

    monkeypatch.setattr(np.linalg, "inv", overflowed)
    spectrum = _Spectrum(as_matrix(_SEPARATED), CLUSTER_TOL)
    *_, bound = spectrum.basis
    assert bound == np.inf
    assert linalg_calls["ratio svd"] == 1

