import itertools
import re

import numpy as np
import pytest

from _gen import chain_matrix, spectrum_matrix
from ddsim import (Axis, Target, Verdict, build_complex_dd_transform, build_real_dd_transform,
                   certificate_tol, classify, classify_2x2, is_diag_dominant,
                   jordan_residual_tol, real_jordan_form, scale_jordan_to_dd,
                   similarity_residual)
from ddsim.construct import _certified
from ddsim.errors import (IllConditionedJordan, NotAchievable, PreconditionViolated,
                          SingularInput)
from ddsim.spectral import CLUSTER_TOL, _Spectrum


def _check_certificate(a, cert):
    # dominance and residual re-derived from the certificate alone
    assert similarity_residual(a, cert.P, cert.B) == cert.residual
    assert cert.residual <= certificate_tol(a)
    rep = is_diag_dominant(cert.B, Axis.ROW,
                           strict=(cert.target is Target.STRICT), tol=0.0)
    assert rep.satisfied
    eig_a = np.sort_complex(np.linalg.eigvals(a))
    eig_b = np.sort_complex(np.linalg.eigvals(cert.B))
    np.testing.assert_allclose(eig_b, eig_a, atol=1e-6)


def test_real_strict_triangular():
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    cert = build_real_dd_transform(a, Target.STRICT)
    assert cert.dominance.strict
    assert np.all(cert.dominance.margins > 0)
    _check_certificate(a, cert)


def test_real_strict_dominant_pair_is_fixed_point():
    a = np.array([[-2.0, 1.0], [-1.0, -2.0]])
    cert = build_real_dd_transform(a, Target.STRICT)
    np.testing.assert_allclose(cert.B, a, atol=1e-9)
    _check_certificate(a, cert)


def test_real_non_strict_boundary_pair_is_fixed_point():
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    cert = build_real_dd_transform(a, Target.NON_STRICT)
    np.testing.assert_allclose(cert.B, a, atol=1e-9)
    np.testing.assert_array_equal(cert.dominance.margins, [0.0, 0.0])
    _check_certificate(a, cert)


def test_real_strict_defective_block():
    a = np.array([[-2.0, 1.0], [0.0, -2.0]])
    cert = build_real_dd_transform(a, Target.STRICT)
    # slack 2, margin fraction 1/2 -> rho = 2, coupling becomes exactly 1/2
    np.testing.assert_allclose(cert.B, [[-2.0, 0.5], [0.0, -2.0]], atol=1e-12)
    _check_certificate(a, cert)


def test_real_refuses_forbidden_targets():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NotAchievable):
        build_real_dd_transform(rotation, Target.STRICT)
    with pytest.raises(NotAchievable):
        build_real_dd_transform(rotation, Target.NON_STRICT)
    boundary = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(NotAchievable):
        build_real_dd_transform(boundary, Target.STRICT)
    singular = np.diag([0.0, 1.0])
    with pytest.raises(NotAchievable):
        build_real_dd_transform(singular, Target.NON_STRICT)


def test_scale_jordan_no_off_diagonal_mass():
    jf = real_jordan_form(np.diag([-2.0, -3.0]))
    d, b = scale_jordan_to_dd(jf, Target.STRICT)
    np.testing.assert_array_equal(d, np.eye(2))
    np.testing.assert_array_equal(b, jf.J)


def test_scale_jordan_real_chain():
    jf = real_jordan_form(np.array([[-2.0, 1.0], [0.0, -2.0]]))
    d, b = scale_jordan_to_dd(jf, Target.STRICT, margin=0.5)
    np.testing.assert_array_equal(np.diag(d), [1.0, 2.0])
    assert b[0, 1] == 0.5
    np.testing.assert_array_equal(np.diag(b), np.diag(jf.J))


def test_scale_jordan_complex_chain_keeps_cells():
    a = np.array([[-2.0, 1.0, 1.0, 0.0],
                  [-1.0, -2.0, 0.0, 1.0],
                  [0.0, 0.0, -2.0, 1.0],
                  [0.0, 0.0, -1.0, -2.0]])
    jf = real_jordan_form(a)
    d, b = scale_jordan_to_dd(jf, Target.STRICT, margin=0.5)
    dd = np.diag(d)
    # both coordinates of each cell share a weight
    assert dd[0] == dd[1] and dd[2] == dd[3]
    # rotation cells unchanged, couplings shrunk below the cell slack of 1
    np.testing.assert_allclose(b[0:2, 0:2], jf.J[0:2, 0:2], atol=1e-12)
    np.testing.assert_allclose(b[2:4, 2:4], jf.J[2:4, 2:4], atol=1e-12)
    assert 0 < b[0, 2] <= 0.5 * 1.0
    rep = is_diag_dominant(b, Axis.ROW, strict=True, tol=0.0)
    assert rep.strict


def test_scale_jordan_rejects_boundary_for_strict():
    jf = real_jordan_form(np.array([[-1.0, 1.0], [-1.0, -1.0]]))
    with pytest.raises(PreconditionViolated):
        scale_jordan_to_dd(jf, Target.STRICT)


_BOUNDARY = [[-1.0, 1.0], [-1.0, -1.0]]


def test_a_target_value_means_its_member():
    with pytest.raises(NotAchievable):
        build_real_dd_transform(_BOUNDARY, "Strict")
    with pytest.raises(PreconditionViolated):
        scale_jordan_to_dd(real_jordan_form(_BOUNDARY), "Strict")
    cert = build_real_dd_transform(_BOUNDARY, "NonStrict")
    assert cert.target is Target.NON_STRICT
    _check_certificate(np.array(_BOUNDARY), cert)
    d, b = scale_jordan_to_dd(real_jordan_form(_BOUNDARY), "NonStrict")
    d_member, b_member = scale_jordan_to_dd(real_jordan_form(_BOUNDARY), Target.NON_STRICT)
    np.testing.assert_array_equal(d, d_member)
    np.testing.assert_array_equal(b, b_member)


@pytest.mark.parametrize("target", ["strict", True, None])
def test_a_target_that_is_no_member_nor_its_value_is_rejected(target):
    with pytest.raises(ValueError, match="is not a valid Target"):
        build_real_dd_transform(_BOUNDARY, target)
    with pytest.raises(ValueError, match="is not a valid Target"):
        scale_jordan_to_dd(real_jordan_form(_BOUNDARY), target)


def test_scale_jordan_rejects_defective_boundary_chain():
    a = np.array([[-1.0, 1.0, 1.0, 0.0],
                  [-1.0, -1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 1.0],
                  [0.0, 0.0, -1.0, -1.0]])
    jf = real_jordan_form(a)
    with pytest.raises(PreconditionViolated):
        scale_jordan_to_dd(jf, Target.NON_STRICT)


def test_real_random_strict_constructions():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = spectrum_matrix(rng, n, dominant_pairs_only=True)
        cert = build_real_dd_transform(a, Target.STRICT)
        assert np.all(cert.dominance.margins > 0)
        _check_certificate(a, cert)


def test_real_strict_succeeds_on_1000_dominant_pair_spectra():
    # every sampled spectrum has at least one pair with |alpha| > |beta|
    rng = np.random.default_rng(53)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = spectrum_matrix(rng, n, dominant_pairs_only=True, require_pair=True)
        cert = build_real_dd_transform(a, Target.STRICT)
        assert cert.dominance.strict


def test_complex_diagonalises_rotation_pair():
    a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    cert = build_complex_dd_transform(a)
    np.testing.assert_allclose(cert.B, np.diag([-1 + 2j, -1 - 2j]), atol=1e-9)
    _check_certificate(a, cert)


def test_complex_diagonal_input():
    a = np.diag([-2.0, -3.0])
    cert = build_complex_dd_transform(a)
    np.testing.assert_allclose(cert.B, np.diag([-3.0 + 0j, -2.0 + 0j]), atol=1e-12)
    _check_certificate(a, cert)


def test_complex_succeeds_where_real_is_impossible():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cert = build_complex_dd_transform(a)
    np.testing.assert_array_equal(cert.B, np.diag([1j, -1j]))
    assert cert.dominance.strict
    _check_certificate(a, cert)


def test_complex_rejects_singular_input():
    with pytest.raises(SingularInput):
        build_complex_dd_transform(np.diag([0.0, 1.0]))


#: a real cluster straddling the zero band: its member -5e-10 is inside and
#: its mean 1.475e-8 outside; then one whose members are outside, mean inside
@pytest.mark.parametrize("diagonal, verdict", [
    ([-5e-10, 3e-8], Verdict.STRICT_ACHIEVABLE),
    ([-4e-8, 4.1e-8], Verdict.OUT_OF_SCOPE_SINGULAR),
], ids=["member-in-band", "mean-in-band"])
def test_complex_zero_test_reads_what_classify_reads(diagonal, verdict):
    a = np.diag(diagonal)
    assert classify(a).verdict is verdict
    if verdict is Verdict.OUT_OF_SCOPE_SINGULAR:
        with pytest.raises(SingularInput, match="within 1.000e-09 of zero"):
            build_complex_dd_transform(a)
    else:
        _check_certificate(a, build_complex_dd_transform(a))


def test_complex_defective_chain():
    a = np.array([[-1.0, 1.0, 1.0, 0.0],
                  [-1.0, -1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 1.0],
                  [0.0, 0.0, -1.0, -1.0]])
    cert = build_complex_dd_transform(a)
    assert cert.dominance.strict
    _check_certificate(a, cert)


def test_complex_random_nonsingular():
    rng = np.random.default_rng(37)
    count = 0
    while count < 60:
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        eigs = np.linalg.eigvals(a)
        if np.abs(eigs).min() <= 0.05 * (1.0 + np.linalg.norm(a)):
            continue
        count += 1
        cert = build_complex_dd_transform(a)
        assert cert.dominance.strict
        _check_certificate(a, cert)


def test_diagonal_preserved_by_scaling():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = spectrum_matrix(rng, 6, dominant_pairs_only=True)
        jf = real_jordan_form(a)
        _, b = scale_jordan_to_dd(jf, Target.STRICT)
        np.testing.assert_array_equal(np.diag(b), np.diag(jf.J))


@pytest.mark.parametrize("margin", [0.0, 1.0, -1.0, float("nan")])
def test_scale_jordan_rejects_margin_outside_unit_interval(margin):
    jf = real_jordan_form(np.array([[-2.0, 1.0], [0.0, -2.0]]))
    with pytest.raises(ValueError, match="margin"):
        scale_jordan_to_dd(jf, Target.STRICT, margin=margin)


@pytest.mark.parametrize("a, margin, k", [
    # rho = 1e200: rho**1 is finite, rho**2 overflows
    ([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -2.0]], 1e-200, 2),
    # 2 / (margin * slack) overflows to inf
    ([[-2.0, 1.0], [0.0, -2.0]], 1e-309, 1),
    # margin * slack underflows to 0
    ([[-0.25, 1.0], [0.0, -0.25]], 5e-324, 1),
])
def test_scale_jordan_refuses_overflowing_chain_weight(a, margin, k):
    jf = real_jordan_form(np.array(a))
    with pytest.raises(IllConditionedJordan, match=re.escape(f"chain weight rho**{k} ")):
        scale_jordan_to_dd(jf, Target.STRICT, margin=margin)


def _hex(m):
    """Exact bits of a real matrix, one string per row."""
    return [" ".join(float(x).hex() for x in row) for row in m]


def test_real_strict_build_bits_on_transformed_chain():
    # a length-2 chain at -2 in a rotated basis: the weights 1, 2 halve the coupling
    cert = build_real_dd_transform([[-1, 1], [-1, -3]], Target.STRICT)
    assert _hex(cert.P) == [
        "-0x1.6a09e667f3bcbp-1 0x1.6a09e667f3bcdp-1",
        "-0x1.6a09e667f3bccp+1 -0x1.6a09e667f3bccp+1"]
    assert _hex(cert.B) == [
        "-0x1.0000000000000p+1 0x1.0000000000000p-1",
        "0x0.0p+0 -0x1.0000000000000p+1"]


def test_real_non_strict_build_bits_pin_boundary_beside_scaled_chain():
    # a chain at -3 (scaled) next to the boundary pair -1 +/- 1j (pinned)
    a = [[-3, 1, -1, -2], [-1, -1, 2, 0], [1, 0, -2, 1], [-1, -1, 0, -2]]
    cert = build_real_dd_transform(a, Target.NON_STRICT)
    assert _hex(cert.P) == [
        "0x1.3988e1409212ep-52 -0x1.6764ae85ae0f2p-52 0x1.bb67ae8584cabp+0 "
        "0x1.5f127039bfdd9p-52",
        "0x1.bb67ae8584cadp+1 0x1.710f64c63cfc5p-52 0x1.bb67ae8584cabp+1 "
        "0x1.bb67ae8584cabp+1",
        "0x1.3988e14092130p-51 0x1.bb67ae8584ca8p+0 0x1.bb67ae8584caep+0 "
        "0x1.4c4da8bd28f84p-51",
        "0x1.3988e14092139p-52 0x1.83fab8b4d4319p-50 0x1.bb67ae8584cb2p+0 "
        "0x1.bb67ae8584cacp+0"]
    assert _hex(cert.B) == [
        "-0x1.8000000000000p+1 0x1.0000000000000p-1 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 -0x1.8000000000000p+1 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 -0x1.ffffffffffffep-1 0x1.ffffffffffffep-1",
        "0x0.0p+0 0x0.0p+0 -0x1.ffffffffffffep-1 -0x1.ffffffffffffep-1"]


#: The complex ``P`` of the pair chain below when it was ``M P_J``, with
#: ``P_J`` the inverse of the real chain basis and ``M`` the fixed 2x2 cell
#: map ``[[j/2, 1/2], [j/2, -1/2]]``: real parts, then imaginary parts.
_CELL_MAP_P = ([
    "-0x1.d2d62188b5d8dp+0 -0x1.4d9be2e6bce93p-1 -0x1.b830e1ceb7430p-1 -0x1.aa53fb9fe9819p-4",
    "0x1.d2d62188b5d8dp+0 0x1.4d9be2e6bce93p-1 0x1.b830e1ceb7430p-1 0x1.aa53fb9fe9819p-4",
    "-0x1.ed7b6142b4701p+0 0x1.82e6625aba1a1p+0 -0x1.ed7b6142b46e9p+0 -0x1.82e6625aba19ap+0",
    "0x1.ed7b6142b4701p+0 -0x1.82e6625aba1a1p+0 0x1.ed7b6142b46e9p+0 0x1.82e6625aba19ap+0",
], [
    "-0x1.4d9be2e6bcf2dp-1 0x1.d2d62188b5d86p+0 0x1.aa53fb9fe92b4p-4 -0x1.b830e1ceb7438p-1",
    "-0x1.4d9be2e6bcf2dp-1 0x1.d2d62188b5d86p+0 0x1.aa53fb9fe92b4p-4 -0x1.b830e1ceb7438p-1",
    "-0x1.82e6625aba16fp+0 -0x1.ed7b6142b46dap+0 -0x1.82e6625aba17ep+0 0x1.ed7b6142b46e2p+0",
    "-0x1.82e6625aba16fp+0 -0x1.ed7b6142b46dap+0 -0x1.82e6625aba17ep+0 0x1.ed7b6142b46e2p+0",
])


def _unhex(rows):
    return np.array([[float.fromhex(x) for x in row.split()] for row in rows])


def test_complex_build_bits_on_transformed_pair_chain():
    # a length-2 chain of the pair -1 +/- 2j, real verdict impossible
    a = [[2, 4, 3, -2], [-4, 0, -2, -1], [-3, -6, -4, 4], [-6, 1, -4, -2]]
    cert = build_complex_dd_transform(a)
    # each pair's rows of P are (x - y j, x + y j) / sqrt 2 for its rows
    # (x, y) of the real chain inverse, so they are conjugates bit for bit
    assert _hex(cert.P.real) == [
        "-0x1.d7cb5596c6809p-1 0x1.4a1a6c8e38da1p+1 0x1.2d759f3c450d3p-3 "
        "-0x1.3743129a7487bp+0",
        "-0x1.d7cb5596c6809p-1 0x1.4a1a6c8e38da1p+1 0x1.2d759f3c450d3p-3 "
        "-0x1.3743129a7487bp+0",
        "-0x1.11945eb2ebe10p+1 -0x1.5cf1c681fd2cbp+1 -0x1.11945eb2ebe1bp+1 "
        "0x1.5cf1c681fd2d1p+1",
        "-0x1.11945eb2ebe10p+1 -0x1.5cf1c681fd2cbp+1 -0x1.11945eb2ebe1bp+1 "
        "0x1.5cf1c681fd2d1p+1"]
    assert _hex(cert.P.imag) == [
        "0x1.4a1a6c8e38da6p+1 0x1.d7cb5596c672fp-1 0x1.3743129a74876p+0 "
        "0x1.2d759f3c454a3p-3",
        "-0x1.4a1a6c8e38da6p+1 -0x1.d7cb5596c672fp-1 -0x1.3743129a74876p+0 "
        "-0x1.2d759f3c454a3p-3",
        "0x1.5cf1c681fd2e7p+1 -0x1.11945eb2ebe34p+1 0x1.5cf1c681fd2d6p+1 "
        "0x1.11945eb2ebe2fp+1",
        "-0x1.5cf1c681fd2e7p+1 0x1.11945eb2ebe34p+1 -0x1.5cf1c681fd2d6p+1 "
        "-0x1.11945eb2ebe2fp+1"]
    # the basis columns (w, conj w) / sqrt 2 are i / sqrt 2 times the cell
    # map's (-i w, -i conj w), so every pair row of P is -i sqrt 2 times its
    # row under the cell map; B is the same canonical matrix either way
    cell_map_p = _unhex(_CELL_MAP_P[0]) + 1j * _unhex(_CELL_MAP_P[1])
    np.testing.assert_allclose(cert.P, -1j * np.sqrt(2.0) * cell_map_p, rtol=0, atol=1e-14)
    lam = "-0x1.ffffffffffffbp-1"
    assert _hex(cert.B.real) == [
        f"{lam} 0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0",
        f"0x0.0p+0 {lam} 0x0.0p+0 0x1.0000000000000p-1",
        f"0x0.0p+0 0x0.0p+0 {lam} 0x0.0p+0",
        f"0x0.0p+0 0x0.0p+0 0x0.0p+0 {lam}"]
    assert _hex(cert.B.imag) == [
        "0x1.ffffffffffff8p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 -0x1.ffffffffffff8p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x1.ffffffffffff8p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.ffffffffffff8p+0"]


# The certificate residual ||PA - BP||_F = ||D U (P_J A - J P_J)||_F, with
# every weight d_i >= 1 and U unitary, is never below the Jordan residual, so
# the builders need no Jordan check of their own.
BUILDS = [lambda a: build_real_dd_transform(a, Target.STRICT),
          lambda a: build_real_dd_transform(a, Target.NON_STRICT),
          build_complex_dd_transform]


@pytest.mark.parametrize("kind", ["real", "pair"])
@pytest.mark.parametrize("length", [3, 4])
def test_builders_refuse_chains_whose_jordan_residual_is_refused(kind, length):
    rng = np.random.default_rng(7)
    refused = 0
    for _ in range(8):
        a = chain_matrix(rng, kind, length)
        try:
            real_jordan_form(a)
            continue
        except IllConditionedJordan as err:
            if "Jordan residual" not in str(err):
                continue
        refused += 1
        for build in BUILDS:
            with pytest.raises(IllConditionedJordan):
                build(a)
    assert refused >= 4


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_simple_spectrum_certificate_is_its_jordan_form(n):
    # every chain has length 1, so every weight is 1 and the real certificate
    # is the Jordan form bit for bit, residual included
    rng = np.random.default_rng(61 + n)
    for _ in range(10):
        a = spectrum_matrix(rng, n, dominant_pairs_only=True)
        jordan = real_jordan_form(a)
        cert = build_real_dd_transform(a, Target.STRICT)
        assert cert.P.tobytes() == jordan.P.tobytes()
        assert cert.B.tobytes() == jordan.J.tobytes()
        assert cert.residual == jordan.residual


@pytest.mark.parametrize("a, message", [
    (np.diag([0.0, 1.0]), "real Jordan block at eigenvalue 0"),
    (np.array([[-1.0, 2.0], [-2.0, -1.0]]), "has |alpha| < |beta|"),
])
@pytest.mark.parametrize("target", [Target.STRICT, Target.NON_STRICT])
def test_scale_jordan_rejects_zero_block_and_subdominant_pair(a, message, target):
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        scale_jordan_to_dd(real_jordan_form(a), target)


LARGE_SCALES = [1e154, 1e160, 1e300]


@pytest.mark.parametrize("c", LARGE_SCALES)
@pytest.mark.parametrize("family", ["diag", "pair"])
def test_large_entries_keep_finite_thresholds(c, family):
    # np.linalg.norm(a) overflows here; an infinite scale would put every
    # eigenvalue in the zero band and merge the pair into one real cluster
    a = (np.diag([c, -2.0 * c]) if family == "diag"
         else c * np.array([[-2.0, 1.0], [-1.0, -2.0]]))
    assert classify(a).verdict is Verdict.STRICT_ACHIEVABLE
    assert np.isfinite(certificate_tol(a))
    _check_certificate(a, build_real_dd_transform(a, Target.STRICT))
    _check_certificate(a, build_complex_dd_transform(a))


@pytest.mark.parametrize("call", [
    classify,
    classify_2x2,
    lambda a: build_real_dd_transform(a, Target.STRICT),
    build_complex_dd_transform,
    lambda a: similarity_residual(a, np.eye(2), 0.5 * a),
    jordan_residual_tol,
], ids=["classify", "classify_2x2", "build_real", "build_complex", "similarity_residual",
        "jordan_residual_tol"])
def test_overflowing_frobenius_norm_is_refused(call):
    # finite entries whose ||A||_F = 2e308 exceeds the largest float: an
    # infinite scale once read this nonsingular matrix as OutOfScopeSingular
    # and accepted (A, I, A / 2) as similar
    a = 1e308 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="^matrix Frobenius norm overflows the largest float$"):
        call(a)


@pytest.mark.parametrize("a", [
    np.diag([-6e307] * 3),
    np.kron(np.eye(3), 3.1e307 * np.array([[-2.0, 1.0], [-1.0, -2.0]])),
], ids=["real", "pair"])
def test_repeated_cluster_whose_sum_overflows_is_certified(a):
    # ||A||_F is finite, but the sum of the three members is not: the mean
    # is taken from the members divided by 4, with no overflow warning
    assert classify(a).verdict is Verdict.STRICT_ACHIEVABLE
    for target in Target:
        _check_certificate(a, build_real_dd_transform(a, target))
    _check_certificate(a, build_complex_dd_transform(a))


@pytest.mark.parametrize("call", [
    real_jordan_form,
    lambda a: build_real_dd_transform(a, Target.STRICT),
    build_complex_dd_transform,
], ids=["real_jordan_form", "build_real", "build_complex"])
def test_large_chain_is_refused_with_a_finite_ratio(call):
    # the chain's top vector has a norm near 1e160, whose square overflows:
    # the chain is still normalised (with no overflow warning, which the
    # suite turns into an error) and its basis refused as numerically singular
    a = 1e160 * np.array([[-2.0, 1.0], [0.0, -2.0]])
    with pytest.raises(IllConditionedJordan,
                       match=re.escape("Jordan basis is numerically singular "
                                       "(sv ratio 1.000e-160 / 1.000e+00)")):
        call(a)


@pytest.mark.parametrize("c, k", [(1e120, 3), (1e155, 2), (1e160, 2)])
@pytest.mark.parametrize("call", [
    real_jordan_form,
    lambda a: build_real_dd_transform(a, Target.STRICT),
    build_complex_dd_transform,
], ids=["real_jordan_form", "build_real", "build_complex"])
def test_overflowing_filtration_power_is_refused_typed(call, c, k):
    # classify needs only the first power of A - lambda I; the chains need
    # its k-th, which overflows: a typed refusal with no overflow warning
    # (the suite turns a RuntimeWarning into an error)
    a = c * np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -2.0]])
    assert classify(a).verdict is Verdict.STRICT_ACHIEVABLE
    message = f"power {k} of A - lambda I overflows near eigenvalue "
    # the refused chain build keeps nothing, and a second call ends as the first
    ends = []
    for _ in range(2):
        with pytest.raises(IllConditionedJordan, match=re.escape(message)) as refusal:
            call(a)
        ends.append((type(refusal.value), str(refusal.value)))
    assert ends[0] == ends[1]


#: Every [[a, b], [c, d]] with |a|, |b|, |c| <= 6 and one double eigenvalue
#: (a + d) / 2, nonzero and defective: (a - d)^2 + 4bc = 0, so |a - d| <= 12
_INTEGER_DEFECTIVE = [
    np.array([[a, b], [c, d]], dtype=float)
    for a, b, c in itertools.product(range(-6, 7), repeat=3) for d in range(a - 12, a + 13)
    if (a - d) ** 2 + 4 * b * c == 0 and (b, c) != (0, 0) and a + d != 0]


def test_integer_defective_double_eigenvalues_are_certified():
    # e.g. [[-4, 2], [-2, 0]], and [[-5, 4], [-4, 3]], whose eig returns
    # -1 +/- 3e-8j: a chain alone in its matrix, whose m^2 is all rounding
    assert len(_INTEGER_DEFECTIVE) == 672
    for a in _INTEGER_DEFECTIVE:
        assert classify(a).verdict is Verdict.STRICT_ACHIEVABLE, a
        _check_certificate(a, build_real_dd_transform(a, Target.STRICT))
        _check_certificate(a, build_complex_dd_transform(a))


def _chain_beside(length, gap):
    """An upper-triangular Jordan chain at -2 and a simple eigenvalue -2 + gap."""
    a = np.diag([-2.0] * length + [-2.0 + gap])
    a[np.arange(length - 1), np.arange(1, length)] = 1.0
    return a


@pytest.mark.parametrize("length, gap, c", [
    (2, 1e-5, 1.0), (2, -1e-5, 1.0), (2, 1e-4, 1.0), (2, 1e-5, 1e9), (2, -1e-5, 1e9),
    (3, 3e-4, 1.0), (3, 1e-3, 1.0), (3, -1e-3, 1.0)])
@pytest.mark.parametrize("reverse", [False, True])
def test_chain_beside_a_near_eigenvalue_is_built(length, gap, c, reverse):
    # eig returns the diagonal exactly, so the chain's cluster has radius 0
    # and the cut of m^k is the rounding-size one, far below gap^k.  A cut of
    # RANK_RTOL * ||m||^k once read the near eigenvalue into the chain's
    # kernel ("nullity 3 of power 2 exceeds the cluster multiplicity 2")
    a = c * _chain_beside(length, gap)
    if reverse:  # the similarity by the reversal permutation
        a = a[::-1, ::-1].copy()
    sizes = sorted(b.size for b in real_jordan_form(a).blocks)
    assert sizes == [1, length]
    _check_certificate(a, build_real_dd_transform(a, Target.STRICT))
    _check_certificate(a, build_complex_dd_transform(a))


def test_certificate_that_misses_dominance_is_refused():
    # a slack of 100 weights the chain by rho = 2, which leaves the coupling
    # at 1/2, above the row dominance 0.1 of [[-0.1, 1], [0, -0.1]]
    spectrum = _Spectrum(np.array([[-0.1, 1.0], [0.0, -0.1]]), CLUSTER_TOL)
    with pytest.raises(IllConditionedJordan) as info:
        _certified(spectrum, Target.STRICT, [100.0], "missed the target")
    assert str(info.value) == "missed the target"
    # the slack the case table gives, 0.1, is met
    assert _certified(spectrum, Target.STRICT, [0.1], "missed the target").dominance.strict
