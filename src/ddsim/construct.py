"""Explicit similarity transforms onto diagonally dominant matrices.

The real path rides on the real Jordan form: a positive diagonal matrix with
per-chain geometric weights shrinks every coupling entry until each row keeps
a prescribed fraction of its dominance slack.  This module picks only those
weights; :func:`ddsim.spectral._assemble_jordan` writes the scaled matrix in
one pass.  The complex path takes its chain basis from the complex chain
vectors, so each rotation-like cell is diagonal and any nonsingular real
matrix ends up strictly dominant in the magnitude sense.  That basis is a
unitary image of the real one, so its inverse is the real inverse the
spectrum keeps, with each pair's rows mapped by
:func:`ddsim.spectral._complex_inverse`: both paths share one basis test and
one inversion.  Each certificate is verified once, on its own: every weight
is >= 1 and the map is unitary, so its residual ``||D U (P_J A - J P_J)||_F``
is never below the Jordan residual.  Its singularity test is an SVD only
when ``kappa * max(d) / min(d)``, for the basis condition bound ``kappa``,
cannot prove it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import _CASES, BORDERLINE_TOL, Verdict, _case, _kept_cases, _worst
from .core import Axis, DominanceReport, _dominance, _tolerance, as_matrix
from .errors import IllConditionedJordan, NotAchievable, PreconditionViolated, SingularInput
from .spectral import (CLUSTER_TOL, ComplexPair, RealEigenvalue, RealJordanBlock,
                       RealJordanForm, _assemble_jordan, _checked_residual, _complex_inverse,
                       _spectrum)

#: Fraction of the available dominance slack consumed by coupling entries.
MARGIN_FRACTION = 0.5


class Target(enum.Enum):
    STRICT = "Strict"
    NON_STRICT = "NonStrict"


@dataclass(frozen=True)
class SimilarityCertificate:
    """A verified transform: ``B = P A P^{-1}`` meeting the dominance target.

    ``P`` and ``B`` are real for the real path and complex for the complex
    path; ``dominance`` is computed from ``B`` alone and ``residual`` from
    the triple, independently of how the transform was built.
    """

    P: np.ndarray
    B: np.ndarray
    dominance: DominanceReport
    residual: float
    target: Target


#: The refusal of a block by :func:`scale_jordan_to_dd`, by case; "strict-borderline" is any
#: boundary pair under the strict target.
_REFUSALS = {
    "real-zero": "real Jordan block at eigenvalue 0 (size {b.size})",
    "strict-borderline": "pair ({b.alpha:.6g}, {b.beta:.6g}) sits on the |alpha| = |beta| "
                         "boundary; strict dominance is unreachable",
    "pair-borderline-defective": "boundary pair ({b.alpha:.6g}, {b.beta:.6g}) is defective "
                                 "(chain length {b.chain_length})",
    "pair-subdominant": "pair ({b.alpha:.6g}, {b.beta:.6g}) has |alpha| < |beta|",
}


def _scaled(blocks, n, slacks, diagonal_cells=False):
    """Weights ``d`` and ``diag(d) J diag(d)^{-1}`` for the ``n x n``
    canonical matrix ``J`` of ``blocks``, given one slack per block: the
    chain ratio ``rho`` for :func:`_assemble_jordan`, which writes both in
    one pass.

    Coordinate k of a chain gets weight ``rho**k``; length-1 chains, whose
    slacks are never read, stay at weight 1.  Each unit coupling then shrinks
    to at most ``MARGIN_FRACTION`` times the smallest slack among the longer
    chains: ``rho = max(2, 2 / (MARGIN_FRACTION * min(slacks)))``, unread
    when there are none.
    A block whose slack is None is pinned at |alpha| = |beta| (``beta = |alpha|``).
    Raises :class:`IllConditionedJordan` when a weight is not a finite float.
    """
    lengths = [b.size if isinstance(b, RealJordanBlock) else b.chain_length for b in blocks]
    floor = MARGIN_FRACTION * min((s for s, length in zip(slacks, lengths) if length > 1),
                                  default=math.inf)
    # a floor that underflows to 0 leaves no finite rho
    rho = max(2.0, 2.0 / floor) if floor > 0.0 else math.inf
    # rho >= 1, so the top weight of the longest chain is the largest
    top = max(lengths, default=1) - 1
    try:
        finite = math.isfinite(rho ** top)
    except OverflowError:
        finite = False
    if not finite:
        raise IllConditionedJordan(
            f"chain weight rho**{top} overflows (rho = {rho:.3e}); the smallest "
            "chain slack is too small")
    blocks = [b if s is not None else replace(b, beta=abs(b.alpha))
              for b, s in zip(blocks, slacks)]
    return _assemble_jordan(blocks, n, diagonal_cells, rho)


def _certified(spectrum, target, slacks, miss_message, diagonal_cells=False):
    """The certificate ``B = P A P^{-1}`` of ``A = spectrum.a``: ``P = diag(d) inv(Q)`` for
    the chain basis ``Q`` of ``spectrum.basis``, or with ``diagonal_cells`` for its complex
    image (:func:`_complex_inverse`), and ``(d, B)`` from :func:`_scaled`, each chain at the
    entry of ``slacks`` of the cluster that owns it; :class:`IllConditionedJordan` unless
    the residual is within ``jordan_residual_tol`` and ``B`` meets ``target`` (``miss_message``
    for a miss)."""
    blocks, p_j, owners, kappa = spectrum.basis
    p_j = _complex_inverse(blocks, p_j) if diagonal_cells else p_j
    d, b = _scaled(blocks, len(p_j), [slacks[i] for i in owners], diagonal_cells)
    p = d[:, None] * p_j
    # cond_2(P) <= cond_2(diag(d)) cond_2(U^H inv(Q)) <= max(d) / min(d) * kappa, U unitary
    residual = _checked_residual(spectrum.a, p, b, spectrum.scale, "certificate",
                                 kappa * float(np.maximum.reduce(d) / np.minimum.reduce(d)))
    dominance = _dominance(b, Axis.ROW, 0.0)
    if not (dominance.strict if target is Target.STRICT else dominance.non_strict):
        raise IllConditionedJordan(miss_message)
    return SimilarityCertificate(P=p, B=b, dominance=dominance,
                                 residual=residual, target=target)


def scale_jordan_to_dd(jordan: RealJordanForm, target: Target = Target.STRICT):
    """Positive diagonal ``D`` such that ``B = D J D^{-1}`` meets ``target``,
    a :class:`Target` or its value.

    Returns ``(D, B)``.  Every coupling entry (the 1s and identity cells
    above the block diagonals) shrinks to at most ``MARGIN_FRACTION`` times
    the smallest row slack among the chains being scaled; rotation cells keep
    both coordinates equally weighted so their entries are untouched.  For a
    non-strict target, cells on the ``|alpha| = |beta|`` boundary are pinned
    at exact equality and receive no scaling.  Each block is decided as one
    chain by the case function of :mod:`ddsim.classify`, at the builders'
    default band ``BORDERLINE_TOL``: a real block against zero band 0, a pair
    block (defective when its chain is longer than one cell) against none,
    since the only pair at zero, ``(0, 0)``, is borderline.
    """
    target = Target(target)
    slacks = []
    for b in jordan.blocks:
        real = isinstance(b, RealJordanBlock)
        e = (RealEigenvalue(b.eigenvalue, b.size, 1) if real
             else ComplexPair(b.alpha, b.beta, b.chain_length, min(b.chain_length, 1)))
        case = _case(e, BORDERLINE_TOL, 0.0 if real else -math.inf)
        key = "strict-borderline" if target is Target.STRICT and "borderline" in case else case
        if key in _REFUSALS:
            raise PreconditionViolated(_REFUSALS[key].format(b=b))
        slacks.append(_CASES[case].slack(e))
    d, b_mat = _scaled(jordan.blocks, sum(b.dim for b in jordan.blocks), slacks)
    return np.diag(d), b_mat


def _in_scope(a, tol, cluster_tol):
    """``(spectrum, cases, verdict)`` of ``a`` from the case table of :func:`classify`
    at ``tol``, the prologue of both builders; raises :class:`SingularInput` when the
    verdict is ``OutOfScopeSingular``."""
    a, tol = as_matrix(a), _tolerance(tol)
    spectrum = _spectrum(a, cluster_tol)
    cases, verdict, zero_tol = _kept_cases(spectrum, tol)
    if verdict is Verdict.OUT_OF_SCOPE_SINGULAR:
        raise SingularInput(f"an eigenvalue lies within {zero_tol:.3e} of zero")
    return spectrum, cases, verdict


def build_real_dd_transform(a, target: Target = Target.STRICT,
                            tol: float = BORDERLINE_TOL,
                            cluster_tol: float = CLUSTER_TOL) -> SimilarityCertificate:
    """Real ``P`` with ``B = P A P^{-1}`` diagonally dominant, when possible;
    ``target`` is a :class:`Target` or its value.

    Raises :class:`SingularInput` as :func:`build_complex_dd_transform` does,
    and :class:`NotAchievable` when the case table of :func:`classify` rules
    the target out, both before any chain is built, and propagates Jordan
    failures.  Couplings shrink to ``MARGIN_FRACTION`` of the slack the table
    gives each cluster.  The returned certificate is checked independently of
    the construction: dominance is recomputed from ``B`` and the residual
    from the triple.
    """
    target = Target(target)
    spectrum, cases, verdict = _in_scope(a, tol, cluster_tol)
    own = Verdict.STRICT_ACHIEVABLE if target is Target.STRICT else Verdict.NON_STRICT_ONLY
    if _worst((verdict, own)) is not own:
        raise NotAchievable(f"verdict {verdict.value} does not permit target {target.value}")

    return _certified(spectrum, target, [_CASES[case].slack(e) for e, case in cases],
                      "constructed matrix misses the dominance target; the input "
                      "is too close to a classification boundary")


def build_complex_dd_transform(a, tol: float = BORDERLINE_TOL,
                               cluster_tol: float = CLUSTER_TOL) -> SimilarityCertificate:
    """Complex ``P`` with ``B = P A P^{-1}`` strictly dominant in magnitude.

    Works for every nonsingular real input, including matrices whose real
    verdict is impossible: each rotation-like cell is diagonalised over the
    complex numbers, then chain couplings are shrunk geometrically to
    ``MARGIN_FRACTION`` of the eigenvalue modulus.  Raises
    :class:`SingularInput` when the case table of :func:`classify` gives
    ``OutOfScopeSingular``; each cluster's slack is its ``|lambda|``.
    """
    spectrum, cases, _ = _in_scope(a, tol, cluster_tol)
    return _certified(spectrum, Target.STRICT,
                      [e.modulus if isinstance(e, ComplexPair) else abs(e.value)
                       for e, _ in cases],
                      "complex construction missed strict dominance; eigenvalues "
                      "are too close to zero for the working precision",
                      diagonal_cells=True)
