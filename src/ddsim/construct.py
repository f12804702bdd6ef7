"""Explicit similarity transforms onto diagonally dominant matrices.

The real path rides on the real Jordan form: a positive diagonal matrix with
per-chain geometric weights shrinks every coupling entry until each row keeps
a prescribed fraction of its dominance slack.  This module picks only those
weights; :func:`ddsim.spectral._assemble_jordan` writes the scaled matrix in
one pass.  The complex path takes its chain basis from the complex chain
vectors, so each rotation-like cell is diagonal and any nonsingular real
matrix ends up strictly dominant in the magnitude sense.  Each certificate is
verified once: every weight is >= 1 and the complex basis is a unitary image
of the real one, so its residual ``||D U (P_J A - J P_J)||_F`` is never below
the Jordan residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import BORDERLINE_TOL, Verdict, _cases, _zero_tol, is_borderline
from .core import Axis, DominanceReport, _dominance, _tolerance, as_matrix
from .errors import IllConditionedJordan, NotAchievable, PreconditionViolated, SingularInput
from .spectral import (CLUSTER_TOL, RealJordanBlock, RealJordanForm, _assemble_jordan,
                       _checked_residual, _forget_on_failure, _spectrum,
                       jordan_residual_tol)

#: Fraction of the available dominance slack consumed by coupling entries.
MARGIN_FRACTION = 0.5

#: Acceptance threshold for certificate similarity residuals: the Jordan one.
certificate_tol = jordan_residual_tol


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


def _block_slack(block, target, borderline_tol):
    """Dominance slack of the rows of one block, or None for a boundary cell."""
    if isinstance(block, RealJordanBlock):
        if block.eigenvalue == 0.0:
            raise PreconditionViolated(
                f"real Jordan block at eigenvalue 0 (size {block.size})",
                offender=block)
        return abs(block.eigenvalue)
    if is_borderline(block.alpha, block.beta, borderline_tol):
        if target is Target.STRICT:
            raise PreconditionViolated(
                f"pair ({block.alpha:.6g}, {block.beta:.6g}) sits on the "
                "|alpha| = |beta| boundary; strict dominance is unreachable",
                offender=block)
        if block.chain_length > 1:
            raise PreconditionViolated(
                f"boundary pair ({block.alpha:.6g}, {block.beta:.6g}) is "
                f"defective (chain length {block.chain_length})",
                offender=block)
        return None
    slack = abs(block.alpha) - abs(block.beta)
    if slack <= 0.0:
        raise PreconditionViolated(
            f"pair ({block.alpha:.6g}, {block.beta:.6g}) has |alpha| < |beta|",
            offender=block)
    return slack


def _scaled(blocks, n, slacks, margin, diagonal_cells=False):
    """Weights ``d`` and ``diag(d) J diag(d)^{-1}`` for the ``n x n``
    canonical matrix ``J`` of ``blocks``, given one slack per block: the
    chain ratio ``rho`` for :func:`_assemble_jordan`, which writes both in
    one pass.

    Coordinate k of a chain gets weight ``rho**k``; length-1 chains, whose
    slacks are never read, stay at weight 1.  Each unit coupling then shrinks
    to at most ``margin`` times the smallest slack among the longer chains:
    ``rho = max(2, 2 / (margin * min(slacks)))``, unread when there are none.
    A block whose slack is None is pinned at |alpha| = |beta| (``beta = |alpha|``).
    Raises :class:`IllConditionedJordan` when a weight is not a finite float.
    """
    lengths = [b.size if isinstance(b, RealJordanBlock) else b.chain_length for b in blocks]
    floor = margin * min((s for s, length in zip(slacks, lengths) if length > 1),
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
            f"chain weight rho**{top} overflows (rho = {rho:.3e}); the margin "
            "or the smallest chain slack is too small")
    blocks = [b if s is not None else replace(b, beta=abs(b.alpha))
              for b, s in zip(blocks, slacks)]
    return _assemble_jordan(blocks, n, diagonal_cells, rho)


def _certified(spectrum, target, slack, miss_message, diagonal_cells=False):
    """The certificate ``B = P A P^{-1}`` (``A`` is ``spectrum.a``) with
    ``P = diag(d) inv(Q)`` for the chain basis ``Q`` and ``(d, B)`` from
    :func:`_scaled` at ``slack(block)`` per block, once the residual is within
    ``certificate_tol`` and ``B`` meets ``target``; otherwise
    :class:`IllConditionedJordan`, with ``miss_message`` for a missed target."""
    blocks, p_j = spectrum.chain_inverse(diagonal_cells)
    d, b = _scaled(blocks, len(p_j), list(map(slack, blocks)), MARGIN_FRACTION, diagonal_cells)
    # with diagonal cells P is complex also when every eigenvalue is real
    p = np.multiply(d[:, None], p_j, dtype=b.dtype)
    residual = _checked_residual(spectrum.a, p, b, spectrum.scale, "certificate")
    dominance = _dominance(b, Axis.ROW, target is Target.STRICT, 0.0)
    if not dominance.satisfied:
        raise IllConditionedJordan(miss_message)
    return SimilarityCertificate(P=p, B=b, dominance=dominance,
                                 residual=residual, target=target)


def scale_jordan_to_dd(jordan: RealJordanForm, target: Target = Target.STRICT,
                       margin: float = MARGIN_FRACTION,
                       borderline_tol: float = BORDERLINE_TOL):
    """Positive diagonal ``D`` such that ``B = D J D^{-1}`` meets ``target``.

    Returns ``(D, B)``.  Every coupling entry (the 1s and identity cells
    above the block diagonals) shrinks to at most ``margin`` times the
    smallest row slack among the chains being scaled; rotation cells keep
    both coordinates equally weighted so their entries are untouched.  For a
    non-strict target, cells on the ``|alpha| = |beta|`` boundary are pinned
    at exact equality and receive no scaling.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    _tolerance(borderline_tol, "borderline_tol")
    slacks = [_block_slack(b, target, borderline_tol) for b in jordan.blocks]
    d, b_mat = _scaled(jordan.blocks, sum(b.dim for b in jordan.blocks), slacks, margin)
    return np.diag(d), b_mat


@_forget_on_failure
def build_real_dd_transform(a, target: Target = Target.STRICT,
                            tol: float = BORDERLINE_TOL,
                            cluster_tol: float = CLUSTER_TOL) -> SimilarityCertificate:
    """Real ``P`` with ``B = P A P^{-1}`` diagonally dominant, when possible.

    Raises :class:`NotAchievable` when the classification rules the target
    out, before any chain is built, and propagates Jordan failures.  The
    verdict and the chain basis come from one spectral pass.  Couplings
    shrink to ``MARGIN_FRACTION`` of the chain slack.  The returned
    certificate is checked independently of the construction: dominance is
    recomputed from ``B`` and the residual from the triple.
    """
    a = as_matrix(a)
    _tolerance(tol)
    spectrum = _spectrum(a, cluster_tol, vectors=True)
    _, verdict = _cases(spectrum.structure(), tol, _zero_tol(tol, spectrum.scale))
    allowed = {Target.STRICT: (Verdict.STRICT_ACHIEVABLE,),
               Target.NON_STRICT: (Verdict.STRICT_ACHIEVABLE,
                                   Verdict.NON_STRICT_ONLY)}[target]
    if verdict not in allowed:
        raise NotAchievable(
            f"verdict {verdict.value} does not permit target {target.value}",
            classification=verdict)

    return _certified(spectrum, target, lambda b: _block_slack(b, target, tol),
                      "constructed matrix misses the dominance target; the input "
                      "is too close to a classification boundary")


@_forget_on_failure
def build_complex_dd_transform(a, tol: float = BORDERLINE_TOL,
                               cluster_tol: float = CLUSTER_TOL) -> SimilarityCertificate:
    """Complex ``P`` with ``B = P A P^{-1}`` strictly dominant in magnitude.

    Works for every nonsingular real input, including matrices whose real
    verdict is impossible: each rotation-like cell is diagonalised over the
    complex numbers, then chain couplings are shrunk geometrically to
    ``MARGIN_FRACTION`` of the eigenvalue modulus.  Raises
    :class:`SingularInput` when, as in :func:`classify`, a cluster's
    representative (its modulus for a pair) is within the zero band.
    """
    a = as_matrix(a)
    _tolerance(tol)
    spectrum = _spectrum(a, cluster_tol, vectors=True)
    zero_tol = _zero_tol(tol, spectrum.scale)
    if min(abs(c.rep) for clusters in spectrum.clusters for c in clusters) <= zero_tol:
        raise SingularInput(
            f"an eigenvalue lies within {zero_tol:.3e} of zero")

    return _certified(spectrum, Target.STRICT,
                      lambda b: (abs(b.eigenvalue) if isinstance(b, RealJordanBlock)
                                 else float(np.hypot(b.alpha, b.beta))),
                      "complex construction missed strict dominance; eigenvalues "
                      "are too close to zero for the working precision",
                      diagonal_cells=True)
