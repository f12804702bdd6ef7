"""Explicit similarity transforms onto diagonally dominant matrices.

The real path rides on the real Jordan form: a positive diagonal matrix with
per-chain geometric weights shrinks every coupling entry until each row keeps
a prescribed fraction of its dominance slack.  The complex path additionally
diagonalises each rotation-like cell with the fixed complex 2x2 transform, so
any nonsingular real matrix ends up strictly dominant in the magnitude sense.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .classify import BORDERLINE_TOL, Verdict, _classify_structure, _zero_tol, is_borderline
from .core import (Axis, DominanceReport, _diag_similarity, _tolerance, as_matrix,
                   is_diag_dominant)
from .errors import IllConditionedJordan, NotAchievable, PreconditionViolated, SingularInput
from .spectral import (CLUSTER_TOL, ComplexJordanBlock, RealJordanBlock,
                       RealJordanForm, _assemble_jordan, _checked_residual, _Spectrum,
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


def _scaled(blocks, j, slacks, margin):
    """Weights ``d`` and ``diag(d) J diag(d)^{-1}`` for the canonical matrix
    ``j`` of ``blocks``, given one slack per block.

    Coordinate k of a chain gets weight ``rho**k``; length-1 chains, whose
    slacks are never read, stay at weight 1.  Each unit coupling then shrinks
    to at most ``margin`` times the smallest slack among the longer chains:
    ``rho = max(2, 2 / (margin * min(slacks)))``, or 1 when there are none.
    Raises :class:`IllConditionedJordan` when a weight is not a finite float.
    """
    chains = [(b.size, 1) if isinstance(b, RealJordanBlock) else (b.chain_length, 2)
              for b in blocks]
    long_slacks = [s for s, (length, _) in zip(slacks, chains) if length > 1]
    if long_slacks:
        floor = margin * min(long_slacks)
        # a floor that underflows to 0 leaves no finite rho
        rho = max(2.0, 2.0 / floor) if floor > 0.0 else math.inf
    else:
        rho = 1.0
    # rho >= 1, so the top weight of the longest chain is the largest
    top = max((length for length, _ in chains), default=1) - 1
    try:
        finite = math.isfinite(rho ** top)
    except OverflowError:
        finite = False
    if not finite:
        raise IllConditionedJordan(
            f"chain weight rho**{top} overflows (rho = {rho:.3e}); the margin "
            "or the smallest chain slack is too small")
    weights = []
    for length, cell in chains:
        for k in range(length):
            weights.extend((rho ** k,) * cell)
    d = np.array(weights)
    return d, _diag_similarity(j, d)


def _verified(spectrum, p, b, target, miss_message) -> SimilarityCertificate:
    """The certificate for ``B = P A P^{-1}`` (``A`` is ``spectrum.a``) once
    the residual is within ``certificate_tol`` and ``B`` meets ``target``;
    otherwise :class:`IllConditionedJordan`, with ``miss_message`` for a
    missed target."""
    residual = _checked_residual(spectrum.a, p, b, spectrum.scale, "certificate")
    dominance = is_diag_dominant(b, Axis.ROW, strict=(target is Target.STRICT), tol=0.0)
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
    blocks = jordan.blocks
    slacks = [_block_slack(b, target, borderline_tol) for b in blocks]
    d, b_mat = _scaled(blocks, jordan.J, slacks, margin)
    if None in slacks:
        pos = 0
        for b, slack in zip(blocks, slacks):
            if slack is None:
                # pin the boundary cell at exact |alpha| = |beta|
                mag = abs(b.alpha)
                b_mat[pos, pos + 1] = mag
                b_mat[pos + 1, pos] = -mag
            pos += b.dim
    return np.diag(d), b_mat


def build_real_dd_transform(a, target: Target = Target.STRICT,
                            tol: float = BORDERLINE_TOL,
                            cluster_tol: float = CLUSTER_TOL) -> SimilarityCertificate:
    """Real ``P`` with ``B = P A P^{-1}`` diagonally dominant, when possible.

    Raises :class:`NotAchievable` when the classification rules the target
    out, before any chain is built, and propagates Jordan failures.  The
    verdict and the Jordan form come from one spectral pass.  Couplings
    shrink to ``MARGIN_FRACTION`` of the chain slack.  The returned
    certificate is checked independently of the construction: dominance is
    recomputed from ``B`` and the residual from the triple.
    """
    a = as_matrix(a)
    _tolerance(tol)
    spectrum = _Spectrum(a, cluster_tol, vectors=True)
    verdict = _classify_structure(spectrum.structure(), tol,
                                  _zero_tol(tol, spectrum.scale)).verdict
    allowed = {Target.STRICT: (Verdict.STRICT_ACHIEVABLE,),
               Target.NON_STRICT: (Verdict.STRICT_ACHIEVABLE,
                                   Verdict.NON_STRICT_ONLY)}[target]
    if verdict not in allowed:
        raise NotAchievable(
            f"verdict {verdict.value} does not permit target {target.value}",
            classification=verdict)

    jordan = spectrum.jordan_form()
    d_mat, b_mat = scale_jordan_to_dd(jordan, target, borderline_tol=tol)
    p = np.diag(d_mat)[:, None] * jordan.P
    return _verified(spectrum, p, b_mat, target,
                     "constructed matrix misses the dominance target; the input "
                     "is too close to a classification boundary")


#: Fixed 2x2 complex transform sending [[a, b], [-b, a]] to diag(a+bj, a-bj).
_CELL_DIAGONALIZER = np.array([[0.5j, 0.5], [0.5j, -0.5]])


def build_complex_dd_transform(a, tol: float = BORDERLINE_TOL,
                               cluster_tol: float = CLUSTER_TOL) -> SimilarityCertificate:
    """Complex ``P`` with ``B = P A P^{-1}`` strictly dominant in magnitude.

    Works for every nonsingular real input, including matrices whose real
    verdict is impossible: each rotation-like cell is diagonalised over the
    complex numbers, then chain couplings are shrunk geometrically to
    ``MARGIN_FRACTION`` of the eigenvalue modulus.  Raises
    :class:`SingularInput` when an eigenvalue sits within ``tol`` of zero.
    """
    a = as_matrix(a)
    _tolerance(tol)
    n = a.shape[0]
    spectrum = _Spectrum(a, cluster_tol, vectors=True)
    zero_tol = _zero_tol(tol, spectrum.scale)
    if float(np.abs(spectrum.values).min()) <= zero_tol:
        raise SingularInput(
            f"an eigenvalue lies within {zero_tol:.3e} of zero")

    jordan = spectrum.jordan_form()
    blocks = jordan.blocks

    cell_map = np.eye(n, dtype=complex)
    pos = 0
    slacks = []
    for b in blocks:
        if isinstance(b, ComplexJordanBlock):
            for r in range(pos, pos + b.dim, 2):
                cell_map[r:r + 2, r:r + 2] = _CELL_DIAGONALIZER
            slacks.append(float(np.hypot(b.alpha, b.beta)) if b.chain_length > 1 else None)
        else:
            slacks.append(abs(b.eigenvalue))
        pos += b.dim

    d, b_mat = _scaled(blocks, _assemble_jordan(blocks, n, diagonal_cells=True),
                       slacks, MARGIN_FRACTION)
    p = d[:, None] * (cell_map @ jordan.P)
    return _verified(spectrum, p, b_mat, Target.STRICT,
                     "complex construction missed strict dominance; eigenvalues "
                     "are too close to zero for the working precision")
