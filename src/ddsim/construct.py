"""Explicit similarity transforms onto diagonally dominant matrices.

The real path rides on the real Jordan form: a positive diagonal matrix with
per-chain geometric weights shrinks every coupling entry until each row keeps
a prescribed fraction of its dominance slack.  The complex path additionally
diagonalises each rotation-like cell with the fixed complex 2x2 transform, so
any nonsingular real matrix ends up strictly dominant in the magnitude sense.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .classify import (BORDERLINE_TOL, Verdict, _classify_structure, _zero_tol,
                       is_borderline)
from .core import Axis, DominanceReport, as_matrix, is_diag_dominant, similarity_residual
from .errors import IllConditionedJordan, NotAchievable, PreconditionViolated, SingularInput
from .spectral import (CLUSTER_TOL, ComplexJordanBlock, RealJordanBlock,
                       RealJordanForm, _assemble_jordan, _Spectrum,
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


def _chain_weights(blocks, slacks, margin):
    """Diagonal weights: coordinate k of a chain gets rho**k; boundary cells
    and length-1 chains stay at weight 1.

    Each unit coupling then shrinks to at most ``margin`` times the smallest
    slack among the chains being scaled: ``rho = max(2, 2 / (margin *
    min(slacks)))``, or 1 when there are no chains to scale.
    """
    rho = max(2.0, 2.0 / (margin * min(slacks))) if slacks else 1.0
    weights = []
    for b in blocks:
        if isinstance(b, RealJordanBlock):
            weights.extend(rho ** k for k in range(b.size))
        else:
            for k in range(b.chain_length):
                weights.extend((rho ** k, rho ** k))
    return np.array(weights)


def _diag_scale(mat, d):
    """Exact diagonal similarity diag(d) @ mat @ diag(d)^{-1}."""
    out = mat * (d[:, None] / d[None, :])
    np.fill_diagonal(out, np.diag(mat))
    return out


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
    blocks = jordan.blocks
    slacks = []
    for b in blocks:
        slack = _block_slack(b, target, borderline_tol)
        if (b.size if isinstance(b, RealJordanBlock) else b.chain_length) > 1:
            slacks.append(slack)
    d = _chain_weights(blocks, slacks, margin)
    b_mat = _diag_scale(jordan.J, d)

    if target is Target.NON_STRICT:
        pos = 0
        for b in blocks:
            if (isinstance(b, ComplexJordanBlock)
                    and is_borderline(b.alpha, b.beta, borderline_tol)):
                # pin the boundary cell at exact |alpha| = |beta|
                mag = abs(b.alpha)
                b_mat[pos, pos + 1] = mag
                b_mat[pos + 1, pos] = -mag
            pos += b.dim
    return np.diag(d), b_mat


def build_real_dd_transform(a, target: Target = Target.STRICT,
                            tol: float = BORDERLINE_TOL,
                            cluster_tol: float = CLUSTER_TOL,
                            margin: float = MARGIN_FRACTION) -> SimilarityCertificate:
    """Real ``P`` with ``B = P A P^{-1}`` diagonally dominant, when possible.

    Raises :class:`NotAchievable` when the classification rules the target
    out, before any chain is built, and propagates Jordan failures.  The
    verdict and the Jordan form come from one spectral pass.  The returned
    certificate is checked independently of the construction: dominance is
    recomputed from ``B`` and the residual from the triple.
    """
    a = as_matrix(a)
    spectrum = _Spectrum(a, cluster_tol, vectors=True)
    verdict = _classify_structure(spectrum.structure(), tol, _zero_tol(a, tol)).verdict
    allowed = {Target.STRICT: (Verdict.STRICT_ACHIEVABLE,),
               Target.NON_STRICT: (Verdict.STRICT_ACHIEVABLE,
                                   Verdict.NON_STRICT_ONLY)}[target]
    if verdict not in allowed:
        raise NotAchievable(
            f"verdict {verdict.value} does not permit target {target.value}",
            classification=verdict)

    jordan = spectrum.jordan_form()
    d_mat, b_mat = scale_jordan_to_dd(jordan, target, margin, tol)
    p = np.diag(d_mat)[:, None] * jordan.P
    residual = similarity_residual(a, p, b_mat)
    limit = certificate_tol(a)
    if residual > limit:
        raise IllConditionedJordan(
            f"certificate residual {residual:.3e} exceeds tolerance {limit:.3e}")
    dominance = is_diag_dominant(b_mat, Axis.ROW,
                                 strict=(target is Target.STRICT), tol=0.0)
    if not dominance.satisfied:
        raise IllConditionedJordan(
            "constructed matrix misses the dominance target; the input is too "
            "close to a classification boundary")
    return SimilarityCertificate(P=p, B=b_mat, dominance=dominance,
                                 residual=residual, target=target)


#: Fixed 2x2 complex transform sending [[a, b], [-b, a]] to diag(a+bj, a-bj).
_CELL_DIAGONALIZER = np.array([[0.5j, 0.5], [0.5j, -0.5]])


def build_complex_dd_transform(a, tol: float = BORDERLINE_TOL,
                               cluster_tol: float = CLUSTER_TOL,
                               margin: float = MARGIN_FRACTION) -> SimilarityCertificate:
    """Complex ``P`` with ``B = P A P^{-1}`` strictly dominant in magnitude.

    Works for every nonsingular real input, including matrices whose real
    verdict is impossible: each rotation-like cell is diagonalised over the
    complex numbers, then chain couplings are shrunk geometrically.  Raises
    :class:`SingularInput` when an eigenvalue sits within ``tol`` of zero.
    """
    a = as_matrix(a)
    n = a.shape[0]
    spectrum = _Spectrum(a, cluster_tol, vectors=True)
    zero_tol = _zero_tol(a, tol)
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
            for c in range(b.chain_length):
                r = pos + 2 * c
                cell_map[r:r + 2, r:r + 2] = _CELL_DIAGONALIZER
            if b.chain_length > 1:
                slacks.append(float(np.hypot(b.alpha, b.beta)))
        else:
            if b.size > 1:
                slacks.append(abs(b.eigenvalue))
        pos += b.dim

    d = _chain_weights(blocks, slacks, margin)
    b_mat = _diag_scale(_assemble_jordan(blocks, n, diagonal_cells=True), d)
    p = d[:, None] * (cell_map @ jordan.P)

    residual = similarity_residual(a, p, b_mat)
    limit = certificate_tol(a)
    if residual > limit:
        raise IllConditionedJordan(
            f"certificate residual {residual:.3e} exceeds tolerance {limit:.3e}")
    dominance = is_diag_dominant(b_mat, Axis.ROW, strict=True, tol=0.0)
    if not dominance.strict:
        raise IllConditionedJordan(
            "complex construction missed strict dominance; eigenvalues are too "
            "close to zero for the working precision")
    return SimilarityCertificate(P=p, B=b_mat, dominance=dominance,
                                 residual=residual, target=Target.STRICT)
