"""Decide whether a real matrix is real-similar to a diagonally dominant one.

The verdict is a trichotomy over the eigenstructure, plus an out-of-scope
bucket for singular inputs (strict dominance forces nonsingularity, and the
non-strict singular case is deliberately not decided here):

* all eigenvalues real and nonzero, or every conjugate pair has
  ``|alpha| > |beta|``  ->  strictly achievable;
* every pair has ``|alpha| >= |beta|`` and each pair on the boundary
  ``|alpha| = |beta|`` is non-defective  ->  achievable non-strictly only;
* some pair has ``|alpha| < |beta|``, or a boundary pair is defective
  ->  impossible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import _scale, _tolerance, as_matrix
from .errors import DimensionMismatch
from .spectral import (CLUSTER_TOL, ComplexPair, EigenStructure, RealEigenvalue,
                       _forget_on_failure, _spectrum)

#: Relative half-width of the |alpha| = |beta| boundary band.
BORDERLINE_TOL = 1e-9


class Verdict(enum.Enum):
    STRICT_ACHIEVABLE = "StrictAchievable"
    NON_STRICT_ONLY = "NonStrictOnly"
    IMPOSSIBLE = "Impossible"
    OUT_OF_SCOPE_SINGULAR = "OutOfScopeSingular"


@dataclass(frozen=True)
class Finding:
    """Evidence entry for a single eigenvalue or conjugate pair."""

    kind: str            # "real" | "pair"
    value: tuple         # (lambda,) for real, (alpha, beta) for a pair
    alg_mult: int
    geo_mult: int
    case: str
    condition: str
    ok: bool


@dataclass(frozen=True)
class DDClassification:
    """Verdict, its evidence, and the eigen-structure it was decided from."""

    verdict: Verdict
    evidence: tuple[Finding, ...]
    borderline_pairs: tuple[tuple[float, float], ...]
    structure: EigenStructure


@dataclass(frozen=True)
class TwoByTwoParams:
    """Parameters (x, y) of the family of real 2x2 matrices similar to the
    rotation-like cell ``[[alpha, beta], [-beta, alpha]]``."""

    alpha: float
    beta: float
    x: float
    y: float

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        if self.y == 0:
            raise ValueError("y must be nonzero")


def is_borderline(alpha: float, beta: float, tol: float = BORDERLINE_TOL) -> bool:
    """Whether ``|alpha| = |beta|`` within the relative tolerance band."""
    return abs(abs(alpha) - abs(beta)) <= _tolerance(tol) * (abs(alpha) + abs(beta))


#: Per case of an eigenvalue or pair ``e``: does it permit dominance, and its evidence.
_CASES = {
    "real-zero": (False, "|{e.value:.6g}| <= {zero_tol:.3e}"),
    "real-nonzero": (True, "|{e.value:.6g}| > 0"),
    "pair-zero": (False, "modulus {e.modulus:.6g} <= {zero_tol:.3e}"),
    "pair-borderline-semisimple": (True, "|alpha| = |beta| within {tol:.3e}, non-defective"),
    "pair-borderline-defective": (False, "|alpha| = |beta| within {tol:.3e}, "
                                         "geometric {e.geo_mult} < algebraic {e.alg_mult}"),
    "pair-dominant": (True, "|{e.alpha:.6g}| > |{e.beta:.6g}|"),
    "pair-subdominant": (False, "|{e.alpha:.6g}| < |{e.beta:.6g}|"),
}


def _cases(structure: EigenStructure, tol: float, zero_tol: float):
    """The case of each real eigenvalue, then each pair, and their verdict."""
    cases = ["real-zero" if abs(e.value) <= zero_tol else "real-nonzero"
             for e in structure.real_eigs]
    for p in structure.complex_pairs:
        if p.modulus <= zero_tol:
            cases.append("pair-zero")
        elif is_borderline(p.alpha, p.beta, tol):
            cases.append("pair-borderline-semisimple" if p.geo_mult == p.alg_mult
                         else "pair-borderline-defective")
        else:
            cases.append("pair-dominant" if abs(p.alpha) > abs(p.beta) else "pair-subdominant")
    failed = {case for case in cases if not _CASES[case][0]}
    if failed & {"real-zero", "pair-zero"}:
        return cases, Verdict.OUT_OF_SCOPE_SINGULAR
    if failed:
        return cases, Verdict.IMPOSSIBLE
    if "pair-borderline-semisimple" in cases:
        return cases, Verdict.NON_STRICT_ONLY
    return cases, Verdict.STRICT_ACHIEVABLE


def _classify_structure(structure: EigenStructure, tol: float,
                        zero_tol: float) -> DDClassification:
    cases, verdict = _cases(structure, tol, zero_tol)
    evidence = []
    for e, case in zip(structure.real_eigs + structure.complex_pairs, cases):
        kind = case.partition("-")[0]
        evidence.append(Finding(
            kind, (e.value,) if kind == "real" else (e.alpha, e.beta), e.alg_mult, e.geo_mult,
            case, _CASES[case][1].format(e=e, tol=tol, zero_tol=zero_tol), _CASES[case][0]))
    borderline = tuple(f.value for f in evidence if "borderline" in f.case)
    return DDClassification(verdict=verdict, evidence=tuple(evidence),
                            borderline_pairs=borderline, structure=structure)


def _zero_tol(tol: float, scale: float) -> float:
    """Half-width of the zero-eigenvalue band: ``tol * (1 + ||a||_F)``, given
    ``scale = _scale(a)``."""
    return tol * scale


@_forget_on_failure
def classify(a, tol: float = BORDERLINE_TOL,
             cluster_tol: float = CLUSTER_TOL) -> DDClassification:
    """Full decision over the eigenstructure of ``a``.

    ``tol`` controls both the boundary band ``||alpha| - |beta||`` and the
    zero-eigenvalue test (relative to ``1 + ||a||_F``).  Propagates
    :class:`ClusterAmbiguity` from the eigenstructure computation.
    """
    a = as_matrix(a)
    _tolerance(tol)
    spectrum = _spectrum(a, cluster_tol, vectors=False)
    return _classify_structure(spectrum.structure(), tol, _zero_tol(tol, spectrum.scale))


def classify_2x2(a, tol: float = BORDERLINE_TOL) -> DDClassification:
    """Closed-form specialisation for 2x2 matrices.

    Uses the trace/determinant quadratic directly instead of the clustering
    machinery; agrees with :func:`classify` on 2x2 inputs.  When the plain
    quadratic overflows, it is solved for ``a / peak`` with ``peak = max
    |a_ij|`` and its roots are scaled back.
    """
    a = as_matrix(a)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {a.shape}")
    _tolerance(tol)
    entries = a.ravel().tolist()
    peak = 1.0
    half_trace, disc = _half_trace_disc(*entries)
    # a finite discriminant bounds |half_trace| and its root by sqrt(max float)
    if not math.isfinite(disc):
        peak = max(map(abs, entries))
        half_trace, disc = _half_trace_disc(*(x / peak for x in entries))
    if disc >= 0.0:
        root = math.sqrt(disc)
        structure = EigenStructure(
            real_eigs=tuple(RealEigenvalue(value=peak * lam, alg_mult=1, geo_mult=1)
                            for lam in (half_trace - root, half_trace + root)),
            complex_pairs=())
    else:
        # a 2x2 complex pair is automatically non-defective
        pair = ComplexPair(alpha=peak * half_trace, beta=peak * math.sqrt(-disc),
                           alg_mult=1, geo_mult=1)
        structure = EigenStructure(real_eigs=(), complex_pairs=(pair,))
    return _classify_structure(structure, tol, _zero_tol(tol, _scale(a)))


def _half_trace_disc(a00, a01, a10, a11):
    """Half the trace of ``[[a00, a01], [a10, a11]]`` and the discriminant
    ``(trace / 2)**2 - det`` of its characteristic quadratic."""
    half_trace = (a00 + a11) / 2.0
    det = a00 * a11 - a01 * a10
    return half_trace, half_trace * half_trace - det


def params_to_matrix(p: TwoByTwoParams) -> np.ndarray:
    """The 2x2 matrix ``[[a-x, r/y], [-y r, a+x]]`` with ``r = sqrt(b^2+x^2)``.

    By construction its trace is ``2 alpha`` and its determinant is
    ``alpha^2 + beta^2``, so it is similar to the rotation-like cell with the
    same ``(alpha, beta)``.
    """
    r = math.hypot(p.beta, p.x)
    return np.array([[p.alpha - p.x, r / p.y],
                     [-p.y * r, p.alpha + p.x]])


def params_feasible(alpha: float, beta: float, x: float, y: float,
                    strict: bool = False) -> bool:
    """Do both row-dominance inequalities hold for the parametrised matrix?

    Non-strict form: ``|alpha - x| >= sqrt(beta^2+x^2)/|y|`` and
    ``|alpha + x| >= |y| sqrt(beta^2+x^2)``.  Raises ``ValueError`` for a
    non-finite argument.
    """
    if not all(map(math.isfinite, (alpha, beta, x, y))):
        raise ValueError("alpha, beta, x and y must be finite")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    if y == 0:
        raise ValueError("y must be nonzero")
    r = math.hypot(beta, x)
    m1 = abs(alpha - x) - r / abs(y)
    m2 = abs(alpha + x) - r * abs(y)
    if strict:
        return m1 > 0.0 and m2 > 0.0
    return m1 >= 0.0 and m2 >= 0.0
