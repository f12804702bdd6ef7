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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import _scale, _tolerance, as_matrix
from .spectral import CLUSTER_TOL, ComplexPair, EigenStructure, RealEigenvalue, _spectrum

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
    rotation-like cell ``[[alpha, beta], [-beta, alpha]]``: all four finite,
    ``beta`` and ``y`` nonzero."""

    alpha: float
    beta: float
    x: float
    y: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.x, self.y))):
            raise ValueError("alpha, beta, x and y must be finite")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        if self.y == 0:
            raise ValueError("y must be nonzero")


def is_borderline(alpha: float, beta: float, tol: float = BORDERLINE_TOL) -> bool:
    """Whether ``|alpha| = |beta|`` within the relative tolerance band, for a
    finite ``alpha`` and ``beta`` (else ``ValueError``)."""
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    return abs(abs(alpha) - abs(beta)) <= _tolerance(tol) * (abs(alpha) + abs(beta))


#: The verdicts, best to worst, as :class:`Verdict` declares them.
_BEST_TO_WORST = tuple(Verdict)
#: Per case of an eigenvalue or pair ``e``: the best verdict it allows, its slack in a
#: real certificate (the row dominance ``|lambda|`` or ``|alpha| - |beta|``, or None,
#: which pins a boundary pair; no slack when it permits no dominance) and its evidence.
_Case = namedtuple("_Case", "verdict slack condition")
_CASES = {
    "real-zero": _Case(Verdict.OUT_OF_SCOPE_SINGULAR, None, "|{e.value:.6g}| <= {zero_tol:.3e}"),
    "real-nonzero": _Case(Verdict.STRICT_ACHIEVABLE, lambda e: abs(e.value),
                          "|{e.value:.6g}| > 0"),
    "pair-zero": _Case(Verdict.OUT_OF_SCOPE_SINGULAR, None,
                       "modulus {e.modulus:.6g} <= {zero_tol:.3e}"),
    "pair-borderline-semisimple": _Case(Verdict.NON_STRICT_ONLY, lambda e: None,
                                        "|alpha| = |beta| within {tol:.3e}, non-defective"),
    "pair-borderline-defective": _Case(Verdict.IMPOSSIBLE, None,
                                       "|alpha| = |beta| within {tol:.3e}, "
                                       "geometric {e.geo_mult} < algebraic {e.alg_mult}"),
    "pair-dominant": _Case(Verdict.STRICT_ACHIEVABLE, lambda e: abs(e.alpha) - abs(e.beta),
                           "|{e.alpha:.6g}| > |{e.beta:.6g}|"),
    "pair-subdominant": _Case(Verdict.IMPOSSIBLE, None, "|{e.alpha:.6g}| < |{e.beta:.6g}|"),
}


def _worst(verdicts) -> Verdict:
    """The worst of ``verdicts``, the one latest in :data:`_BEST_TO_WORST`."""
    return max(verdicts, key=_BEST_TO_WORST.index)


def _case(e, tol: float, zero_tol: float) -> str:
    """The case of one real eigenvalue or pair ``e``: the only comparison of an
    eigenvalue with the zero band ``zero_tol`` or the borderline band ``tol``,
    and the only sector test; a pair is defective when ``geo_mult < alg_mult``."""
    if isinstance(e, RealEigenvalue):
        return "real-zero" if abs(e.value) <= zero_tol else "real-nonzero"
    if e.modulus <= zero_tol:
        return "pair-zero"
    if is_borderline(e.alpha, e.beta, tol):
        return ("pair-borderline-semisimple" if e.geo_mult == e.alg_mult
                else "pair-borderline-defective")
    return "pair-subdominant" if abs(e.alpha) < abs(e.beta) else "pair-dominant"


def _cases(structure: EigenStructure, tol: float, scale: float):
    """``(e, case)`` for each real eigenvalue ``e``, then each pair, their
    verdict, and the zero band ``tol * scale`` (``scale = _scale(a)``)."""
    zero_tol = tol * scale
    cases = [(e, _case(e, tol, zero_tol)) for e in structure.real_eigs + structure.complex_pairs]
    return cases, _worst(_CASES[case].verdict for _, case in cases), zero_tol


def _kept_cases(spectrum, tol: float):
    """:func:`_cases` of a ``spectrum`` at ``tol``, kept on the spectrum for
    the last ``tol`` asked, so ``classify`` and the builders decide once."""
    kept = spectrum.cases
    if kept is None or kept[0] != tol:
        kept = spectrum.cases = tol, _cases(spectrum.structure, tol, spectrum.scale)
    return kept[1]


def _classification(structure: EigenStructure, tol: float, table) -> DDClassification:
    """The verdict and evidence of ``structure`` from its case ``table``."""
    cases, verdict, zero_tol = table
    evidence = []
    for e, case in cases:
        kind = case.partition("-")[0]
        evidence.append(Finding(
            kind, (e.value,) if kind == "real" else (e.alpha, e.beta), e.alg_mult, e.geo_mult,
            case, _CASES[case].condition.format(e=e, tol=tol, zero_tol=zero_tol),
            _CASES[case].slack is not None))
    borderline = tuple(f.value for f in evidence if "borderline" in f.case)
    return DDClassification(verdict=verdict, evidence=tuple(evidence),
                            borderline_pairs=borderline, structure=structure)


def classify(a, tol: float = BORDERLINE_TOL,
             cluster_tol: float = CLUSTER_TOL) -> DDClassification:
    """Full decision over the eigenstructure of ``a``.

    ``tol`` controls both the boundary band ``||alpha| - |beta||`` and the
    zero-eigenvalue test (relative to ``1 + ||a||_F``).  Propagates
    :class:`ClusterAmbiguity` from the eigenstructure computation.
    """
    a = as_matrix(a)
    tol = _tolerance(tol)
    spectrum = _spectrum(a, cluster_tol)
    return _classification(spectrum.structure, tol, _kept_cases(spectrum, tol))


def classify_2x2(a, tol: float = BORDERLINE_TOL) -> DDClassification:
    """Closed-form specialisation for 2x2 matrices.

    Uses the trace/determinant quadratic directly instead of the clustering
    machinery; agrees with :func:`classify` on 2x2 inputs.  When the plain
    quadratic overflows, it is solved for ``a / peak`` with ``peak = max
    |a_ij|`` and its roots are scaled back.
    """
    a = as_matrix(a)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {a.shape}")
    tol = _tolerance(tol)
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
    return _classification(structure, tol, _cases(structure, tol, _scale(a)))


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
    ``|alpha + x| >= |y| sqrt(beta^2+x^2)``.  Raises ``ValueError`` for what
    :class:`TwoByTwoParams` rejects: a non-finite argument, then a zero one.
    """
    TwoByTwoParams(alpha, beta, x, y)
    r = math.hypot(beta, x)
    m1 = abs(alpha - x) - r / abs(y)
    m2 = abs(alpha + x) - r * abs(y)
    if strict:
        return m1 > 0.0 and m2 > 0.0
    return m1 >= 0.0 and m2 >= 0.0
