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

from .core import _scale, as_matrix
from .errors import DimensionMismatch
from .spectral import (CLUSTER_TOL, ComplexPair, EigenStructure, RealEigenvalue,
                       eigen_structure)

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
    return abs(abs(alpha) - abs(beta)) <= tol * (abs(alpha) + abs(beta))


def _classify_structure(structure: EigenStructure, tol: float,
                        zero_tol: float) -> DDClassification:
    findings = []
    borderline = []

    def add(kind, value, eig, case, condition, ok):
        findings.append(Finding(kind=kind, value=value, alg_mult=eig.alg_mult,
                                geo_mult=eig.geo_mult, case=case,
                                condition=condition, ok=ok))

    for e in structure.real_eigs:
        if abs(e.value) <= zero_tol:
            add("real", (e.value,), e, "real-zero",
                f"|{e.value:.6g}| <= {zero_tol:.3e}", False)
        else:
            add("real", (e.value,), e, "real-nonzero", f"|{e.value:.6g}| > 0", True)

    for p in structure.complex_pairs:
        value = (p.alpha, p.beta)
        if p.modulus <= zero_tol:
            add("pair", value, p, "pair-zero",
                f"modulus {p.modulus:.6g} <= {zero_tol:.3e}", False)
        elif is_borderline(p.alpha, p.beta, tol):
            borderline.append(value)
            if p.geo_mult == p.alg_mult:
                add("pair", value, p, "pair-borderline-semisimple",
                    f"|alpha| = |beta| within {tol:.3e}, non-defective", True)
            else:
                add("pair", value, p, "pair-borderline-defective",
                    f"|alpha| = |beta| within {tol:.3e}, "
                    f"geometric {p.geo_mult} < algebraic {p.alg_mult}", False)
        elif abs(p.alpha) > abs(p.beta):
            add("pair", value, p, "pair-dominant",
                f"|{p.alpha:.6g}| > |{p.beta:.6g}|", True)
        else:
            add("pair", value, p, "pair-subdominant",
                f"|{p.alpha:.6g}| < |{p.beta:.6g}|", False)

    # every boundary pair left once the failed cases are ruled out is semisimple
    failed = {f.case for f in findings if not f.ok}
    if failed & {"real-zero", "pair-zero"}:
        verdict = Verdict.OUT_OF_SCOPE_SINGULAR
    elif failed:
        verdict = Verdict.IMPOSSIBLE
    elif borderline:
        verdict = Verdict.NON_STRICT_ONLY
    else:
        verdict = Verdict.STRICT_ACHIEVABLE
    return DDClassification(verdict=verdict, evidence=tuple(findings),
                            borderline_pairs=tuple(borderline), structure=structure)


def _zero_tol(a, tol: float) -> float:
    """Half-width of the zero-eigenvalue band: ``tol * (1 + ||a||_F)``."""
    return tol * _scale(a)


def classify(a, tol: float = BORDERLINE_TOL,
             cluster_tol: float = CLUSTER_TOL) -> DDClassification:
    """Full decision over the eigenstructure of ``a``.

    ``tol`` controls both the boundary band ``||alpha| - |beta||`` and the
    zero-eigenvalue test (relative to ``1 + ||a||_F``).  Propagates
    :class:`ClusterAmbiguity` from the eigenstructure computation.
    """
    a = as_matrix(a)
    return _classify_structure(eigen_structure(a, cluster_tol), tol, _zero_tol(a, tol))


def classify_2x2(a, tol: float = BORDERLINE_TOL) -> DDClassification:
    """Closed-form specialisation for 2x2 matrices.

    Uses the trace/determinant quadratic directly instead of the clustering
    machinery; agrees with :func:`classify` on 2x2 inputs.
    """
    a = as_matrix(a)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {a.shape}")
    half_trace = (a[0, 0] + a[1, 1]) / 2.0
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = half_trace * half_trace - det
    if disc >= 0.0:
        root = math.sqrt(disc)
        structure = EigenStructure(
            real_eigs=tuple(RealEigenvalue(value=lam, alg_mult=1, geo_mult=1)
                            for lam in (half_trace - root, half_trace + root)),
            complex_pairs=())
    else:
        # a 2x2 complex pair is automatically non-defective
        pair = ComplexPair(alpha=float(half_trace), beta=math.sqrt(-disc),
                           alg_mult=1, geo_mult=1)
        structure = EigenStructure(real_eigs=(), complex_pairs=(pair,))
    return _classify_structure(structure, tol, _zero_tol(a, tol))


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
