"""Seeded random matrix generators shared by the unit and acceptance tests,
and the benchmark's seeded pools."""

import importlib
import sys
from pathlib import Path

import numpy as np

from ddsim import comparison_matrix

#: Minimum pairwise eigenvalue separation for sampled spectra.
SEPARATION = 0.05


def well_conditioned(rng, n, cond_limit=100.0):
    """Standard-normal matrix with 2-norm condition number at most cond_limit."""
    while True:
        q = rng.standard_normal((n, n))
        if np.linalg.cond(q) <= cond_limit:
            return q


def _separated(points):
    pts = np.asarray(points, dtype=complex)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < SEPARATION:
                return False
    return True


def sample_spectrum(rng, n, dominant_pairs_only, require_pair=False):
    """Eigenvalue sets: reals plus conjugate pairs, pairwise separated.

    With ``dominant_pairs_only`` every pair keeps |alpha| > |beta| bounded
    away from the boundary and every real eigenvalue stays away from zero;
    otherwise pairs may also have |alpha| < |beta| (still nonzero modulus).
    """
    while True:
        reals = []
        pairs = []
        slots = n
        while slots > 0:
            if slots >= 2 and rng.random() < 0.5:
                mag = rng.uniform(0.5, 3.0)
                alpha = mag * rng.choice([-1.0, 1.0])
                if dominant_pairs_only:
                    beta = mag * rng.uniform(0.1, 0.8)
                else:
                    beta = mag * rng.uniform(0.1, 2.0)
                pairs.append((alpha, beta))
                slots -= 2
            else:
                reals.append(rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0]))
                slots -= 1
        if require_pair and not pairs:
            continue
        points = reals + [complex(a, b) for a, b in pairs] \
            + [complex(a, -b) for a, b in pairs]
        if _separated(points):
            return reals, pairs


def canonical_from_spectrum(reals, pairs):
    n = len(reals) + 2 * len(pairs)
    c = np.zeros((n, n))
    pos = 0
    for lam in reals:
        c[pos, pos] = lam
        pos += 1
    for alpha, beta in pairs:
        c[pos, pos] = alpha
        c[pos, pos + 1] = beta
        c[pos + 1, pos] = -beta
        c[pos + 1, pos + 1] = alpha
        pos += 2
    return c


def spectrum_matrix(rng, n, dominant_pairs_only=True, cond_limit=100.0,
                    require_pair=False, return_spectrum=False):
    """Dense matrix with a sampled, separated spectrum: Q C Q^{-1}."""
    reals, pairs = sample_spectrum(rng, n, dominant_pairs_only, require_pair)
    c = canonical_from_spectrum(reals, pairs)
    q = well_conditioned(rng, n, cond_limit)
    a = q @ c @ np.linalg.inv(q)
    if return_spectrum:
        return a, reals, pairs
    return a


def chain_matrix(rng, kind, length, cond_limit=100.0):
    """Q C Q^{-1} with C one Jordan chain of ``length``: a nonzero real
    eigenvalue (``kind="real"``) or a dominant conjugate pair whose 2x2 cells
    are coupled by identities (``kind="pair"``)."""
    mag = rng.uniform(0.5, 3.0)
    sign = rng.choice([-1.0, 1.0])
    if kind == "real":
        c = mag * sign * np.eye(length) + np.eye(length, k=1)
    else:
        beta = mag * rng.uniform(0.1, 0.8)
        cell = np.array([[mag * sign, beta], [-beta, mag * sign]])
        c = np.kron(np.eye(length), cell) + np.eye(2 * length, k=2)
    q = well_conditioned(rng, c.shape[0], cond_limit)
    return q @ c @ np.linalg.inv(q)


def metzler_hurwitz_matrix(rng, n):
    """N - sI with N entrywise nonnegative and s beyond the Perron root."""
    nonneg = rng.uniform(0.0, 1.0, size=(n, n))
    perron = float(np.abs(np.linalg.eigvals(nonneg)).max())
    s = perron * (1.0 + rng.uniform(0.1, 1.0)) + 0.1
    return nonneg - s * np.eye(n)


def hurwitz_h_matrix(rng, n):
    """Random Hurwitz H-matrix: off-diagonal signs of a Metzler Hurwitz
    matrix are flipped at random (the comparison matrix is unchanged, and an
    H-matrix with negative diagonal is automatically Hurwitz)."""
    base = metzler_hurwitz_matrix(rng, n)
    signs = rng.choice([-1.0, 1.0], size=(n, n))
    np.fill_diagonal(signs, 1.0)
    flipped = base * signs
    assert np.array_equal(comparison_matrix(flipped), comparison_matrix(base))
    return flipped


def workloads():
    """The benchmark's ``workloads`` module, whose seeded pools some tests
    reuse; ``perfbench/`` sits beside ``tests/`` in the checkout."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, path)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(path)
