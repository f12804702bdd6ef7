"""Seeded input generators whose truth is known by construction.

Matrices given by their spectrum are ``Q C Q^{-1}``, with ``C`` a canonical
real Jordan matrix built here and ``Q`` a standard-normal matrix with 2-norm
condition number at most ``COND_LIMIT``; the Metzler and H-matrix inputs are
built from their defining sign and Perron-root conditions.  The generators
never call into ``ddsim``: the truth (verdict, CLI exit code, structure
tests, oracle outcome) comes from how each input was built.
"""

import numpy as np

#: Largest 2-norm condition number of a similarity ``Q``.
COND_LIMIT = 100.0
#: Smallest distance between eigenvalues of different clusters.
SEPARATION = 0.1
#: Pairs keep ``|beta| / |alpha|`` outside ``(1 / BAND, BAND)`` unless they are
#: placed on the boundary or just off it on purpose.
BAND = 1.25

STRICT = "StrictAchievable"
NON_STRICT = "NonStrictOnly"
IMPOSSIBLE = "Impossible"
SINGULAR = "OutOfScopeSingular"
#: CLI exit code of each verdict (documented in ``ddsim.cli``).
VERDICT_EXIT = {STRICT: 0, NON_STRICT: 0, IMPOSSIBLE: 3, SINGULAR: 4}


def well_conditioned(rng, n):
    while True:
        q = rng.standard_normal((n, n))
        if np.linalg.cond(q) <= COND_LIMIT:
            return q


def similar(rng, c):
    q = well_conditioned(rng, c.shape[0])
    return q @ c @ np.linalg.inv(q)


def real_chain(lam, length):
    return lam * np.eye(length) + np.eye(length, k=1)


def pair_chain(alpha, beta, length):
    """Chain of ``length`` rotation-like cells coupled by 2x2 identities."""
    cell = np.array([[alpha, beta], [-beta, alpha]])
    return np.kron(np.eye(length), cell) + np.eye(2 * length, k=2)


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def _sign(rng):
    return float(rng.choice([-1.0, 1.0]))


def _dominant_pair(rng):
    mag = rng.uniform(0.5, 3.0)
    return mag * _sign(rng), mag * rng.uniform(0.1, 1.0 / BAND)


def _subdominant_pair(rng):
    mag = rng.uniform(0.5, 3.0)
    return mag * _sign(rng), mag * rng.uniform(BAND, 2.0)


def _far(points, z):
    return all(abs(z - p) >= SEPARATION for p in points)


def _separated_spectrum(rng, slots, taken, dominant_only, force_subdominant=False):
    """Reals and upper-half-plane pairs filling ``slots`` dimensions, pairwise
    and from ``taken`` at least ``SEPARATION`` apart."""
    while True:
        points = list(taken)
        reals, pairs = [], []
        left = slots
        need_sub = force_subdominant
        ok = True
        while left > 0 and ok:
            if left >= 2 and (need_sub or rng.random() < 0.5):
                sub = need_sub or (not dominant_only and rng.random() < 0.5)
                alpha, beta = _subdominant_pair(rng) if sub else _dominant_pair(rng)
                z = complex(alpha, beta)
                ok = _far(points, z) and _far(points, z.conjugate())
                points += [z, z.conjugate()]
                pairs.append((alpha, beta))
                need_sub = False
                left -= 2
            else:
                lam = rng.uniform(0.3, 3.0) * _sign(rng)
                ok = _far(points, lam)
                points.append(lam)
                reals.append(lam)
                left -= 1
        if ok and not need_sub:
            return reals, pairs


def _canonical(reals, pairs):
    return block_diag(*[np.array([[lam]]) for lam in reals],
                      *[pair_chain(a, b, 1) for a, b in pairs])


def separated_item(rng, n, strict):
    """Dense matrix with a pairwise-separated spectrum and its verdict.

    A strict item has only dominant pairs; an impossible one has at least one
    subdominant pair.  No pair is near ``|alpha| = |beta|``.
    """
    reals, pairs = _separated_spectrum(rng, n, [], dominant_only=strict,
                                       force_subdominant=not strict)
    verdict = STRICT if all(abs(a) > abs(b) for a, b in pairs) else IMPOSSIBLE
    return {"a": similar(rng, _canonical(reals, pairs)), "verdict": verdict}


DEFECTIVE_KINDS = ("real", "pair")
DEFECTIVE_LENGTHS = (2, 3, 4)
DEFECTIVE_CONTEXTS = ("alone", "separated", "semisimple")


def defective_item(rng, kind, length, context):
    """One Jordan chain of ``length`` (real or pair), alone, beside separated
    eigenvalues, or beside a semisimple repeated real eigenvalue plus
    separated ones.  Every eigenvalue is nonzero and every pair dominant, so
    the verdict is strictly achievable."""
    if kind == "real":
        lam = rng.uniform(0.5, 3.0) * _sign(rng)
        chain = real_chain(lam, length)
        taken = [lam]
    else:
        alpha, beta = _dominant_pair(rng)
        chain = pair_chain(alpha, beta, length)
        taken = [complex(alpha, beta), complex(alpha, -beta)]
    blocks = [chain]
    room = 12 - chain.shape[0]
    if context == "semisimple":
        while True:
            mu = rng.uniform(0.3, 3.0) * _sign(rng)
            if _far(taken, mu):
                break
        blocks.append(mu * np.eye(2))
        taken.append(mu)
        room -= 2
    if context != "alone":
        slots = int(rng.integers(2, min(4, room) + 1))
        reals, pairs = _separated_spectrum(rng, slots, taken, dominant_only=True)
        blocks.append(_canonical(reals, pairs))
    return {"a": similar(rng, block_diag(*blocks)), "verdict": STRICT}


# --- CLI decision inputs ---------------------------------------------------

CLASSIFY_CASES = ("boundary-semisimple", "boundary-defective", "off-dominant",
                  "off-subdominant", "subdominant", "near-zero")


def classify_case(rng, case):
    """(matrix, verdict) for one classify input family, with up to two more
    separated eigenvalues that leave the verdict unchanged."""
    mag = rng.uniform(0.5, 3.0)
    alpha = mag * _sign(rng)
    if case == "near-zero":
        core, verdict = block_diag(np.zeros((1, 1)), np.array([[alpha]])), SINGULAR
    elif case == "boundary-semisimple":
        core, verdict = pair_chain(alpha, mag, 1), NON_STRICT
    elif case == "boundary-defective":
        core, verdict = pair_chain(alpha, mag, 2), IMPOSSIBLE
    elif case in ("off-dominant", "off-subdominant"):
        # |beta| / |alpha| = 1 -+ delta with delta in [1e-6, 1e-3]: outside
        # the 1e-9 boundary band but close to it
        delta = 10.0 ** rng.uniform(-6.0, -3.0)
        ratio = 1.0 - delta if case == "off-dominant" else 1.0 + delta
        core = pair_chain(alpha, mag * ratio, 1)
        verdict = STRICT if case == "off-dominant" else IMPOSSIBLE
    else:
        core, verdict = pair_chain(*_subdominant_pair(rng), 1), IMPOSSIBLE
    taken = list(np.linalg.eigvals(core))
    reals, pairs = _separated_spectrum(rng, int(rng.integers(0, 3)), taken,
                                       dominant_only=True)
    return similar(rng, block_diag(core, _canonical(reals, pairs))), verdict


def metzler_hurwitz(rng, n):
    """``N - sI`` with ``N >= 0`` entrywise and ``s`` beyond the Perron root:
    Metzler and Hurwitz, and its comparison matrix ``sI - N`` is an M-matrix."""
    nonneg = rng.uniform(0.0, 1.0, size=(n, n))
    perron = float(np.abs(np.linalg.eigvals(nonneg)).max())
    s = perron * (1.0 + rng.uniform(0.1, 1.0)) + 0.1
    return nonneg - s * np.eye(n)


def hurwitz_h(rng, n):
    """A Metzler Hurwitz matrix with off-diagonal signs flipped at random: the
    comparison matrix is unchanged, so it is a Hurwitz H-matrix."""
    signs = rng.choice([-1.0, 1.0], size=(n, n))
    np.fill_diagonal(signs, 1.0)
    return metzler_hurwitz(rng, n) * signs


# --- oracle inputs ---------------------------------------------------------

GRID_CASES = ("dominant", "boundary", "subdominant")


def grid_case(rng, case):
    """(alpha, beta, found): a non-strict 2x2 witness exists iff
    ``|alpha| >= |beta|``."""
    if case == "boundary":
        mag = rng.uniform(0.5, 3.0)
        return mag * _sign(rng), mag, True
    alpha, beta = _dominant_pair(rng) if case == "dominant" else _subdominant_pair(rng)
    return alpha, beta, case == "dominant"


SEARCH_CASES = ("boundary-defective", "subdominant")


def search_case(rng, case):
    """A matrix with no real similarity to a diagonally dominant one, in
    either the row or the column sense."""
    if case == "boundary-defective":
        mag = rng.uniform(0.5, 3.0)
        return similar(rng, pair_chain(mag * _sign(rng), mag, 2))
    a, b = _subdominant_pair(rng)
    return similar(rng, pair_chain(a, b, 1))
