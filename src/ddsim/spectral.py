"""Eigenstructure extraction and real Jordan normal form for small dense matrices.

Jordan structure is ill-posed in floating point; this module is deliberately
scoped to small dimensions (target n <= 12), uses conservative singular-value
thresholds, and fails honestly with :class:`IllConditionedJordan` instead of
returning a form it cannot certify.  Every returned form carries a verified
similarity residual.

Each thread keeps the spectrum of the matrix of its last spectral call
(:func:`_spectrum`), so ``classify`` followed by the builders on one matrix
pays for one spectral pass, one ``eig`` and one test and inversion of the
real chain basis, whose unitary image is the complex one; every call still
validates its input and verifies its own output.  Each lazy record of a
spectrum is assigned only once it is complete, so a call that raises, for
any reason, leaves nothing half built and the next call ends as it would
from an empty slot.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .core import _frobenius, _residual, _scale, _singular_ratio, _tolerance, as_matrix
from .errors import ClusterAmbiguity, IllConditionedJordan

#: Default relative eigenvalue clustering tolerance.
CLUSTER_TOL = 1e-7
#: Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8
#: Inter-cluster gaps within this factor of the tolerance are ambiguous.
AMBIGUITY_FACTOR = 2.0
#: Smallest acceptable angle (as a singular value) when picking chain tops.
_TOP_SELECT_TOL = 1e-6
#: Residual limit relative to ``_scale(a)``.
_RESIDUAL_RTOL = 1e-6
#: Norm of a unit pair vector's columns ``(w, conj(w))`` taken together.
_SQRT2 = np.sqrt(2.0)


def jordan_residual_tol(a) -> float:
    """Acceptance threshold for the Jordan and certificate similarity
    residuals: ``1e-6 * (1 + ||a||_F)``, finite for every finite ``a``."""
    return _RESIDUAL_RTOL * _scale(a)


def _checked_residual(a, p, b, scale, what) -> float:
    """``similarity_residual(a, p, b)`` of a validated ``a`` whose ``_scale``
    is ``scale``; :class:`IllConditionedJordan` naming ``what`` when it is not
    within ``jordan_residual_tol(a)``."""
    residual = _residual(a, p, b, scale)
    limit = _RESIDUAL_RTOL * scale
    if not residual <= limit:
        raise IllConditionedJordan(
            f"{what} residual {residual:.3e} exceeds tolerance {limit:.3e}")
    return residual


@dataclass(frozen=True)
class RealEigenvalue:
    value: float
    alg_mult: int
    geo_mult: int


@dataclass(frozen=True)
class ComplexPair:
    """A conjugate pair alpha +/- beta*j with beta > 0; multiplicities count pairs."""

    alpha: float
    beta: float
    alg_mult: int
    geo_mult: int

    @property
    def modulus(self) -> float:
        return float(np.hypot(self.alpha, self.beta))


@dataclass(frozen=True)
class EigenStructure:
    real_eigs: tuple[RealEigenvalue, ...]
    complex_pairs: tuple[ComplexPair, ...]


@dataclass(frozen=True)
class RealJordanBlock:
    """Upper Jordan block: ``eigenvalue`` on the diagonal, 1s above it."""

    eigenvalue: float
    size: int

    @property
    def dim(self) -> int:
        return self.size


@dataclass(frozen=True)
class ComplexJordanBlock:
    """Chain of 2x2 rotation-like cells coupled by identity cells above the diagonal.

    Occupies a ``2 * chain_length`` square region: each diagonal cell is
    ``[[alpha, beta], [-beta, alpha]]`` and consecutive cells are coupled by
    a 2x2 identity on the superdiagonal.
    """

    alpha: float
    beta: float
    chain_length: int

    @property
    def dim(self) -> int:
        return 2 * self.chain_length


@dataclass(frozen=True)
class RealJordanForm:
    """Block-diagonal real Jordan matrix ``J`` with ``J = P A P^{-1}``."""

    J: np.ndarray
    P: np.ndarray
    blocks: tuple
    residual: float


def _nullspace(m, extra_tol=0.0):
    """Orthonormal nullspace basis of ``m`` at a combined sv threshold, and ``||m||_2``."""
    _, s, vh = np.linalg.svd(m)
    nullity = int(np.sum(s <= max(RANK_RTOL * s[0], extra_tol)))
    return vh[len(s) - nullity:].conj().T, float(s[0])


class _Cluster:
    """One eigenvalue cluster and its Jordan chains, from the nullspace
    filtration of ``m = a - rep I`` (over the complex field for conjugate
    pairs).

    A repeated cluster keeps two records, each once it is complete:
    ``_first``, the first power with its kernel and ``||m||_2`` from one SVD,
    which gives the geometric multiplicity; and ``chains``, which takes the
    higher powers, one SVD each, and the chain tops.  A step that raises
    keeps nothing, so the next call takes it again.  A simple cluster needs
    neither: its one chain is the unit eigenvector ``eig`` returned for it,
    set when the cluster is made.
    """

    def __init__(self, a, members, mean, complex_field, vector=None):
        self.rep = complex(mean)
        self.alg_mult = len(members)
        self.lam = self.rep if complex_field else self.rep.real
        self.a = a
        self.dtype = complex if complex_field else float
        if vector is None:
            self.radius = float(np.abs(np.array(members) - self.rep).max())
        else:  # a simple cluster's member is its mean
            self.radius, self.chains = 0.0, [[vector]]

    @functools.cached_property
    def _first(self):
        """``(m, ker m, ||m||_2)``."""
        # + 0.0 turns -0.0 into 0.0, whose sign LAPACK can pass on to a basis vector
        eye = np.eye(len(self.a), dtype=self.dtype)
        m = self._finite(self.a.astype(self.dtype) - self.lam * eye + 0.0, 1, 1.0)
        return (m, *_nullspace(m, 2.0 * self.radius))

    def _finite(self, power, k, growth):
        """``power``, the k-th of ``m``; :class:`IllConditionedJordan` if it or
        its perturbation bound ``growth`` overflows."""
        if not (growth < np.inf and np.isfinite(power).all()):
            raise IllConditionedJordan(
                f"power {k} of A - lambda I overflows near eigenvalue {self.lam:.6g}")
        return power

    @property
    def geo_mult(self) -> int:
        """1 for a simple cluster, else the nullity of ``m``."""
        return 1 if self.alg_mult == 1 else self._first[1].shape[1]

    @functools.cached_property
    def chains(self):
        """Jordan chains of the cluster, longest first (the order they are built in).

        The filtration is taken one power at a time until its nullity
        reaches the algebraic multiplicity or stops growing.  The number of
        chains of length >= k is the nullity increment between consecutive
        powers, chain tops at height k are chosen independent of
        ker(m^{k-1}) and of taller chains via SVD, and the rest of each
        chain is generated exactly as v_{j-1} = m v_j.
        """
        m, kernel, sig = self._first
        alg, lam = self.alg_mult, self.lam
        bases, power = [kernel[:, :0], kernel], m  # ker(m^0) = {0}
        for k in range(2, alg + 1):
            if bases[-1].shape[1] >= alg or bases[-1].shape[1] == bases[-2].shape[1]:
                break
            with np.errstate(over="ignore", invalid="ignore"):
                power = power @ m
                # cluster spread perturbs m^k by roughly k * radius * max(1, ||m||)^{k-1},
                # and a rounding-size error in lambda, eps * max(|lambda|, ||m||), by k
                # times that times ||m||^{k-1}; RANK_RTOL * ||m^k|| alone vanishes with
                # m^k, as on a chain alone in its matrix (Kagstrom & Ruhe, ACM TOMS 1980)
                growth = np.float64(max(1.0, sig)) ** (k - 1)
                rounding = np.finfo(float).eps * max(abs(lam), sig) * np.float64(sig) ** (k - 1)
                cut = 2.0 * k * max(self.radius * growth, rounding)
            power = self._finite(power, k, growth)
            bases.append(_nullspace(power, cut)[0])
        nullities = [b.shape[1] for b in bases]
        height = len(nullities) - 1
        if nullities[-1] > alg:
            raise IllConditionedJordan(
                f"nullity {nullities[-1]} of power {height} exceeds the cluster "
                f"multiplicity {alg} near eigenvalue {lam:.6g}")
        if nullities[-1] != alg:
            raise IllConditionedJordan(
                f"nullspace filtration saturated at {nullities[-1]} < algebraic "
                f"multiplicity {alg} near eigenvalue {lam:.6g}")

        widths = [nullities[k] - nullities[k - 1] for k in range(1, height + 1)]
        if any(widths[i + 1] > widths[i] for i in range(len(widths) - 1)):
            raise IllConditionedJordan(
                f"non-monotone nullity increments {widths} near eigenvalue {lam:.6g}")

        chains = []
        for k in range(height, 0, -1):
            taller = widths[k] if k < height else 0
            new_count = widths[k - 1] - taller
            if new_count == 0:
                continue
            blocked = [bases[k - 1]]
            blocked += [ch[k - 1][:, None] for ch in chains if len(ch) > k]
            s_mat = np.concatenate(blocked, axis=1)
            cand = bases[k]
            if s_mat.shape[1]:
                u, s, _ = np.linalg.svd(s_mat, full_matrices=False)
                rank = int(np.sum(s > RANK_RTOL * s[0]))
                u = u[:, :rank]
                cand = cand - u @ (u.conj().T @ cand)
            uc, sc, _ = np.linalg.svd(cand, full_matrices=False)
            if sc.size < new_count or sc[new_count - 1] < _TOP_SELECT_TOL:
                raise IllConditionedJordan(
                    f"cannot separate {new_count} chain top(s) at height {k} "
                    f"near eigenvalue {lam:.6g}")
            for t in range(new_count):
                vs = [uc[:, t]]
                for _ in range(k - 1):
                    vs.append(m @ vs[-1])
                vs.reverse()
                norm_max = max(map(_frobenius, vs))
                chains.append([v / norm_max for v in vs])
        return chains


def _group(vals, tol, kind):
    """Single-linkage groups of the Python scalars ``vals`` at distance ``tol``.

    Returns the groups as index lists (index order inside a group) and their
    means, both ordered by (real, imag) of the mean; a repeated group's mean is
    numpy's mean of its members, taken in range when their sum overflows.
    Raises :class:`ClusterAmbiguity` when two groups nearly touch under the
    tolerance.
    """
    band = AMBIGUITY_FACTOR * tol
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    # |z - w| >= the rounded gap of real parts, which only grows along the order
    near = []
    for k, i in enumerate(order):
        for j in order[k + 1:]:
            if vals[j].real - vals[i].real > band:
                break
            if (gap := abs(vals[i] - vals[j])) <= band:
                near.append((i, j, gap))
    if not near:
        return [[i] for i in order], [vals[i] for i in order]

    label = list(range(len(vals)))
    for i, j, gap in near:
        if gap <= tol:
            label = [label[j] if k == label[i] else k for k in label]
    groups = {}
    for i, k in enumerate(label):
        groups.setdefault(k, []).append(i)
    groups = list(groups.values())

    def members(g):
        return np.array([vals[i] for i in g])

    def mean(g):
        """numpy's mean of the members or, where it overflows, ``p`` times the
        mean of the members over ``p = 2**len(g).bit_length()``, an exact scaling."""
        with np.errstate(over="ignore", invalid="ignore"):
            plain = members(g).mean()
        p = 2.0 ** len(g).bit_length()
        return plain if np.isfinite(plain) else (members(g) / p).mean() * p

    means = [mean(g) if len(g) > 1 else vals[g[0]] for g in groups]
    order = sorted(range(len(groups)), key=lambda k: (means[k].real, means[k].imag))
    groups = [groups[k] for k in order]
    means = [means[k] for k in order]

    rank = {i: r for r, g in enumerate(groups) for i in g}
    cross = sorted((min(rank[i], rank[j]), max(rank[i], rank[j]), gap)
                   for i, j, gap in near if rank[i] != rank[j])
    if cross:
        i, j, gap = cross[0]
        raise ClusterAmbiguity(
            f"{kind} eigenvalue clusters at {means[i]:.6g} and {means[j]:.6g} "
            f"are separated by {gap:.3e}, within {AMBIGUITY_FACTOR}x the "
            f"clustering tolerance {tol:.3e}")
    return groups, means


def _clusters(a, values, vectors, tol):
    """``(real_clusters, pair_clusters)`` of the ``eig`` solve ``(values,
    vectors)`` of ``a`` at the absolute tolerance ``tol``, pair clusters
    holding only the upper-half-plane members.  Raises
    :class:`ClusterAmbiguity`."""
    w = values.tolist()
    near = next((z for z in w if tol < abs(z.imag) <= AMBIGUITY_FACTOR * tol), None)
    if near is not None:
        raise ClusterAmbiguity(
            f"eigenvalue {near:.6g} sits near the real axis: |Im| = {abs(near.imag):.3e} "
            f"is within {AMBIGUITY_FACTOR}x the clustering tolerance {tol:.3e}; "
            "its realness cannot be decided")
    real_idx = sorted((i for i, z in enumerate(w) if abs(z.imag) <= tol),
                      key=lambda i: w[i].real)
    upper_idx = [i for i, z in enumerate(w) if z.imag > tol]
    out = []
    for idx, pairs, vecs in ((real_idx, False, vectors.real), (upper_idx, True, vectors)):
        vals = [w[i] if pairs else w[i].real for i in idx]
        out.append([_Cluster(a, [vals[i] for i in g], mean, pairs,
                             vecs[:, idx[g[0]]] if len(g) == 1 else None)
                    for g, mean in zip(*_group(vals, tol, "complex" if pairs else "real"))])
    return tuple(out)


def _structure(clusters) -> EigenStructure:
    """Both multiplicities of every cluster of ``clusters``, real clusters
    first; only repeated eigenvalues cost an SVD.  Raises
    :class:`IllConditionedJordan` unless ``1 <= geo_mult <= alg_mult``."""
    found = ([], [])
    for pairs, kind in enumerate(clusters):
        for c in kind:
            lam, alg, geo = c.rep, c.alg_mult, c.geo_mult
            if not 1 <= geo <= alg:
                name = (f"pair {lam.real:.6g}+/-{lam.imag:.6g}j" if pairs
                        else f"eigenvalue {lam.real:.6g}")
                raise IllConditionedJordan(f"inconsistent multiplicities for {name}: "
                                           f"geometric {geo}, algebraic {alg}")
            found[pairs].append(ComplexPair(lam.real, lam.imag, alg, geo) if pairs
                                else RealEigenvalue(lam.real, alg, geo))
    return EigenStructure(*map(tuple, found))


class _Spectrum:
    """One ``eig`` solve of ``a``, with the ``clusters`` and ``structure``
    that every spectral call reads, made here: a matrix they refuse raises
    before any spectrum of it is kept.  :func:`_spectrum` hands the same
    object to each call on the same matrix, so the clusters' chains, the
    real chain basis with its inverse (``basis``, built on first use) and
    the case table of the last ``tol`` (``cases``) are computed once per
    matrix.  ``scale`` is ``_scale(a)``, shared by every band and residual
    limit; ``a`` must come from :func:`as_matrix` and ``cluster_tol`` from
    :func:`ddsim.core._tolerance`.  The chains and the basis are cached
    properties and ``cases`` is assigned whole, so a step that raises,
    whatever it raises, leaves none of its state behind.
    """

    def __init__(self, a, cluster_tol):
        self.a = a
        self.scale = _scale(a)
        tol = cluster_tol * self.scale
        self.clusters = _clusters(a, *np.linalg.eig(a), tol)
        self.structure = _structure(self.clusters)
        #: ``(tol, table)``: the case table :mod:`ddsim.classify` keeps for the last ``tol``
        self.cases = None

    @functools.cached_property
    def basis(self):
        """``(blocks, inv(Q), owners)`` for the real basis ``Q`` of the
        clusters' Jordan chains, once ``Q`` passes the singular-value ratio
        test: a pair's chain vector ``w`` gives the columns ``(Re w, Im w)``,
        and ``owners`` holds each chain's cluster index, in block order, real
        clusters first.  Each cluster's chains fill exactly its ``alg_mult``
        coordinates (two per pair), so ``Q`` is square.  The kept ``inv(Q)``
        is read-only; a caller that hands it out copies it."""
        real, pairs = self.clusters
        blocks, columns, owners = [], [], []
        for index, cluster in enumerate(real + pairs):
            lam = cluster.rep
            for chain in cluster.chains:
                owners.append(index)
                if index < len(real):
                    blocks.append(RealJordanBlock(lam.real, len(chain)))
                    columns += chain
                else:
                    blocks.append(ComplexJordanBlock(lam.real, lam.imag, len(chain)))
                    for w in chain:
                        columns += (w.real, w.imag)
        q = np.array(columns).T
        ratio = _singular_ratio(q)
        if ratio:
            raise IllConditionedJordan(f"Jordan basis is numerically singular ({ratio})")
        inverse = np.linalg.inv(q)
        inverse.flags.writeable = False
        return tuple(blocks), inverse, tuple(owners)


_slot = threading.local()


def _spectrum(a, cluster_tol):
    """The :class:`_Spectrum` of a validated ``a`` at ``cluster_tol``.

    Each thread keeps one: the spectrum of its last call, keyed by the shape
    and bytes of ``a`` (validation makes every matrix C-ordered) and by the
    validated ``cluster_tol``, which no bool equal to it passes.  A call on
    the same key reuses it; any other call replaces it, unless making its
    spectrum raises: the slot then keeps what it held.  Every result is the
    one a fresh spectrum gives, whatever came before, a failure included:
    nothing is kept before it is complete.
    """
    cluster_tol = _tolerance(cluster_tol, "cluster_tol")
    key = (a.shape, a.tobytes(), cluster_tol)
    last = getattr(_slot, "last", None)
    if last is not None and last[0] == key:
        return last[1]
    spectrum = _Spectrum(a, cluster_tol)
    _slot.last = key, spectrum
    return spectrum


def _forget():
    """Empty this thread's spectrum slot."""
    _slot.last = None


def eigen_structure(a, cluster_tol: float = CLUSTER_TOL) -> EigenStructure:
    """Eigenvalues of ``a`` grouped into clusters with both multiplicities.

    Real eigenvalues and conjugate pairs are reported separately; geometric
    multiplicity is the numerical nullity of ``a - lambda I`` (over the
    complex field for pairs), and 1 for a simple eigenvalue.  Raises
    :class:`ClusterAmbiguity` when the grouping is not numerically decidable
    at this tolerance.
    """
    return _spectrum(as_matrix(a), cluster_tol).structure


def _assemble_jordan(blocks, n, diagonal_cells=False, rho=1.0):
    """Weights ``d`` and ``B = diag(d) J diag(d)^{-1}`` for the ``n x n``
    canonical matrix ``J`` of ``blocks``, written entry by entry in one pass:
    coordinate k of a chain has weight ``rho**k``, so the identity cell
    coupling chain cells k and k + 1 is scaled by ``rho**k / rho**(k + 1)``,
    and ``rho = 1`` gives ``J``.  With ``diagonal_cells`` each rotation cell
    is ``diag(alpha + beta j, alpha - beta j)`` and ``B`` is complex."""
    out = np.zeros((n, n), dtype=complex if diagonal_cells else float)
    weights = []
    for b in blocks:
        if isinstance(b, RealJordanBlock):
            cell, size, length = ((0, 0, b.eigenvalue),), 1, b.size
        elif diagonal_cells:
            lam = complex(b.alpha, b.beta)
            cell, size, length = ((0, 0, lam), (1, 1, lam.conjugate())), 2, b.chain_length
        else:
            cell = ((0, 0, b.alpha), (0, 1, b.beta), (1, 0, -b.beta), (1, 1, b.alpha))
            size, length = 2, b.chain_length
        for k in range(length):
            r = len(weights)
            for dr, dc, value in cell:
                out[r + dr, r + dc] = value
            weights += (rho ** k,) * size
            if k + 1 < length:
                for t in range(size):
                    out[r + t, r + size + t] = rho ** k / rho ** (k + 1)
    return np.array(weights), out


def _complex_inverse(blocks, p):
    """``inv(Q U)`` from ``p = inv(Q)``, ``Q`` the real chain basis of ``blocks``:
    the unitary ``U`` maps each pair's columns ``(Re w, Im w)`` to ``(w, conj(w))
    / sqrt(2)``, which diagonalises each rotation cell, so ``Q U`` passes the ratio
    test exactly when ``Q`` does, and ``U^H p`` writes each pair's rows ``(x, y)``
    of ``p`` as ``((x - y j) / sqrt(2), (x + y j) / sqrt(2))``."""
    r = sum(b.size for b in blocks if isinstance(b, RealJordanBlock))
    x, y = p[r::2] / _SQRT2, p[r + 1::2] / _SQRT2
    out = p.astype(complex)
    out.real[r::2] = out.real[r + 1::2] = x
    out.imag[r::2] = -y
    out.imag[r + 1::2] = y
    return out


def real_jordan_form(a, cluster_tol: float = CLUSTER_TOL) -> RealJordanForm:
    """Real Jordan normal form ``J = P A P^{-1}`` with real ``P``.

    Real eigenvalues give upper Jordan blocks; conjugate pairs give chains of
    2x2 rotation-like cells coupled by identity cells above the diagonal.
    Block order is deterministic: real blocks by ascending eigenvalue, then
    pair blocks by (alpha, beta); longer chains first inside a cluster.

    Raises :class:`IllConditionedJordan` when the chain construction or the
    final residual check fails; callers may retry with another
    ``cluster_tol``.
    """
    spectrum = _spectrum(as_matrix(a), cluster_tol)
    blocks, p, _ = spectrum.basis
    _, j = _assemble_jordan(blocks, len(p))
    return RealJordanForm(J=j, P=p.copy(), blocks=blocks, residual=_checked_residual(
        spectrum.a, p, j, spectrum.scale, "Jordan"))
