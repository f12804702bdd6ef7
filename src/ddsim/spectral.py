"""Eigenstructure extraction and real Jordan normal form for small dense matrices.

Jordan structure is ill-posed in floating point; this module is deliberately
scoped to small dimensions (target n <= 12), uses conservative singular-value
thresholds, and fails honestly with :class:`IllConditionedJordan` instead of
returning a form it cannot certify.  Every returned form carries a verified
similarity residual.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import _residual, _scale, _singular_ratio, _tolerance, as_matrix
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

    def multiplicity_total(self) -> int:
        return (sum(e.alg_mult for e in self.real_eigs)
                + 2 * sum(p.alg_mult for p in self.complex_pairs))


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
    """Orthonormal nullspace basis of ``m`` with a combined sv threshold."""
    u, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    thresh = max(RANK_RTOL * smax, extra_tol)
    nullity = int(np.sum(s <= thresh))
    if nullity == 0:
        return np.zeros((m.shape[0], 0), dtype=m.dtype)
    return vh[len(s) - nullity:].conj().T


class _Cluster:
    """One eigenvalue cluster and the nullspace filtration of ``m = a - rep I``.

    The filtration (over the complex field for conjugate pairs) is taken one
    power at a time, only as far as a caller needs it.  A simple cluster needs
    none of it: its geometric multiplicity is 1, and ``vector`` holds the
    unit eigenvector ``eig`` returned for it, when one was asked for.
    """

    def __init__(self, a, members, mean, complex_field, vector=None):
        self.rep = complex(mean)
        # a simple cluster's member is its mean
        self.radius = (float(np.abs(np.array(members) - self.rep).max())
                       if len(members) > 1 else 0.0)
        self.alg_mult = len(members)
        self.lam = self.rep if complex_field else self.rep.real
        self.a = a
        self.dtype = complex if complex_field else float
        self.vector = vector
        self.bases = []

    def _grow(self):
        """Append a nullspace basis of the next power of ``m``."""
        if not self.bases:
            eye = np.eye(self.a.shape[0], dtype=self.dtype)
            self.m = self.a.astype(self.dtype) - self.lam * eye
            self.power = eye
            self.bases.append(np.zeros((self.a.shape[0], 0), dtype=self.dtype))
        k = len(self.bases)
        if k == 2:
            self.sig = float(np.linalg.norm(self.m, 2))
        self.power = self.power @ self.m
        # cluster spread perturbs m^k by roughly k * radius * ||m||^{k-1}
        growth = max(1.0, self.sig) ** (k - 1) if k > 1 else 1.0
        self.bases.append(_nullspace(self.power, 2.0 * k * self.radius * growth))

    @property
    def geo_mult(self) -> int:
        """1 for a simple cluster, else the first width of the filtration."""
        if self.alg_mult == 1:
            return 1
        if not self.bases:
            self._grow()
        return self.bases[1].shape[1]

    def chains(self):
        """Jordan chains of the cluster, longest first.

        A simple cluster's one chain is its ``eig`` eigenvector.  Otherwise
        chains are built top-down from the filtration: the number of chains of
        length >= k is the nullity increment between consecutive powers, chain
        tops at height k are chosen independent of ker(m^{k-1}) and of taller
        chains via SVD, and the rest of each chain is generated exactly as
        v_{j-1} = m v_j.
        """
        if self.vector is not None:
            return [[self.vector]]
        alg, lam, bases = self.alg_mult, self.lam, self.bases
        for k in range(1, alg + 1):
            if len(bases) <= k:
                self._grow()
            if bases[k].shape[1] > alg:
                raise IllConditionedJordan(
                    f"nullity {bases[k].shape[1]} of power {k} exceeds the cluster "
                    f"multiplicity {alg} near eigenvalue {lam:.6g}")
            if bases[k].shape[1] in (alg, bases[k - 1].shape[1]):
                break
        nullities = [b.shape[1] for b in bases]
        if nullities[-1] != alg:
            raise IllConditionedJordan(
                f"nullspace filtration saturated at {nullities[-1]} < algebraic "
                f"multiplicity {alg} near eigenvalue {lam:.6g}")

        m = self.m
        height = len(nullities) - 1
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
                rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0
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
                norm_max = max(float(np.linalg.norm(v)) for v in vs)
                chains.append([v / norm_max for v in vs])
        chains.sort(key=len, reverse=True)
        return chains


def _group(vals, tol, kind):
    """Single-linkage groups of the Python scalars ``vals`` at distance ``tol``.

    Returns the groups as index lists (index order inside a group) and their
    means, both ordered by (real, imag) of the mean; a repeated group's mean is
    numpy's mean of its members.  Raises :class:`ClusterAmbiguity` when two
    groups nearly touch under the tolerance.
    """
    band = AMBIGUITY_FACTOR * tol
    near = [(i, j, gap) for i in range(len(vals)) for j in range(i + 1, len(vals))
            if (gap := abs(vals[i] - vals[j])) <= band]
    if not near:
        order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
        return [[i] for i in order], [vals[i] for i in order]

    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, gap in near:
        if gap <= tol:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    groups = list(groups.values())

    def members(g):
        return np.array([vals[i] for i in g])

    means = [members(g).mean() if len(g) > 1 else vals[g[0]] for g in groups]
    order = sorted(range(len(groups)), key=lambda k: (means[k].real, means[k].imag))
    groups = [groups[k] for k in order]
    means = [means[k] for k in order]

    rank = {i: r for r, g in enumerate(groups) for i in g}
    cross = sorted((min(rank[i], rank[j]), max(rank[i], rank[j]), gap)
                   for i, j, gap in near if rank[i] != rank[j])
    if cross:
        i, j, gap = cross[0]
        merged = [list(members(g)) for k, g in enumerate(groups) if k not in (i, j)]
        merged.append(list(members(groups[i] + groups[j])))
        raise ClusterAmbiguity(
            f"{kind} eigenvalue clusters at {means[i]:.6g} and {means[j]:.6g} "
            f"are separated by {gap:.3e}, within {AMBIGUITY_FACTOR}x the "
            f"clustering tolerance {tol:.3e}",
            groupings=[[list(members(g)) for g in groups], merged],
        )
    return groups, means


class _Spectrum:
    """One eigen-solve of ``a`` and the clusters of its spectrum.

    Every spectral fact of one public call is derived from this single pass:
    ``eigvals`` when only the eigen-structure is needed, ``eig`` when a
    Jordan basis may be built (simple clusters take their vector from it).
    ``scale`` is ``_scale(a)``, computed once for every band and residual
    limit of the call; ``a`` must come from :func:`as_matrix`.
    """

    def __init__(self, a, cluster_tol, vectors):
        self.a = a
        self.scale = _scale(a)
        self.tol = _tolerance(cluster_tol, "cluster_tol") * self.scale
        if vectors:
            self.values, self.vectors = np.linalg.eig(a)
        else:
            self.values, self.vectors = np.linalg.eigvals(a), None

    @functools.cached_property
    def clusters(self):
        """``(real_clusters, pair_clusters)``, pair clusters holding only the
        upper-half-plane members.  Raises :class:`ClusterAmbiguity`."""
        w, tol = self.values.tolist(), self.tol
        if any(tol < abs(z.imag) <= AMBIGUITY_FACTOR * tol for z in w):
            near_real = np.abs(self.values.imag) <= tol
            raise ClusterAmbiguity(
                "an eigenvalue sits near the real axis within "
                f"{AMBIGUITY_FACTOR}x the clustering tolerance {tol:.3e}; "
                "its realness cannot be decided",
                groupings=[list(self.values[near_real].real), list(self.values.real)],
            )
        real_idx = sorted((i for i, z in enumerate(w) if abs(z.imag) <= tol),
                          key=lambda i: w[i].real)
        upper_idx = [i for i, z in enumerate(w) if z.imag > tol]
        out = []
        for idx, pairs in ((real_idx, False), (upper_idx, True)):
            values = [w[i] if pairs else w[i].real for i in idx]
            clusters = []
            for g, mean in zip(*_group(values, tol, "complex" if pairs else "real")):
                vector = None
                if self.vectors is not None and len(g) == 1:
                    vector = self.vectors[:, idx[g[0]]]
                    vector = vector if pairs else vector.real
                clusters.append(_Cluster(self.a, [values[i] for i in g], mean, pairs, vector))
            out.append(clusters)
        return tuple(out)

    def structure(self) -> EigenStructure:
        """Both multiplicities of every cluster, real clusters first; only
        repeated eigenvalues cost an SVD."""
        found = ([], [])
        for pairs, clusters in enumerate(self.clusters):
            for c in clusters:
                lam, alg, geo = c.rep, c.alg_mult, c.geo_mult
                if not 1 <= geo <= alg:
                    name = (f"pair {lam.real:.6g}+/-{lam.imag:.6g}j" if pairs
                            else f"eigenvalue {lam.real:.6g}")
                    raise IllConditionedJordan(f"inconsistent multiplicities for {name}: "
                                               f"geometric {geo}, algebraic {alg}")
                found[pairs].append(ComplexPair(lam.real, lam.imag, alg, geo) if pairs
                                    else RealEigenvalue(lam.real, alg, geo))
        return EigenStructure(*map(tuple, found))

    def chain_inverse(self, diagonal_cells=False):
        """``(blocks, inv(Q))`` for the basis ``Q`` of the clusters' Jordan
        chains, once ``Q`` passes the singular-value ratio test.  A pair's
        chain vector ``w`` gives the columns ``(Re w, Im w)``, or with
        ``diagonal_cells`` the complex columns ``(w, conj(w)) / sqrt(2)``,
        which turn each rotation cell into ``diag(alpha + beta j,
        alpha - beta j)``."""
        cell = ((lambda w: (w / _SQRT2, w.conj() / _SQRT2)) if diagonal_cells
                else (lambda w: (w.real, w.imag)))
        blocks = []
        columns = []
        for pairs, clusters in enumerate(self.clusters):
            for cluster in clusters:
                lam = cluster.rep
                for chain in cluster.chains():
                    if pairs:
                        blocks.append(ComplexJordanBlock(lam.real, lam.imag, len(chain)))
                        columns.extend(part for w in chain for part in cell(w))
                    else:
                        blocks.append(RealJordanBlock(lam.real, len(chain)))
                        columns.extend(chain)

        if sum(b.dim for b in blocks) != self.a.shape[0]:
            raise IllConditionedJordan(
                "block dimensions do not add up to the matrix dimension")
        q = np.column_stack(columns)
        ratio = _singular_ratio(q)
        if ratio:
            raise IllConditionedJordan(f"Jordan basis is numerically singular ({ratio})")
        return tuple(blocks), np.linalg.inv(q)


def eigen_structure(a, cluster_tol: float = CLUSTER_TOL) -> EigenStructure:
    """Eigenvalues of ``a`` grouped into clusters with both multiplicities.

    Real eigenvalues and conjugate pairs are reported separately; geometric
    multiplicity is the numerical nullity of ``a - lambda I`` (over the
    complex field for pairs), and 1 for a simple eigenvalue.  Raises
    :class:`ClusterAmbiguity` when the grouping is not numerically decidable
    at this tolerance.
    """
    return _Spectrum(as_matrix(a), cluster_tol, vectors=False).structure()


def _assemble_jordan(blocks, n, diagonal_cells=False) -> np.ndarray:
    """Canonical matrix of ``blocks``: cells on the diagonal, identity
    couplings one cell to the right inside each chain.  With
    ``diagonal_cells`` each rotation cell is ``diag(alpha + beta j,
    alpha - beta j)`` and the result is complex."""
    j = np.zeros((n, n), dtype=complex if diagonal_cells else float)
    pos = 0
    for b in blocks:
        if isinstance(b, RealJordanBlock):
            cell, length = [[b.eigenvalue]], b.size
        elif diagonal_cells:
            lam = complex(b.alpha, b.beta)
            cell, length = [[lam, 0.0], [0.0, lam.conjugate()]], b.chain_length
        else:
            cell, length = [[b.alpha, b.beta], [-b.beta, b.alpha]], b.chain_length
        size = len(cell)
        for c in range(length):
            r = pos + size * c
            j[r:r + size, r:r + size] = cell
            if c + 1 < length:
                j[r:r + size, r + size:r + 2 * size] = np.eye(size)
        pos += b.dim
    return j


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
    spectrum = _Spectrum(as_matrix(a), cluster_tol, vectors=True)
    blocks, p = spectrum.chain_inverse()
    j = _assemble_jordan(blocks, p.shape[0])
    return RealJordanForm(J=j, P=p, blocks=blocks, residual=_checked_residual(
        spectrum.a, p, j, spectrum.scale, "Jordan"))
