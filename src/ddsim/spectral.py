"""Eigenstructure extraction and real Jordan normal form for small dense matrices.

Jordan structure is ill-posed in floating point; this module is deliberately
scoped to small dimensions (target n <= 12), uses conservative singular-value
thresholds, and fails honestly with :class:`IllConditionedJordan` instead of
returning a form it cannot certify.  Every returned form carries a verified
similarity residual.

Each thread keeps the spectrum of the matrix of its last spectral call
(:func:`_spectrum`), so ``classify`` followed by the builders on one matrix
pays for one spectral pass; every call still validates its input and
verifies its own output.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .core import _residual, _scale, _singular_ratio, _tolerance, as_matrix
from .errors import ClusterAmbiguity, DdsimError, IllConditionedJordan

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
    thresh = max(RANK_RTOL * s[0], extra_tol)
    nullity = int(np.sum(s <= thresh))
    if nullity == 0:
        return np.zeros((m.shape[0], 0), dtype=m.dtype)
    return vh[len(s) - nullity:].conj().T


class _Cluster:
    """One eigenvalue cluster and the nullspace filtration of ``m = a - rep I``.

    The filtration (over the complex field for conjugate pairs) is taken one
    power at a time, only as far as a caller needs it, and kept with the
    chains built from it.  A simple cluster needs none of it: its geometric
    multiplicity is 1, and ``vector`` holds the unit eigenvector ``eig``
    returned for it (column ``column`` of the vectors), once one was asked
    for.  Lazy state changes only when a step succeeds, so a step that
    raises leaves the cluster as it was.
    """

    def __init__(self, a, members, mean, complex_field, column=None):
        self.rep = complex(mean)
        # a simple cluster's member is its mean
        self.radius = (float(np.abs(np.array(members) - self.rep).max())
                       if len(members) > 1 else 0.0)
        self.alg_mult = len(members)
        self.lam = self.rep if complex_field else self.rep.real
        self.a = a
        self.dtype = complex if complex_field else float
        self.column = column
        self.vector = None
        self.bases = []
        self._chains = None

    def _grow(self):
        """Append a nullspace basis of the next power of ``m``."""
        n = self.a.shape[0]
        if self.bases:
            m, power, sig, first = self.m, self.power, self.sig, []
        else:
            power = np.eye(n, dtype=self.dtype)
            m, sig = self.a.astype(self.dtype) - self.lam * power, None
            first = [np.zeros((n, 0), dtype=self.dtype)]
        k = len(self.bases) or 1
        if k == 2:
            sig = float(np.linalg.norm(m, 2))
        power = power @ m
        # cluster spread perturbs m^k by roughly k * radius * ||m||^{k-1}
        growth = max(1.0, sig) ** (k - 1) if k > 1 else 1.0
        basis = _nullspace(power, 2.0 * k * self.radius * growth)
        self.m, self.power, self.sig = m, power, sig
        self.bases += first + [basis]

    @property
    def geo_mult(self) -> int:
        """1 for a simple cluster, else the first width of the filtration."""
        if self.alg_mult == 1:
            return 1
        if not self.bases:
            self._grow()
        return self.bases[1].shape[1]

    def chains(self):
        """Jordan chains of the cluster, longest first (the order they are built in).

        A simple cluster's one chain is its ``eig`` eigenvector.  Otherwise
        chains are built top-down from the filtration: the number of chains of
        length >= k is the nullity increment between consecutive powers, chain
        tops at height k are chosen independent of ker(m^{k-1}) and of taller
        chains via SVD, and the rest of each chain is generated exactly as
        v_{j-1} = m v_j.
        """
        if self.vector is not None:
            return [[self.vector]]
        if self._chains is not None:
            return self._chains
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
                norm_max = max(float(np.linalg.norm(v)) for v in vs)
                chains.append([v / norm_max for v in vs])
        self._chains = chains
        return chains


def _group(vals, tol, kind):
    """Single-linkage groups of the Python scalars ``vals`` at distance ``tol``.

    Returns the groups as index lists (index order inside a group) and their
    means, both ordered by (real, imag) of the mean; a repeated group's mean is
    numpy's mean of its members.  Raises :class:`ClusterAmbiguity` when two
    groups nearly touch under the tolerance.
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

    Every spectral fact of ``a`` is derived from this single pass, and kept:
    :func:`_spectrum` hands the same object to each call on the same matrix,
    so ``scale``, the values, the clusters with their filtrations and chains,
    and ``structure()`` are computed once per matrix, not once per call.
    ``eigvals`` is called when only the eigen-structure is needed, ``eig``
    when a Jordan basis may be built (simple clusters take their vector from
    it); :meth:`solve` adds the other routine's solve to a kept spectrum.
    ``scale`` is ``_scale(a)``, shared by every band and residual limit;
    ``a`` must come from :func:`as_matrix`.  Lazy state is assigned only once
    it is complete, so a step that raises leaves none of it behind.
    """

    def __init__(self, a, cluster_tol, vectors):
        self.a = a
        self.scale = _scale(a)
        self.tol = _tolerance(cluster_tol, "cluster_tol") * self.scale
        self.values = None
        self.solve(vectors)

    def solve(self, vectors):
        """Solve with ``eig`` when ``vectors`` is true, else ``eigvals``.

        ``solvers`` names the numpy routines whose values are the held
        ones.  When the new values are bitwise those already held, every
        derived fact stands and each simple cluster takes its vector;
        otherwise the new values replace them and every derived fact is
        dropped, so the spectrum is the one a fresh solve gives."""
        if vectors:
            solver, (values, vector_columns) = "eig", np.linalg.eig(self.a)
        else:
            solver, values, vector_columns = "eigvals", np.linalg.eigvals(self.a), None
        if (self.values is not None and values.dtype == self.values.dtype
                and values.tobytes() == self.values.tobytes()):
            self.solvers.add(solver)
        else:
            self.values, self.vectors, self.solvers = values, None, {solver}
            self._clusters = self._structure = None
        if vector_columns is not None:
            self.vectors = vector_columns
            if self._clusters is not None:
                self._give_vectors(self._clusters)

    def _give_vectors(self, clusters):
        for cluster in (c for group in clusters for c in group if c.column is not None):
            vector = self.vectors[:, cluster.column]
            cluster.vector = vector if cluster.dtype is complex else vector.real

    @property
    def clusters(self):
        """``(real_clusters, pair_clusters)``, pair clusters holding only the
        upper-half-plane members.  Raises :class:`ClusterAmbiguity`."""
        if self._clusters is not None:
            return self._clusters
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
            out.append([_Cluster(self.a, [values[i] for i in g], mean, pairs,
                                 idx[g[0]] if len(g) == 1 else None)
                        for g, mean in zip(*_group(values, tol, "complex" if pairs else "real"))])
        if self.vectors is not None:
            self._give_vectors(out)
        self._clusters = tuple(out)
        return self._clusters

    def structure(self) -> EigenStructure:
        """Both multiplicities of every cluster, real clusters first; only
        repeated eigenvalues cost an SVD."""
        if self._structure is not None:
            return self._structure
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
        self._structure = EigenStructure(*map(tuple, found))
        return self._structure

    def chain_inverse(self, diagonal_cells=False):
        """``(blocks, inv(Q))`` for the basis ``Q`` of the clusters' Jordan
        chains, once ``Q`` passes the singular-value ratio test.  A pair's
        chain vector ``w`` gives the columns ``(Re w, Im w)``, or with
        ``diagonal_cells`` the complex columns ``(w, conj(w)) / sqrt(2)``,
        which turn each rotation cell into ``diag(alpha + beta j,
        alpha - beta j)``."""
        blocks = []
        columns = []
        for pairs, clusters in enumerate(self.clusters):
            for cluster in clusters:
                lam = cluster.rep
                for chain in cluster.chains():
                    if pairs:
                        blocks.append(ComplexJordanBlock(lam.real, lam.imag, len(chain)))
                        for w in chain:
                            columns += ((w / _SQRT2, w.conj() / _SQRT2) if diagonal_cells
                                        else (w.real, w.imag))
                    else:
                        blocks.append(RealJordanBlock(lam.real, len(chain)))
                        columns += chain

        if len(columns) != self.a.shape[0]:
            raise IllConditionedJordan(
                "block dimensions do not add up to the matrix dimension")
        q = np.array(columns).T
        ratio = _singular_ratio(q)
        if ratio:
            raise IllConditionedJordan(f"Jordan basis is numerically singular ({ratio})")
        return tuple(blocks), np.linalg.inv(q)


_slot = threading.local()


def _spectrum(a, cluster_tol, vectors):
    """The :class:`_Spectrum` of a validated ``a`` at ``cluster_tol``, solved
    by ``eig`` when ``vectors`` is true and by ``eigvals`` otherwise.

    Each thread keeps one: the spectrum of its last call, keyed by the shape,
    memory layout and bytes of ``a`` and by ``cluster_tol``.  A call on the
    same key reuses it, solving once more only when the held values do not
    yet come from the routine asked for; any other call replaces it.  Every
    result is the one a fresh spectrum gives, whatever came before.
    """
    key = (a.shape, a.strides, a.tobytes(), cluster_tol)
    last = getattr(_slot, "last", None)
    if last is None or last[0] != key:
        spectrum = _Spectrum(a, cluster_tol, vectors)
        _slot.last = key, spectrum
        return spectrum
    spectrum = last[1]
    if ("eig" if vectors else "eigvals") not in spectrum.solvers:
        spectrum.solve(vectors)
    return spectrum


def _forget():
    """Empty this thread's spectrum slot."""
    _slot.last = None


def _forget_on_failure(call):
    """``call`` with this thread's spectrum dropped when anything other than
    a :class:`DdsimError` escapes it, so that no half-built state outlives a
    failure the program did not anticipate."""
    @functools.wraps(call)
    def guarded(*args, **kwargs):
        try:
            return call(*args, **kwargs)
        except DdsimError:
            raise
        except BaseException:
            _forget()
            raise
    return guarded


@_forget_on_failure
def eigen_structure(a, cluster_tol: float = CLUSTER_TOL) -> EigenStructure:
    """Eigenvalues of ``a`` grouped into clusters with both multiplicities.

    Real eigenvalues and conjugate pairs are reported separately; geometric
    multiplicity is the numerical nullity of ``a - lambda I`` (over the
    complex field for pairs), and 1 for a simple eigenvalue.  Raises
    :class:`ClusterAmbiguity` when the grouping is not numerically decidable
    at this tolerance.
    """
    return _spectrum(as_matrix(a), cluster_tol, vectors=False).structure()


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


@_forget_on_failure
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
    spectrum = _spectrum(as_matrix(a), cluster_tol, vectors=True)
    blocks, p = spectrum.chain_inverse()
    _, j = _assemble_jordan(blocks, len(p))
    return RealJordanForm(J=j, P=p, blocks=blocks, residual=_checked_residual(
        spectrum.a, p, j, spectrum.scale, "Jordan"))
