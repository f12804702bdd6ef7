import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import chain_matrix, spectrum_matrix, well_conditioned
from ddsim import (CLUSTER_TOL, ComplexJordanBlock, RealJordanBlock, eigen_structure,
                   jordan_residual_tol, real_jordan_form, similarity_residual)
import ddsim.spectral
from ddsim.core import _diag_similarity, _scale
from ddsim.errors import ClusterAmbiguity, IllConditionedJordan
from ddsim.spectral import (AMBIGUITY_FACTOR, RANK_RTOL, _assemble_jordan, _checked_residual,
                            _clusters, _group, _Spectrum)


def test_eigen_structure_triangular():
    es = eigen_structure([[-2.0, 1.0], [0.0, -3.0]])
    assert [(e.value, e.alg_mult, e.geo_mult) for e in es.real_eigs] == \
        [(-3.0, 1, 1), (-2.0, 1, 1)]
    assert es.complex_pairs == ()


def test_eigen_structure_rotation_pair():
    es = eigen_structure([[-1.0, 2.0], [-2.0, -1.0]])
    assert es.real_eigs == ()
    (p,) = es.complex_pairs
    assert p.alg_mult == 1 and p.geo_mult == 1
    np.testing.assert_allclose([p.alpha, p.beta], [-1.0, 2.0], atol=1e-9)


def test_eigen_structure_defective():
    es = eigen_structure([[-2.0, 1.0], [0.0, -2.0]])
    (e,) = es.real_eigs
    # rank(A + 2I) = 1, hence one eigenvector only
    assert (e.alg_mult, e.geo_mult) == (2, 1)
    np.testing.assert_allclose(e.value, -2.0, atol=1e-9)


def test_eigen_structure_multiplicity_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = spectrum_matrix(rng, n, dominant_pairs_only=False)
        es = eigen_structure(a)
        assert (sum(e.alg_mult for e in es.real_eigs)
                + 2 * sum(p.alg_mult for p in es.complex_pairs)) == n
        for e in es.real_eigs:
            assert 1 <= e.geo_mult <= e.alg_mult
        for p in es.complex_pairs:
            assert 1 <= p.geo_mult <= p.alg_mult
            assert p.beta > 0


def test_jordan_already_diagonal():
    jf = real_jordan_form(np.diag([-2.0, -3.0]))
    np.testing.assert_array_equal(jf.J, np.diag([-3.0, -2.0]))
    assert jf.residual <= 1e-12


def test_jordan_rotation_cell_is_its_own_form():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    jf = real_jordan_form(a)
    np.testing.assert_allclose(jf.J, a, atol=1e-12)
    assert jf.blocks == (ComplexJordanBlock(alpha=0.0, beta=1.0, chain_length=1),)


def test_jordan_defective_real_block():
    a = np.array([[-2.0, 1.0], [0.0, -2.0]])
    jf = real_jordan_form(a)
    np.testing.assert_allclose(jf.J, a, atol=1e-9)
    assert jf.blocks == (RealJordanBlock(eigenvalue=-2.0, size=2),)
    assert jf.residual <= 1e-8


def test_jordan_defective_pair_chain():
    a = np.array([[-1.0, 1.0, 1.0, 0.0],
                  [-1.0, -1.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 1.0],
                  [0.0, 0.0, -1.0, -1.0]])
    jf = real_jordan_form(a)
    (block,) = jf.blocks
    assert isinstance(block, ComplexJordanBlock) and block.chain_length == 2
    np.testing.assert_allclose([block.alpha, block.beta], [-1.0, 1.0], atol=1e-7)
    np.testing.assert_allclose(jf.J, a, atol=1e-6)


def test_jordan_transformed_defective_real_block():
    # integer-entry similarity keeps the eigenvalue split inside the band
    a0 = np.array([[3.0, 1.0], [0.0, 3.0]])
    q = np.array([[2.0, 1.0], [1.0, 1.0]])
    a = q @ a0 @ np.linalg.inv(q)
    jf = real_jordan_form(a)
    assert jf.blocks == (RealJordanBlock(eigenvalue=jf.blocks[0].eigenvalue, size=2),)
    np.testing.assert_allclose(jf.blocks[0].eigenvalue, 3.0, atol=1e-7)
    assert jf.residual <= jordan_residual_tol(a)


def test_jordan_three_chain_needs_wider_clustering():
    # a transformed 3-chain splits eigenvalues by ~eps^(1/3), beyond the
    # default band: the documented retry path is a wider cluster_tol
    a0 = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    rng = np.random.default_rng(0)
    q = well_conditioned(rng, 3, cond_limit=20.0)
    a = q @ a0 @ np.linalg.inv(q)
    try:
        jf = real_jordan_form(a, cluster_tol=1e-4)
    except IllConditionedJordan:
        pytest.fail("wider clustering tolerance should recover the 3-chain")
    assert jf.blocks == (RealJordanBlock(eigenvalue=jf.blocks[0].eigenvalue, size=3),)
    np.testing.assert_allclose(jf.blocks[0].eigenvalue, 2.0, atol=1e-4)
    assert jf.residual <= jordan_residual_tol(a)


def test_jordan_semisimple_double_eigenvalue():
    rng = np.random.default_rng(3)
    q = well_conditioned(rng, 4, cond_limit=20.0)
    a = q @ np.diag([2.0, 2.0, -1.0, 5.0]) @ np.linalg.inv(q)
    jf = real_jordan_form(a)
    sizes = sorted((b.eigenvalue, b.size) for b in jf.blocks)
    np.testing.assert_allclose([s[0] for s in sizes], [-1.0, 2.0, 2.0, 5.0], atol=1e-6)
    assert [s[1] for s in sizes] == [1, 1, 1, 1]


def test_jordan_block_ordering_deterministic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = spectrum_matrix(rng, 6, dominant_pairs_only=False)
        jf = real_jordan_form(a)
        reals = [b for b in jf.blocks if isinstance(b, RealJordanBlock)]
        pairs = [b for b in jf.blocks if isinstance(b, ComplexJordanBlock)]
        # real blocks first, ascending; then pairs in (alpha, beta) order
        assert jf.blocks[:len(reals)] == tuple(reals)
        assert [b.eigenvalue for b in reals] == sorted(b.eigenvalue for b in reals)
        assert [(b.alpha, b.beta) for b in pairs] == \
            sorted((b.alpha, b.beta) for b in pairs)


#: one cluster each, its chains given shortest first: (blocks, chain lengths)
_MIXED_CHAINS = {
    "J1+J3": ((RealJordanBlock(-2.0, 1), RealJordanBlock(-2.0, 3)), [3, 1]),
    "J1+J2+J2": ((RealJordanBlock(-2.0, 1), RealJordanBlock(-2.0, 2),
                  RealJordanBlock(-2.0, 2)), [2, 2, 1]),
    "pair-1+2": ((ComplexJordanBlock(-3.0, 1.0, 1), ComplexJordanBlock(-3.0, 1.0, 2)), [2, 1]),
}


@pytest.mark.parametrize("reverse", [False, True], ids=["upper", "reversed"])
@pytest.mark.parametrize("case", list(_MIXED_CHAINS))
def test_chains_come_longest_first_as_built(case, reverse):
    # nothing re-sorts the chains: the top-down build must give this order
    blocks, lengths = _MIXED_CHAINS[case]
    _, a = _assemble_jordan(blocks, sum(b.dim for b in blocks))
    if reverse:  # the similarity by the reversal permutation
        a = a[::-1, ::-1].copy()
    (cluster,) = [c for kind in _Spectrum(a, CLUSTER_TOL).clusters for c in kind]
    assert [len(chain) for chain in cluster.chains()] == lengths
    assert [b.size if isinstance(b, RealJordanBlock) else b.chain_length
            for b in real_jordan_form(a).blocks] == lengths


def test_first_svd_norm_moves_no_nullity():
    # the filtration scales its power-2 cut by sig, the largest singular
    # value of its power-1 SVD, not by a separate ||m||_2; the two agree to
    # within the band, and no singular value of m^2 lies within the band of
    # the cut, 4 max(radius max(1, sig), eps max(|lambda|, sig) sig), so
    # taking either gives the same nullity
    band = 8 * np.finfo(float).eps
    steps = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        kind, length = ("real", "pair")[seed % 2], 2 + seed // 2 % 3
        a = chain_matrix(rng, kind, length)
        with contextlib.suppress(ClusterAmbiguity):
            clusters = _Spectrum(a, (CLUSTER_TOL, 1e-4)[seed // 6 % 2]).clusters
            for cluster in clusters[0] + clusters[1]:
                if cluster.alg_mult == 1:
                    continue
                m, kernel, sig = cluster.first
                norm = np.linalg.norm(m, 2)
                assert abs(sig - norm) <= band * norm
                if 0 < kernel.shape[1] < cluster.alg_mult:  # the chains take m^2
                    steps += 1
                    sv = np.linalg.svd(m @ m, compute_uv=False)
                    rounding = np.finfo(float).eps * max(abs(cluster.lam), sig) * sig
                    cut = max(RANK_RTOL * sv[0],
                              4.0 * max(cluster.radius * max(1.0, sig), rounding))
                    assert (np.abs(sv - cut) > band * cut).all()
    assert steps >= 100


@pytest.mark.parametrize("cluster_tol", [CLUSTER_TOL, 1e-4])
def test_filtration_nullities_never_fall(monkeypatch, cluster_tol):
    # ker(m^k) lies in ker(m^{k+1}); a cut relative to ||m^k||, which
    # vanishes with m^k, once read a chain alone in its matrix as nullity 1
    # at power 1 and 0 at power 2
    nullities = []
    nullspace = ddsim.spectral._nullspace

    def recording(m, extra_tol=0.0):
        basis, sig = nullspace(m, extra_tol)
        nullities.append(basis.shape[1])
        return basis, sig

    monkeypatch.setattr(ddsim.spectral, "_nullspace", recording)
    rng = np.random.default_rng(23)
    filtrations = 0
    for draw in range(120):
        a = chain_matrix(rng, ("real", "pair")[draw % 2], 2 + draw // 2 % 3)
        nullities.clear()
        with contextlib.suppress(ClusterAmbiguity, IllConditionedJordan):
            _Spectrum(a, cluster_tol).basis
        # one chain makes at most one repeated cluster, its powers in order
        assert nullities == sorted(nullities), draw
        filtrations += len(nullities) > 1
    assert filtrations >= 30


@pytest.mark.parametrize("length, gap", [(2, 1e-5), (2, -1e-4), (2, 1e-3), (3, 3e-4),
                                         (3, -1e-3)])
def test_chain_beside_a_near_eigenvalue_gains_one_per_power(monkeypatch, length, gap):
    # eig returns a triangular matrix's diagonal exactly, so the chain's
    # cluster has radius 0; a cut of RANK_RTOL * ||m||^k once read the simple
    # eigenvalue gap away, with gap^k far above rounding, into the chain's
    # kernel at its last power
    nullities = []
    nullspace = ddsim.spectral._nullspace

    def recording(m, extra_tol=0.0):
        basis, sig = nullspace(m, extra_tol)
        nullities.append(basis.shape[1])
        return basis, sig

    monkeypatch.setattr(ddsim.spectral, "_nullspace", recording)
    a = np.diag([-2.0] * length + [-2.0 + gap])
    a[np.arange(length - 1), np.arange(1, length)] = 1.0
    for b in (a, a[::-1, ::-1].copy()):
        nullities.clear()
        _Spectrum(b, CLUSTER_TOL).basis
        assert nullities == list(range(1, length + 1))


def _chain(length):
    """The real Jordan chain of ``length`` at -2: eig returns its diagonal exactly."""
    return -2.0 * np.eye(length) + np.eye(length, k=1)


def test_filtration_that_stops_growing_is_refused_as_saturated(monkeypatch):
    # power 2 is made to keep the nullity 1 of power 1, so the filtration
    # stops below the algebraic multiplicity 3
    nullspace = ddsim.spectral._nullspace
    calls = []

    def stalled(m, extra_tol=0.0):
        basis, sig = nullspace(m, extra_tol)
        calls.append(basis.shape[1])
        return (basis[:, :1] if len(calls) == 2 else basis), sig

    monkeypatch.setattr(ddsim.spectral, "_nullspace", stalled)
    with pytest.raises(IllConditionedJordan) as info:
        _Spectrum(_chain(3), CLUSTER_TOL).basis
    assert str(info.value) == ("nullspace filtration saturated at 1 < algebraic "
                               "multiplicity 3 near eigenvalue -2")
    assert calls == [1, 2]


def test_chain_top_inside_the_lower_kernel_is_refused(monkeypatch):
    # power 2 is made to return ker m twice: its nullity is right, but no
    # direction of it lies outside ker m to start the chain of length 2
    nullspace = ddsim.spectral._nullspace
    kernels = []

    def repeated(m, extra_tol=0.0):
        basis, sig = nullspace(m, extra_tol)
        kernels.append(basis)
        return (np.hstack([kernels[0]] * 2) if len(kernels) == 2 else basis), sig

    monkeypatch.setattr(ddsim.spectral, "_nullspace", repeated)
    with pytest.raises(IllConditionedJordan) as info:
        _Spectrum(_chain(2), CLUSTER_TOL).basis
    assert str(info.value) == "cannot separate 1 chain top(s) at height 2 near eigenvalue -2"
    assert len(kernels) == 2


def test_jordan_random_recovery_and_invariants():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = spectrum_matrix(rng, n, dominant_pairs_only=False)
        jf = real_jordan_form(a)
        assert jf.residual <= jordan_residual_tol(a)
        assert similarity_residual(a, jf.P, jf.J) == jf.residual
        assert sum(b.dim for b in jf.blocks) == n
        tr_a, tr_j = np.trace(a), np.trace(jf.J)
        assert abs(tr_a - tr_j) <= 1e-6 * (1.0 + abs(tr_a))
        det_a, det_j = np.linalg.det(a), np.linalg.det(jf.J)
        assert abs(det_a - det_j) <= 1e-6 * (1.0 + abs(det_a))


def test_eigenvalue_recovery_within_tolerance():
    # diagonalizable with well-separated sampled eigenvalues: recovery to
    # 1e-6 and full geometric multiplicity everywhere
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a, reals, pairs = spectrum_matrix(rng, n, dominant_pairs_only=False,
                                          return_spectrum=True)
        expected = sorted(reals) + [complex(al, be) for al, be in pairs]
        es = eigen_structure(a)
        got = [e.value for e in es.real_eigs]
        got += [complex(p.alpha, p.beta) for p in es.complex_pairs]
        got.sort(key=lambda z: (np.real(z), np.imag(z)))
        expected.sort(key=lambda z: (np.real(z), np.imag(z)))
        np.testing.assert_allclose(got, expected, atol=1e-6)
        assert all(e.geo_mult == e.alg_mult for e in es.real_eigs)
        assert all(p.geo_mult == p.alg_mult for p in es.complex_pairs)


def test_cluster_ambiguity_raised_for_near_tolerance_gap():
    # two eigenvalues separated by ~1.5x the clustering band
    gap = 1.5e-7 * (1.0 + np.linalg.norm(np.diag([1.0, 1.0])))
    a = np.diag([1.0, 1.0 + gap])
    with pytest.raises(ClusterAmbiguity, match=(
            r"^real eigenvalue clusters at 1 and 1 are separated by 3\.621e-07, "
            r"within 2\.0x the clustering tolerance 2\.414e-07$")):
        eigen_structure(a)


def test_realness_ambiguity_names_its_eigenvalue():
    # a pair whose imaginary part sits between one and two clustering bands
    with pytest.raises(ClusterAmbiguity, match=(
            r"^eigenvalue -1\+3e-07j sits near the real axis: \|Im\| = 3\.000e-07 is "
            r"within 2\.0x the clustering tolerance 2\.414e-07; its realness cannot be "
            r"decided$")):
        eigen_structure([[-1.0, 3e-7], [-3e-7, -1.0]])


@pytest.mark.parametrize("what", ["Jordan", "certificate"])
def test_residual_limit_names_its_check(what):
    a = np.diag([-2.0, -3.0])
    assert _checked_residual(a, np.eye(2), a, _scale(a), what) == 0.0
    swapped = np.diag([-3.0, -2.0])
    with pytest.raises(IllConditionedJordan,
                       match=rf"^{what} residual 3\.071e-01 exceeds tolerance 4\.606e-06$"):
        _checked_residual(a, np.eye(2), swapped, _scale(a), what)


def _reference_group(values, tol, kind):
    """The union-find grouping over a numpy array that ``_group`` replaced,
    kept as the reference it must match bit for bit."""
    vals = values.tolist()
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    near = []
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            gap = abs(vals[i] - vals[j])
            if gap <= AMBIGUITY_FACTOR * tol:
                near.append((i, j, gap))
                if gap <= tol:
                    parent[find(i)] = find(j)
    groups = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    groups = list(groups.values())
    means = [values[g].mean() if len(g) > 1 else values[g[0]] for g in groups]
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


def _reference_clusters(w, tol):
    """The numpy realness split and cluster summaries ``_clusters``
    replaced: per kind, ``(rep, alg_mult, radius)`` of each cluster."""
    imag = w.imag
    near_real = np.abs(imag) <= tol
    near = np.flatnonzero((np.abs(imag) > tol) & (np.abs(imag) <= AMBIGUITY_FACTOR * tol))
    if near.size:
        z = complex(w[near[0]])
        raise ClusterAmbiguity(
            f"eigenvalue {z:.6g} sits near the real axis: |Im| = {abs(z.imag):.3e} "
            f"is within {AMBIGUITY_FACTOR}x the clustering tolerance {tol:.3e}; "
            "its realness cannot be decided")
    real_idx = np.flatnonzero(near_real)
    real_idx = real_idx[np.argsort(w[real_idx].real, kind="stable")]
    out = []
    for values, pairs in ((w[real_idx].real, False), (w[np.flatnonzero(imag > tol)], True)):
        summaries = []
        for g, mean in zip(*_reference_group(values, tol, "complex" if pairs else "real")):
            rep = complex(mean)
            radius = float(np.abs(values[g] - rep).max()) if len(g) > 1 else 0.0
            summaries.append((rep, len(g), radius))
        out.append(summaries)
    return out


def _bits(x):
    """Exact bits of nested lists and tuples of numbers; other leaves as is."""
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, (float, complex, np.floating, np.complexfloating)):
        z = complex(x)
        return z.real.hex(), z.imag.hex()
    return x


def _outcome(fn):
    try:
        return _bits(fn())
    except ClusterAmbiguity as exc:
        return str(exc)


#: Cluster bands (absolute) and gaps between neighbours, in multiples of the band.
_BANDS = (1e-7, 1e-3, 0.25)
_GAPS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 10.0)


@st.composite
def _values_to_group(draw):
    tol = draw(st.sampled_from(_BANDS))
    pairs = draw(st.booleans())
    # quarter integers step by exact multiples of the 0.25 band
    re = draw(st.one_of(st.floats(-10, 10), st.integers(-40, 40).map(lambda k: k / 4)))
    z = complex(re, draw(st.floats(50, 100)) if pairs else 0.0)
    vals = [z]
    for _ in range(draw(st.integers(0, 7))):
        step = draw(st.sampled_from((1.0, 1j, -1.0, (1 + 1j) / 2 ** 0.5))) if pairs else 1.0
        vals.append(vals[-1] + draw(st.sampled_from(_GAPS)) * tol * step)
    # real values are built in ascending order, the order clusters passes them
    if pairs or draw(st.booleans()):
        vals = draw(st.permutations(vals))
    return (vals if pairs else [v.real for v in vals]), tol, pairs


@settings(max_examples=400, deadline=None)
@given(_values_to_group())
@example(([0.0, 0.25, 0.5, 1.0], 0.25, False))   # neighbour gaps 1x, 1x, 2x the band
@example(([-1.0, -0.5, 0.0, 0.25], 0.25, False))
@example(([1.0, 1.5, 1.5, 2.0], 0.25, False))
def test_group_matches_the_reference_union_find(case):
    vals, tol, pairs = case
    kind = "complex" if pairs else "real"
    assert (_outcome(lambda: _group(vals, tol, kind))
            == _outcome(lambda: _reference_group(np.array(vals), tol, kind)))


@st.composite
def _spectra(draw):
    tol = draw(st.sampled_from(_BANDS))
    w = []
    for _ in range(draw(st.integers(1, 6))):
        re = draw(st.one_of(st.sampled_from((-1.0, 0.0, 1.0, 1.0 + tol, 1.0 + 2.5 * tol)),
                            st.floats(-10, 10)))
        if draw(st.booleans()):
            # a conjugate pair whose imaginary part may sit near the band
            im = draw(st.sampled_from(_GAPS[:-1] + (3.0, 1e3))) * tol
            w += [complex(re, im), complex(re, -im)]
        else:
            w.append(complex(re, 0.0))
    w = np.array(draw(st.permutations(w)))
    # eig returns real values when the whole spectrum is real
    if not w.imag.any() and draw(st.booleans()):
        w = w.real
    return w, tol


@settings(max_examples=400, deadline=None)
@given(_spectra())
def test_clusters_match_the_reference_realness_and_grouping(case):
    w, tol = case

    def summaries():
        return [[(c.rep, c.alg_mult, c.radius) for c in kind]
                for kind in _clusters(np.eye(len(w)), w, np.eye(len(w)), tol)]

    assert _outcome(summaries) == _outcome(lambda: _reference_clusters(w, tol))


def _reference_scaled(blocks, diagonal_cells, rho, pinned):
    """``(d, diag(d) J diag(d)^{-1})`` by the two-pass route: ``J`` at unit
    weights, a diagonal similarity by the chain weights ``rho**k``, then each
    pinned rotation cell rewritten at ``beta = |alpha|``."""
    _, j = _assemble_jordan(blocks, sum(b.dim for b in blocks), diagonal_cells)
    weights = []
    for b in blocks:
        length, cell = ((b.size, 1) if isinstance(b, RealJordanBlock)
                        else (b.chain_length, 2))
        for k in range(length):
            weights.extend((rho ** k,) * cell)
    d = np.array(weights)
    out = _diag_similarity(j, d)
    pos = 0
    for i, b in enumerate(blocks):
        if i in pinned:
            out[pos, pos + 1] = abs(b.alpha)
            out[pos + 1, pos] = -abs(b.alpha)
        pos += b.dim
    return d, out


_REAL_CHAINS = (RealJordanBlock(-3.0, 4), RealJordanBlock(0.7, 1), RealJordanBlock(2.5, 2))
_PAIR_CHAINS = (ComplexJordanBlock(-1.5, 0.7, 3), ComplexJordanBlock(2.0, 1.3, 1),
                ComplexJordanBlock(0.3, 0.2, 2))
_MIXED = (RealJordanBlock(-0.4, 2), ComplexJordanBlock(-1.1, 0.9, 2),
          RealJordanBlock(5.0, 1), ComplexJordanBlock(3.0, 2.9, 1))
#: a chain beside a pair just off the |alpha| = |beta| boundary, pinned onto it
_BOUNDARY = (RealJordanBlock(-3.0, 2), ComplexJordanBlock(-1.0, 1.0 + 3e-10, 1))


@pytest.mark.parametrize("blocks, diagonal_cells, pinned", [
    (_REAL_CHAINS, False, ()),
    (_PAIR_CHAINS, False, ()),
    (_PAIR_CHAINS, True, ()),
    (_MIXED, False, ()),
    (_MIXED, True, ()),
    (_BOUNDARY, False, {1}),
], ids=["real", "pair", "pair-diagonal", "mixed", "mixed-diagonal", "boundary-pinned"])
@pytest.mark.parametrize("rho", [1.0, 2.0, 2.0 / (0.5 * 0.13)])
def test_one_pass_writer_matches_the_two_pass_route(blocks, diagonal_cells, pinned, rho):
    # the writer takes each pinned block as the builders hand it on
    handed = [replace(b, beta=abs(b.alpha)) if i in pinned else b for i, b in enumerate(blocks)]
    d, out = _assemble_jordan(handed, sum(b.dim for b in blocks), diagonal_cells, rho)
    d_ref, out_ref = _reference_scaled(blocks, diagonal_cells, rho, pinned)
    assert d.dtype == d_ref.dtype and d.tobytes() == d_ref.tobytes()
    assert out.dtype == out_ref.dtype and out.tobytes() == out_ref.tobytes()
    if pinned:
        assert out[2, 3] == -out[3, 2] == abs(_BOUNDARY[1].alpha) != _BOUNDARY[1].beta
