"""Tests for the clustering substrate, including scipy cross-validation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.spatial.distance as ssd
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering import (
    Dendrogram,
    adjusted_rand_index,
    agglomerative,
    condensed,
    hc_threshold_clusters,
    proximity_matrix,
    purity,
    squareform,
)


class TestDistance:
    def test_euclidean_matches_scipy(self):
        x = np.random.default_rng(0).normal(size=(12, 7))
        ours = proximity_matrix(x, "euclidean")
        theirs = ssd.squareform(ssd.pdist(x, "euclidean"))
        np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_cosine_matches_scipy(self):
        x = np.random.default_rng(1).normal(size=(10, 5))
        ours = proximity_matrix(x, "cosine")
        theirs = ssd.squareform(ssd.pdist(x, "cosine"))
        np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_sqeuclidean(self):
        x = np.random.default_rng(2).normal(size=(6, 3))
        np.testing.assert_allclose(
            proximity_matrix(x, "sqeuclidean"),
            proximity_matrix(x, "euclidean") ** 2,
            atol=1e-10,
        )

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="available"):
            proximity_matrix(np.zeros((3, 2)), "manhattan")

    def test_condensed_squareform_roundtrip(self):
        x = np.random.default_rng(3).normal(size=(8, 4))
        d = proximity_matrix(x)
        np.testing.assert_allclose(squareform(condensed(d), 8), d, atol=1e-12)


def _scipy_labels(x, linkage, t):
    z = sch.linkage(ssd.pdist(x), method=linkage)
    return sch.fcluster(z, t=t, criterion="distance")


class TestAgainstScipy:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_merge_heights_match_scipy(self, linkage):
        x = np.random.default_rng(4).normal(size=(15, 4))
        ours = agglomerative(proximity_matrix(x), linkage)
        theirs = sch.linkage(ssd.pdist(x), method=linkage)
        np.testing.assert_allclose(
            np.sort(ours.heights()), np.sort(theirs[:, 2]), rtol=1e-8
        )

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_clusters_match_scipy(self, linkage, seed):
        x = np.random.default_rng(seed).normal(size=(20, 3))
        d = proximity_matrix(x)
        dend = agglomerative(d, linkage)
        # Cut strictly between two consecutive merge heights so the flat
        # clustering is insensitive to float tie-breaking at the boundary.
        h = np.sort(dend.heights())
        mid = len(h) // 2
        t = float((h[mid] + h[mid + 1]) / 2.0)
        ours = dend.cut(t)
        theirs = _scipy_labels(x, linkage, t)
        assert adjusted_rand_index(theirs, ours) == pytest.approx(1.0)

    @given(
        x=hnp.arrays(
            np.float64,
            st.tuples(st.integers(3, 12), st.integers(2, 4)),
            elements=st.floats(-5, 5, allow_nan=False),
        ),
        linkage=st.sampled_from(["single", "complete", "average"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_heights_match_scipy(self, x, linkage):
        # Skip degenerate inputs where all points coincide.
        if np.allclose(x, x[0]):
            return
        d = proximity_matrix(x)
        # Skip inputs with tied pairwise distances: which of two equal-height
        # merges happens first is implementation-defined (scipy's nn-chain
        # vs our ordering), and under average linkage the choice changes
        # later heights legitimately — not a correctness difference.
        pair = np.sort(d[np.triu_indices_from(d, k=1)])
        if np.any(np.diff(pair) <= 1e-9 * np.maximum(pair[1:], 1.0)):
            return
        ours = agglomerative(d, linkage)
        theirs = sch.linkage(ssd.pdist(x), method=linkage)
        # atol=1e-6: duplicate points give exactly 0 in scipy's pdist but
        # O(1e-8) in our GEMM-expansion distances (catastrophic cancellation
        # is clamped at 0 but not snapped); heights may differ by that much.
        np.testing.assert_allclose(
            np.sort(ours.heights()), np.sort(theirs[:, 2]), rtol=1e-6, atol=1e-6
        )


def masked_agglomerative_merges(d, linkage):
    """The merge loop with a fresh active-pair mask per merge (O(N^3)
    allocation): oracle for the in-place inf-retirement loop."""
    n = d.shape[0]
    work = d.copy() ** 2 if linkage == "ward" else d.copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    merges = np.zeros((n - 1, 4))
    for t in range(n - 1):
        masked = np.where(active[:, None] & active[None, :], work, np.inf)
        i, j = divmod(int(np.argmin(masked)), n)
        if i > j:
            i, j = j, i
        h = work[i, j]
        height = float(np.sqrt(h)) if linkage == "ward" else float(h)
        merges[t] = (ids[i], ids[j], height, sizes[i] + sizes[j])
        ni, nj = float(sizes[i]), float(sizes[j])
        di, dj = work[i, :], work[j, :]
        if linkage == "single":
            new = np.minimum(di, dj)
        elif linkage == "complete":
            new = np.maximum(di, dj)
        elif linkage == "average":
            new = (ni * di + nj * dj) / (ni + nj)
        else:
            nk = sizes.astype(np.float64)
            new = ((ni + nk) * di + (nj + nk) * dj - nk * h) / (ni + nj + nk)
        new[~active] = np.inf
        new[i] = new[j] = np.inf
        work[i, :] = new
        work[:, i] = new
        active[j] = False
        sizes[i] += sizes[j]
        ids[i] = n + t
    return merges


class TestAgainstMaskedOracle:
    """``agglomerative`` merges bit for bit like the masked-argmin loop,
    including its lowest-flat-index tie-break."""

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle(self, linkage, ties, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(2, 60))
        if ties:  # integer distances in {0..3}: most pairs tie
            d = np.triu(g.integers(0, 4, (n, n)), 1).astype(np.float64)
            d = d + d.T
        else:
            d = proximity_matrix(g.normal(size=(n, 4)))
        np.testing.assert_array_equal(
            agglomerative(d, linkage).merges, masked_agglomerative_merges(d, linkage)
        )

    @given(
        d=st.integers(2, 16).flatmap(
            lambda n: hnp.arrays(np.float64, (n, n), elements=st.integers(0, 3))
        ),
        linkage=st.sampled_from(["single", "complete", "average", "ward"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_ties(self, d, linkage):
        d = np.triu(d, 1)
        d = d + d.T
        np.testing.assert_array_equal(
            agglomerative(d, linkage).merges, masked_agglomerative_merges(d, linkage)
        )


class TestDendrogram:
    @pytest.fixture
    def blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal([0, 0], 0.1, size=(6, 2))
        b = rng.normal([10, 0], 0.1, size=(5, 2))
        c = rng.normal([0, 10], 0.1, size=(4, 2))
        return np.concatenate([a, b, c]), np.array([0] * 6 + [1] * 5 + [2] * 4)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_recovers_blobs_at_threshold(self, blobs, linkage):
        x, truth = blobs
        labels = hc_threshold_clusters(proximity_matrix(x), 5.0, linkage)
        assert adjusted_rand_index(truth, labels) == pytest.approx(1.0)

    def test_cut_extremes(self, blobs):
        x, _ = blobs
        dend = agglomerative(proximity_matrix(x))
        assert dend.cut(0.0).max() + 1 == len(x)  # every point its own cluster
        assert dend.cut(np.inf).max() + 1 == 1  # one global cluster

    def test_cut_k(self, blobs):
        x, truth = blobs
        dend = agglomerative(proximity_matrix(x))
        for k in [1, 2, 3, 5, len(x)]:
            labels = dend.cut_k(k)
            assert labels.max() + 1 == k
        assert adjusted_rand_index(truth, dend.cut_k(3)) == pytest.approx(1.0)

    def test_cut_k_validation(self, blobs):
        x, _ = blobs
        dend = agglomerative(proximity_matrix(x))
        with pytest.raises(ValueError):
            dend.cut_k(0)
        with pytest.raises(ValueError):
            dend.cut_k(len(x) + 1)

    def test_num_clusters_monotone_in_threshold(self, blobs):
        x, _ = blobs
        dend = agglomerative(proximity_matrix(x))
        counts = [dend.num_clusters_at(t) for t in np.linspace(0, 15, 30)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_monotonic_heights(self, linkage):
        x = np.random.default_rng(5).normal(size=(25, 3))
        dend = agglomerative(proximity_matrix(x), linkage)
        assert dend.is_monotonic()

    def test_single_point(self):
        dend = agglomerative(np.zeros((1, 1)))
        assert dend.n_leaves == 1
        np.testing.assert_array_equal(dend.cut(1.0), [0])

    def test_merge_sizes_sum(self):
        x = np.random.default_rng(6).normal(size=(10, 2))
        dend = agglomerative(proximity_matrix(x))
        assert dend.merges[-1, 3] == 10


class TestInputValidation:
    def test_asymmetric(self):
        d = np.array([[0, 1.0], [2.0, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            agglomerative(d)

    def test_nonzero_diagonal(self):
        d = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            agglomerative(d)

    def test_negative_distance(self):
        d = np.zeros((2, 2))
        d[0, 1] = d[1, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            agglomerative(d)

    def test_unknown_linkage(self):
        with pytest.raises(ValueError, match="available"):
            agglomerative(np.zeros((2, 2)), "centroid")

    def test_nonsquare(self):
        with pytest.raises(ValueError):
            agglomerative(np.zeros((2, 3)))


class TestClusterMetrics:
    def test_ari_identical(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_ari_permutation_invariant(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([2, 2, 0, 0, 1, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_ari_random_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, 3000)
        b = rng.integers(0, 3, 3000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_purity_perfect(self):
        a = np.array([0, 0, 1, 1])
        assert purity(a, a) == 1.0

    def test_purity_single_cluster(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.zeros(4, dtype=int)
        assert purity(truth, pred) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            purity(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
