"""From-scratch agglomerative hierarchical clustering.

The server-side substrate of FedClust (paper §3.4/Alg. 1, step ``HC(M, λ)``):
bottom-up merging over a precomputed proximity matrix using a
Lance-Williams distance update, a dendrogram object, and flat-cluster
extraction by distance threshold λ or by target cluster count.

Implementation notes (HPC guides): the merge loop maintains a dense working
distance matrix whose retired rows and columns are set to inf, so each step
is an allocation-free argmin plus one row update — no Python-level pairwise
loops.  For the paper's m = 100 clients a full clustering is
sub-millisecond.  Correctness is cross-checked against
``scipy.cluster.hierarchy`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dendrogram",
    "agglomerative",
    "hc_threshold_clusters",
    "largest_gap_threshold",
    "LINKAGES",
]

LINKAGES = ("single", "complete", "average", "ward")


@dataclass(frozen=True)
class Dendrogram:
    """Result of agglomerative clustering.

    ``merges`` follows the scipy linkage-matrix convention: row ``t`` is
    ``(a, b, height, size)`` where clusters ``a`` and ``b`` (ids < n are
    leaves, ids >= n are earlier merges) join at ``height`` into cluster
    ``n + t`` of ``size`` leaves.
    """

    merges: np.ndarray
    n_leaves: int
    linkage: str

    def heights(self) -> np.ndarray:
        return self.merges[:, 2]

    def cut(self, threshold: float) -> np.ndarray:
        """Flat cluster labels: apply merges whose height <= threshold.

        Matches ``scipy.cluster.hierarchy.fcluster(criterion="distance")``
        up to label permutation.  Labels are contiguous ints starting at 0,
        ordered by first appearance.
        """
        parent = np.arange(self.n_leaves + len(self.merges))
        size_ok = self.merges[:, 2] <= threshold
        for t, (a, b, _, _) in enumerate(self.merges):
            if not size_ok[t]:
                continue
            node = self.n_leaves + t
            parent[_find(parent, int(a))] = node
            parent[_find(parent, int(b))] = node
        roots = np.array([_find(parent, i) for i in range(self.n_leaves)])
        return _relabel(roots)

    def cut_k(self, k: int) -> np.ndarray:
        """Flat clustering with exactly ``k`` clusters (undo the last k-1
        merges)."""
        if not 1 <= k <= self.n_leaves:
            raise ValueError(f"k must be in [1, {self.n_leaves}], got {k}")
        parent = np.arange(self.n_leaves + len(self.merges))
        stop = len(self.merges) - (k - 1)
        for t, (a, b, _, _) in enumerate(self.merges[:stop]):
            node = self.n_leaves + t
            parent[_find(parent, int(a))] = node
            parent[_find(parent, int(b))] = node
        roots = np.array([_find(parent, i) for i in range(self.n_leaves)])
        return _relabel(roots)

    def num_clusters_at(self, threshold: float) -> int:
        return int(self.cut(threshold).max()) + 1

    def is_monotonic(self) -> bool:
        h = self.heights()
        return bool(np.all(np.diff(h) >= -1e-12))


def _find(parent: np.ndarray, i: int) -> int:
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:  # path compression
        parent[i], i = root, parent[i]
    return root


def _relabel(roots: np.ndarray) -> np.ndarray:
    seen: dict[int, int] = {}
    out = np.empty(roots.size, dtype=np.int64)
    for i, r in enumerate(roots):
        out[i] = seen.setdefault(int(r), len(seen))
    return out


def agglomerative(distance: np.ndarray, linkage: str = "average") -> Dendrogram:
    """Agglomerative HC over a precomputed square distance matrix.

    At each step the two closest active clusters merge; inter-cluster
    distances update via the Lance-Williams recurrence for the chosen
    linkage.  ``ward`` interprets the input as Euclidean distances (scipy
    convention) and updates on squared distances internally.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; available: {LINKAGES}")
    d = np.asarray(distance, dtype=np.float64)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if n == 0:
        raise ValueError("cannot cluster zero points")
    if not np.allclose(d, d.T, atol=1e-8):
        raise ValueError("distance matrix must be symmetric")
    if (np.diagonal(d) > 1e-8).any():
        raise ValueError("distance matrix must have a zero diagonal")
    if (d < -1e-12).any():
        raise ValueError("distances must be non-negative")

    if n == 1:
        return Dendrogram(np.zeros((0, 4)), 1, linkage)

    work = d.copy()
    if linkage == "ward":
        work = work**2
    np.fill_diagonal(work, np.inf)

    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    # cluster id carried by each working row (grows as merges happen)
    ids = np.arange(n, dtype=np.int64)
    merges = np.zeros((n - 1, 4))

    for t in range(n - 1):
        # global closest active pair: retired rows/columns hold inf, so a
        # plain argmin over the working matrix only sees active pairs
        flat = int(np.argmin(work))
        i, j = divmod(flat, n)
        if i > j:
            i, j = j, i
        h = work[i, j]
        height = float(np.sqrt(h)) if linkage == "ward" else float(h)
        merges[t] = (ids[i], ids[j], height, sizes[i] + sizes[j])

        # Lance-Williams update of row i (the surviving row), drop row j.
        ni, nj = float(sizes[i]), float(sizes[j])
        di = work[i, :]
        dj = work[j, :]
        if linkage == "single":
            new = np.minimum(di, dj)
        elif linkage == "complete":
            # complete linkage must ignore inf placeholders on inactive rows
            new = np.maximum(di, dj)
        elif linkage == "average":
            new = (ni * di + nj * dj) / (ni + nj)
        else:  # ward, on squared distances
            nk = sizes.astype(np.float64)
            tot = ni + nj + nk
            new = ((ni + nk) * di + (nj + nk) * dj - nk * h) / tot
        new[~active] = np.inf
        new[i] = np.inf
        new[j] = np.inf
        work[i, :] = new
        work[:, i] = new
        work[j, :] = np.inf
        work[:, j] = np.inf
        active[j] = False
        sizes[i] += sizes[j]
        ids[i] = n + t

    return Dendrogram(merges, n, linkage)


def largest_gap_threshold(dendrogram: Dendrogram, min_clusters: int = 1) -> float:
    """A data-driven clustering threshold: cut at the largest gap between
    consecutive merge heights.

    The paper leaves λ as a per-dataset hyper-parameter (its future work is
    a data-driven choice); this is the standard elbow heuristic the
    experiments use when no λ is supplied: a big jump in merge distance
    marks the boundary between "merging similar clients" and "merging
    genuinely different groups".  ``min_clusters`` restricts the search to
    cuts yielding at least that many clusters.
    """
    h = np.sort(dendrogram.heights())
    if h.size == 0:
        return 0.0
    if h.size == 1:
        return float(h[0] / 2.0)
    # Cutting between h[i] and h[i+1] yields (n_merges - i) clusters.
    limit = h.size - max(min_clusters - 1, 0)
    gaps = np.diff(h[:limit]) if limit >= 2 else np.array([0.0])
    if gaps.size == 0 or gaps.max() <= 0:
        return float(h[: max(limit, 1)].max() / 2.0)
    i = int(np.argmax(gaps))
    return float((h[i] + h[i + 1]) / 2.0)


def hc_threshold_clusters(
    distance: np.ndarray, threshold: float, linkage: str = "average"
) -> np.ndarray:
    """One call: ``HC(M, λ)`` of the paper — cluster labels at threshold λ."""
    return agglomerative(distance, linkage).cut(threshold)
