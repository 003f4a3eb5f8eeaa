"""Friends-of-friends statistics and structural graph metrics.

The paradox statistics need only a degree sequence (or histogram); the
structural metrics (components, global efficiency, betweenness-based central
point dominance) operate on the graph's CSR adjacency matrix,
``Graph.adjacency``, through ``scipy.sparse`` and ``scipy.sparse.csgraph``.

Efficiency and betweenness share one exact all-sources traversal engine:
a level-synchronous breadth-first search run separately on each connected
component, from batches of sources at once, with sparse matrix products.
Work grows with the sum of c(c - 1) over component sizes c, not with
n(n - 1), so isolated vertices and many small components cost almost
nothing; both metrics still normalize over all n vertices.  Past a fixed
limit on that sum, ``TooManyPairsError`` is raised before any traversal.
Betweenness accumulates Brandes' dependencies back down the same levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .errors import AllIsolatedError, TooManyPairsError
from .netgen import Graph

# Sources per batch of the all-sources traversal: each block is
# component size x batch.
_BATCH = 256
# Limit on connected ordered vertex pairs, sum of c(c - 1) over component
# sizes c, which traversal time grows with: ten times the criterion-9 graphs'
# ~10^8 (n = 10^4) and far above the benchmark's ~1.4 x 10^6 (n = 1200).  A
# single component at the limit (31 623 vertices) has 65 MB float64 blocks.
_MAX_PAIRS = 10**9


@dataclass(frozen=True)
class ParadoxStats:
    """Empirical bundle: mean degree, second moment, population variance,
    friends-of-friends mean, and the paradox gap k_ff - mean_k."""

    n: int
    mean_k: float
    second_moment: float
    variance: float
    k_ff: float
    gap: float


def stats_from_degrees(seq) -> ParadoxStats:
    """Paradox statistics of a degree sequence.

    k_ff = sum(k^2) / sum(k) and the variance uses divisor n (population
    form), which makes gap == variance / mean an exact identity.
    """
    degrees = np.asarray(seq, dtype=np.int64)
    n = degrees.size
    if n == 0:
        raise ValueError("degree sequence must be nonempty")
    if degrees.min() < 0:
        raise ValueError("degrees must be non-negative")
    s1 = int(degrees.sum())
    dmax = int(degrees.max())
    if float(dmax) ** 2 * n < 2**62:
        s2 = int(np.dot(degrees, degrees))
    else:
        s2 = sum(int(d) ** 2 for d in degrees)
    if s1 == 0:
        raise AllIsolatedError("all degrees are zero")
    mean = s1 / n
    m2 = s2 / n
    k_ff = s2 / s1
    variance = max(m2 - mean * mean, 0.0)
    return ParadoxStats(
        n=n,
        mean_k=mean,
        second_moment=m2,
        variance=variance,
        k_ff=k_ff,
        gap=k_ff - mean,
    )


def ff_total_adjacency(g: Graph) -> int:
    """Total number of friends of friends via the literal adjacency double
    sum: for every vertex i, add the degree of each of its neighbors.

    Equals sum(degree^2); kept as an explicit sum over every CSR neighbour
    entry so it can serve as an independent check of that identity.
    """
    deg = g.degrees()
    return int(deg[g.adjacency.indices].sum())


def kff_from_histogram(hist) -> float:
    """Friends-of-friends mean from a degree -> frequency map.

    Frequencies need not be normalized; only their ratios matter.
    """
    s1 = 0
    s2 = 0
    for k, w in hist.items():
        if k < 0 or w < 0:
            raise ValueError("degrees and frequencies must be non-negative")
        s1 += k * w
        s2 += k * k * w
    if s1 == 0:
        raise AllIsolatedError("histogram has no mass on positive degrees")
    return s2 / s1


def components(g: Graph) -> list[int]:
    """Connected-component sizes, largest first; they sum to n."""
    _, labels = csgraph.connected_components(g.adjacency, directed=False)
    return sorted(np.bincount(labels).tolist(), reverse=True)


def _traversals(g: Graph):
    """Breadth-first search from every vertex, one component at a time.

    For each batch of sources in each component of two or more vertices,
    yields the component's vertex ids, its adjacency in local ids, and the
    (size, batch) blocks of hop distances (-1 if unreached) and path counts.
    """
    _, labels = csgraph.connected_components(g.adjacency, directed=False)
    sizes = np.bincount(labels)
    pairs = int((sizes * (sizes - 1)).sum())
    if pairs > _MAX_PAIRS:
        raise TooManyPairsError(
            f"{pairs} connected ordered vertex pairs exceed the limit of {_MAX_PAIRS}"
        )
    # Permuted once by label, each component is a contiguous diagonal block.
    order = np.argsort(labels, kind="stable")
    permuted = g.adjacency[order][:, order]
    ends = np.cumsum(sizes)
    for label in np.flatnonzero(sizes > 1):
        lo, hi = ends[label] - sizes[label], ends[label]
        members, adj, size = order[lo:hi], permuted[lo:hi, lo:hi], hi - lo
        for start in range(0, size, _BATCH):
            sources = np.arange(start, min(start + _BATCH, size))
            cols = np.arange(sources.size)
            dist = np.full((size, sources.size), -1, dtype=np.int32)
            sigma = np.zeros((size, sources.size))
            dist[sources, cols] = 0
            sigma[sources, cols] = 1.0

            level = 0
            while (frontier := dist == level).any():
                paths = adj.dot(np.where(frontier, sigma, 0.0))
                newly = (paths > 0.0) & (dist < 0)
                dist[newly] = level + 1
                sigma[newly] = paths[newly]
                level += 1
            yield members, adj, dist, sigma


def global_efficiency(g: Graph) -> float:
    """Mean of 1/d(i, j) over ordered vertex pairs; disconnected pairs add 0."""
    n = g.n
    if n < 2:
        raise ValueError("global efficiency needs at least 2 vertices")
    total = 0.0
    for _, _, dist, _ in _traversals(g):
        total += float((1.0 / dist[dist > 0]).sum())
    return total / (n * (n - 1))


def betweenness(g: Graph) -> np.ndarray:
    """Exact betweenness centrality (unordered-pair counting) of every vertex:
    Brandes' dependencies flow back down each batch's breadth-first levels."""
    bc = np.zeros(g.n)
    for members, adj, dist, sigma in _traversals(g):
        delta = np.zeros(dist.shape)
        # Stopping at level 2 leaves the sources' own dependency at zero.
        for lev in range(int(dist.max()), 1, -1):
            on = dist == lev
            coef = np.zeros(dist.shape)
            coef[on] = (1.0 + delta[on]) / sigma[on]
            spread = adj.dot(coef)
            prev = dist == lev - 1
            delta[prev] += sigma[prev] * spread[prev]
        bc[members] += delta.sum(axis=1)
    # Each unordered pair was counted from both endpoints.
    return bc / 2.0


def central_point_dominance(g: Graph) -> float:
    """Freeman's central point dominance: average gap between the most
    central vertex's relative betweenness and everyone else's."""
    n = g.n
    if n < 3:
        raise ValueError("central point dominance needs at least 3 vertices")
    pairs = (n - 1) * (n - 2) / 2.0
    rel = betweenness(g) / pairs
    return float((rel.max() - rel).sum() / (n - 1))
