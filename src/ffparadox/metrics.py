"""Friends-of-friends statistics and structural graph metrics.

The paradox statistics need only a degree sequence (or histogram); the
structural metrics (components, global efficiency, betweenness-based central
point dominance) operate on the graph's CSR adjacency matrix,
``Graph.adjacency``, through ``scipy.sparse`` and ``scipy.sparse.csgraph``.

Efficiency and betweenness traverse only the vertices that have edges, so
isolated vertex ids cost nothing; both still normalize over all n vertices.
Betweenness is exact over all sources, computed by level-synchronous
accumulation over source batches with sparse matrix products, which keeps
10^4-vertex graphs tractable without sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .errors import AllIsolatedError
from .netgen import Graph

# Sources per block of the all-sources traversals: memory is n x batch.
_EFFICIENCY_BATCH = 1024
_BETWEENNESS_BATCH = 256


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


def _active_adjacency(g: Graph):
    """Adjacency restricted to the vertices with degree > 0.  Isolated
    vertices lie on no path, so dropping them changes no distance or
    betweenness among the rest."""
    active = np.flatnonzero(g.degrees())
    return active, g.adjacency[active][:, active]


def global_efficiency(g: Graph) -> float:
    """Mean of 1/d(i, j) over ordered vertex pairs; disconnected pairs add 0."""
    n = g.n
    if n < 2:
        raise ValueError("global efficiency needs at least 2 vertices")
    _, adj = _active_adjacency(g)
    k = adj.shape[0]
    total = 0.0
    for start in range(0, k, _EFFICIENCY_BATCH):
        idx = np.arange(start, min(start + _EFFICIENCY_BATCH, k))
        dist = csgraph.dijkstra(adj, directed=True, unweighted=True, indices=idx)
        finite = np.isfinite(dist) & (dist > 0)
        total += float((1.0 / dist[finite]).sum())
    return total / (n * (n - 1))


def betweenness(g: Graph) -> np.ndarray:
    """Exact betweenness centrality (unordered-pair counting) of every vertex.

    Runs breadth-first search and dependency accumulation for all sources in
    batches: shortest-path counts spread level by level through sparse
    products, then dependencies flow back down the level structure.
    """
    active, adj = _active_adjacency(g)
    k = adj.shape[0]
    bc = np.zeros(k)
    for start in range(0, k, _BETWEENNESS_BATCH):
        sources = np.arange(start, min(start + _BETWEENNESS_BATCH, k))
        b = sources.size
        cols = np.arange(b)
        dist = np.full((k, b), -1, dtype=np.int32)
        sigma = np.zeros((k, b))
        dist[sources, cols] = 0
        sigma[sources, cols] = 1.0

        level = 0
        while True:
            frontier = dist == level
            if not frontier.any():
                break
            paths = adj.dot(np.where(frontier, sigma, 0.0))
            newly = (paths > 0.0) & (dist < 0)
            dist[newly] = level + 1
            sigma[newly] = paths[newly]
            level += 1

        delta = np.zeros((k, b))
        for lev in range(level - 1, 0, -1):
            on = dist == lev
            coef = np.zeros((k, b))
            coef[on] = (1.0 + delta[on]) / sigma[on]
            spread = adj.dot(coef)
            prev = dist == lev - 1
            delta[prev] += sigma[prev] * spread[prev]
        delta[sources, cols] = 0.0
        bc += delta.sum(axis=1)
    full = np.zeros(g.n)
    # Each unordered pair was counted from both endpoints.
    full[active] = bc / 2.0
    return full


def central_point_dominance(g: Graph) -> float:
    """Freeman's central point dominance: average gap between the most
    central vertex's relative betweenness and everyone else's."""
    n = g.n
    if n < 3:
        raise ValueError("central point dominance needs at least 3 vertices")
    pairs = (n - 1) * (n - 2) / 2.0
    rel = betweenness(g) / pairs
    return float((rel.max() - rel).sum() / (n - 1))
