"""Friends-of-friends statistics and structural graph metrics.

The paradox statistics need only a degree sequence (or histogram); the
structural metrics (components, global efficiency, betweenness-based central
point dominance) operate on the graph's CSR adjacency matrix,
``Graph.adjacency``, through ``scipy.sparse``, and read its component labels,
``Graph.labels``, which a graph computes once for all of them.

Efficiency and betweenness share one breadth-first engine.  Each connected
component of two or more vertices is traversed on its own, small components
packed together (their adjacency is block-diagonal, so no path crosses),
with sources taken in batches.  Work grows with the sum of c(c - 1) over
component sizes c, not with n(n - 1), so isolated vertices and many small
components cost almost nothing; both metrics still normalize over all n
vertices.  Past a fixed limit on that sum, ``TooManyPairsError`` is raised
before any traversal.  A batch's levels are found bit-parallel (multi-source
BFS, Then et al., VLDB 2014): each vertex holds one bit per source in
``uint64`` words, and a level is one OR over every vertex's neighbours'
words.  Efficiency pop-counts each level: the exact integer counts N_k of
ordered pairs at hop distance k give the sum of 1/d(i, j) as the sum of
N_k / k, independent of vertex labels, windows and batches.

Betweenness runs that engine on the 2-core alone (Baglioni, Geraci,
Pellegrini & Lastres, ASONAM 2012).  Degree-1 vertices are peeled in
vectorized rounds, each handing its weight (1 plus its peeled children's)
to its one live neighbour; every shortest path into a pendant tree is
fixed.  On the weighted core, each level is unpacked into the flat indices
of its (vertex, source) entries, shortest paths to them are counted with
one sparse matrix product per level, and Brandes' dependencies, seeded by
each vertex's weight instead of 1, flow back down those index lists, scaled
by the source's weight.  Each vertex then adds the pairs its tree branches
separate, an exact integer from its component's size and its subtree
weights; a component that is a tree has those terms alone and is not
traversed.

So one ``analyze`` runs the engine twice, over different windows:
betweenness over the 2-core, since shortest paths between core vertices
never enter a pendant tree, and efficiency over every component of two or
more vertices, since it also counts every pair that has a tree vertex.
Efficiency's time grows with levels x window: a 3000-vertex path took
4.0-4.5 s on a 2-CPU Xeon host.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AllIsolatedError, DivergentError, TooManyPairsError
from .netgen import Graph

# Sources per batch of the all-sources traversal, and the most vertices that
# small components packed together may have: betweenness's blocks are window
# size x batch floats, efficiency's window size x 4 uint64 words.
_BATCH = 256
# Limit on connected ordered vertex pairs, sum of c(c - 1) over component
# sizes c, which traversal time grows with: ten times the criterion-9 graphs'
# ~10^8 (n = 10^4) and far above the benchmark's ~1.4 x 10^6 (n = 1200).  One
# batch on a single component at the limit (31 623 vertices, mean degree 4)
# peaks at about 11 MB of arrays for efficiency and 470 MB for betweenness
# (tracemalloc).
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


def _moment_sums(pairs):
    """Sums of k * w and k * k * w over (degree k, weight w) pairs; for
    Python-int k and w they are exact and never wrap."""
    s1 = s2 = 0
    for k, w in pairs:
        if k < 0 or w < 0:
            raise ValueError("degrees and frequencies must be non-negative")
        s1 += k * w
        s2 += k * k * w
    return s1, s2


def stats_from_degrees(seq) -> ParadoxStats:
    """Paradox statistics of a degree sequence.

    k_ff = sum(k^2) / sum(k) and the variance uses divisor n (population
    form).  The sums are exact integers over the distinct degrees, and so is
    n * sum(k^2) - sum(k)^2 >= 0; divided by n^2 and by n * sum(k) it gives
    the variance and the gap, so gap == variance / mean up to one rounding
    per field.
    """
    degrees = np.asarray(seq, dtype=np.int64)
    n = degrees.size
    if n == 0:
        raise ValueError("degree sequence must be nonempty")
    values, counts = np.unique(degrees, return_counts=True)
    s1, s2 = _moment_sums(zip(values.tolist(), counts.tolist()))
    if s1 == 0:
        raise AllIsolatedError("all degrees are zero")
    spread = n * s2 - s1 * s1
    return ParadoxStats(
        n=n,
        mean_k=s1 / n,
        second_moment=s2 / n,
        variance=spread / (n * n),
        k_ff=s2 / s1,
        gap=spread / (n * s1),
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
    # Numpy integer keys or weights would wrap in int64; Python ints never do.
    s1, s2 = _moment_sums((np.asarray(k).item(), np.asarray(w).item())
                          for k, w in hist.items())
    if s1 == 0:
        raise AllIsolatedError("histogram has no mass on positive degrees")
    return s2 / s1


def components(g: Graph) -> list[int]:
    """Connected-component sizes, largest first; they sum to n."""
    return sorted(np.bincount(g.labels).tolist(), reverse=True)


def _sizes(g: Graph) -> np.ndarray:
    """The size of every component of ``g``.

    Raises ``TooManyPairsError`` when the connected ordered vertex pairs,
    the sum of c(c - 1) over component sizes c, exceed ``_MAX_PAIRS``.
    """
    sizes = np.bincount(g.labels)
    pairs = int((sizes * (sizes - 1)).sum())
    if pairs > _MAX_PAIRS:
        raise TooManyPairsError(
            f"{pairs} connected ordered vertex pairs exceed the limit of {_MAX_PAIRS}"
        )
    return sizes


def _batches(g: Graph, vertices):
    """Source batches of an all-sources traversal of the subgraph induced by
    ``vertices``, a window of components at a time.

    ``vertices`` are ascending ids whose components under ``g.labels`` each
    keep two or more of them, and each such component's induced subgraph is
    connected.  Ordered by label, each component is a contiguous diagonal
    block.  Each one larger than ``_BATCH`` is a window of its own; runs of
    consecutive smaller ones are packed into windows of at most ``_BATCH``
    vertices.  For each batch of sources in each window, yields the window's
    vertex ids, its adjacency in local ids, the ``(lo, hi)`` spans of local
    ids of its components, and the batch's first source and size (its
    sources are local vertices ``start`` to ``start + b - 1``).
    """
    # A packed window's adjacency is still block-diagonal, so no path
    # crosses from one of its components to another.
    order = vertices[np.argsort(g.labels[vertices], kind="stable")]
    permuted = g.adjacency[order][:, order]
    sizes = np.bincount(g.labels[order])
    # Each window: its span of the permuted order, and its components' spans
    # within it.
    windows, parts, lo, hi = [], [], 0, 0
    for size in sizes[sizes > 0].tolist():
        if parts and hi + size - lo > _BATCH:
            windows.append((lo, hi, parts))
            parts, lo = [], hi
        parts.append((hi - lo, hi + size - lo))
        hi += size
    if parts:
        windows.append((lo, hi, parts))
    for lo, hi, parts in windows:
        members, adj = order[lo:hi], permuted[lo:hi, lo:hi]
        for start in range(0, hi - lo, _BATCH):
            yield members, adj, parts, start, min(_BATCH, hi - lo - start)


def _levels(adj, start, b):
    """Breadth-first levels of one batch: for hop distance 1, 2, ... until
    one is empty, the ``uint64`` words whose bit j of row v is set when
    source ``start + j`` first reaches local vertex v at that distance."""
    # Bit j of a vertex's words: source start + j has reached it.
    j = np.arange(b, dtype=np.uint64)
    frontier = np.zeros((adj.shape[0], -(-b // 64)), dtype=np.uint64)
    frontier[start + j, j >> 6] = np.uint64(1) << (j & 63)
    unseen = ~frontier
    while True:
        # A vertex's next frontier is the OR of its neighbours' words.
        # reduceat gives an empty row its start element, not 0: every row
        # here has a neighbour, since every window's components have two or
        # more vertices and are connected.
        frontier = np.bitwise_or.reduceat(
            frontier.take(adj.indices, axis=0), adj.indptr[:-1], axis=0
        )
        frontier &= unseen
        if not frontier.any():
            return
        unseen ^= frontier
        yield frontier


def global_efficiency(g: Graph) -> float:
    """Mean of 1/d(i, j) over ordered vertex pairs; disconnected pairs add 0."""
    n = g.n
    if n < 2:
        raise ValueError("global efficiency needs at least 2 vertices")
    # counts[k]: ordered pairs at hop distance k, exact integers.
    counts = Counter()
    vertices = np.flatnonzero(_sizes(g)[g.labels] > 1)
    for _, adj, _, start, b in _batches(g, vertices):
        for k, frontier in enumerate(_levels(adj, start, b), 1):
            counts[k] += int(np.bitwise_count(frontier).sum())
    total = sum(counts[k] / k for k in sorted(counts))
    return total / (n * (n - 1))


def _peel(g: Graph):
    """Peel the pendant trees off ``g``: its degree-1 vertices, in rounds.

    Each peeled vertex hands its weight (1 plus the weights of its peeled
    children) to its one live neighbour, and adds the weight's square to
    that neighbour's sum of squared child weights.  Two leaves joined to
    each other, a tree's last edge, peel only the smaller id.  Returns every
    vertex's weight, its sum of squared child weights, and whether it is in
    the 2-core (live with two or more live neighbours); a live vertex with
    none is the root of a component that is a tree.
    """
    indptr, indices = g.adjacency.indptr, g.adjacency.indices
    degree = g.degrees()
    # XOR of each vertex's live neighbours: a leaf's is its one neighbour.
    # reduceat gives an empty row its start element, but an isolated vertex
    # is never a leaf or a parent.
    other = np.bitwise_xor.reduceat(
        np.append(indices, 0).astype(np.int64), indptr[:-1]
    )
    weight = np.ones(g.n, dtype=np.int64)
    squares = np.zeros(g.n, dtype=np.int64)
    leaves = np.flatnonzero(degree == 1)
    while leaves.size:
        parents = other[leaves]
        # A leaf whose parent is a leaf too is that parent's one neighbour.
        keep = (degree[parents] != 1) | (leaves < parents)
        leaves, parents = leaves[keep], parents[keep]
        np.add.at(weight, parents, weight[leaves])
        np.add.at(squares, parents, weight[leaves] ** 2)
        np.subtract.at(degree, parents, 1)
        np.bitwise_xor.at(other, parents, leaves)
        degree[leaves] = 0
        leaves = np.unique(parents[degree[parents] == 1])
    return weight, squares, degree > 1


def betweenness(g: Graph) -> np.ndarray:
    """Exact betweenness centrality (unordered-pair counting) of every vertex.

    The pendant trees are peeled first (``_peel``).  Every shortest path
    that enters a tree is fixed, so on the weighted 2-core Brandes'
    dependencies count each pair of core vertices u, v as weight(u) x
    weight(v) pairs, and each vertex v adds, exactly, the unordered pairs
    that only v's tree branches separate: ((c - 1)^2 - sum of its children's
    squared weights - (c - weight(v))^2) / 2 in a component of c vertices.
    A component that is a tree has only those terms.

    On the core, the forward pass keeps each level of ``_levels`` as the
    flat indices of its entries in a dense (vertex, source) block, with
    their shortest-path counts (``DivergentError`` past the float range);
    filled in at one level only, the block spreads that level's counts in
    one sparse product.  Dependencies flow back down the same levels.
    """
    sizes = _sizes(g)
    weight, squares, core = _peel(g)
    bc = np.zeros(g.n)
    for members, adj, parts, start, b in _batches(g, np.flatnonzero(core)):
        local = weight[members].astype(float)
        flat = np.zeros(adj.shape[0] * b)
        block = flat.reshape(-1, b)
        # Source j is local vertex start + j: entry (start + j) * b + j.
        levels = [(np.arange(start * b, (start + b) * b, b + 1), np.ones(b))]
        for frontier in _levels(adj, start, b):
            idx, sigma = levels[-1]
            flat[idx] = sigma
            paths = adj.dot(block).ravel()
            flat[idx] = 0.0
            # "<u8" puts bit j of word w at column 64 w + j on any host; it
            # copies nothing on a little-endian one.
            words = frontier.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(words, axis=1, count=b, bitorder="little")
            idx = np.flatnonzero(bits.view(bool))
            sigma = paths[idx]
            if not np.isfinite(sigma).all():
                raise DivergentError("shortest-path counts exceed the float range")
            levels.append((idx, sigma))
        delta = np.zeros(flat.size)
        # Stopping at level 2 leaves the sources' own dependency at zero.
        for lev in range(len(levels) - 1, 1, -1):
            idx, sigma = levels[lev]
            flat[idx] = (local[idx // b] + delta[idx]) / sigma
            spread = adj.dot(block).ravel()
            flat[idx] = 0.0
            prev, prev_sigma = levels[lev - 1]
            delta[prev] = prev_sigma * spread[prev]
        rows = delta.reshape(block.shape)
        # Source column j stands for the weight(start + j) vertices of its tree.
        rows *= local[start:start + b]
        # Summing each component's own rows and columns, not the whole
        # window's, keeps every sum's operands and order those of a
        # component traversed alone (a component larger than a batch has
        # one span, which covers all the batch's columns).
        for lo, hi in parts:
            bc[members[lo:hi]] += rows[lo:hi, lo:hi].sum(axis=1)
    c = sizes[g.labels]
    trees = ((c - 1) ** 2 - squares - (c - weight) ** 2) // 2
    # Each unordered pair of core vertices was counted from both endpoints.
    return bc / 2.0 + trees


def central_point_dominance(g: Graph) -> float:
    """Freeman's central point dominance: average gap between the most
    central vertex's relative betweenness and everyone else's."""
    n = g.n
    if n < 3:
        raise ValueError("central point dominance needs at least 3 vertices")
    pairs = (n - 1) * (n - 2) / 2.0
    rel = betweenness(g) / pairs
    return float((rel.max() - rel).sum() / (n - 1))
