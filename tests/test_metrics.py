"""Tests for paradox statistics and structural metrics.

Betweenness and efficiency are checked against brute-force references: plain
per-source breadth-first search for distances, and explicit enumeration of
every shortest path for betweenness.
"""

import math
import time
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from ffparadox import metrics, netgen
from ffparadox.errors import (
    AllIsolatedError,
    DivergentError,
    DomainError,
    TooManyPairsError,
)
from ffparadox.metrics import (
    _BATCH,
    betweenness,
    central_point_dominance,
    components,
    ff_total_adjacency,
    global_efficiency,
    kff_from_histogram,
    stats_from_degrees,
)
from ffparadox.netgen import Graph, Model, generate, make_graphical
from ffparadox.powerlaw import PowerLawSpec, sample_degrees


def graph_from(n, edges):
    return Graph.from_edges(n, edges)


def neighbors(g, v):
    """Row v of the CSR adjacency: the neighbours of v, ascending."""
    a = g.adjacency
    return a.indices[a.indptr[v]:a.indptr[v + 1]].tolist()


def random_simple_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return graph_from(n, edges)


def bfs_distances(g, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neighbors(g, v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def brute_efficiency(g):
    total = 0.0
    for s in range(g.n):
        for t, d in bfs_distances(g, s).items():
            if t != s:
                total += 1.0 / d
    return total / (g.n * (g.n - 1))


def brute_betweenness(g):
    """Enumerate every shortest path explicitly and credit interior vertices."""
    bc = [0.0] * g.n
    for s in range(g.n):
        dist = bfs_distances(g, s)
        preds = {v: [] for v in dist}
        for v in dist:
            for w in neighbors(g, v):
                if w in dist and dist[w] == dist[v] + 1:
                    preds[w].append(v)

        def paths_to(t):
            if t == s:
                return [[s]]
            out = []
            for p in preds[t]:
                out.extend(path + [t] for path in paths_to(p))
            return out

        for t in dist:
            if t == s:
                continue
            all_paths = paths_to(t)
            for path in all_paths:
                for interior in path[1:-1]:
                    bc[interior] += 1.0 / len(all_paths)
    return [b / 2.0 for b in bc]  # each unordered pair seen from both ends


class TestStatsFromDegrees:
    def test_simple_sequence(self):
        # direct summation: mean 4/3, k_ff (1+1+4)/(1+1+2), gap their difference
        s = stats_from_degrees([1, 1, 2])
        assert s.mean_k == pytest.approx(4 / 3)
        assert s.k_ff == pytest.approx(1.5)
        assert s.gap == pytest.approx(1 / 6)

    def test_star(self):
        s = stats_from_degrees([3, 1, 1, 1])
        assert s.mean_k == pytest.approx(1.5)
        assert s.k_ff == pytest.approx(2.0)
        assert s.gap == pytest.approx(0.5)

    def test_regular_sequence_has_zero_gap(self):
        for k in (1, 4, 9):
            s = stats_from_degrees([k] * 20)
            assert s.mean_k == k
            assert s.k_ff == k
            assert s.gap == 0.0

    def test_all_isolated(self):
        with pytest.raises(AllIsolatedError):
            stats_from_degrees([0, 0, 0])

    def test_sums_past_int64_are_exact(self):
        s = stats_from_degrees([2**62, 2**62])
        assert s.mean_k == 2.0**62
        assert s.second_moment == 2.0**124
        assert s.k_ff == 2.0**62
        assert s.variance == 0.0 and s.gap == 0.0

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2**62), min_size=1, max_size=40))
    @example([2**62, 3, 2**62 - 1])  # k sum and k^2 sum both past int64
    def test_sums_match_python_ints(self, degrees):
        s1, s2 = sum(degrees), sum(d * d for d in degrees)
        assume(s1 > 0)
        s = stats_from_degrees(degrees)
        assert s.mean_k == s1 / len(degrees)
        assert s.second_moment == s2 / len(degrees)
        assert s.k_ff == s2 / s1
        assert kff_from_histogram(Counter(degrees)) == s2 / s1

    def test_near_equal_large_degrees_keep_their_spread(self):
        # sum(k^2)/n - mean^2 cancels to 0.0 in floats; the exact spread
        # n * s2 - s1^2 = 1 gives 1/4 and 1 / (2 * (2 * 10^8 + 1)).
        s = stats_from_degrees([10**8, 10**8 + 1])
        assert s.variance == 0.25
        assert s.gap == 2.4999999875000003e-09

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2**62), min_size=1, max_size=40))
    @example([1000] * 3 + [1001] * 5)  # k_ff - mean is off in the last digits
    def test_variance_and_gap_are_correctly_rounded(self, degrees):
        n, s1, s2 = len(degrees), sum(degrees), sum(d * d for d in degrees)
        assume(s1 > 0)
        s = stats_from_degrees(degrees)
        assert s.variance == float(Fraction(n * s2 - s1 * s1, n * n))
        assert s.gap == float(Fraction(n * s2 - s1 * s1, n * s1))

    def test_gap_identity_and_paradox_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            degrees = rng.integers(0, 30, size=n)
            if degrees.sum() == 0:
                degrees[0] = 1
            s = stats_from_degrees(degrees)
            assert abs(s.gap - s.variance / s.mean_k) <= 1e-12 * max(1.0, s.gap)
            if (degrees == degrees[0]).all():
                assert s.gap == 0.0
            else:
                assert s.k_ff > s.mean_k


class TestFfTotalAdjacency:
    def test_path_on_three(self):
        g = graph_from(3, [(0, 1), (1, 2)])
        # friends-of-friends per vertex: [2, 2, 2]
        assert ff_total_adjacency(g) == 6

    def test_edgeless(self):
        assert ff_total_adjacency(graph_from(4, [])) == 0

    def test_equals_sum_of_squared_degrees(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            g = random_simple_graph(n, float(rng.uniform(0.05, 0.4)), rng)
            degrees = g.degrees()
            assert ff_total_adjacency(g) == int((degrees.astype(np.int64) ** 2).sum())


class TestKffFromHistogram:
    def test_small_histogram(self):
        assert kff_from_histogram({1: 2, 2: 1}) == pytest.approx(1.5)

    def test_point_mass(self):
        assert kff_from_histogram({5: 100}) == pytest.approx(5.0)

    def test_matches_sequence_stats_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            degrees = rng.integers(0, 40, size=int(rng.integers(2, 80)))
            if degrees.sum() == 0:
                degrees[0] = 3
            hist = {}
            for d in degrees:
                hist[int(d)] = hist.get(int(d), 0) + 1
            assert kff_from_histogram(hist) == stats_from_degrees(degrees).k_ff

    def test_all_mass_on_zero(self):
        with pytest.raises(AllIsolatedError):
            kff_from_histogram({0: 10})

    def test_numpy_keys_do_not_wrap(self):
        hist = Counter(np.array([2**62, 2**62, 3]))
        assert kff_from_histogram(hist) == (2 * 2**124 + 9) / (2 * 2**62 + 3)

    def test_float_weights(self):
        assert kff_from_histogram({1: 0.5, 3: np.float64(0.25)}) == 2.75 / 1.25


class TestComponents:
    def test_triangle(self):
        assert components(graph_from(3, [(0, 1), (1, 2), (0, 2)])) == [3]

    def test_two_disjoint_edges(self):
        assert components(graph_from(4, [(0, 1), (2, 3)])) == [2, 2]

    def test_sizes_sum_to_n(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            g = random_simple_graph(n, 0.05, rng)
            assert sum(components(g)) == n


class TestGlobalEfficiency:
    def test_complete_graph(self):
        for n in (3, 5, 8):
            g = graph_from(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            assert global_efficiency(g) == pytest.approx(1.0)

    def test_edgeless(self):
        assert global_efficiency(graph_from(5, [])) == 0.0

    def test_path_on_three(self):
        g = graph_from(3, [(0, 1), (1, 2)])
        assert global_efficiency(g) == pytest.approx(5 / 6)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            g = random_simple_graph(n, float(rng.uniform(0.05, 0.5)), rng)
            assert global_efficiency(g) == pytest.approx(brute_efficiency(g), rel=1e-10)

    def test_isolated_ids_add_nothing(self):
        # one edge among 20 001 ids: two ordered pairs at distance 1
        n = 20001
        g = graph_from(n, [(0, n - 1)])
        assert global_efficiency(g) == 2 / (n * (n - 1))
        assert central_point_dominance(g) == 0.0
        assert not betweenness(g).any()

    def test_bridge_increases_efficiency(self):
        g = graph_from(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        bridged = graph_from(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)])
        assert global_efficiency(bridged) > global_efficiency(g)


class TestBetweenness:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(4, 14))
            g = random_simple_graph(n, float(rng.uniform(0.2, 0.6)), rng)
            got = betweenness(g)
            want = brute_betweenness(g)
            assert np.allclose(got, want, atol=1e-9)

    def test_disconnected_graph(self):
        g = graph_from(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        got = betweenness(g)
        assert got[1] == pytest.approx(1.0)
        assert got[4] == pytest.approx(1.0)
        assert got[0] == got[2] == got[3] == got[5] == 0.0


class TestCentralPointDominance:
    def test_star_is_one(self):
        for n in (4, 7, 12):
            g = graph_from(n, [(0, v) for v in range(1, n)])
            assert central_point_dominance(g) == pytest.approx(1.0)

    def test_complete_graph_is_zero(self):
        g = graph_from(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        assert central_point_dominance(g) == pytest.approx(0.0)

    def test_path_on_four(self):
        # betweennesses [0, 2, 2, 0] over 3 pairs -> relative [0, 2/3, 2/3, 0]
        g = graph_from(4, [(0, 1), (1, 2), (2, 3)])
        assert central_point_dominance(g) == pytest.approx(4 / 9)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            g = random_simple_graph(n, float(rng.uniform(0.1, 0.5)), rng)
            value = central_point_dominance(g)
            assert 0.0 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: stats_from_degrees([]), "degree sequence must be nonempty"),
    (lambda: stats_from_degrees([-1, 2]),
     "degrees and frequencies must be non-negative"),
    (lambda: kff_from_histogram({2: -1, 3: 2}),
     "degrees and frequencies must be non-negative"),
    (lambda: global_efficiency(graph_from(1, [])),
     "global efficiency needs at least 2 vertices"),
    (lambda: central_point_dominance(graph_from(2, [(0, 1)])),
     "central point dominance needs at least 3 vertices"),
], ids=["empty-sequence", "negative-degree", "negative-frequency",
        "efficiency-of-one-vertex", "dominance-of-two-vertices"])
def test_invalid_input_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def assert_matches_networkx(g):
    """Efficiency and betweenness against networkx; betweenness is taken one
    component at a time, where no shortest path leaves the component."""
    nx = pytest.importorskip("networkx")
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges.tolist())
    assert global_efficiency(g) == pytest.approx(
        nx.global_efficiency(reference), rel=1e-9
    )
    want = {}
    for members in nx.connected_components(reference):
        sub = reference.subgraph(members)
        want.update(nx.betweenness_centrality(sub, normalized=False))
    np.testing.assert_allclose(
        betweenness(g), [want[v] for v in range(g.n)], rtol=1e-9, atol=1e-9
    )


def distance_counts(g):
    """N_k, the number of ordered vertex pairs at hop distance k >= 1, from
    networkx distances."""
    nx = pytest.importorskip("networkx")
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges.tolist())
    return Counter(
        d
        for _, lengths in nx.all_pairs_shortest_path_length(reference)
        for d in lengths.values()
        if d
    )


def distance_histogram_efficiency(g):
    """Global efficiency from networkx distances: N_k / k summed with k
    ascending over n(n - 1)."""
    counts = distance_counts(g)
    return sum(counts[k] / k for k in sorted(counts)) / (g.n * (g.n - 1))


def connected_blocks(sizes, rng):
    """Edges of one connected random graph per block of consecutive ids: a
    random spanning tree plus about as many random chords."""
    edges, start = set(), 0
    for size in sizes:
        for v in range(1, size):
            edges.add((start + int(rng.integers(v)), start + v))
        for u, v in rng.integers(size, size=(size, 2)).tolist():
            if u != v:
                edges.add((start + min(u, v), start + max(u, v)))
        start += size
    return sorted(edges)


@pytest.mark.parametrize("model", list(Model))
def test_generated_graphs_match_networkx(model):
    nx = pytest.importorskip("networkx")
    seq = make_graphical(sample_degrees(PowerLawSpec(2.0, 1.0, 40.0), 400, 3), seed=1)
    # Model B is compared at ten generator seeds, whose graphs must have many
    # components on average.
    seeds = range(10) if model is Model.B else [7]
    graphs = [generate(seq, model, seed=seed) for seed in seeds]
    if model is Model.B:
        assert np.mean([len(components(g)) for g in graphs]) > 10
    for g in graphs:
        reference = nx.Graph()
        reference.add_nodes_from(range(g.n))
        reference.add_edges_from(g.edges.tolist())
        assert global_efficiency(g) == pytest.approx(
            nx.global_efficiency(reference), rel=1e-9
        )
        want = nx.betweenness_centrality(reference, normalized=False)
        np.testing.assert_allclose(
            betweenness(g), [want[v] for v in range(g.n)], rtol=1e-9, atol=1e-9
        )


@pytest.mark.parametrize("model", list(Model))
def test_engine_matches_scipy_distances_at_n_3000(model):
    # The giant components span a dozen batches of sources, past what the
    # networkx oracles reach; scipy's distances give the counts N_k of
    # ordered pairs at hop distance k, 500 sources at a time.
    seq = make_graphical(sample_degrees(PowerLawSpec(2.0, 1.0, 100.0), 3000, 11), seed=1)
    g = generate(seq, model, seed=7)
    counts = Counter()
    for lo in range(0, g.n, 500):
        dist = csgraph.shortest_path(
            g.adjacency, unweighted=True, indices=np.arange(lo, min(lo + 500, g.n))
        )
        hops = dist[np.isfinite(dist) & (dist > 0)].astype(np.int64)
        k, count = np.unique(hops, return_counts=True)
        counts.update(dict(zip(k.tolist(), count.tolist())))
    want = sum(counts[k] / k for k in sorted(counts)) / (g.n * (g.n - 1))
    assert global_efficiency(g) == want
    inner = sum(count * (k - 1) for k, count in counts.items())
    assert betweenness(g).sum() == pytest.approx(inner / 2, rel=1e-12)


class TestTraversalWindows:
    """Components are traversed in windows of at most ``_BATCH`` sources:
    one window per larger component, small components packed together."""

    def test_components_of_batch_size_and_one_more(self):
        # The second component's last batch has a single source.
        sizes = [_BATCH, _BATCH + 1]
        edges = connected_blocks(sizes, np.random.default_rng(5))
        g = graph_from(sum(sizes), edges)
        assert components(g) == sorted(sizes, reverse=True)
        assert_matches_networkx(g)

    def test_window_packed_to_exactly_batch_size(self):
        # 100 + 100 + (_BATCH - 200) fill one window; the last two share the next.
        sizes = [100, 100, _BATCH - 200, 3, 5]
        edges = connected_blocks(sizes, np.random.default_rng(6))
        g = graph_from(sum(sizes), edges)
        assert sorted(components(g)) == sorted(sizes)
        assert_matches_networkx(g)

    def test_packed_component_values_equal_those_of_the_component_alone(self):
        sizes = [5, 9, 12, 30, 7] * 6
        edges = connected_blocks(sizes, np.random.default_rng(8))
        packed = betweenness(graph_from(sum(sizes), edges))
        start = 0
        for size in sizes:
            stop = start + size
            inside = [(u - start, v - start) for u, v in edges if start <= u < stop]
            alone = betweenness(graph_from(size, inside))
            assert np.array_equal(packed[start:stop], alone)
            start = stop

    def test_thousands_of_tiny_components_around_a_large_one(self):
        rng = np.random.default_rng(7)
        sizes = [2] * 1500 + [3] * 1000 + [600]
        rng.shuffle(sizes)
        edges = connected_blocks(sizes, rng)
        n = sum(sizes) + 100  # 100 more ids are isolated
        ids = rng.permutation(n)
        g = graph_from(n, [(ids[u], ids[v]) for u, v in edges])
        assert len(components(g)) == len(sizes) + 100
        assert_matches_networkx(g)


class TestEfficiencyWords:
    """The breadth-first levels of both metrics reach vertices from 64
    sources per uint64 word; a batch's last word may be partly filled."""

    @pytest.mark.parametrize(
        "sizes", [[63], [64], [65], [63, 64, 65], [_BATCH + 65, 64]]
    )
    def test_components_around_a_word(self, sizes):
        edges = connected_blocks(sizes, np.random.default_rng(sum(sizes)))
        g = graph_from(sum(sizes), edges)
        assert sorted(components(g)) == sorted(sizes)
        assert global_efficiency(g) == distance_histogram_efficiency(g)
        assert_matches_networkx(g)

    def test_path_with_more_levels_than_a_word_has_bits(self):
        n = 150
        g = graph_from(n, [(v, v + 1) for v in range(n - 1)])
        # 2 (n - k) ordered pairs at each distance k
        want = sum(2 * (n - k) / k for k in range(1, n)) / (n * (n - 1))
        assert global_efficiency(g) == want == distance_histogram_efficiency(g)
        assert_matches_networkx(g)


def branch_products(g):
    """Betweenness of every vertex of a forest as exact integers: the sum of
    n_i n_j over the pairs of branches, of n_i and n_j vertices, that
    removing the vertex leaves.  Branch sizes come from the subtree sizes of
    a breadth-first rooting of each tree."""
    _, labels = csgraph.connected_components(g.adjacency, directed=False)
    sizes = np.bincount(labels).tolist()
    below = [1] * g.n
    children = [[] for _ in range(g.n)]
    for root in np.unique(labels, return_index=True)[1].tolist():
        order, parent = csgraph.breadth_first_order(g.adjacency, root, directed=False)
        for v in order[:0:-1].tolist():
            below[parent[v]] += below[v]
            children[parent[v]].append(v)
    bc = []
    for v in range(g.n):
        total = run = 0
        for size in [below[u] for u in children[v]] + [sizes[labels[v]] - below[v]]:
            total += run * size
            run += size
        bc.append(total)
    return bc


@st.composite
def cores_with_trees(draw):
    """(n, edges): a cycle with chords, trees hung from it, components that
    are trees (a path of four among them, whose middle two vertices are
    leaves of each other once its ends are gone), two-vertex components and
    isolated ids, all ids shuffled."""
    k = draw(st.integers(3, 12))
    edges = {(v, (v + 1) % k) for v in range(k)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=k)):
        edges.add((u, v))
    n = k
    # Each vertex of a hung tree joins an earlier vertex of the core's component.
    for parent in draw(st.lists(st.integers(0, 10**6), max_size=25)):
        edges.add((parent % n, n))
        n += 1
    parents = st.lists(st.integers(0, 10**6), min_size=1, max_size=10)
    for tree in [[0, 1, 2]] + draw(st.lists(parents, max_size=3)):
        for i, parent in enumerate(tree, 1):
            edges.add((n + parent % i, n + i))
        n += len(tree) + 1
    for _ in range(draw(st.integers(0, 3))):
        edges.add((n, n + 1))
        n += 2
    n += draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n)))
    edges = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    return n, [(ids[u], ids[v]) for u, v in edges]


class TestPendantTrees:
    """Betweenness peels the pendant trees, traverses the weighted 2-core and
    adds each vertex's tree terms."""

    @settings(deadline=None, max_examples=60)
    @given(cores_with_trees())
    def test_trees_around_a_cyclic_core_match_networkx(self, case):
        n, edges = case
        g = graph_from(n, edges)
        assert_matches_networkx(g)
        # On components that are trees, the values are exact integers.
        _, labels = csgraph.connected_components(g.adjacency, directed=False)
        sizes = np.bincount(labels, minlength=n)
        tree = np.bincount(labels[g.edges[:, 0]], minlength=n) == sizes - 1
        forest = graph_from(n, [(u, v) for u, v in edges if tree[labels[u]]])
        on_trees = tree[labels]
        want = np.array(branch_products(forest))
        assert np.array_equal(betweenness(g)[on_trees], want[on_trees])

    def test_adjacent_leaves_peel_only_the_smaller_id(self):
        # A two-vertex component and a path of four, whose middle vertices
        # are both leaves in the second round, in both id orders: the larger
        # id of each last pair is left as the root, holding the whole tree.
        for edges in ([(0, 1), (1, 2), (2, 3), (4, 5)],
                      [(3, 2), (2, 0), (0, 1), (5, 4)]):
            g = graph_from(6, edges)
            weight, _, core = metrics._peel(g)
            assert not core.any()
            assert weight[[2, 5]].tolist() == [4, 2]
            assert np.array_equal(betweenness(g), branch_products(g))

    def test_star(self):
        g = graph_from(7, [(0, v) for v in range(1, 7)])
        assert betweenness(g).tolist() == [15.0] + [0.0] * 6

    def test_cycle_with_a_pendant_path(self):
        # A 5-cycle 0..4 with the path 4-5-6-7 hanging from vertex 4.
        edges = [(v, (v + 1) % 5) for v in range(5)] + [(4, 5), (5, 6), (6, 7)]
        g = graph_from(8, edges)
        assert betweenness(g)[[5, 6, 7]].tolist() == [10.0, 6.0, 0.0]
        assert_matches_networkx(g)

    def test_barbell_with_tails(self):
        nx = pytest.importorskip("networkx")
        reference = nx.barbell_graph(5, 3)  # two K5 joined by a 3-vertex path
        n = reference.number_of_nodes()
        reference.add_edges_from([(0, n), (n, n + 1), (n + 1, n + 2), (12, n + 3)])
        g = graph_from(n + 4, list(reference.edges()))
        assert_matches_networkx(g)

    def test_long_path_is_exact_and_fast(self):
        n = 3000
        g = graph_from(n, [(v, v + 1) for v in range(n - 1)])
        start = time.perf_counter()
        got = betweenness(g)
        assert time.perf_counter() - start < 2.0
        k = np.arange(n)
        assert np.array_equal(got, k * (n - 1 - k))

    def test_random_tree_of_20000_vertices(self):
        # Each vertex joins one of the 50 before it: about 800 peeling rounds.
        rng = np.random.default_rng(20)
        n = 20000
        ids = rng.permutation(n)
        edges = [(ids[int(rng.integers(max(0, v - 50), v))], ids[v])
                 for v in range(1, n)]
        g = graph_from(n, edges)
        assert np.array_equal(betweenness(g), branch_products(g))

    def test_one_component_labelling_per_call(self, monkeypatch):
        # A graph labels its components once, however many metrics read them.
        labellings = []
        label = csgraph.connected_components

        def counted(*args, **kwargs):
            labellings.append(1)
            return label(*args, **kwargs)

        monkeypatch.setattr(netgen.csgraph, "connected_components", counted)
        g = graph_from(8, [(v, (v + 1) % 5) for v in range(5)] + [(4, 5), (6, 7)])
        for metric in (components, global_efficiency, betweenness,
                       central_point_dominance):
            metric(g)
        assert len(labellings) == 1


def bipartite_chain(layers):
    """Layers of three vertices, each joined to all of the next layer's:
    3**(layers - 2) shortest paths join a vertex of the first layer to one
    of the last."""
    return graph_from(3 * layers, [
        (3 * i + a, 3 * i + 3 + b)
        for i in range(layers - 1) for a in range(3) for b in range(3)
    ])


def test_path_counts_past_the_float_range_are_divergent():
    # 3**658, about 2**1043 paths end to end: the first batch overflows.
    g = bipartite_chain(660)
    for metric in (betweenness, central_point_dominance):
        with pytest.raises(DivergentError, match="float range"):
            metric(g)


class TestWorkLimit:
    def test_long_path_is_refused_before_any_traversal(self):
        # one component of 40 000 vertices: 1.6 x 10^9 ordered pairs
        n = 40000
        g = graph_from(n, [(v, v + 1) for v in range(n - 1)])
        for metric in (global_efficiency, betweenness, central_point_dominance):
            with pytest.raises(TooManyPairsError, match="1599960000"):
                metric(g)
        assert issubclass(TooManyPairsError, DomainError)
        assert TooManyPairsError.code == "TOO_MANY_PAIRS"
