"""Tests for paradox statistics and structural metrics.

Betweenness and efficiency are checked against brute-force references: plain
per-source breadth-first search for distances, and explicit enumeration of
every shortest path for betweenness.
"""

import math
from collections import deque

import numpy as np
import pytest

from ffparadox.errors import AllIsolatedError, DomainError, TooManyPairsError
from ffparadox.metrics import (
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


@pytest.mark.parametrize("model", list(Model))
def test_generated_graphs_match_networkx(model):
    nx = pytest.importorskip("networkx")
    seq = make_graphical(sample_degrees(PowerLawSpec(2.0, 1.0, 40.0), 400, 3), seed=1)
    g = generate(seq, model, seed=7)
    if model is Model.B:
        assert len(components(g)) > 10
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
