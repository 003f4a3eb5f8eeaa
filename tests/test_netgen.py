"""Tests for degree-sequence realization under the three generator models."""

import numpy as np
import pytest

from ffparadox import metrics
from ffparadox.errors import ImpossibleSequenceError
from ffparadox.netgen import (
    Graph,
    Model,
    drop_report,
    generate,
    make_graphical,
    read_edge_list,
    write_edge_list,
)
from ffparadox.powerlaw import PowerLawSpec, sample_degrees


def ks_two_sample(a, b):
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def neighbors(g, v):
    """Row v of the CSR adjacency: the neighbours of v, ascending."""
    a = g.adjacency
    return a.indices[a.indptr[v]:a.indptr[v + 1]].tolist()


def powerlaw_sequence(n, kmax, sample_seed, alpha=2.0):
    spec = PowerLawSpec(alpha, 1.0, float(kmax))
    return make_graphical(sample_degrees(spec, n, sample_seed), seed=1)


class TestMakeGraphical:
    def test_even_sum_unchanged(self):
        assert list(make_graphical([1, 1, 2])) == [1, 1, 2]
        assert list(make_graphical([2, 2, 2, 2])) == [2, 2, 2, 2]

    def test_odd_sum_bumps_one_minimum_vertex(self):
        fixed = make_graphical([1, 1, 1], seed=4)
        assert sorted(fixed) == [1, 1, 2]
        assert fixed.sum() == 4

    def test_bump_target_is_a_minimum_vertex(self):
        for seed in range(10):
            fixed = make_graphical([5, 1, 3, 1, 1], seed=seed)
            changed = np.flatnonzero(fixed != np.array([5, 1, 3, 1, 1]))
            assert changed.size == 1
            assert [5, 1, 3, 1, 1][changed[0]] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_graphical([])


class TestGenerateSmall:
    @pytest.mark.parametrize("model", list(Model))
    def test_single_edge(self, model):
        for seed in range(5):
            g = generate([1, 1], model, seed=seed)
            assert g.edges.tolist() == [[0, 1]]

    @pytest.mark.parametrize("model", list(Model))
    def test_triangle(self, model):
        for seed in range(5):
            g = generate([2, 2, 2], model, seed=seed)
            assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_impossible_degree(self):
        with pytest.raises(ImpossibleSequenceError):
            generate([3, 1], Model.A, seed=0)

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError):
            generate([1, 1, 1], Model.A, seed=0)

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("block_size", [0, -3])
    def test_non_positive_block_size_rejected(self, model, block_size):
        with pytest.raises(ValueError, match="block_size"):
            generate([2, 2, 2], model, seed=0, block_size=block_size)


class TestGenerateContracts:
    @pytest.mark.parametrize("model", list(Model))
    def test_simple_symmetric_handshake(self, model):
        seq = powerlaw_sequence(500, 40, sample_seed=2)
        g = generate(seq, model, seed=5)
        degrees = g.degrees()
        assert int(degrees.sum()) == 2 * len(g.edges)
        assert len(set(map(tuple, g.edges.tolist()))) == len(g.edges)
        for u, v in g.edges.tolist():
            assert u < v
            assert v in neighbors(g, u)
            assert u in neighbors(g, v)

    @pytest.mark.parametrize("model", list(Model))
    def test_realized_at_most_target(self, model):
        seq = powerlaw_sequence(500, 40, sample_seed=2)
        g = generate(seq, model, seed=5)
        assert (g.degrees() <= seq).all()

    @pytest.mark.parametrize("model", list(Model))
    def test_deterministic(self, model):
        seq = powerlaw_sequence(400, 30, sample_seed=3)
        a = generate(seq, model, seed=11)
        b = generate(seq, model, seed=11)
        assert np.array_equal(a.edges, b.edges)
        c = generate(seq, model, seed=12)
        assert not np.array_equal(a.edges, c.edges)

    @pytest.mark.parametrize("model", list(Model))
    def test_realization_rate_at_scale(self, model):
        seq = powerlaw_sequence(2000, 100, sample_seed=4)
        g = generate(seq, model, seed=6)
        realized = int(g.degrees().sum())
        assert realized >= 0.95 * int(seq.sum())

    def test_degree_distribution_preserved(self):
        seq = powerlaw_sequence(10000, 100, sample_seed=5)
        for model in Model:
            g = generate(seq, model, seed=8)
            report = drop_report(g, seq)
            assert report.total <= 0.05 * int(seq.sum())
            assert ks_two_sample(seq, g.degrees()) <= 0.03

    def test_model_b_fragments_more_than_a(self):
        seq = powerlaw_sequence(2000, 50, sample_seed=6)
        comps_a = len(metrics.components(generate(seq, Model.A, seed=9)))
        comps_b = len(metrics.components(generate(seq, Model.B, seed=9)))
        assert comps_b > comps_a

    def test_model_b_block_size_configurable(self):
        seq = powerlaw_sequence(2000, 20, sample_seed=7)
        small = generate(seq, Model.B, seed=10, block_size=16)
        large = generate(seq, Model.B, seed=10, block_size=256)
        assert len(metrics.components(small)) > len(metrics.components(large))

    def test_kalisky_single_component_on_dense_sequence(self):
        seq = powerlaw_sequence(2000, 50, sample_seed=8)
        g = generate(seq, Model.KALISKY, seed=13)
        comps = metrics.components(g)
        assert comps[0] >= 0.9 * g.n


class TestDropReport:
    def test_perfect_realization(self):
        g = generate([2, 2, 2], Model.A, seed=1)
        report = drop_report(g, [2, 2, 2])
        assert report.per_vertex == (0, 0, 0)
        assert report.total == 0

    def test_unrealizable_pair(self):
        # the only simple graphs on 2 vertices are empty or one edge,
        # so at best two stubs of [3, 1] go unplaced
        g = Graph.from_edges(2, [(0, 1)])
        report = drop_report(g, [3, 1])
        assert report.total == 2
        assert report.per_vertex == (2, 0)

    def test_handshake_identity(self):
        seq = powerlaw_sequence(300, 25, sample_seed=9)
        g = generate(seq, Model.B, seed=2)
        report = drop_report(g, seq)
        assert report.total == int(seq.sum()) - 2 * len(g.edges)


class TestEdgeListIO:
    def test_round_trip_bit_exact(self, tmp_path):
        seq = powerlaw_sequence(300, 25, sample_seed=10)
        g = generate(seq, Model.A, seed=3)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        again = read_edge_list(path)
        assert again.n == g.n
        assert np.array_equal(again.edges, g.edges)
        write_edge_list(again, tmp_path / "graph2.txt")
        assert (tmp_path / "graph.txt").read_bytes() == (
            tmp_path / "graph2.txt"
        ).read_bytes()

    def test_format_sorted_with_u_below_v(self, tmp_path):
        g = generate([2, 2, 2], Model.A, seed=1)
        path = tmp_path / "tri.txt"
        write_edge_list(g, path)
        assert path.read_text() == "0 1\n0 2\n1 2\n"

    def test_duplicate_edge_reports_line(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 2\n1 0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_edge_list(path)

    def test_self_loop_reports_line(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list(path)

    def test_negative_id_reports_line(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0 1\n2 -3\n1 2\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == "line 2: vertex id out of range: (2, -3)"

    def test_malformed_line_reported_before_earlier_bad_edge(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1 2\n3 3\nx y\n")
        with pytest.raises(ValueError, match="line 3: vertex ids must be integers"):
            read_edge_list(path)

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nx y\n")
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list(path)
