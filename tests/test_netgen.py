"""Tests for degree-sequence realization under the three generator models."""

import hashlib
import io
import itertools
import os
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ffparadox import cli, metrics, netgen
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

    @pytest.mark.parametrize("model", list(Model))
    def test_two_vertex_pair_found_after_stalls(self, model):
        # A random round can pair (0, 0) and (1, 1) and place nothing, several
        # times in a row; the one realizable edge must still be placed.
        for seed in range(300):
            assert generate([2, 2, 0], model, seed=seed).edges.tolist() == [[0, 1]]

    def test_impossible_degree(self):
        with pytest.raises(ImpossibleSequenceError):
            generate([3, 1], Model.A, seed=0)

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError):
            generate([1, 1, 1], Model.A, seed=0)

    @pytest.mark.parametrize("seq, message", [
        ([], "degree sequence must be nonempty"),
        ([3, -1, 0, 0], "degrees must be non-negative"),
    ], ids=["empty", "negative"])
    def test_invalid_sequence_rejected(self, seq, message):
        with pytest.raises(ValueError) as info:
            generate(seq, Model.A, seed=0)
        assert str(info.value) == message


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
    def test_graph_does_not_depend_on_unstable_sort_ties(self, model):
        # An unstable sort may order ties in any way (numpy's order depends on
        # the CPU); reversing the ties of every 1-D non-stable np.argsort call
        # must leave each graph unchanged.
        argsort = np.argsort

        def ties_reversed(a, axis=-1, kind=None, order=None, **kwargs):
            a = np.asarray(a)
            if kind in ("stable", "mergesort") or a.ndim != 1 or order is not None:
                return argsort(a, axis=axis, kind=kind, order=order, **kwargs)
            return a.size - 1 - argsort(a[::-1], kind="stable")

        seq = powerlaw_sequence(2000, 50, sample_seed=6)
        for seed in range(4):
            want = generate(seq, model, seed=seed).edges
            with mock.patch.object(np, "argsort", ties_reversed):
                got = generate(seq, model, seed=seed).edges
            assert np.array_equal(got, want)

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

    def test_model_b_fragments_more_than_a_over_seeds(self):
        seq = powerlaw_sequence(2000, 50, sample_seed=6)
        mean_components = {
            model: np.mean([
                len(metrics.components(generate(seq, model, seed=seed)))
                for seed in range(10)
            ])
            for model in (Model.A, Model.B)
        }
        assert mean_components[Model.B] > mean_components[Model.A]

    @pytest.mark.parametrize("seed", range(5))
    def test_model_b_drops_no_stub_at_kmax_10(self, seed):
        # Every model-B block holds an even stub count, so no block is left
        # with one stub that has no partner.
        seq = cli._target_sequence(PowerLawSpec(2, 1, 10), 10_000, seed)
        assert cli._realize(seq, seed, 10, Model.B)[1] == 0

    def test_model_b_places_every_stub_of_the_ci_sequence(self):
        # Each block is sized for its two largest hubs, so hubs that share a
        # block find partners there.  Sized for its largest hub alone, the
        # blocks of the CI sequence (k_max 1000, seed 0) dropped 684 stubs,
        # 310 of them at five hubs that shared one block.  At k_max 32, seeds
        # 2 and 26 each dropped 2 stubs while the second degree counted only
        # from the block size up, not from half of it.
        for k_max, seed in ((1000, 0), (32, 2), (32, 26)):
            seq = cli._target_sequence(PowerLawSpec(2, 1, k_max), 10_000, seed)
            assert cli._realize(seq, seed, k_max, Model.B)[1] == 0

    def test_model_b_last_round_hop_keeps_drops_few_at_kmax_1000(self):
        # A hub's stub that no double swap can place is passed on by the
        # last repair round's hop; without it these ten graphs drop 86
        # stubs, 84 of them at seed 8.
        dropped = 0
        for seed in range(10):
            seq = cli._target_sequence(PowerLawSpec(2, 1, 1000), 2000, seed)
            dropped += cli._realize(seq, seed, 1000, Model.B)[1]
        assert dropped <= 20

    def test_seed_to_graph_contract_is_pinned(self):
        # The edges and drop counts that seeds give, hashed.  At n = 2000,
        # k_max 1000, seeds 8 and 11, every model stalls and then pairs the
        # leftovers in the order they were left, and at seed 11 every model
        # drops stubs; at n = 10^4, k_max 32 and 1000, B hops.  So every
        # pairing path is held, and the counters check that it still is:
        # rounds by the calls of ``_place``, and hops by the ends they rewrite
        # in place.  A change that alters graphs on purpose restates the
        # digest and counts.
        swap_repair, hops = netgen._swap_repair, []

        def counted(u, v, *args):
            ends = np.stack((u, v))
            out = swap_repair(u, v, *args)
            hops.append(int(np.count_nonzero((np.stack((u, v)) != ends).any(axis=0))))
            return out

        cells = [(k_max, seed, 10_000) for k_max in (10, 32, 1000) for seed in range(5)]
        cells += [(1000, 8, 2000), (1000, 11, 2000)]
        digest, dropped = hashlib.sha256(), 0
        with mock.patch.object(netgen, "_swap_repair", counted), \
                mock.patch.object(netgen, "_place", wraps=netgen._place) as place:
            for k_max, seed, n in cells:
                seq = cli._target_sequence(PowerLawSpec(2, 1, k_max), n, seed)
                for model in (Model.A, Model.B, Model.KALISKY):
                    g, d = cli._realize(seq, seed, k_max, model)
                    digest.update(g.edges.astype("<i8").tobytes())
                    digest.update(d.to_bytes(8, "little"))
                    dropped += d
        assert (dropped, place.call_count, sum(hops)) == (1166, 137, 3816)
        assert digest.hexdigest() == (
            "6f42d2b9bdbabbaf09beb995587c9145304ede31f92b86f4aa047c55ea60fd2e"
        )

    def test_model_a_reaches_every_realization_but_not_uniformly(self):
        # Exact oracle: the simple graphs with degrees 3,3,2,2,1,1 among the
        # 2^15 edge subsets of K6.  Model A pairs shuffled stubs and repairs
        # conflicts by double-edge swaps, which reaches all of them but not
        # with equal frequency.  The chi-square bound is the 0.999 quantile
        # on 16 degrees of freedom.
        seq = [3, 3, 2, 2, 1, 1]
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        subsets = np.arange(2**15)[:, None] >> np.arange(15) & 1
        incidence = (np.array(pairs)[:, :, None] == np.arange(6)).sum(axis=1)
        realizations = set(np.flatnonzero((subsets @ incidence == seq).all(1)).tolist())
        assert len(realizations) == 17
        counts = Counter()
        for seed in range(2000):
            g = generate(seq, Model.A, seed)
            assert g.degrees().tolist() == seq  # no stub dropped
            counts[sum(1 << pairs.index(e) for e in map(tuple, g.edges.tolist()))] += 1
        assert set(counts) == realizations  # every one reached, none outside
        expected = 2000 / 17
        assert sum((c - expected) ** 2 / expected for c in counts.values()) > 39.25

    def test_model_b_block_size_configurable(self):
        seq = powerlaw_sequence(2000, 20, sample_seed=7)
        with mock.patch.object(netgen, "_BLOCK_SIZE", 16):
            small = generate(seq, Model.B, seed=10)
        with mock.patch.object(netgen, "_BLOCK_SIZE", 256):
            large = generate(seq, Model.B, seed=10)
        assert len(metrics.components(small)) > len(metrics.components(large))

    def test_kalisky_single_component_on_dense_sequence(self):
        seq = powerlaw_sequence(2000, 50, sample_seed=8)
        g = generate(seq, Model.KALISKY, seed=13)
        comps = metrics.components(g)
        assert comps[0] >= 0.9 * g.n


def kalisky_law(seq):
    """Exact law of KALISKY's attachment edges, by recursion over open-stub
    multisets: vertices arrive in descending degree order (ties by id); each
    spends one stub on a uniformly drawn open stub, if there is one, and
    pools the rest.  Maps each edge set to its probability."""
    order = sorted((v for v in range(len(seq)) if seq[v]), key=lambda v: -seq[v])
    law = Counter()

    def arrive(i, pool, edges, p):
        if i == len(order):
            law[edges] += p
            return
        v, d = order[i], seq[order[i]]
        total = sum(pool.values())
        if not total:
            arrive(i + 1, Counter({v: d}), edges, p)
        for u, c in pool.items():
            arrive(i + 1, pool - Counter({u: 1}) + Counter({v: d - 1}),
                   edges | {(min(u, v), max(u, v))}, p * Fraction(c, total))

    arrive(0, Counter(), frozenset(), Fraction(1))
    return law


def sequential_attachment(seq, rng):
    """KALISKY's attachment stub by stub, drawing what ``_attach_hubs_first``
    draws: each arriving vertex of degree d >= 2 takes one uniform, spends
    the stub in slot int(u * size) of the pool, leaves its own first new stub
    in that slot and appends its other d - 2.  The d = 1 tail spends a prefix
    of one permutation of the pool.  Returns the edges ``(lo, hi)`` in
    arrival order and the open pool."""
    seq = np.asarray(seq, dtype=np.int64)
    order = np.argsort(-seq, kind="stable")[:np.count_nonzero(seq)].tolist()
    pool = [order[0]] * int(seq[order[0]]) if order else []
    edges = []
    for v in order[1:]:
        d = int(seq[v])
        if d >= 2:
            slot = int(rng.random() * len(pool))
            edges.append((pool[slot], v))
            pool[slot] = v
            pool += [v] * (d - 2)
    ones = np.array([v for v in order[1:] if seq[v] == 1], dtype=np.int64)
    pool = np.array(pool, dtype=np.int64)
    if ones.size:
        k = min(ones.size, pool.size)
        perm = rng.permutation(pool.size)
        edges += zip(pool[perm[:k]].tolist(), ones[:k].tolist())
        left = ones[k:]  # arrives at an empty pool: pooled, then attached to
        edges += left[:left.size - left.size % 2].reshape(-1, 2).tolist()
        pool = left[-1:] if left.size % 2 else pool[perm[k:]]
    return np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=1), pool


class TestKaliskyAttachment:
    @pytest.mark.parametrize("seq", [
        [3, 2, 2, 2, 1, 1, 1],
        [2, 2, 2, 2, 1, 1, 1, 1],  # a d = 2 run keeps the pool's size
        [4, 3, 3] + [1] * 7,
        [3] + [1] * 8,  # the d = 1 run outlasts the pool
    ])
    def test_attachment_follows_the_sequential_law(self, seq):
        # The chi-square bound is the 0.999 quantile on (outcomes - 1)
        # degrees of freedom; an exhausting pool has a single outcome.
        law = kalisky_law(seq)
        assert sum(law.values()) == 1
        counts, seeds = Counter(), 3000
        for seed in range(seeds):
            attached, pool = netgen._attach_hubs_first(np.array(seq), np.random.default_rng(seed))
            kept = np.bincount(attached.ravel(), minlength=len(seq))
            assert (kept + np.bincount(pool, minlength=len(seq))).tolist() == seq
            counts[frozenset(map(tuple, attached.tolist()))] += 1
        assert set(counts) <= set(law)
        if len(law) == 1:
            assert counts == Counter({next(iter(law)): seeds})
        else:
            stat = sum((counts[e] - seeds * p) ** 2 / (seeds * p) for e, p in law.items())
            assert stat < chi2.ppf(0.999, len(law) - 1)

    @settings(deadline=None, max_examples=300)
    @example(seq=[0], seed=0)
    @example(seq=[5], seed=0)
    @example(seq=[0, 0, 3], seed=1)
    @example(seq=[1] * 9, seed=2)
    @example(seq=[2] * 9, seed=3)
    @example(seq=powerlaw_sequence(10**4, 1000, sample_seed=3).tolist(), seed=5)
    # a degree of 2^16 or more: the arrival order's keys exceed 16 bits
    @example(seq=[3] * 10 + [70000] + [1] * 60000, seed=5)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=40),
           st.integers(0, 2**32 - 1))
    def test_attachment_draws_what_the_stub_by_stub_sampler_draws(self, seq, seed):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        attached, pool = netgen._attach_hubs_first(np.array(seq), rng)
        want, want_pool = sequential_attachment(seq, reference)
        assert np.array_equal(attached, want) and np.array_equal(pool, want_pool)
        assert rng.random() == reference.random()  # as many draws spent

    @pytest.mark.parametrize("seq, pooled", [
        ([0], []),
        ([0, 0, 0], []),
        ([2, 0, 0], [0, 0]),  # one positive degree: nothing to attach to
        ([0, 4, 0, 0, 0], [1, 1, 1, 1]),
    ])
    def test_nothing_attaches_without_a_second_positive_degree(self, seq, pooled):
        attached, pool = netgen._attach_hubs_first(np.array(seq), np.random.default_rng(0))
        assert attached.shape == (0, 2)
        assert pool.tolist() == pooled
        g = generate(seq, Model.KALISKY, seed=0)
        assert g.n == len(seq) and g.edges.tolist() == []
        assert drop_report(g, seq).total == sum(seq)


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

    def test_sequence_of_another_length_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError) as info:
            drop_report(g, [1, 1])
        assert str(info.value) == "sequence length does not match vertex count"

    def test_handshake_identity(self):
        seq = powerlaw_sequence(300, 25, sample_seed=9)
        g = generate(seq, Model.B, seed=2)
        report = drop_report(g, seq)
        assert report.total == int(seq.sum()) - 2 * len(g.edges)

    def test_entries_are_python_ints(self):
        seq = powerlaw_sequence(300, 25, sample_seed=9)
        g = generate(seq, Model.B, seed=2)
        per_vertex = drop_report(g, seq).per_vertex
        assert all(type(d) is int for d in per_vertex)
        assert list(per_vertex) == (seq - g.degrees()).tolist()


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

    @settings(deadline=None)
    @given(st.sets(st.sampled_from(list(itertools.combinations(range(8), 2))), max_size=20))
    def test_slices_join_into_the_per_edge_text(self, edges):
        # 3-edge slices: empty, exact multiples and remainders all occur
        g = Graph.from_edges(8, sorted(edges))
        want = "".join(f"{u} {v}\n" for u, v in g.edges.tolist())
        text = io.StringIO()
        with mock.patch.object(netgen, "_WRITE_SLICE", 3), tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            write_edge_list(g, path)
            write_edge_list(g, text)
            with open(path, "rb") as fh:
                assert fh.read() == want.encode("ascii")
        assert text.getvalue() == want

    def test_slices_cross_every_decimal_width(self, tmp_path):
        # Ids with 1 to 7 digits, up to _MAX_N - 1, on every side of each
        # width boundary.  The writer reads only ``edges``; a 10^7-vertex
        # Graph would spend 80 MB on its row index.
        ids = [0] + [10**k + d for k in range(1, 7) for d in (-1, 0)] + [netgen._MAX_N - 1]
        for edges in (list(itertools.combinations(ids, 2)), []):
            g = SimpleNamespace(edges=np.array(edges, dtype=np.int64).reshape(-1, 2))
            want = "".join(f"{u} {v}\n" for u, v in edges)
            text, path = io.StringIO(), tmp_path / "g.txt"
            with mock.patch.object(netgen, "_WRITE_SLICE", 3):
                write_edge_list(g, path)
                write_edge_list(g, text)
            assert path.read_bytes() == want.encode("ascii")
            assert text.getvalue() == want

    def test_writing_holds_one_slice_at_a_time(self):
        # A ring with chords, 2 x 10^5 edges: formatted whole, its ids and
        # text peak near 20 MB.
        n = 100_000
        v = np.arange(n)
        g = Graph.from_edges(n, np.concatenate(
            [np.column_stack((v, (v + step) % n)) for step in (1, 2)]
        ))
        assert len(g.edges) == 2 * n  # derived before tracing

        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            write_edge_list(g, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

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

    @pytest.mark.parametrize(
        "text, n, edges",
        [
            ("0 1\r\n1 2\r\n", 3, [[0, 1], [1, 2]]),
            ("0\t1\n2\t1\n", 3, [[0, 1], [1, 2]]),
            ("+5 0\n1_000 5\n", 1001, [[0, 5], [5, 1000]]),
            ("0 1\n\n  \n2 1\n", 3, [[0, 1], [1, 2]]),
            ("", 0, []),
            ("\n  \n\t\n", 0, []),
            ("0 1\n2\x0c3\n", 4, [[0, 1], [2, 3]]),
        ],
        ids=["crlf", "tabs", "plus-underscore", "blank-lines", "empty", "blank-only",
             "form-feed"],
    )
    def test_accepted_text(self, tmp_path, text, n, edges):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("ascii"))
        g = read_edge_list(path)
        assert g.n == n
        assert g.edges.tolist() == edges

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "0 1\n# comment\n1 2\n",
                "line 2: vertex ids must be integers, got '# comment'",
            ),
            ("0 1\n1 2 3\n", "line 2: expected 'u v', got '1 2 3'"),
            ("0 1\r\n\r\n1 0\r\n", "line 3: duplicate edge (0, 1)"),
            ("0 1\n\n3 3\n", "line 3: self-loop at vertex 3"),
            ("0 1\n1\x0c0\n", "line 2: duplicate edge (0, 1)"),
        ],
        ids=["comment", "three-fields", "duplicate-after-blank", "loop-after-blank",
             "form-feed-duplicate"],
    )
    def test_rejected_text_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n1 10000000\n", "line 2: vertex id 10000000 above 9999999"),
            ("0 1\n1 99999999\n", "line 2: vertex id 99999999 above 9999999"),
            ("0 1\n1 4000000000\n", "line 2: vertex id 4000000000 above 9999999"),
            (
                "0 1\n9223372036854775807 1\n",
                "line 2: vertex id 9223372036854775807 above 9999999",
            ),
            (
                "0 1\n1 99999999999999999999\n",
                "line 2: id outside int64 in '1 99999999999999999999'",
            ),
            (
                "0 1\n-9223372036854775809 1\n",
                "line 2: id outside int64 in '-9223372036854775809 1'",
            ),
        ],
        ids=["first-refused", "1e8", "4e9", "int64-max", "above-int64", "below-int64"],
    )
    def test_id_too_large_for_edge_codes_names_its_line(self, tmp_path, text, message):
        # one vertex limit, whatever the size of the id past it
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == message

    def test_vertex_limit_keeps_edge_codes_inside_int64(self):
        assert netgen._MAX_N**2 - 1 <= np.iinfo(np.int64).max

    def test_too_many_vertices_refused_before_allocating(self):
        # n vertices would need an (n + 1)-entry index array: 32 GB here
        with pytest.raises(ValueError, match="4000000001 vertices"):
            Graph.from_edges(4_000_000_001, [(0, 1)])


class TestVertexLimit:
    """``_MAX_N`` is the one vertex limit: built, read and generated graphs
    may have that many vertices and no more."""

    @pytest.fixture(autouse=True)
    def limit_50(self):
        with mock.patch.object(netgen, "_MAX_N", 50):
            yield

    def test_from_edges_accepts_the_limit_and_refuses_one_more(self):
        assert Graph.from_edges(50, [(0, 49)]).n == 50
        with pytest.raises(ValueError, match="^51 vertices exceed the limit of 50$"):
            Graph.from_edges(51, [(0, 1)])
        with pytest.raises(ValueError, match="^vertex id 50 above 49$"):
            Graph.from_edges(51, [(0, 50)])

    def test_read_edge_list_accepts_the_limit_and_refuses_one_more(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 49\n")
        assert read_edge_list(path).n == 50
        path.write_text("0 1\n1 50\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == "line 2: vertex id 50 above 49"

    def test_generate_accepts_the_limit(self):
        g = generate([1] * 50, Model.A, seed=1)
        assert g.n == 50 and len(g.edges) == 25

    @pytest.mark.parametrize("model", list(Model))
    def test_generate_refuses_one_more_before_pairing(self, model):
        with mock.patch.object(netgen, "_pair", side_effect=AssertionError("paired")):
            with pytest.raises(ValueError, match="^51 vertices exceed the limit of 50$"):
                generate([1] * 50 + [0], model, seed=1)
