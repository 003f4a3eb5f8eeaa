"""Property tests of the array-backed graph core: canonical edges, the CSR
adjacency, derived degrees and components, edge-list I/O, the traversal
metrics against networkx, and stub pairing under every model."""

import itertools
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ffparadox
from ffparadox.metrics import (
    betweenness,
    components,
    ff_total_adjacency,
    global_efficiency,
)
from ffparadox import netgen
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
from test_metrics import distance_counts, distance_histogram_efficiency

# The first scipy call of a process can exceed hypothesis's default deadline.
no_deadline = settings(deadline=None)


@st.composite
def edge_lists(draw, max_n=60):
    """(n, canonical sorted edges, the same edges in random order and
    orientation)."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * max_n))
    canon = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    flips = draw(st.lists(st.booleans(), min_size=len(canon), max_size=len(canon)))
    oriented = [(v, u) if flip else (u, v) for (u, v), flip in zip(canon, flips)]
    return n, canon, draw(st.permutations(oriented))


@st.composite
def multi_component_graphs(draw, max_block=12):
    """(n, edges) of a graph whose ids fall into several blocks with no edge
    between blocks; one-vertex blocks are isolated ids, and the ids are
    shuffled so no component is contiguous."""
    sizes = draw(st.lists(st.integers(1, max_block), min_size=2, max_size=6))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    edges, start = [], 0
    for size in sizes:
        block = list(itertools.combinations(range(start, start + size), 2))
        if block:
            edges += draw(st.sets(st.sampled_from(block), max_size=len(block)))
        start += size
    return n, [(ids[u], ids[v]) for u, v in edges]


@no_deadline
@given(edge_lists())
def test_edges_are_canonical_and_strictly_sorted(case):
    n, canon, edges = case
    g = Graph.from_edges(n, edges)
    # The CSR matrix is all a graph keeps until edges or labels are read.
    assert set(vars(g)) == {"adjacency"}
    assert g.n == n
    a = g.adjacency
    assert a.indptr.nbytes + a.indices.nbytes + a.data.nbytes == 4 * (n + 1) + 5 * a.nnz
    assert g.edges is g.edges
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(canon), 2)
    assert not g.edges.flags.writeable
    assert [tuple(e) for e in g.edges.tolist()] == canon
    u, v = g.edges[:, 0], g.edges[:, 1]
    assert (u < v).all()
    assert (np.diff(u * n + v) > 0).all()


@no_deadline
@given(edge_lists())
def test_adjacency_is_symmetric_sorted_and_loop_free(case):
    n, canon, edges = case
    a = Graph.from_edges(n, edges).adjacency
    assert a.shape == (n, n)
    # One byte per unit entry; betweenness's products with float blocks
    # upcast it, and every other reader uses only the index arrays.
    assert a.data.dtype == bool and a.data.all()
    assert a.indices.dtype == np.int32 and a.indptr.dtype == np.int32
    assert a.has_sorted_indices
    assert (a != a.T).nnz == 0
    assert not a.diagonal().any()
    for v in range(n):
        row = a.indices[a.indptr[v]:a.indptr[v + 1]]
        assert (np.diff(row) > 0).all()
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    upper = sorted((int(r), int(c)) for r, c in zip(rows, a.indices) if r < c)
    assert upper == canon


@no_deadline
@given(edge_lists())
def test_degrees_and_friends_of_friends(case):
    n, _, edges = case
    g = Graph.from_edges(n, edges)
    degrees = g.degrees()
    assert degrees.dtype == np.int64
    assert np.array_equal(degrees, np.bincount(g.edges.ravel(), minlength=n))
    assert ff_total_adjacency(g) == int(np.dot(degrees, degrees))


@no_deadline
@given(edge_lists())
def test_components_match_networkx(case):
    n, canon, edges = case
    sizes = components(Graph.from_edges(n, edges))
    assert sum(sizes) == n
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(canon)
    assert sizes == sorted(
        (len(c) for c in nx.connected_components(reference)), reverse=True
    )


@no_deadline
@given(multi_component_graphs())
def test_traversal_metrics_match_networkx(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    assert global_efficiency(g) == pytest.approx(
        nx.global_efficiency(reference), rel=1e-9, abs=1e-12
    )
    want = nx.betweenness_centrality(reference, normalized=False)
    np.testing.assert_allclose(
        betweenness(g), [want[v] for v in range(n)], rtol=1e-9, atol=1e-9
    )


@no_deadline
@given(multi_component_graphs(max_block=70), st.data())
def test_efficiency_is_the_exact_distance_histogram(case, data):
    n, edges = case
    g = Graph.from_edges(n, edges)
    value = global_efficiency(g)
    assert value == distance_histogram_efficiency(g)
    ids = data.draw(st.permutations(range(n)), label="relabelling")
    relabelled = Graph.from_edges(n, [(ids[u], ids[v]) for u, v in edges])
    assert global_efficiency(relabelled) == value


def fresh_runs(*args):
    """stdout of ``ffparadox args`` in two fresh interpreters with different
    hash seeds."""
    src = os.path.dirname(os.path.dirname(ffparadox.__file__))
    return [
        subprocess.run(
            [sys.executable, "-m", "ffparadox.cli", *args],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]


def test_analyze_repeats_are_byte_identical(tmp_path):
    # A fragmented model-B graph.
    seq = make_graphical(sample_degrees(PowerLawSpec(2.0, 1.0, 40.0), 400, 3), seed=1)
    path = tmp_path / "b.txt"
    write_edge_list(generate(seq, Model.B, seed=2), str(path))
    outputs = fresh_runs("analyze", str(path))
    assert outputs[0] == outputs[1]
    assert b'"global_efficiency"' in outputs[0]


@pytest.mark.parametrize("args, header", [
    (("sweep", "--alphas", "1.2:3.0:0.2", "--kmaxs", "10,100,1000"), b"alpha,"),
    (("experiment", "--n", "200", "--kmaxs", "100", "--seeds", "0"), b"kind,"),
], ids=["sweep", "experiment"])
def test_csv_repeats_are_byte_identical(args, header):
    outputs = fresh_runs(*args)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(header)


@no_deadline
@given(edge_lists())
def test_write_read_write_is_byte_identical(case):
    n, _, edges = case
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first.txt")
        second = os.path.join(tmp, "second.txt")
        write_edge_list(Graph.from_edges(n, edges), first)
        write_edge_list(read_edge_list(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


@no_deadline
@given(edge_lists(), st.data())
def test_injected_duplicate_or_self_loop_names_its_line(case, data):
    n, canon, edges = case
    edges = list(edges)
    at = data.draw(st.integers(0, len(edges)), label="insert at")
    if canon and data.draw(st.booleans(), label="duplicate"):
        j = data.draw(st.integers(0, len(edges) - 1), label="original")
        u, v = edges[j]
        extra = data.draw(st.sampled_from([(u, v), (v, u)]), label="orientation")
        # the later of the two copies is the one reported
        line = j + 2 if at <= j else at + 1
        message = f"duplicate edge {(min(u, v), max(u, v))}"
    else:
        w = data.draw(st.integers(0, n - 1), label="loop vertex")
        extra = (w, w)
        line = at + 1
        message = f"self-loop at vertex {w}"
    edges.insert(at, extra)
    # a later repeat of the first line must not mask the earlier fault
    edges.append(edges[0][::-1])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph.from_edges(n, edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{a} {b}\n" for a, b in edges)
        with pytest.raises(ValueError, match=f"^line {line}: {re.escape(message)}$"):
            read_edge_list(path)


@st.composite
def degree_sequences(draw, max_n=40):
    """A degree sequence with an even sum and every degree below n."""
    n = draw(st.integers(1, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if sum(seq) % 2:
        seq[seq.index(max(seq))] -= 1
    return np.array(seq, dtype=np.int64)


@no_deadline
@given(
    degree_sequences(),
    st.sampled_from(list(Model)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
)
def test_generate_realizes_a_simple_subgraph_of_the_target(
    seq, model, seed, block_size
):
    with mock.patch.object(netgen, "_BLOCK_SIZE", block_size):
        g = generate(seq, model, seed)
        again = generate(seq, model, seed)
    assert np.array_equal(Graph.from_edges(g.n, g.edges).edges, g.edges)
    assert (g.degrees() <= seq).all()
    assert drop_report(g, seq).total == int(seq.sum()) - 2 * len(g.edges)
    assert np.array_equal(again.edges, g.edges)


@st.composite
def block_degrees(draw, max_n=400):
    """Degrees every one below n: uniform draws, or power-law draws clipped
    to n - 1."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    spec = PowerLawSpec(draw(st.floats(1.5, 3.5)), 1.0, draw(st.floats(2.0, 1000.0)))
    return np.minimum(sample_degrees(spec, n, draw(st.integers(0, 2**32 - 1))), n - 1)


@no_deadline
@given(block_degrees(), st.integers(1, 64), st.integers(0, 2**32 - 1))
# At block size 4 a second degree of 2 counts, so six vertices of degrees
# 2, 2, 2, 2, 1, 1 cannot close a block (slack 10); counting it only from the
# block size up, ``_blocks`` closed them as one.
@example(np.array([2, 1, 1, 2, 2, 1, 2, 1, 1, 2, 1, 2]), 4, 24)
def test_model_b_blocks_follow_the_block_rule(degrees, block_size, seed):
    with mock.patch.object(netgen, "_BLOCK_SIZE", block_size):
        block = netgen._blocks(degrees, np.random.default_rng(seed))
    ids, sizes = np.unique(block, return_counts=True)
    assert np.array_equal(ids, np.arange(ids.size))
    assert block.dtype == np.min_scalar_type(ids.size - 1)
    assert degrees[block == 0].max() == degrees.max()
    # The infeasible tail is folded into a largest block, which takes the
    # parity of the degree sum; every other block was closed by the rule.
    largest = np.argmax(sizes)
    assert degrees[block == largest].sum() % 2 == degrees.sum() % 2
    # A closed block's slack covers its largest degree d1 and, when it is at
    # least half the block size, its second largest d2 (a tie counts twice).
    for b in np.delete(ids, largest):
        members = np.sort(degrees[block == b])[::-1]
        d1, d2 = members[0], members[1] if members.size > 1 else 0
        slack = 2.5 * (d1 + (d2 if 2 * d2 >= block_size else 0))
        assert members.size >= block_size
        assert members.size > slack
        assert members.sum() - d1 >= slack
        assert members.sum() % 2 == 0


@no_deadline
@given(
    st.one_of(
        multi_component_graphs(max_block=30).map(lambda case: Graph.from_edges(*case)),
        st.builds(generate, degree_sequences(max_n=80), st.sampled_from(list(Model)),
                  st.integers(0, 2**32 - 1)),
    )
)
def test_betweenness_sums_the_inner_vertices_of_shortest_paths(g):
    # Every shortest path from s to t has d(s, t) - 1 inner vertices, so the
    # betweenness total is half the sum of N_k (k - 1) over the counts N_k of
    # ordered pairs at distance k, taken here from networkx's distances.
    counts = distance_counts(g)
    inner = sum(count * (k - 1) for k, count in counts.items())
    assert betweenness(g).sum() == pytest.approx(inner / 2, rel=1e-12)


@no_deadline
@given(st.integers(2, 60), st.sampled_from(list(Model)), st.integers(0, 2**32 - 1))
def test_pairing_work_is_bounded_when_stubs_cannot_pair(n, model, seed):
    # All stubs sit on vertices 0 and 1, so one edge is all a simple graph
    # allows; pairing must give up within its swap budget and stall limit:
    # the pending stubs shrink at most once, so at most 3 + 1 + 3 rounds run.
    seq = np.zeros(n, dtype=np.int64)
    seq[:2] = n - 1
    budgets = []
    repair = netgen._swap_repair

    def counted(*args):
        out = repair(*args)
        budgets.append((args[-1], out[-1]))
        return out

    with mock.patch.object(netgen, "_swap_repair", counted):
        g = generate(seq, model, seed)
    assert g.edges.tolist() in ([], [[0, 1]])
    assert len(budgets) <= 7
    assert all(left >= 0 for _, left in budgets)
    assert sum(start - left for start, left in budgets) <= 10 * (n - 1)
