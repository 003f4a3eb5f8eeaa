"""Property tests of the array-backed graph core: canonical edges, the CSR
adjacency, derived degrees and components, and edge-list I/O."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffparadox.metrics import components, ff_total_adjacency
from ffparadox.netgen import Graph, read_edge_list, write_edge_list

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


@no_deadline
@given(edge_lists())
def test_edges_are_canonical_and_strictly_sorted(case):
    n, canon, edges = case
    g = Graph.from_edges(n, edges)
    assert g.n == n
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
    nx = pytest.importorskip("networkx")
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
