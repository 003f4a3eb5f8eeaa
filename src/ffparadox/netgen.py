"""Realize degree sequences as simple undirected graphs.

Three generator families share the same stub-pairing core but differ in how
stubs are pooled, which changes the wiring style while keeping the degree
sequence (almost) intact:

* Model A   - one global stub pool; classic configuration-model pairing.
* Model B   - stubs pair only inside small vertex blocks, which fragments the
              graph into many components.
* Kalisky   - vertices are placed hubs-first; each new vertex attaches its
              stubs to open stubs of already-placed vertices, then leftovers
              are paired globally.

All generators forbid self-loops and multi-edges.  Stub pairs that cannot be
placed after bounded edge-swap repair are dropped and reported, never turned
into loops.

Every realization, and every graph read from an edge-list file, is a
``Graph``: a canonical sorted edge array plus a CSR adjacency matrix, the one
graph format that ``metrics`` and the edge-list I/O use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .errors import ImpossibleSequenceError


class Model(str, Enum):
    A = "A"
    B = "B"
    KALISKY = "KALISKY"


class _EdgeError(ValueError):
    """An invalid edge, with its position in the input so that
    ``read_edge_list`` can name the line it came from."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    ``edges`` is a read-only ``(m, 2)`` int64 array of the edges as
    ``(u, v)`` with ``u < v``, sorted, so it is a canonical representation
    and file output is bit-exact.  ``adjacency`` is the symmetric
    ``scipy.sparse.csr_matrix`` of the graph (compressed sparse rows, unit
    weights, sorted column indices): row ``v`` lists the neighbours of
    ``v`` in ascending order.  Both are built once, by ``from_edges``.
    """

    n: int
    edges: np.ndarray
    adjacency: sparse.csr_matrix

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build the graph from ``(u, v)`` pairs in any order and orientation,
        given as pairs or as one flat array of ids ``u0, v0, u1, v1, ...``.

        Raises ``ValueError`` for a self-loop, a vertex id outside
        ``[0, n)`` or an edge given twice (in either orientation).
        """
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = e.min(axis=1), e.max(axis=1)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
        if bad.size:
            i = int(bad[0])
            u, v = (int(x) for x in e[i])
            if u == v:
                raise _EdgeError(f"self-loop at vertex {u}", i)
            raise _EdgeError(f"vertex id out of range: ({u}, {v})", i)
        code = lo * n + hi
        order = np.argsort(code, kind="stable")
        code = code[order]
        # A stable sort puts repeats after their first occurrence.
        repeats = order[1:][code[1:] == code[:-1]]
        if repeats.size:
            i = int(repeats.min())
            raise _EdgeError(f"duplicate edge {(int(lo[i]), int(hi[i]))}", i)
        canon = np.column_stack((lo[order], hi[order]))
        canon.flags.writeable = False
        rows = np.concatenate((canon[:, 0], canon[:, 1]))
        cols = np.concatenate((canon[:, 1], canon[:, 0]))
        adjacency = sparse.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(n, n)
        )
        return Graph(n=n, edges=canon, adjacency=adjacency)

    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr).astype(np.int64)


def make_graphical(seq, seed: int = 0) -> np.ndarray:
    """Repair the pairing parity: if the degree sum is odd, bump one
    uniformly-chosen minimum-degree vertex by 1."""
    degrees = np.asarray(seq, dtype=np.int64).copy()
    if degrees.size == 0:
        raise ValueError("degree sequence must be nonempty")
    if degrees.sum() % 2 == 1:
        candidates = np.flatnonzero(degrees == degrees.min())
        pick = np.random.default_rng(seed).choice(candidates)
        degrees[pick] += 1
    return degrees


class _EdgeStore:
    """Edge set with O(1) membership, insertion, deletion and random choice."""

    def __init__(self):
        self.index = {}
        self.items = []

    def __len__(self):
        return len(self.items)

    def __contains__(self, edge):
        return edge in self.index

    def add(self, edge):
        self.index[edge] = len(self.items)
        self.items.append(edge)

    def remove(self, edge):
        pos = self.index.pop(edge)
        last = self.items.pop()
        if pos < len(self.items):
            self.items[pos] = last
            self.index[last] = pos

    def random(self, rng):
        return self.items[int(rng.integers(len(self.items)))]


def _swap_candidate(u, v, x, y, store: _EdgeStore) -> bool:
    """Whether rewiring edge (x, y) into (u, x) and (v, y) keeps the graph simple."""
    if u == x or v == y:
        return False
    e1 = (u, x) if u < x else (x, u)
    e2 = (v, y) if v < y else (y, v)
    if e1 == e2 or e1 in store or e2 in store:
        return False
    store.remove((x, y) if x < y else (y, x))
    store.add(e1)
    store.add(e2)
    return True


def _try_swap_repair(u, v, store: _EdgeStore, rng, budget: int) -> tuple[bool, int]:
    """Place the stub pair (u, v) by rewiring one existing edge.

    Random candidate edges first; if those fail and the store is small, a
    systematic scan guarantees a swap is found whenever one exists.
    Returns (placed, attempts_used).
    """
    attempts = 0
    cap = min(budget, 64)
    while attempts < cap and len(store) > 0:
        attempts += 1
        x, y = store.random(rng)
        if int(rng.integers(2)):
            x, y = y, x
        if _swap_candidate(u, v, x, y, store):
            return True, attempts
    if len(store) <= 4096:
        for x, y in list(store.items):
            attempts += 1
            if _swap_candidate(u, v, x, y, store) or _swap_candidate(
                u, v, y, x, store
            ):
                return True, attempts
    return False, attempts


def _pair_stubs(stubs: np.ndarray, store: _EdgeStore, rng):
    """Pair a stub multiset into simple edges added to ``store``.

    Alternates reshuffle rounds with edge-swap repair until the pool is empty
    or stops shrinking; repair work is bounded by 10 * |edges| candidate
    swaps overall.  Stubs left unpaired are dropped (see ``drop_report``).
    """
    pending = np.asarray(stubs, dtype=np.int64).copy()
    if pending.size % 2 == 1:
        # A lone stub can never pair; drop one uniformly-chosen occurrence.
        rng.shuffle(pending)
        pending = pending[:-1]

    budget = 10 * max(1, pending.size // 2)
    stalls = 0
    while pending.size > 0 and stalls < 3:
        before = pending.size
        rng.shuffle(pending)
        conflicts = []
        for i in range(0, pending.size, 2):
            u = int(pending[i])
            v = int(pending[i + 1])
            if u == v:
                conflicts.extend((u, v))
                continue
            e = (u, v) if u < v else (v, u)
            if e in store:
                conflicts.extend((u, v))
            else:
                store.add(e)
        unplaced = []
        for i in range(0, len(conflicts), 2):
            u, v = conflicts[i], conflicts[i + 1]
            if budget > 0:
                placed, used = _try_swap_repair(u, v, store, rng, budget)
                budget -= used
                if placed:
                    continue
            unplaced.extend((u, v))
        pending = np.array(unplaced, dtype=np.int64)
        stalls = stalls + 1 if pending.size == before else 0


def _check_sequence(degrees: np.ndarray):
    n = degrees.size
    if n == 0:
        raise ValueError("degree sequence must be nonempty")
    if degrees.min() < 0:
        raise ValueError("degrees must be non-negative")
    if int(degrees.sum()) % 2 != 0:
        raise ValueError("degree sum must be even; run make_graphical first")
    if degrees.max() >= n:
        raise ImpossibleSequenceError(
            f"degree {int(degrees.max())} impossible in a simple graph on {n} vertices"
        )


def _generate_model_a(degrees, rng) -> list:
    store = _EdgeStore()
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    _pair_stubs(stubs, store, rng)
    return store.items


def _generate_model_b(degrees, rng, block_size: int) -> list:
    """Pair stubs only inside vertex blocks.

    Blocks are built from a random vertex order with target size
    ``block_size`` but are extended until every member's degree is realizable
    inside the block with slack (enough distinct partners and enough partner
    stubs); otherwise hubs would be clipped and the degree distribution
    destroyed.
    """
    margin = 2.5  # partner slack per hub; tight blocks defeat edge-swap repair
    n = degrees.size
    order = rng.permutation(n)
    # Start at the highest-degree vertex so the dominant hub always heads a
    # block that keeps extending until its degree is realizable inside it.
    top = int(np.argmax(degrees[order]))
    order = np.roll(order, -top)

    blocks = []
    current = []
    cur_sum = 0
    cur_max = 0
    for v in order:
        current.append(int(v))
        d = int(degrees[v])
        cur_sum += d
        cur_max = max(cur_max, d)
        feasible = (
            len(current) >= block_size
            and len(current) > margin * cur_max
            and cur_sum - cur_max >= margin * cur_max
        )
        if feasible:
            blocks.append(current)
            current, cur_sum, cur_max = [], 0, 0
    if current:
        # Infeasible tail: fold it into the largest closed block, which has
        # the best chance of absorbing any remaining high-degree vertex.
        if blocks:
            max(blocks, key=len).extend(current)
        else:
            blocks.append(current)

    # Blocks share no vertices, so their edge sets are disjoint.
    edges = []
    for block in blocks:
        store = _EdgeStore()
        members = np.array(block, dtype=np.int64)
        stubs = np.repeat(members, degrees[members])
        _pair_stubs(stubs, store, rng)
        edges += store.items
    return edges


def _generate_kalisky(degrees, rng) -> list:
    """Wire hubs-first, building the network outward from its core.

    Vertices are placed in descending degree order.  Each arriving vertex
    spends one stub on a random open stub of the already-placed vertices
    (probability proportional to open stub count, which favors the hubs) and
    pools the rest, so the whole positive-degree set joins one hub-centered
    component.  The pooled stubs are then paired globally.
    """
    order = np.argsort(-degrees, kind="stable")
    store = _EdgeStore()
    open_stubs = []  # vertex id repeated once per open stub
    for v in order:
        v = int(v)
        d = int(degrees[v])
        if d == 0:
            continue
        made = 0
        if open_stubs:
            # v is not yet in the pool, so the draw cannot self-loop and the
            # edge cannot already exist.
            pos = int(rng.integers(len(open_stubs)))
            u = open_stubs[pos]
            open_stubs[pos] = open_stubs[-1]
            open_stubs.pop()
            store.add((u, v) if u < v else (v, u))
            made = 1
        open_stubs.extend([v] * (d - made))
    if open_stubs:
        _pair_stubs(np.array(open_stubs, dtype=np.int64), store, rng)
    return store.items


def generate(seq, model: Model, seed: int, block_size: int = 32) -> Graph:
    """Realize ``seq`` as a simple undirected graph under the given model.

    The degree sum must already be even (see ``make_graphical``).  The
    realized degree of each vertex never exceeds its target; unpairable
    stubs are dropped (see ``drop_report``).  Deterministic per seed.
    ``block_size`` (at least 1) is model B's target block size.
    """
    degrees = np.asarray(seq, dtype=np.int64)
    _check_sequence(degrees)
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, got {block_size}")
    model = Model(model)
    rng = np.random.default_rng(seed)
    if model is Model.A:
        edges = _generate_model_a(degrees, rng)
    elif model is Model.B:
        edges = _generate_model_b(degrees, rng, block_size)
    else:
        edges = _generate_kalisky(degrees, rng)
    flat = np.fromiter(
        itertools.chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
    )
    return Graph.from_edges(degrees.size, flat)


@dataclass(frozen=True)
class DropReport:
    """Per-vertex target-minus-realized degree and its total."""

    per_vertex: tuple
    total: int


def drop_report(g: Graph, seq) -> DropReport:
    """Stubs of ``seq`` that the realization ``g`` failed to place."""
    degrees = np.asarray(seq, dtype=np.int64)
    if degrees.size != g.n:
        raise ValueError("sequence length does not match vertex count")
    realized = g.degrees()
    diff = degrees - realized
    return DropReport(per_vertex=tuple(int(d) for d in diff), total=int(diff.sum()))


def format_edge_list(g: Graph) -> str:
    """The edge-list text of ``g``: one ``u v`` line per edge, 0-based ids,
    u < v, sorted; bit-exact."""
    # One %-format over the flat id list, several times faster than
    # formatting edge by edge.
    return ("%d %d\n" * len(g.edges)) % tuple(g.edges.ravel().tolist())


def write_edge_list(g: Graph, path):
    """Write ``format_edge_list(g)`` to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))


def read_edge_list(path) -> Graph:
    """Parse an edge-list file; vertex count is max id + 1.

    Malformed lines, then self-loops, negative ids and duplicate edges (in
    either orientation, checked by ``Graph.from_edges``) are rejected with
    their line number.
    """
    ids = []
    linenos = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'u v', got {line.strip()!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: vertex ids must be integers, got {line.strip()!r}"
                ) from None
            ids += (u, v)
            linenos.append(lineno)
    edges = np.array(ids, dtype=np.int64)
    n = int(edges.max()) + 1 if edges.size else 0
    try:
        return Graph.from_edges(n, edges)
    except _EdgeError as exc:
        raise ValueError(f"line {linenos[exc.index]}: {exc}") from None
