"""Realize degree sequences as simple undirected graphs.

All three generator families pair stubs with one array routine, inside
blocks given by a block id per vertex; their blocks and first edges set the
wiring style while keeping the degree sequence (almost) intact:

* Model A   - one block: shuffled stubs are paired and conflicts repaired
              by double-edge swaps.  This is not uniform sampling: on small
              sequences it reaches every simple realization, but not with
              equal frequency.
* Model B   - small vertex blocks, all paired in the same rounds, which
              fragments the graph into many components.  A block is a run
              of at least 32 vertices of a random order, extended until,
              with d1 >= d2 its two largest degrees and s = 2.5 (d1 + d2),
              d2 counted only from 16 up, it has more than s vertices, at
              least s stubs besides d1's and an even stub count; the
              infeasible tail joins the largest block.
* Kalisky   - vertices are placed hubs-first, each attaching to a uniformly
              drawn open stub of the placed ones; leftovers are paired in
              one block.  All vertices of degree d >= 2 are placed in one
              array pass: an arriving vertex's first new stub takes the
              slot of the stub it spent and its other d - 2 are appended,
              so the pool's size before every arrival, and all the draws,
              are known at once.  Each draw is still uniform over the open
              stubs, so the law of the attachment edges is the sequential
              one.

Pairing rounds group shuffled stubs by block, pair them by reshaping and find
self-loops and repeats from sorted edge codes ``lo * n + hi``; conflicts are
placed by batched double-edge swaps inside their block.  In a conflict's last
repair round a swap that can add only one of its two edges makes that one (a
hop), and the pair takes the stub it displaced, passing a hub's stub on.
After a stall (a round that places nothing) conflicts' lower ends pair with
each other, and upper ends too.  Stubs unplaced after three stalls in a row
are dropped and reported, never turned into loops or multi-edges.  Sorts
whose tie order can reach a graph are stable, so a seed gives the same graph
on every CPU.  Realizations and files read are ``Graph``s, which keep only
the CSR adjacency, one byte per entry.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import ImpossibleSequenceError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


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


# The most vertices a graph may have, whether generated or implied by an
# edge-list file: about 100 bytes per id in ``analyze``, ten times the largest
# graphs generated in practice (n = 10^6).  Edge codes lo * n + hi stay far
# inside int64 (below 10^14).
_MAX_N = 10**7


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``, kept as its symmetric
    ``scipy.sparse.csr_matrix`` ``adjacency`` alone (``bool`` unit entries; row
    ``v`` lists the neighbours of ``v`` in ascending order).  ``edges`` and
    ``labels`` are derived from it on first use and kept."""

    adjacency: csr_matrix

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build the graph from ``(u, v)`` pairs in any order and orientation.

        Raises ``ValueError`` for a self-loop, a vertex id outside
        ``[0, n)`` or at least ``_MAX_N``, an edge given twice (in either
        orientation), or ``n`` above ``_MAX_N``.
        """
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= min(n, _MAX_N)))
        if bad.size:
            i = int(bad[0])
            u, v = (int(x) for x in e[i])
            if u == v:
                raise _EdgeError(f"self-loop at vertex {u}", i)
            if max(u, v) >= _MAX_N:
                raise _EdgeError(f"vertex id {max(u, v)} above {_MAX_N - 1}", i)
            raise _EdgeError(f"vertex id out of range: ({u}, {v})", i)
        if n > _MAX_N:
            raise ValueError(f"{n} vertices exceed the limit of {_MAX_N}")
        # Both directions of every edge as codes row * n + column, sorted: the CSR
        # entries row by row, in which a repeated edge is two equal neighbours.
        both = np.concatenate((lo * n + hi, hi * n + lo))
        both.sort()
        if (both[1:] == both[:-1]).any():
            repeat = np.ones(len(e), dtype=bool)
            repeat[np.unique(lo * n + hi, return_index=True)[1]] = False
            i = int(repeat.argmax())  # the first edge that repeats an earlier one
            raise _EdgeError(f"duplicate edge {(int(lo[i]), int(hi[i]))}", i)
        # Row pointers from each vertex's entry count, and both index arrays
        # in the dtype scipy stores (int32 while the entries fit), so that it
        # keeps them uncopied.
        from scipy.sparse import csr_matrix

        idx = np.int32 if both.size <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(e.ravel(), minlength=n), out=indptr[1:])
        indices = np.remainder(both, n, out=both).astype(idx)
        return Graph(csr_matrix((np.ones(both.size, bool), indices, indptr), shape=(n, n)))

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """Read-only ``(m, 2)`` int64 array of the upper entries ``(u, v)``,
        ``u < v``, in row order: canonical, so file output is bit-exact."""
        rows = np.repeat(np.arange(self.n), self.degrees())
        upper = rows < self.adjacency.indices
        edges = np.column_stack((rows[upper], self.adjacency.indices[upper]))
        edges.flags.writeable = False
        return edges

    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr).astype(np.int64)

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """Read-only connected-component label of every vertex."""
        from scipy.sparse import csgraph

        _, labels = csgraph.connected_components(self.adjacency, directed=False)
        labels.flags.writeable = False
        return labels


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


# A conflicting pair draws 1, 2, 4, ... swap candidates in successive repair
# rounds, up to this many in its last round.
_MAX_TRIES = 32


def _codes(u, v, n: int) -> np.ndarray:
    """The edge code lo * n + hi of each pair."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _isin_sorted(q: np.ndarray, *sets: np.ndarray) -> np.ndarray:
    """Which entries of ``q`` occur in any of the sorted arrays ``sets``."""
    order = np.argsort(q)  # sorted queries search a few times faster
    q, found = q[order], np.zeros(q.size, dtype=bool)
    for s in (s for s in sets if s.size):
        found[order] |= s[np.minimum(np.searchsorted(s, q), s.size - 1)] == q
    return found


def _pair(stubs: np.ndarray, n: int, rng, block: np.ndarray, seeded: np.ndarray):
    """Pair a stub multiset into simple edges ``(lo, hi)`` inside blocks
    (``block`` holds a block id per vertex), after the ``seeded`` edges.
    What ``_place`` and ``_swap_repair`` (at most 10 * |edges| swap
    candidates) leave is regrouped by block, reshuffled unless nothing was
    placed, until none is left or three rounds in a row stall.  Returns edges."""
    # ``codes`` holds the sorted codes of the edges placed so far, which are
    # ``edges[:codes.size]``: each placement adds one edge and its code.
    edges = np.empty((len(seeded) + stubs.size // 2, 2), dtype=np.int64)
    edges[:len(seeded)] = seeded
    codes = np.sort(seeded[:, 0] * n + seeded[:, 1])
    budget = 10 * max(1, stubs.size // 2)
    stalls = 0
    while stubs.size and stalls < 3:
        # Random rounds can keep pairing a vertex's stubs together; a stall
        # keeps the leftovers' order, lower ends then upper, so ends meet anew.
        if not stalls:
            rng.shuffle(stubs)
        stubs = stubs[np.argsort(block[stubs], kind="stable")]
        pending = stubs.size
        codes, u, v = _place(stubs, edges, codes, n)
        if u.size and budget > 0:
            codes, u, v, budget = _swap_repair(u, v, edges, codes, n, block, rng, budget)
        stubs = np.concatenate((u, v))
        stalls = stalls + 1 if stubs.size == pending else 0
    return edges[:codes.size]


def _place(stubs, edges, codes, n):
    """Pair ``stubs`` by reshaping and place each pair that is no self-loop,
    present edge (its code in ``codes``) or repeat; every block holds an even
    stub count, so no pair straddles two blocks.  Returns the sorted codes of
    all placed edges and the other pairs as ``(lo, hi)``."""
    pairs = stubs.reshape(-1, 2)
    code = np.sort(_codes(pairs[:, 0], pairs[:, 1], n))
    lo, hi = np.divmod(code, n)
    fresh = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=fresh[1:])
    fresh &= (lo != hi) & ~_isin_sorted(code, codes)
    m, placed = codes.size, int(np.count_nonzero(fresh))
    edges[m:m + placed, 0], edges[m:m + placed, 1] = lo[fresh], hi[fresh]
    codes = np.concatenate((codes, code[fresh]))
    codes.sort(kind="stable")  # merges two sorted runs
    return codes, lo[~fresh], hi[~fresh]


def _swap_repair(u, v, edges, codes, n, block, rng, budget):
    """Place the stub pairs ``(u[i], v[i])`` by batched double-edge swaps.

    Each round every pair draws random oriented edges ``(x, y)`` present at
    the start in its block and proposes the first it can rewire into
    ``(u, x)`` and ``(v, y)``, or in its last round hop: rewire into
    ``(u, x)`` alone and stay as ``(y, v)``, passing a hub's stub on.  A
    round applies proposals that rewire each edge once and add distinct
    edges.  Returns the sorted codes of all edges, the unplaced pairs and
    the budget left.
    """
    present, m = codes, codes.size  # the start set: rewired edges' codes stay in it
    edge_block = block[edges[:m, 0]]
    by_block = np.argsort(edge_block, kind="stable")  # ties in slot order
    edge_block = edge_block[by_block]
    first = np.searchsorted(edge_block, block[u])
    count = np.searchsorted(edge_block, block[u], side="right") - first
    swapped = np.empty(0, dtype=np.int64)  # sorted codes of the new edges
    placed = np.zeros(u.size, dtype=bool)
    tries = 1
    while tries <= _MAX_TRIES:
        # A pair with no edge to swap with in its block never draws.
        owner = np.repeat(np.flatnonzero(~placed & (count > 0))[:budget // tries], tries)
        if not owner.size:
            break
        budget -= owner.size
        pick = (rng.random(owner.size) * (2 * count[owner])).astype(np.int64)
        j = by_block[first[owner] + (pick >> 1)]
        ends = np.stack((u[owner], v[owner]))
        x, y = far = edges[j, np.stack((pick & 1, 1 - (pick & 1)))]
        c1, c2 = new = _codes(ends, far, n)
        taken = _isin_sorted(new.ravel(), present, swapped).reshape(new.shape)
        fits1, fits2 = (ends != far) & ~taken
        full = fits1 & fits2 & (c1 != c2)
        f = np.flatnonzero(full | (fits1 | fits2) & (tries == _MAX_TRIES))
        f = f[np.unique(owner[f], return_index=True)[1]]  # a pair's first valid
        f = f[np.unique(j[f], return_index=True)[1]]  # each edge rewired once
        # A hop rewires edge j alone; -1 - i stands for "no second edge".
        put = np.where(fits1[f], c1[f], c2[f])
        add = np.where(full[f], c2[f], -1 - np.arange(f.size))
        keep = np.zeros(2 * f.size, dtype=bool)
        keep[np.unique(np.concatenate((put, add)), return_index=True)[1]] = True
        keep = keep.reshape(2, -1).all(axis=0)  # every new edge distinct
        f, put, add = f[keep], put[keep], add[keep][full[f[keep]]]
        edges[j[f], 0], edges[j[f], 1] = np.divmod(put, n)
        edges[m:m + add.size, 0], edges[m:m + add.size, 1] = np.divmod(add, n)
        m += add.size
        swapped = np.concatenate((swapped, put, add))
        swapped.sort(kind="stable")  # timsort keeps the sorted prefix as one run
        placed[owner[f[full[f]]]] = True
        hop = f[~full[f]]  # stays unplaced as the pair of the stub it displaced
        r, by_u = owner[hop], fits1[hop]
        u[r], v[r] = np.where(by_u, y[hop], u[r]), np.where(by_u, v[r], x[hop])
        tries *= 2
    if swapped.size:
        codes = edges[:m, 0] * n
        codes += edges[:m, 1]
        codes.sort()
    return codes, u[~placed], v[~placed], budget


def _check_sequence(degrees: np.ndarray):
    n = degrees.size
    if n == 0:
        raise ValueError("degree sequence must be nonempty")
    if n > _MAX_N:
        raise ValueError(f"{n} vertices exceed the limit of {_MAX_N}")
    if degrees.min() < 0:
        raise ValueError("degrees must be non-negative")
    if int(degrees.sum()) % 2 != 0:
        raise ValueError("degree sum must be even; run make_graphical first")
    if degrees.max() >= n:
        raise ImpossibleSequenceError(
            f"degree {int(degrees.max())} impossible in a simple graph on {n} vertices"
        )


# Model B's least block size: small enough that blocks fragment the graph.
_BLOCK_SIZE = 32


def _blocks(degrees: np.ndarray, rng) -> np.ndarray:
    """Model B's block id of every vertex: runs of a random vertex order of
    ``_BLOCK_SIZE`` vertices, extended until every member's degree is
    realizable inside the block with slack (enough distinct partners and
    partner stubs; otherwise hubs would be clipped) and the stub count is
    even, so that every stub has a partner in its block.  The slack covers
    the largest degree and, when it is at least half ``_BLOCK_SIZE``, the
    second largest: two hubs in one block compete for the same partners.
    With an even degree sum the folded tail, and so every block, is even."""
    margin = 2.5  # partner slack per hub; tight blocks defeat edge-swap repair
    n = degrees.size
    order = rng.permutation(n)
    # Start at the highest-degree vertex so the dominant hub always heads a
    # block that keeps extending until its degree is realizable inside it.
    order = np.roll(order, -int(np.argmax(degrees[order])))
    sizes = []
    size = total = d1 = d2 = slack = 0
    for d in degrees[order].tolist():
        size += 1
        total += d
        if d > d2:  # d1 >= d2 are the two largest degrees; a tie counts twice
            d1, d2 = max(d1, d), min(d1, d)
            slack = margin * (d1 + (d2 if 2 * d2 >= _BLOCK_SIZE else 0))
        if size >= _BLOCK_SIZE and size > slack and total - d1 >= slack and not total % 2:
            sizes.append(size)
            size = total = d1 = d2 = slack = 0
    # Infeasible tail: fold it into the largest closed block, which has the
    # best chance of absorbing any remaining high-degree vertex.  Small ids
    # keep stable sorts by block id radix sorts.
    dtype = np.min_scalar_type(max(len(sizes) - 1, 0))
    block = np.full(n, int(np.argmax(sizes)) if sizes else 0, dtype=dtype)
    block[order[:n - size]] = np.repeat(np.arange(len(sizes)), sizes)
    return block


def _attach_hubs_first(degrees: np.ndarray, rng):
    """KALISKY's attachment edges ``(lo, hi)`` and open stubs: vertices arrive
    in descending degree order, and each spends one stub on a uniformly drawn
    open stub of the placed vertices (which favors the hubs) and pools the
    rest, so all positive-degree vertices join one hub-centered component.

    The pool is an array of slots, one open stub each, and all vertices of
    degree d >= 2 are placed in one pass.  Such a vertex's first new stub
    takes the slot of the stub it spent and its other d - 2 are appended,
    so the pool never shrinks and its size before each arrival, S (the
    first vertex's degree) plus the d - 2 of every earlier arrival, is known
    up front: one array of uniforms draws every slot.  A slot's stub at an
    arrival belongs to the slot's last earlier chooser, or else to the
    slot's first owner.  Vertices of degree 1 only shrink the pool: they
    spend a prefix of one random permutation of it, and once it is empty
    the rest alternate, one pooling its stub and the next attaching to it.
    Every step draws uniformly from the open stubs whatever their slots, so
    the law of the edges is the sequential one; a vertex attaches once, to
    vertices placed before it, so no self-loop or repeated edge is made.
    """
    top = int(degrees.max())
    # The order of -degrees, from keys that numpy radix-sorts up to 16 bits.
    key = (top - degrees).astype(np.min_scalar_type(top))
    order = np.argsort(key, kind="stable")[:np.count_nonzero(degrees)]
    pool = np.empty(int(degrees.sum()), dtype=np.int64)  # slots 0 .. size - 1 open
    first = int(degrees[order[0]]) if order.size else 0
    pool[:first] = order[:1]  # the first vertex has nothing to attach to
    rest = order[1:]
    d = degrees[rest]
    hubs, ones = rest[d >= 2], rest[d == 1]  # hubs: a prefix, as d descends
    m, grow = hubs.size, d[:hubs.size] - 2
    size = first + int(grow.sum())
    pool[first:size] = np.repeat(hubs, grow)
    slot = (rng.random(m) * (first + np.cumsum(grow) - grow)).astype(np.int64)
    target = pool[slot]  # first owners
    # Distinct keys slot * m + step sort into (slot, step) order on any CPU.
    # They stay below the degree sum times _MAX_N, inside int64 wherever the
    # pool (8 bytes a stub) fits in memory.
    s, step = np.divmod(np.sort(slot * m + np.arange(m)), m)
    same = s[1:] == s[:-1]  # an earlier step chose the same slot
    target[step[1:][same]] = hubs[step[:-1][same]]
    last = np.ones(m, dtype=bool)
    last[:-1] = ~same
    pool[s[last]] = hubs[step[last]]
    ends = [np.column_stack((target, hubs))]  # (open stub's vertex, arriving vertex)
    if ones.size:
        k = min(ones.size, size)
        perm = rng.permutation(size)
        ends.append(np.column_stack((pool[perm[:k]], ones[:k])))
        left = ones[k:]  # arrives at an empty pool: pooled, then attached to
        ends.append(left[:left.size - left.size % 2].reshape(-1, 2))
        pool[:size - k] = pool[perm[k:]]
        size -= k
        if left.size % 2:
            pool[0], size = left[-1], 1
    e = np.concatenate(ends)
    attached = np.column_stack((np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])))
    return attached, pool[:size]


def generate(seq, model: Model, seed: int) -> Graph:
    """Realize ``seq`` as a simple undirected graph under the given model.

    The degree sum must already be even (see ``make_graphical``).  The
    realized degree of each vertex never exceeds its target; unpairable
    stubs are dropped (see ``drop_report``).  Deterministic per seed, on
    every CPU.
    """
    degrees = np.asarray(seq, dtype=np.int64)
    _check_sequence(degrees)
    model = Model(model)
    n = degrees.size
    rng = np.random.default_rng(seed)
    if model is Model.KALISKY:
        seeded, stubs = _attach_hubs_first(degrees, rng)
    else:
        seeded, stubs = np.empty((0, 2), dtype=np.int64), np.repeat(np.arange(n), degrees)
    block = _blocks(degrees, rng) if model is Model.B else np.zeros(n, dtype=np.uint8)
    return Graph.from_edges(n, _pair(stubs, n, rng, block, seeded))


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
    return DropReport(per_vertex=tuple(diff.tolist()), total=int(diff.sum()))


# Edges per write: a slice's ids, characters and text peak near 0.9 MB at
# any graph size.  On a 2-vCPU Xeon the 2 x 10^5 edges of a 10^5-vertex
# graph write in 0.012-0.019 s, and slices of 2^12 to 2^16 edges wrote the
# 2.3 million of a 10^6-vertex graph equally fast (0.17-0.24 s).
_WRITE_SLICE = 2**14


def _edge_text(part: np.ndarray) -> str:
    """The ``u v`` lines of the edges ``part``, built as bytes in numpy: the
    decimal digits of each id, without leading zeros, then a space or a
    newline."""
    ids = part.T.astype(np.uint32)  # below _MAX_N = 10^7: seven digits at most
    width = len(str(int(ids.max())))
    # Character j of every id in row j, so each pass writes one row; the
    # transpose to line order is taken by the compress at the end.
    chars = np.empty((width + 1,) + ids.shape, dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    powers = 10 ** np.arange(width - 1, 0, -1)  # a leading zero where id < power
    np.greater_equal(ids, powers[:, None, None], out=keep[:-2])
    for j in range(width - 1, -1, -1):
        tens = ids // 10  # scalar floor division is several times faster than divmod
        chars[j] = ids - 10 * tens
        ids = tens
    chars[:-1] += ord("0")
    chars[-1, 0], chars[-1, 1] = ord(" "), ord("\n")
    return chars.T[keep.T].tobytes().decode("ascii")


def write_edge_list(g: Graph, out):
    """Write ``g`` to ``out``, a path or an open text stream, in slices of
    ``_WRITE_SLICE`` edges: a ``u v`` line per edge, u < v, sorted; bit-exact."""
    with (contextlib.nullcontext(out) if hasattr(out, "write")
          else open(out, "w", encoding="ascii")) as fh:
        for start in range(0, len(g.edges), _WRITE_SLICE):
            fh.write(_edge_text(g.edges[start:start + _WRITE_SLICE]))


def read_edge_list(path) -> Graph:
    """Parse an edge-list file; vertex count is max id + 1, at most
    ``_MAX_N``.

    The file is opened and read once, so a pipe such as ``/dev/stdin`` works.
    One ``np.loadtxt`` pass parses its text; text that pass declines, or
    whose edges ``Graph.from_edges`` refuses, is parsed again line by line.
    Malformed lines and ids outside int64, then self-loops, negative ids,
    ids of ``_MAX_N`` or more and duplicate edges (in either
    orientation, checked by ``Graph.from_edges`` before any per-vertex array
    is built) are rejected with their line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if text.strip():  # loadtxt warns on empty input
        try:
            edges = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
            if edges.shape[1] == 2:
                return Graph.from_edges(int(edges.max()) + 1, edges)
        except ValueError:  # a decline, or an _EdgeError
            pass  # parsed again below, line by line, to name the line
    pairs = []
    linenos = []
    # ``open`` has translated "\r\n" and "\r"; str.splitlines would also
    # break at "\v", "\f" and "\x1c"-"\x1e", which split() treats as blanks.
    for lineno, line in enumerate(text.split("\n"), start=1):
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
        if not -(2**63) <= min(u, v) <= max(u, v) < 2**63:
            raise ValueError(f"line {lineno}: id outside int64 in {line.strip()!r}")
        pairs.append((u, v))
        linenos.append(lineno)
    edges = np.array(pairs, dtype=np.int64)
    n = int(edges.max()) + 1 if edges.size else 0
    try:
        return Graph.from_edges(n, edges)
    except _EdgeError as exc:
        raise ValueError(f"line {linenos[exc.index]}: {exc}") from None
