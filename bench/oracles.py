"""Checks computed apart from the program.

Each function raises ``CheckError`` with a message when the program's output
disagrees with an independent computation (adaptive quadrature, networkx,
scipy's csgraph, numpy parsing of the edge files) or breaks a property the
method must have.  No check compares against stored output of the program.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckError(message)


def close(actual, expected, rel, what):
    require(
        math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0),
        f"{what}: {actual!r} != {expected!r} (relative tolerance {rel})",
    )


def quad_var_to_mean(alpha, k_min, k_max):
    """sigma^2 / <k> of the density k^-alpha on [k_min, k_max] by quadrature.

    Integrates in t = ln k, where every moment integrand is a smooth
    exponential, so adaptive quadrature reaches full double precision.
    """
    from scipy.integrate import quad

    lo, hi = math.log(k_min), math.log(k_max)

    def moment(j):
        value, _ = quad(
            lambda t: math.exp((j + 1.0 - alpha) * t), lo, hi,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return value

    m0, m1, m2 = moment(0), moment(1), moment(2)
    mean = m1 / m0
    return (m2 / m0 - mean * mean) / mean


def parse_edge_file(path):
    """Edges of an edge-list file as an (m, 2) int64 array, parsed by numpy."""
    with open(path, "rb") as fh:
        data = fh.read()
    flat = np.array(data.split(), dtype=np.int64)
    require(flat.size % 2 == 0, f"{path}: odd number of vertex ids")
    return flat.reshape(-1, 2)


def check_canonical_edges(edges, what):
    """Every line has u < v and the lines are strictly sorted, so the file
    holds no self-loops and no duplicate edges."""
    require(edges.shape[0] > 0, f"{what}: no edges")
    u, v = edges[:, 0], edges[:, 1]
    require(bool((u >= 0).all()), f"{what}: negative vertex id")
    require(bool((u < v).all()), f"{what}: a line with u >= v")
    width = int(v.max()) + 1
    code = u * width + v
    require(bool((np.diff(code) > 0).all()), f"{what}: lines not strictly sorted")


def component_sizes(edges, n):
    """Component sizes, largest first, from a csgraph matrix built here."""
    from scipy import sparse
    from scipy.sparse import csgraph

    m = edges.shape[0]
    adj = sparse.coo_matrix(
        (np.ones(m), (edges[:, 0], edges[:, 1])), shape=(n, n)
    ).tocsr()
    count, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels, minlength=count)
    return sorted((int(s) for s in sizes), reverse=True)


def networkx_structure(edges, n):
    """(global efficiency, central point dominance) computed by networkx.

    Central point dominance is Freeman's formula applied to networkx's
    unnormalized betweenness, over all n vertices including isolated ones.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(map(tuple, edges.tolist()))
    efficiency = nx.global_efficiency(graph)
    bc = np.array(
        [v for _, v in sorted(nx.betweenness_centrality(graph, normalized=False).items())]
    )
    rel = bc / ((n - 1) * (n - 2) / 2.0)
    dominance = float((rel.max() - rel).sum() / (n - 1))
    return efficiency, dominance
