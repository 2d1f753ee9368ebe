"""Constructive extraction of a dense bipartite subgraph from a graph
without short even cycles, plus degree-outlier diagnostics.

The extraction pipeline: cap the maximum degree by deleting all edges at
high-degree vertices, pick the vertex starting the most paths of length
ell+1, and keep the edges between its ell-th and (ell+1)-st BFS layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EpsilonOutOfRange
from .graph import BipartiteGraph, Graph, neighborhood_layers
from .walks import FLOAT_SLACK, BoundReport, paths_from_each_vertex


def truncate_degrees(G: Graph, delta: int) -> tuple:
    """Remove every edge incident to a vertex of degree > delta.

    One-shot (not iterated); returns (new graph, removed edge count). The
    result keeps all n vertices and has maximum degree <= delta.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    high = {v for v in range(G.n) if G.degree(v) > delta}
    kept = [(u, v) for u, v in G.edges() if u not in high and v not in high]
    return Graph(G.n, kept), G.m - len(kept)


def best_root(G: Graph, ell: int, budget=None) -> tuple:
    """The vertex starting the most paths of length ell+1 (lowest index on
    ties), together with that count. One node budget covers the paths from
    all vertices."""
    if ell + 1 > 8:
        raise ValueError("ell + 1 must be <= 8 (path enumeration guard)")
    if G.n == 0:
        raise ValueError("a graph with no vertices has no root")
    best_v, best_count = 0, -1
    counts = paths_from_each_vertex(G, ell + 1, budget=budget)
    for v, count in enumerate(counts):
        if count > best_count:
            best_v, best_count = v, count
    return best_v, best_count


@dataclass(frozen=True)
class ExtractionReport:
    """Outcome of one bipartite-extraction run.

    ``subgraph`` lives on its own compact vertex set; ``subgraph_vertices``
    maps its indices back to the input graph (layer ell first, then layer
    ell+1).
    """

    root: int
    ell: int
    delta: int
    removed_by_truncation: int
    path_count_from_root: int
    layer_sizes: tuple
    subgraph: BipartiteGraph = field(repr=False)
    subgraph_vertices: tuple
    edges_extracted: int
    unique_parent_layers: bool


def extract_bipartite(G: Graph, ell: int, delta=None, budget=None) -> ExtractionReport:
    """Bipartite subgraph between BFS layers ell and ell+1 of the best root
    of the degree-truncated graph.

    Default truncation threshold: ceil(n^(1/ell + 1/(2*ell^2))).
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if delta is None:
        delta = math.ceil(G.n ** (1.0 / ell + 1.0 / (2 * ell * ell)))
    g0, removed = truncate_degrees(G, delta)
    root, count = best_root(g0, ell, budget=budget)
    layers = neighborhood_layers(g0, root, ell + 1)
    masks = [g0.mask(layer) for layer in layers]
    lower, upper = layers[ell], layers[ell + 1]
    # vertex order: layer ell ascending, then layer ell+1 ascending
    vertices = lower + upper
    pos = {v: i for i, v in enumerate(vertices)}
    cross = [(pos[u], pos[v]) for u in lower for v in g0.adj[u]
             if masks[ell + 1] >> v & 1]
    side = (0,) * len(lower) + (1,) * len(upper)
    subgraph = BipartiteGraph(len(vertices), cross, side)
    unique_parent = all(
        (g0.bits[v] & masks[i - 1]).bit_count() == 1
        for i in range(1, ell + 1)
        for v in layers[i]
    )
    return ExtractionReport(
        root=root,
        ell=ell,
        delta=delta,
        removed_by_truncation=removed,
        path_count_from_root=count,
        layer_sizes=tuple(len(layer) for layer in layers),
        subgraph=subgraph,
        subgraph_vertices=vertices,
        edges_extracted=subgraph.m,
        unique_parent_layers=unique_parent,
    )


def check_degree_outlier_bound(G: Graph, B, eps: float) -> BoundReport:
    """In a quadrilateral-free graph, vertices with at least
    (1+eps)*sqrt(|B|) neighbors in B carry at most 2|B|/eps ordered edge
    endpoints into B.

    The verdict must hold whenever G is C4-free; the caller supplies that
    context.
    """
    if not 0 < eps < math.sqrt(3):
        raise EpsilonOutOfRange("need 0 < eps < sqrt(3)")
    b_mask = G.mask(B)
    size = b_mask.bit_count()
    threshold = (1 + eps) * math.sqrt(size)
    # edges into B, counted once per vertex, of the vertices of S: those
    # with at least the threshold of them
    into_b = [k for bits in G.bits
              if (k := (bits & b_mask).bit_count()) >= threshold]
    lhs = sum(into_b)
    rhs = 2 * size / eps
    return BoundReport(
        check="degree-outlier-endpoints",
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + FLOAT_SLACK,
        note=f"|S| = {len(into_b)}, |B| = {size}, eps = {eps}",
    )


@dataclass(frozen=True)
class OutlierReport:
    """Edges at vertices of degree at least (1+eps)*sqrt(n), with a verdict
    that must hold on C4-free graphs."""

    eps: float
    sqrt_threshold: float
    edges_at_sqrt_outliers: int
    sqrt_bound: float
    holds_sqrt: bool


def high_degree_edge_fraction(G: Graph, eps: float) -> OutlierReport:
    if not 0 < eps < math.sqrt(3):
        raise EpsilonOutOfRange("need 0 < eps < sqrt(3)")
    n = G.n
    t_sqrt = (1 + eps) * math.sqrt(n)
    high_sqrt = {v for v in range(n) if G.degree(v) >= t_sqrt}
    at_sqrt = sum(1 for u, v in G.edges() if u in high_sqrt or v in high_sqrt)
    return OutlierReport(
        eps=eps,
        sqrt_threshold=t_sqrt,
        edges_at_sqrt_outliers=at_sqrt,
        sqrt_bound=2 * n / eps,
        holds_sqrt=at_sqrt <= 2 * n / eps + FLOAT_SLACK,
    )
