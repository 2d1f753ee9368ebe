"""Seeded random graph corpora.

All corpora draw exclusively from :class:`girthlab.rng.XorShift64Star`, so
a (generator name, seed, count) triple pins every graph bit-for-bit. Each
generator documents its exact draw sequence; the enumeration order below is
part of the reproducibility contract.
"""

from __future__ import annotations

from .graph import BipartiteGraph, Graph
from .rng import XorShift64Star

_DEN = 100  # edge probabilities are percentages decided by rng.bernoulli


def _er_graph(rng: XorShift64Star, n: int, percent: int) -> Graph:
    """Erdos-Renyi draw: pairs (u, v), u < v, in lexicographic order, each
    kept with probability percent/100."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.bernoulli(percent, _DEN)
    ]
    return Graph(n, edges)


def _er_corpus(count, seed, n_min, n_values, p_min, p_step, p_values):
    """count Erdos-Renyi graphs. Draw i: n = n_min + below(n_values),
    percent = p_min + p_step * below(p_values), then the pair coins."""
    rng = XorShift64Star(seed)
    out = []
    for _ in range(count):
        n = n_min + rng.below(n_values)
        percent = p_min + p_step * rng.below(p_values)
        out.append(_er_graph(rng, n, percent))
    return out


def walks_corpus(count: int, seed: int) -> list:
    """Sparse-to-medium random graphs (n 4..20, percent 10..40 in steps of
    5) for the walk-inequality suites."""
    return _er_corpus(count, seed, 4, 17, 10, 5, 7)


def dense_corpus(count: int, seed: int) -> list:
    """Dense random graphs (n 12..20, percent 55..85 in steps of 10) for the
    odd-cycle-run suite."""
    return _er_corpus(count, seed, 12, 9, 55, 10, 4)


def c4_free_corpus(count: int, seed: int) -> list:
    """Random maximal-ish quadrilateral-free graphs.

    Draw i: n = 8 + below(13) (8..20); shuffle all pairs Fisher-Yates; add
    each pair in shuffled order unless it closes a 4-cycle.
    """
    rng = XorShift64Star(seed)
    out = []
    for _ in range(count):
        n = 8 + rng.below(13)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        bits = [0] * n
        edges = []
        for u, v in pairs:
            creates = False
            mask_v = bits[v] & ~(1 << u)
            for w in range(n):
                if (bits[u] >> w) & 1 and w != v:
                    if bits[w] & mask_v & ~(1 << w):
                        creates = True
                        break
            if not creates:
                edges.append((u, v))
                bits[u] |= 1 << v
                bits[v] |= 1 << u
        out.append(Graph(n, edges))
    return out


def bipartite_corpus(count: int, seed: int) -> list:
    """Random bipartite graphs with no isolated vertices, for the bipartite
    walk bounds.

    Draw i: a = 3 + below(8), b = 3 + below(8), percent = 20 + 10*below(6);
    pair coins in (row, column) order; redraw whenever a vertex ends up
    isolated.
    """
    rng = XorShift64Star(seed)
    out = []
    while len(out) < count:
        a = 3 + rng.below(8)
        b = 3 + rng.below(8)
        percent = 20 + 10 * rng.below(6)
        edges = [
            (i, a + j)
            for i in range(a)
            for j in range(b)
            if rng.bernoulli(percent, _DEN)
        ]
        g = BipartiteGraph(a + b, edges, [0] * a + [1] * b)
        if g.min_degree() >= 1:
            out.append(g)
    return out


def near_biregular_corpus(count: int, seed: int) -> list:
    """Nearly regular dense bipartite graphs with degrees in {d-1, d, d+1}.

    Each graph has two parts of 40 vertices and is a union of d = 16 random
    perfect matchings, where a matching that would repeat an existing edge
    is repaired by swapping two of its pins (smallest indices first); the
    result is exactly d-regular.
    One matching edge is then deleted and one absent pair added, so exactly
    four vertices deviate from d by one. Degree variance 4/n with a random
    regular-like spectral gap.
    """
    part, degree = 40, 16
    rng = XorShift64Star(seed)
    out = []
    for _ in range(count):
        rows = [set() for _ in range(part)]
        for _ in range(degree):
            perm = list(range(part))
            rng.shuffle(perm)
            for _ in range(part):
                clash = next(
                    (i for i in range(part) if perm[i] in rows[i]), None
                )
                if clash is None:
                    break
                j = next(
                    j
                    for j in range(part)
                    if j != clash
                    and perm[j] not in rows[clash]
                    and perm[clash] not in rows[j]
                )
                perm[clash], perm[j] = perm[j], perm[clash]
            for i in range(part):
                rows[i].add(perm[i])
        # perturb: drop one present pair, add one absent pair
        u = rng.below(part)
        v = sorted(rows[u])[rng.below(len(rows[u]))]
        rows[u].discard(v)
        while True:
            u2, v2 = rng.below(part), rng.below(part)
            if v2 not in rows[u2]:
                rows[u2].add(v2)
                break
        edges = [(i, part + c) for i in range(part) for c in sorted(rows[i])]
        out.append(BipartiteGraph(2 * part, edges, [0] * part + [1] * part))
    return out


def small_corpus(count: int, seed: int) -> list:
    """Tiny random graphs (n 2..8, percent 20..80 in steps of 10) for
    brute-force cross-validation."""
    return _er_corpus(count, seed, 2, 7, 20, 10, 7)
