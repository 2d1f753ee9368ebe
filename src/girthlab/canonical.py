"""Canonical forms for small graphs: iterated degree refinement followed by
a backtracking search for the minimal adjacency-matrix encoding.

The canonical encoding is the minimum, over vertex orderings consistent
with the refinement tree, of the upper-triangle adjacency bits read row by
row (first pair most significant). Two graphs are isomorphic iff they have
the same (n, encoding) key, and the encoding doubles as the witness
serialization key in the search module.

Branching individualizes one vertex of the first non-singleton cell at a
time; a leaf is a discrete coloring, read as a vertex ordering. Vertices
that are twins (equal neighborhoods outside the pair) are interchangeable
by an automorphism, so only one representative per twin class is explored.
Call this tree T. The result is the first leaf of T in depth-first order
whose encoding is minimal: its encoding, and its coloring as the
permutation.

Two leaves with equal encodings differ by an automorphism, which takes
each vertex to the vertex at the same position in the other leaf. The
search keeps the first leaf of each encoding it reaches, compares every
leaf with them, and stores each automorphism found so. These prune the
tree in two ways, as in nauty (McKay & Piperno, Practical Graph
Isomorphism II, arXiv:1301.1493), which compares with the first and the
best leaf only:

- at the node reached by individualizing a path of vertices, a candidate
  is skipped when the stored automorphisms that fix every path vertex map
  it onto a sibling already explored;
- a leaf equal to an earlier leaf ends the search of every node below the
  one where their two paths part.

Neither changes the result. In both cases an automorphism that fixes the
path to a node maps the subtree of one child onto the subtree of an
earlier child. Refinement is label-invariant, so it maps leaves to leaves
of equal encoding, and twin pruning keeps the set of encodings of every
subtree. So every leaf skipped has an image of equal encoding in T before
it, and none is the first minimal leaf of T. On the incidence graphs of
generalized polygons the tree shrinks by orders of magnitude: PG(2,3)
takes 43 tree nodes instead of 17,915, and PG(2,5), out of reach
without pruning, takes 175.

canonical_labeling also returns the stored automorphisms. They generate a
subgroup of Aut(G), and with the twin transpositions they give the Turán
search its orbits of neighbour sets. Returning them adds no work.
"""

from __future__ import annotations

from .errors import BudgetExceeded
from .graph import Graph, relabel

_NODE_CAP = 10_000_000


def _refine(n: int, bits: tuple, colors: list) -> list:
    """Stable iterated refinement by multisets of neighbor colors.

    Deterministic and label-invariant: new colors are assigned by sorting
    the (old color, sorted neighbor colors) keys.
    """
    ncolors = len(set(colors))
    while True:
        keys = []
        for v in range(n):
            mask = bits[v]
            neigh = []
            while mask:
                low = mask & -mask
                neigh.append(colors[low.bit_length() - 1])
                mask ^= low
            neigh.sort()
            keys.append((colors[v], tuple(neigh)))
        order = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [order[key] for key in keys]
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def _twin_representatives(candidates: list, bits: tuple) -> list:
    reps = []
    for v in candidates:
        vb = bits[v]
        is_dup = False
        for r in reps:
            mask = ~((1 << v) | (1 << r))
            if (vb & mask) == (bits[r] & mask):
                is_dup = True
                break
        if not is_dup:
            reps.append(v)
    return reps


class _CanonSearch:
    def __init__(self, G: Graph):
        self.n = G.n
        self.bits = G.bits
        self.best = None
        self.best_perm = None
        self.nodes = 0
        # encoding -> (inverse labeling, path) of the first leaf reaching it
        self.leaves = {}
        self.generators = []

    def run(self):
        if self.n == 0:
            return 0, ()
        self._descend(_refine(self.n, self.bits, [0] * self.n), ())
        return self.best, self.best_perm

    def _descend(self, colors, path):
        """Search below the node reached by individualizing ``path`` in
        order. Returns the depth of the node the search jumps back to, or
        None to go on with the next sibling."""
        self.nodes += 1
        if self.nodes > _NODE_CAP:
            raise BudgetExceeded(
                f"canonical search of a graph on {self.n} vertices exceeded "
                f"its cap of {_NODE_CAP} tree nodes")
        n = self.n
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next((c for c in range(n) if counts[c] >= 2), None)
        if target is None:
            return self._leaf(colors, path)
        depth = len(path)
        candidates = [v for v in range(n) if colors[v] == target]
        explored = []
        orbit = None
        known = 0
        for v in _twin_representatives(candidates, self.bits):
            if explored and self.generators:
                if known != len(self.generators):
                    known = len(self.generators)
                    orbit = self._orbits(path)
                if any(orbit[u] == orbit[v] for u in explored):
                    continue
            explored.append(v)
            split = [2 * c for c in colors]
            split[v] -= 1
            order = {c: i for i, c in enumerate(sorted(set(split)))}
            jump = self._descend(_refine(n, self.bits, [order[c] for c in split]),
                                 path + (v,))
            if jump is not None and jump < depth:
                return jump
        return None

    def _leaf(self, colors, path):
        n = self.n
        inv = [0] * n
        for v in range(n):
            inv[colors[v]] = v
        bits = self.bits
        enc = 0
        for i in range(n):
            vi = inv[i]
            for j in range(i + 1, n):
                enc = (enc << 1) | ((bits[vi] >> inv[j]) & 1)
        earlier = self.leaves.get(enc)
        if earlier is not None:
            return self._automorphism(colors, path, *earlier)
        self.leaves[enc] = (inv, path)
        if self.best is None or enc < self.best:
            self.best = enc
            self.best_perm = tuple(colors)
        return None

    def _automorphism(self, colors, path, ref_inv, ref_path):
        """Store the automorphism taking this leaf onto the earlier leaf of
        equal encoding, and return the depth at which their paths part: the
        rest of this subtree maps into the earlier leaf's."""
        self.generators.append([ref_inv[c] for c in colors])
        depth = 0
        while path[depth] == ref_path[depth]:
            depth += 1
        return depth

    def _orbits(self, path):
        """Orbit label of each vertex under the stored generators that fix
        every vertex of ``path``."""
        parent = list(range(self.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for gamma in self.generators:
            if all(gamma[v] == v for v in path):
                for v in range(self.n):
                    a, b = find(v), find(gamma[v])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        return [find(v) for v in range(self.n)]


def canonical_labeling(G: Graph) -> tuple:
    """(minimal encoding integer, permutation old-vertex -> position,
    automorphisms). The automorphisms are the ones the search stored, as
    lists v -> image; they generate a subgroup of Aut(G), possibly the
    trivial one, and never swap twins (see twin_transpositions)."""
    search = _CanonSearch(G)
    encoding, perm = search.run()
    return encoding, perm, search.generators


def twin_transpositions(G: Graph) -> list:
    """The automorphisms that swap a vertex with the first vertex of its
    twin class, as lists v -> image; together they generate every
    permutation of each twin class. Twins have equal open neighbourhoods
    (u, v not adjacent) or equal closed ones (u, v adjacent). An open
    neighbourhood never equals a closed one: N(u) = N[v] puts v in N(u), so
    u in N(v) and in N(u)."""
    first, out = {}, []
    for v, b in enumerate(G.bits):
        r = first.get(b, first.get(b | 1 << v))
        if r is not None:
            gamma = list(range(G.n))
            gamma[r], gamma[v] = v, r
            out.append(gamma)
        first.setdefault(b, v)
        first.setdefault(b | 1 << v, v)
    return out


def canonical_key(G: Graph) -> tuple:
    """Hashable isomorphism invariant: (n, minimal encoding)."""
    enc, _ = _CanonSearch(G).run()
    return (G.n, enc)


def canonical_graph(G: Graph) -> Graph:
    """G relabeled into its canonical ordering."""
    return relabel(G, canonical_labeling(G)[1])


def last_edge_under(G: Graph, perm) -> tuple:
    """The edge at the last set position of the encoding induced by perm,
    in original labels."""
    n = G.n
    inv = [0] * n
    for v in range(n):
        inv[perm[v]] = v
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i, -1):
            u, v = inv[i], inv[j]
            if G.has_edge(u, v):
                return (u, v) if u < v else (v, u)
    return None


def canonical_last_edge(G: Graph):
    """The edge occupying the last set position of the canonical encoding,
    in original labels; None for edgeless graphs.

    Well-defined up to automorphism, and deterministic for a fixed input
    labeling, which is what canonical-parent generation needs.
    """
    if G.m == 0:
        return None
    return last_edge_under(G, canonical_labeling(G)[1])


def are_isomorphic(G: Graph, H: Graph) -> bool:
    return G.n == H.n and canonical_key(G) == canonical_key(H)
