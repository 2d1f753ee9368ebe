"""Canonical forms for small graphs: refinement of ordered partitions
followed by a backtracking search for the minimal adjacency-matrix encoding.

The canonical encoding is the minimum, over vertex orderings consistent
with the refinement tree, of the upper-triangle adjacency bits read row by
row (first pair most significant). Two graphs are isomorphic iff they have
the same (n, encoding) key, and the encoding doubles as the witness
serialization key in the search module.

A node of the search tree holds an ordered partition of the vertices: a
list of cells, each a sorted vertex list. The colour of a vertex is the
index of its cell. Branching individualizes one vertex of the first
non-singleton cell at a time; a leaf is a discrete partition, read as a
vertex ordering. Vertices that are twins (equal neighborhoods outside the
pair) are interchangeable by an automorphism, so only one representative
per twin class is explored. Call this tree T. The result is the first leaf
of T in depth-first order whose encoding is minimal: its encoding, and its
colouring as the permutation.

Refinement is defined by a colour-list loop. A round gives each vertex the
rank, among the distinct keys, of its key (colour, sorted colours of its
neighbours), and the loop stops at a round that adds no colour. The root
refines the all-zero colouring. A child individualizes v in the cell T of
colour c: v gets 2c - 1, every other vertex twice its colour, and the
ranks of those values are refined. _refine gives the loop's partition
round by round while re-keying less, by five facts.

1. A round ranks by colour first, so cells keep their order, and each cell
   splits by the sorted neighbour-colour tuples of its vertices, the
   sub-cells in tuple order.
2. Cellmates had equal keys one round before, and the colours of the cells
   that did not split then are renumbered monotonically. So cellmates have
   as many neighbours as each other in every cell that did not split, and
   a cell with no vertex adjacent to a just-split cell cannot split.
3. Cellmates have equally many neighbours in each cell of the round before.
   For sorted tuples of equal length, lex order is decided by the least
   value whose multiplicity differs: the tuple with more copies of it is
   smaller. Dropping the neighbours outside the just-split cells removes
   values of equal multiplicity from both tuples, so the tuples stay equal
   in length and keep their order. A key need read only the colours of
   neighbours inside the just-split cells.
4. From the all-zero colouring the first round ranks the vertices by
   degree. So the root starts from the degree classes in ascending order.
   With one class that partition is already equitable and no round runs;
   otherwise the next round reads every neighbour of every vertex.
5. A node's partition is equitable: no round splits it. Individualizing v
   puts [v] before T - {v}, as 2c - 1 < 2c, and moves the later cells up
   by one. Cellmates have equally many neighbours in T, so they can differ
   only in adjacency to v: the first round reads the neighbours in T and
   re-keys the cells that meet N(v).

So _refine yields the loop's partitions, T is the loop's tree, and every
result below is the same under either.

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


def _refine(bits: tuple, cells: list, split: int = -1,
            touched: int = -1) -> list:
    """Split-driven refinement of an ordered partition (a list of cells,
    each a sorted vertex list) to an equitable one.

    Each round re-keys only the non-singleton cells that hold a vertex of
    ``touched``: a vertex by the sorted colours (cell indices) of its
    neighbours in ``split``, and a cell is replaced by its sub-cells in key
    order. The next round's ``split`` is the vertices of the cells that
    split and ``touched`` their neighbours; a round in which no cell splits
    ends it. The module docstring shows that each round gives the partition
    that the colour-list loop gives.
    """
    color = {}
    for i, cell in enumerate(cells):
        for v in cell:
            color[v] = i
    while True:
        out = []
        # colours, in the next partition, of the vertices of split cells
        split_color = {}
        next_split = next_touched = 0
        for cell in cells:
            if len(cell) > 1:
                for v in cell:
                    if touched >> v & 1:
                        break
                else:
                    out.append(cell)
                    continue
                groups = {}
                for v in cell:
                    mask = bits[v] & split
                    key = []
                    while mask:
                        low = mask & -mask
                        key.append(color[low.bit_length() - 1])
                        mask ^= low
                    key.sort()
                    key = tuple(key)
                    if key in groups:
                        groups[key].append(v)
                    else:
                        groups[key] = [v]
                if len(groups) > 1:
                    for key in sorted(groups):
                        sub = groups[key]
                        for v in sub:
                            split_color[v] = len(out)
                            next_split |= 1 << v
                            next_touched |= bits[v]
                        out.append(sub)
                    continue
            out.append(cell)
        if not next_split:
            return cells
        cells, color = out, split_color
        split, touched = next_split, next_touched


def _twin_classes(bits: tuple) -> list:
    """The first vertex of each vertex's twin class, vertex by vertex.

    Twins have equal open neighbourhoods (u, v not adjacent) or equal closed
    ones (u, v adjacent). An open neighbourhood never equals a closed one:
    N(u) = N[v] puts v in N(u), so u in N(v) and in N(u). So each lookup
    below finds only twins. Nor can a class mix the two kinds: N(u) = N(v)
    and N[v] = N[w] put w in N(u), so u in N[w] = N[v], though u, v are not
    adjacent. So twinship is an equivalence, and the first vertex that
    stored a key is the first of its class."""
    first, out = {}, []
    for v, b in enumerate(bits):
        out.append(first.get(b, first.get(b | 1 << v, v)))
        first.setdefault(b, v)
        first.setdefault(b | 1 << v, v)
    return out


class _CanonSearch:
    def __init__(self, G: Graph):
        self.n = G.n
        self.bits = G.bits
        self.twin = _twin_classes(G.bits)
        self.best = None
        self.best_perm = None
        self.nodes = 0
        # encoding -> (inverse labeling, path) of the first leaf reaching it
        self.leaves = {}
        self.generators = []

    def run(self):
        if self.n == 0:
            return 0, ()
        classes = {}
        for v, b in enumerate(self.bits):
            classes.setdefault(b.bit_count(), []).append(v)
        cells = [classes[d] for d in sorted(classes)]
        if len(cells) > 1:
            cells = _refine(self.bits, cells)
        self._descend(cells, ())
        return self.best, self.best_perm

    def _descend(self, cells, path):
        """Search below the node reached by individualizing ``path`` in
        order. Returns the depth of the node the search jumps back to, or
        None to go on with the next sibling."""
        self.nodes += 1
        if self.nodes > _NODE_CAP:
            raise BudgetExceeded(
                f"canonical search of a graph on {self.n} vertices exceeded "
                f"its cap of {_NODE_CAP} tree nodes")
        t = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if t is None:
            return self._leaf(cells, path)
        depth = len(path)
        target = cells[t]
        split = 0
        reps = {}  # twin class -> its first vertex in the target cell
        for v in target:
            split |= 1 << v
            reps.setdefault(self.twin[v], v)
        explored = []
        orbit = None
        known = 0
        for v in reps.values():
            if explored and self.generators:
                if known != len(self.generators):
                    known = len(self.generators)
                    orbit = self._orbits(path)
                if any(orbit[u] == orbit[v] for u in explored):
                    continue
            explored.append(v)
            child = (cells[:t] + [[v], [u for u in target if u != v]]
                     + cells[t + 1:])
            jump = self._descend(
                _refine(self.bits, child, split, self.bits[v]), path + (v,))
            if jump is not None and jump < depth:
                return jump
        return None

    def _leaf(self, cells, path):
        n = self.n
        inv = [cell[0] for cell in cells]
        bits = self.bits
        enc = 0
        for i in range(n):
            vi = inv[i]
            for j in range(i + 1, n):
                enc = (enc << 1) | ((bits[vi] >> inv[j]) & 1)
        colors = [0] * n
        for i, v in enumerate(inv):
            colors[v] = i
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
    permutation of each twin class."""
    out = []
    for v, r in enumerate(_twin_classes(G.bits)):
        if r != v:
            gamma = list(range(G.n))
            gamma[r], gamma[v] = v, r
            out.append(gamma)
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
