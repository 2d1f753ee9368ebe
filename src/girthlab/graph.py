"""Graph values and the structural procedures used throughout the package:
BFS layers, girth, bounded exhaustive cycle enumeration, local-switching
bipartitions, low-degree peeling, and exact chromatic number.

Graphs are immutable after construction. Adjacency is stored both as sorted
tuples and as per-vertex bitmasks. Every traversal here runs on the
bitmasks: one BFS, ``_layers``, yields the distance layers of a vertex as
masks, and the cycle search is a stack DFS over masks.

Girth. Let L_0, L_1, ... be the BFS layers of a start vertex v. An edge
inside L_r closes a closed walk of length 2r + 1 along two shortest paths
from v, and a vertex of L_{r+1} with two neighbours in L_r one of length
2r + 2. Each such walk uses its last edge once, so it contains a cycle no
longer than itself. Conversely, distances along a shortest cycle C are
distances in G (a shortcut would give a shorter cycle), so from a vertex of
C the cycle shows up in exactly this way at layer (|C| - 1) // 2. The least
length seen over all starts is therefore the girth, and each start stops
before the first layer r with 2r + 1 at or above the best length so far.

Cycle search. Every cycle is found exactly once, from its least vertex a:
as a path over vertices above a, from a's lower neighbour on the cycle to
its higher one. A path of d edges from a to w closes only into cycles of at
least d + dist(w) edges, where dist(w) is the BFS distance from a to w
through vertices above a. So the search extends a path only to vertices w
with d + dist(w) <= lmax, and this cut loses no cycle of length <= lmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import or_

from .budgets import DEFAULT_CYCLE_BUDGET, node_budget
from .errors import BudgetExceeded, NotBipartite

INFINITE = math.inf


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "adj", "bits")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
        neigh = [[] for _ in range(n)]
        bits = [0] * n
        for u, v in seen:
            neigh[u].append(v)
            neigh[v].append(u)
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self.m = len(seen)
        self.adj = tuple(tuple(sorted(a)) for a in neigh)
        self.bits = tuple(bits)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple:
        return tuple(len(a) for a in self.adj)

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def average_degree(self) -> Fraction:
        if self.n == 0:
            raise ValueError("average degree of the empty graph is undefined")
        return Fraction(2 * self.m, self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.bits[u] >> v) & 1)

    def edges(self) -> list:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def mask(self, vertices) -> int:
        """Bitmask of a vertex set; ValueError if it holds a non-vertex."""
        mask = 0
        try:
            for v in vertices:
                mask |= 1 << v
        except ValueError:  # a negative shift count
            mask = -1
        if mask < 0 or mask >> self.n:
            raise ValueError(
                f"vertex set holds a vertex outside 0..{self.n - 1}")
        return mask

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class BipartiteGraph(Graph):
    """Graph plus a two-part vertex labeling; every edge must cross parts.

    ``side[v]`` is 0 for the X part and 1 for the Y part; ``part_x`` and
    ``part_y`` are the vertices of each part in increasing order.
    """

    __slots__ = ("side", "part_x", "part_y")

    def __init__(self, n: int, edges=(), side=()):
        super().__init__(n, edges)
        side = tuple(int(s) for s in side)
        if len(side) != n or any(s not in (0, 1) for s in side):
            raise ValueError("side labels must be 0/1 for every vertex")
        for u, v in self.edges():
            if side[u] == side[v]:
                raise NotBipartite(f"edge ({u},{v}) inside part {side[u]}")
        self.side = side
        self.part_x = tuple(v for v in range(n) if side[v] == 0)
        self.part_y = tuple(v for v in range(n) if side[v] == 1)

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, m={self.m}, |X|={len(self.part_x)})"


def relabel(G: Graph, perm) -> Graph:
    """New graph with vertex v renamed perm[v]; perm must be a permutation
    of 0..n-1."""
    if sorted(perm) != list(range(G.n)):
        raise ValueError(f"relabeling is not a permutation of the {G.n} "
                         f"vertices of the graph")
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def induced_subgraph(G: Graph, vertices) -> tuple:
    """Induced subgraph plus the sorted tuple mapping new index -> old;
    ValueError if vertices holds a non-vertex."""
    kept = tuple(_vertices(G.mask(vertices)))
    pos = {v: i for i, v in enumerate(kept)}
    edges = [
        (pos[u], pos[v]) for u, v in G.edges() if u in pos and v in pos
    ]
    return Graph(len(kept), edges), kept


def _vertices(mask: int):
    """The vertices of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layers(bits, v: int, rmax: int, allowed: int = -1):
    """BFS layers of v as bitmasks: layer r holds the vertices at distance r
    from v along paths inside ``allowed``. Yields layers 0..rmax and stops
    early at the first empty one."""
    seen = frontier = 1 << v
    yield frontier
    for _ in range(rmax):
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= bits[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & allowed & ~seen
        if not frontier:
            return
        seen |= frontier
        yield frontier


def neighborhood_layers(G: Graph, v: int, rmax: int) -> list:
    """BFS layers N_0(v)..N_rmax(v) as sorted tuples; layers are disjoint."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range")
    if rmax < 0:
        raise ValueError("rmax must be >= 0")
    layers = [tuple(_vertices(mask)) for mask in _layers(G.bits, v, rmax)]
    return layers + [()] * (rmax + 1 - len(layers))


def _parity_layers(G: Graph):
    """(r % 2, layer r) for the BFS layers of each component, rooted at its
    least vertex."""
    unseen = (1 << G.n) - 1
    while unseen:
        root = (unseen & -unseen).bit_length() - 1
        for r, layer in enumerate(_layers(G.bits, root, G.n)):
            unseen ^= layer
            yield r & 1, layer


def bipartition(G: Graph):
    """2-coloring by BFS layer parity, or None if an odd cycle exists.

    Deterministic: components are rooted at their lowest-index vertex, which
    is colored 0. An edge inside a layer closes an odd cycle.
    """
    bits = G.bits
    odd = 0
    for parity, layer in _parity_layers(G):
        if any(bits[u] & layer for u in _vertices(layer)):
            return None
        if parity:
            odd |= layer
    return tuple(odd >> v & 1 for v in range(G.n))


def is_bipartite(G: Graph) -> bool:
    return bipartition(G) is not None


def as_bipartite(G: Graph) -> BipartiteGraph:
    """View a 2-colorable graph as a BipartiteGraph (BFS coloring)."""
    side = bipartition(G)
    if side is None:
        raise NotBipartite("graph contains an odd cycle")
    return BipartiteGraph(G.n, G.edges(), side)


def girth(G: Graph):
    """Length of a shortest cycle, or INFINITE for forests.

    Scans the BFS layers of every start vertex for the first layer that
    closes a cycle; the module docstring says why the least value found is
    exact.
    """
    bits = G.bits
    best = INFINITE
    for v in range(G.n):
        # layer r closes cycles of 2r + 1 or 2r + 2: scan only 2r + 1 < best
        rmax = G.n if best == INFINITE else (best - 2) // 2
        seen = 0
        for r, layer in enumerate(_layers(bits, v, rmax)):
            seen |= layer
            once = twice = 0
            for u in _vertices(layer):
                twice |= once & bits[u]
                once |= bits[u]
            if once & layer:
                best = 2 * r + 1
                break
            if twice & ~seen:
                best = 2 * r + 2
                break
    return best


def diameter(G: Graph):
    """Largest finite BFS eccentricity; INFINITE when disconnected."""
    if G.n == 0:
        return INFINITE
    everyone = (1 << G.n) - 1
    worst = 0
    for v in range(G.n):
        reached = 0
        for far, layer in enumerate(_layers(G.bits, v, G.n)):
            reached |= layer
        if reached != everyone:
            return INFINITE
        worst = max(worst, far)
    return worst


def _cycle_lengths(G: Graph, lengths, limit: int) -> tuple:
    """The lengths among ``lengths`` of cycles of G, and the path expansions
    spent: one per unvisited neighbour above a of a path's last vertex. Stops
    once all are found, or once it has spent more than limit."""
    wanted = 0
    for length in lengths:
        wanted |= 1 << length
    lmax = wanted.bit_length() - 1
    bits = G.bits
    found = set()
    spent = 0
    for a in range(G.n):
        higher = -2 << a
        ends = bits[a] & higher
        if not ends:
            continue
        # within[d]: the vertices at most d steps from a through vertices
        # above a; a path d edges long may only go on to within[lmax - d - 1]
        within = list(accumulate(_layers(bits, a, lmax - 2, higher), or_))
        within += within[-1:] * (lmax - 1 - len(within))
        for v1 in _vertices(ends):
            closing = ends & (-2 << v1)
            if not closing:
                # a path from a's highest neighbour has no end left to close
                break
            stack = [(v1, 1 << v1, 1)]
            while stack:
                v, visited, depth = stack.pop()
                ahead = bits[v] & higher & ~visited
                spent += ahead.bit_count()
                if spent > limit:
                    return found, spent
                if ahead & closing and wanted >> (depth + 2) & 1:
                    found.add(depth + 2)
                    wanted ^= 1 << (depth + 2)
                    if not wanted:
                        return found, spent
                ahead &= within[lmax - depth - 1]
                while ahead:
                    w = ahead.bit_length() - 1
                    ahead ^= 1 << w
                    stack.append((w, visited | 1 << w, depth + 1))
    return found, spent


def _over_budget(G: Graph, lmax: int, limit: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"cycle search up to length {lmax} on a graph with {G.n} vertices "
        f"exceeded its budget of {limit} path expansions")


def cycle_spectrum(G: Graph, lmax: int, budget=None) -> frozenset:
    """Exactly the cycle lengths in {3..lmax} realized in G.

    Exhaustive pruned DFS; raises BudgetExceeded beyond the node budget.
    """
    if lmax > 24:
        raise ValueError("lmax > 24 is outside the tractability guard")
    lmax = min(lmax, G.n)
    if lmax < 3:
        return frozenset()
    limit = node_budget(budget, DEFAULT_CYCLE_BUDGET)
    found, spent = _cycle_lengths(G, range(3, lmax + 1), limit)
    if spent > limit:
        raise _over_budget(G, lmax, limit)
    return frozenset(found)


def _cycle_test(G: Graph, budget):
    """has(k): whether G has a cycle of length exactly k. The calls share one
    budget, and bipartiteness, which rules out odd k, is computed once."""
    limit = node_budget(budget, DEFAULT_CYCLE_BUDGET)
    spent = 0
    bipartite = None

    def has(k: int) -> bool:
        nonlocal spent, bipartite
        if not 3 <= k <= G.n:
            return False
        if k % 2 == 1:
            if bipartite is None:
                bipartite = is_bipartite(G)
            if bipartite:
                return False
        found, used = _cycle_lengths(G, (k,), limit - spent)
        spent += used
        if spent > limit:
            raise _over_budget(G, k, limit)
        return bool(found)

    return has


def contains_cycle(G: Graph, k: int, budget=None) -> bool:
    """True iff G contains a cycle of length exactly k (early-exit DFS)."""
    return _cycle_test(G, budget)(k)


def is_family_free(G: Graph, family, budget=None) -> bool:
    """True iff G has no cycle whose length is in family, a
    search.FamilySpec.

    The lengths are tested in increasing order and share one budget."""
    has = _cycle_test(G, budget)
    return not any(has(length) for length in sorted(family.lengths))


def odd_cycle_run(G: Graph, r: int, s: int, budget=None):
    """Smallest m <= r such that all odd lengths 2m+1..2m+s are cycle
    lengths of G, or None when no such m exists.

    s must be odd, so each run {2m+1, 2m+3, ..., 2m+s} is a run of odd
    lengths. The searches for all m share one budget.
    """
    if s % 2 == 0 or s < 1:
        raise ValueError("s must be odd and positive")
    has = _cycle_test(G, budget)
    for m in range(1, r + 1):
        if all(has(length) for length in range(2 * m + 1, 2 * m + s + 1, 2)):
            return m
    return None


def dense_layer_radius(G: Graph, rmax: int, min_average):
    """Least r <= rmax such that the r-th BFS layer of some vertex has at
    least two vertices and induces average degree >= min_average, or None.

    This is the hypothesis of the dense-neighbourhood lemma: with
    min_average = 2s - 4, G is expected to contain cycles of every odd
    length 2m+1, ..., 2m+s for some m <= r, which ``odd_cycle_run(G, r, s)``
    looks for.
    """
    bits = G.bits
    best = None
    for v in range(G.n):
        for r, layer in enumerate(
                _layers(bits, v, rmax if best is None else best - 1)):
            size = layer.bit_count()
            if size > 1 and sum((bits[u] & layer).bit_count() for u in
                                _vertices(layer)) >= min_average * size:
                best = r
                break
        if best == 1:
            break
    return best


def max_bipartite_local(G: Graph) -> BipartiteGraph:
    """Local-switching bipartition of G.

    Start from the BFS 2-coloring of each component (exact when the
    component is bipartite), then repeatedly move any vertex with strictly
    more same-part than cross-part neighbors, scanning vertices in index
    order. Ties do not move. Returns the bipartite graph of cross edges,
    in which every vertex keeps at least half of its original degree.
    """
    odd = 0
    for parity, layer in _parity_layers(G):
        if parity:
            odd |= layer
    side = [odd >> v & 1 for v in range(G.n)]
    masks = [((1 << G.n) - 1) ^ odd, odd]
    changed = True
    while changed:
        changed = False
        for v in range(G.n):
            same = (G.bits[v] & masks[side[v]]).bit_count()
            cross = G.degree(v) - same
            if same > cross:
                masks[side[v]] &= ~(1 << v)
                side[v] ^= 1
                masks[side[v]] |= 1 << v
                changed = True
    cross_edges = [(u, v) for u, v in G.edges() if side[u] != side[v]]
    return BipartiteGraph(G.n, cross_edges, side)


@dataclass(frozen=True)
class PeelResult:
    """Core left after peeling, the ordered deletion trace (original vertex
    ids), and the sorted original ids of the kept vertices (core vertex i is
    kept[i])."""

    core: Graph
    trace: tuple
    kept: tuple


def peel_min_degree(G: Graph, threshold) -> PeelResult:
    """Repeatedly delete the lowest-index vertex of current degree <=
    threshold; the returned core has minimum degree > threshold (or is
    empty)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    alive = set(range(G.n))
    deg = list(G.degrees())
    trace = []
    while True:
        victim = None
        for v in sorted(alive):
            if deg[v] <= threshold:
                victim = v
                break
        if victim is None:
            break
        alive.discard(victim)
        trace.append(victim)
        for u in G.adj[victim]:
            if u in alive:
                deg[u] -= 1
    core, kept = induced_subgraph(G, alive)
    return PeelResult(core=core, trace=tuple(trace), kept=kept)


def e_between(G: Graph, S, T) -> int:
    """Number of ordered pairs (s, t), s in S, t in T, st an edge.

    S and T may overlap and repeat vertices; e_between(G, V, V) equals 2*m.
    """
    return e_between_masks(G.bits, G.mask(S), G.mask(T))


def e_between_masks(rows, s_mask: int, t_mask: int) -> int:
    """The sum over s in s_mask of popcount(rows[s] & t_mask).

    With rows = G.bits this is e(S, T) for vertex masks S and T; with
    rows = pool_rows(G, xs, ys) it is e(S, T) for S and T given as masks
    over positions in the pools xs and ys.
    """
    total = 0
    while s_mask:
        low = s_mask & -s_mask
        total += (rows[low.bit_length() - 1] & t_mask).bit_count()
        s_mask ^= low
    return total


def pool_rows(G: Graph, xs, ys) -> tuple:
    """Row i is the neighbourhood of vertex xs[i] as a mask over positions
    in ys (ys holds distinct vertices); pool_rows(G, range(n), range(n))
    is G.bits."""
    at = {v: j for j, v in enumerate(ys)}
    return tuple(sum(1 << at[u] for u in G.adj[x] if u in at) for x in xs)


def _greedy_clique(G: Graph) -> list:
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    best = []
    for seed in order[: min(8, G.n)]:
        clique = [seed]
        mask = G.bits[seed]
        for v in order:
            if v != seed and (mask >> v) & 1:
                clique.append(v)
                mask &= G.bits[v]
        if len(clique) > len(best):
            best = clique
    return best


def chromatic_number(G: Graph, budget=None) -> int:
    """Exact chromatic number by saturation-ordered branch and bound with a
    greedy clique lower bound. Guarded to n <= 64.

    The search starts with no upper bound, so its first descent is the
    DSATUR greedy colouring (each vertex takes its smallest free colour),
    and that colouring sets the first upper bound. Its nodes count against
    the budget."""
    if G.n > 64:
        raise ValueError("chromatic_number is guarded to n <= 64")
    if G.n == 0:
        return 0
    if G.m == 0:
        return 1
    if is_bipartite(G):
        return 2
    lower = max(len(_greedy_clique(G)), 3)
    limit = node_budget(budget, DEFAULT_CYCLE_BUDGET)
    n = G.n
    best = n + 1
    color = [-1] * n
    neighbor_colors = [0] * n
    nodes = 0

    def bnb(colored: int, used: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded(
                f"chromatic number of a graph with {n} vertices exceeded its "
                f"budget of {limit} branch-and-bound nodes")
        if used >= best:
            return
        if colored == n:
            best = used
            return
        v = max(
            (u for u in range(n) if color[u] == -1),
            key=lambda u: (neighbor_colors[u].bit_count(), G.degree(u), -u),
        )
        for c in range(used + 1):
            if c >= best - 1:  # c would colour no better than the best
                break
            if (neighbor_colors[v] >> c) & 1:
                continue
            color[v] = c
            touched = []
            for w in G.adj[v]:
                if not (neighbor_colors[w] >> c) & 1:
                    neighbor_colors[w] |= 1 << c
                    touched.append(w)
            bnb(colored + 1, max(used, c + 1))
            color[v] = -1
            for w in touched:
                neighbor_colors[w] &= ~(1 << c)
            if best <= lower:
                return

    bnb(0, 0)
    return best
