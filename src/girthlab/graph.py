"""Graph values and the structural procedures used throughout the package:
BFS layers, girth, bounded exhaustive cycle enumeration, local-switching
bipartitions, low-degree peeling, and exact chromatic number.

Graphs are immutable after construction. Adjacency is stored both as sorted
tuples and as per-vertex bitmasks; the bitmasks make the enumeration-heavy
code paths cheap.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .budgets import cycle_budget
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

    ``side[v]`` is 0 for the X part and 1 for the Y part.
    """

    __slots__ = ("side",)

    def __init__(self, n: int, edges=(), side=()):
        super().__init__(n, edges)
        side = tuple(int(s) for s in side)
        if len(side) != n or any(s not in (0, 1) for s in side):
            raise ValueError("side labels must be 0/1 for every vertex")
        for u, v in self.edges():
            if side[u] == side[v]:
                raise NotBipartite(f"edge ({u},{v}) inside part {side[u]}")
        self.side = side

    @property
    def part_x(self) -> tuple:
        return tuple(v for v in range(self.n) if self.side[v] == 0)

    @property
    def part_y(self) -> tuple:
        return tuple(v for v in range(self.n) if self.side[v] == 1)

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, m={self.m}, |X|={len(self.part_x)})"


def relabel(G: Graph, perm) -> Graph:
    """New graph with vertex v renamed perm[v]."""
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def induced_subgraph(G: Graph, vertices) -> tuple:
    """Induced subgraph plus the sorted tuple mapping new index -> old."""
    kept = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(kept)}
    edges = [
        (pos[u], pos[v]) for u, v in G.edges() if u in pos and v in pos
    ]
    return Graph(len(kept), edges), kept


def neighborhood_layers(G: Graph, v: int, rmax: int) -> list:
    """BFS layers N_0(v)..N_rmax(v) as sorted tuples; layers are disjoint."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range")
    if rmax < 0:
        raise ValueError("rmax must be >= 0")
    dist = {v: 0}
    frontier = [v]
    layers = [(v,)]
    for r in range(1, rmax + 1):
        nxt = []
        for u in frontier:
            for w in G.adj[u]:
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        layers.append(tuple(sorted(nxt)))
        frontier = nxt
    return layers


def bipartition(G: Graph):
    """2-coloring by BFS in index order, or None if an odd cycle exists.

    Deterministic: components are rooted at their lowest-index vertex, which
    is colored 0.
    """
    side = [None] * G.n
    for start in range(G.n):
        if side[start] is not None:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in G.adj[u]:
                if side[w] is None:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return tuple(side)


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

    One BFS per start vertex; a non-tree edge seen at depths d(u), d(w)
    witnesses a cycle of length d(u)+d(w)+1, and the minimum over all start
    vertices is exact.
    """
    best = INFINITE
    for start in range(G.n):
        dist = [-1] * G.n
        parent = [-1] * G.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break
            for w in G.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def diameter(G: Graph):
    """Largest finite BFS eccentricity; INFINITE when disconnected."""
    if G.n == 0:
        return INFINITE
    worst = 0
    for start in range(G.n):
        dist = [-1] * G.n
        dist[start] = 0
        queue = deque([start])
        seen = 1
        far = 0
        while queue:
            u = queue.popleft()
            for w in G.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    far = dist[w]
                    seen += 1
                    queue.append(w)
        if seen < G.n:
            return INFINITE
        worst = max(worst, far)
    return worst


class _CycleSearch:
    """Anchored DFS cycle enumeration with a global expansion budget.

    Cycles are found from each anchor vertex a over vertices > a, so every
    cycle is seen exactly where its smallest vertex anchors it. The search
    prunes with BFS distances back to the anchor, which lower-bound the
    edges still needed to close a cycle.
    """

    def __init__(self, G: Graph, lmax: int, budget: int):
        self.G = G
        self.lmax = lmax
        self.budget = budget
        self.nodes = 0
        self.found = set()
        self.targets = None  # optional set of lengths still wanted

    def _anchor_distances(self, a: int, allowed: int) -> list:
        dist = [-1] * self.G.n
        dist[a] = 0
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in self.G.adj[u]:
                if dist[w] == -1 and (allowed >> w) & 1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def _wanted(self, length: int) -> bool:
        if length < 3 or length > self.lmax:
            return False
        if length in self.found:
            return False
        return self.targets is None or length in self.targets

    def _done(self) -> bool:
        if self.targets is not None:
            return self.targets <= self.found
        return len(self.found) == self.lmax - 2

    def run(self) -> set:
        G = self.G
        for a in range(G.n):
            if self._done():
                break
            allowed = ~((1 << (a + 1)) - 1)
            dist = self._anchor_distances(a, allowed | (1 << a))
            a_neigh = G.bits[a] & allowed
            if not a_neigh:
                continue
            self._dfs(a, dist, a_neigh)
        return self.found

    def _dfs(self, a, dist, a_neigh):
        """Walk all simple paths a -> v1 -> ... over vertices > a; every
        extension to a neighbor of the anchor closes a cycle."""
        G = self.G
        lmax = self.lmax
        for v1 in G.adj[a]:
            if v1 < a or self._done():
                continue
            visited = 1 << v1
            path = [v1]
            iters = [iter(G.adj[v1])]
            while iters:
                if self._done():
                    return
                try:
                    w = next(iters[-1])
                except StopIteration:
                    iters.pop()
                    visited &= ~(1 << path.pop())
                    continue
                if w <= a or (visited >> w) & 1:
                    continue
                self.nodes += 1
                if self.nodes > self.budget:
                    raise BudgetExceeded(
                        f"cycle search up to length {lmax} on a graph with "
                        f"{G.n} vertices exceeded its budget of "
                        f"{self.budget} path expansions")
                depth = len(path)  # edges a..path[-1]; extending to w adds one
                if (a_neigh >> w) & 1 and v1 < w:
                    length = depth + 2
                    if self._wanted(length):
                        self.found.add(length)
                # extend only if a cycle of length <= lmax can still close
                if dist[w] >= 0 and depth + 1 + dist[w] <= lmax:
                    visited |= 1 << w
                    path.append(w)
                    iters.append(iter(G.adj[w]))


def cycle_spectrum(G: Graph, lmax: int, budget=None) -> frozenset:
    """Exactly the cycle lengths in {3..lmax} realized in G.

    Exhaustive pruned DFS; raises BudgetExceeded beyond the node budget.
    """
    if lmax > 24:
        raise ValueError("lmax > 24 is outside the tractability guard")
    if lmax < 3 or G.n == 0:
        return frozenset()
    search = _CycleSearch(G, min(lmax, G.n), cycle_budget(budget))
    return frozenset(search.run())


def contains_cycle(G: Graph, k: int, budget=None) -> bool:
    """True iff G contains a cycle of length exactly k (early-exit DFS)."""
    if not 3 <= k <= G.n:
        return False
    if k % 2 == 1 and is_bipartite(G):
        return False
    search = _CycleSearch(G, k, cycle_budget(budget))
    search.targets = {k}
    return k in search.run()


def is_family_free(G: Graph, ell: int, k=None, budget=None) -> bool:
    """True iff G has no even cycle of length 4..2*ell and no C_k (if given)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    lengths = list(range(4, 2 * ell + 1, 2))
    if k is not None:
        if k % 2 == 0 or k < 3:
            raise ValueError("k must be an odd cycle length >= 3")
        lengths.append(k)
    for length in sorted(lengths):
        if contains_cycle(G, length, budget=budget):
            return False
    return True


def odd_cycle_run(G: Graph, r: int, s: int, budget=None):
    """Smallest m <= r such that all odd lengths 2m+1..2m+s are cycle
    lengths of G, or None when no such m exists.

    s must be odd, so each run {2m+1, 2m+3, ..., 2m+s} is a run of odd
    lengths.
    """
    if s % 2 == 0 or s < 1:
        raise ValueError("s must be odd and positive")
    for m in range(1, r + 1):
        if all(
            contains_cycle(G, length, budget=budget)
            for length in range(2 * m + 1, 2 * m + s + 1, 2)
        ):
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
    best = None
    for v in range(G.n):
        layers = neighborhood_layers(G, v, rmax)
        for r in range(1, rmax + 1 if best is None else best):
            layer = layers[r]
            if len(layer) < 2:
                continue
            mask = 0
            for u in layer:
                mask |= 1 << u
            deg_sum = sum((G.bits[u] & mask).bit_count() for u in layer)
            if deg_sum >= min_average * len(layer):
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
    side = [0] * G.n
    seen = [False] * G.n
    for start in range(G.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in G.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    side[w] = side[u] ^ 1
                    queue.append(w)
    masks = [0, 0]
    for v in range(G.n):
        masks[side[v]] |= 1 << v
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

    S and T may overlap; e_between(G, V, V) equals 2*m.
    """
    t_mask = 0
    for t in T:
        t_mask |= 1 << t
    total = 0
    for s in set(S):
        total += (G.bits[s] & t_mask).bit_count()
    return total


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


def _dsatur_greedy(G: Graph) -> int:
    n = G.n
    color = [-1] * n
    sat = [0] * n  # bitmask of neighbor colors
    for _ in range(n):
        v = max(
            (u for u in range(n) if color[u] == -1),
            key=lambda u: (sat[u].bit_count(), G.degree(u), -u),
        )
        c = 0
        while (sat[v] >> c) & 1:
            c += 1
        color[v] = c
        for w in G.adj[v]:
            sat[w] |= 1 << c
    return max(color) + 1 if n else 0


def chromatic_number(G: Graph, budget=None) -> int:
    """Exact chromatic number by saturation-ordered branch and bound with a
    greedy clique lower bound. Guarded to n <= 64."""
    if G.n > 64:
        raise ValueError("chromatic_number is guarded to n <= 64")
    if G.n == 0:
        return 0
    if G.m == 0:
        return 1
    if is_bipartite(G):
        return 2
    lower = max(len(_greedy_clique(G)), 3)
    upper = _dsatur_greedy(G)
    if lower == upper:
        return lower
    limit = cycle_budget(budget)
    n = G.n
    best = upper
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
        cap = min(used + 1, best - 1)
        for c in range(cap):
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
