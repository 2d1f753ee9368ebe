"""Exact small Turán and Zarankiewicz numbers by exhaustive generation with
isomorph rejection, plus formula checks and the one-extra-edge witness
construction.

Turán search adds one vertex at a time (Garnick, Kwong & Lazebnik,
Extremal graphs without three-cycles or four-cycles, J. Graph Theory 17,
1993). Write ex(k) for ex(k, F) and S(k, t) for the isomorphism classes of
F-free graphs on k vertices with at least t edges. Six facts make the
search exact:

(a) Threshold. ex(k) >= ex(k-1) + 1 for k >= 2, because a pendant vertex
    lies on no cycle. So every extremal graph on n vertices is in
    S(n, ex(n-1) + 1), and ex(k-1) is the largest edge count in any
    nonempty level S(k-1, t) with t <= ex(k-1).
(b) Parents. Delete a minimum-degree vertex x from G in S(k, t) with e
    edges. Its degree is at most floor(2e/k), and e - floor(2e/k) does not
    decrease as e grows, so G - x lies in S(k-1, t - floor(2t/k)), and
    deg x >= t - ex(k-1).
(c) Family-freeness. Every cycle of G that is not in G - x passes through x
    and two of its neighbours u, v, so for an F-free parent, G is F-free
    iff no two vertices of N(x) are joined in G - x by a path of L - 2
    edges, for any L in F. Each parent vertex gets one conflict bitmask,
    and the candidate sets N(x) are the sets independent in that conflict
    graph.
(d) Minimum degree. x must have the least degree in G, so every parent
    vertex outside N(x) has degree at least |N(x)|, and every vertex in
    N(x) degree at least |N(x)| - 1.
(e) Orbits. Let g be an automorphism of the parent P. Extended by x -> x,
    it maps the child with neighbours N onto the child with neighbours
    g(N), so the two are isomorphic, and both sets are admissible, since
    conflicts and degrees are invariant. So of each orbit of neighbour sets
    under a group of automorphisms of P, only the first set in enumeration
    order needs a label. Any subgroup of Aut(P) will do: its orbits only
    split those of Aut(P). P's group is generated by the automorphisms the
    canonical search stored when it labeled P, and by the transpositions of
    P's twins, which that search never stores. The first child of each
    class in a level comes from the first set of its orbit, since an earlier
    set of that orbit would give an isomorphic child earlier. So each level
    keeps the same graph for each class, in the same order, and records the
    same witnesses, as when every child is labeled. The sets skipped are
    still tried: they count as search nodes and against the budget, so node
    counts and the point where a budget stops the search do not change.
(f) The last level. Level n is the only level that is not a parent, so a
    child there matters only as a witness, and one with fewer edges than the
    running best never is one: it is dropped unlabeled, though it still
    counts as a search node. A child at or above the best is kept as its
    parent and neighbour set, and only the ties left when the search ends,
    completed or not, are built, and labeled once when the result is made.
    An orbit of (e) has one parent and one set size, so one edge count: the
    sets of a dropped child's orbit are dropped too, and only a kept child
    needs its orbit.

So S(k, t) is built from S(k-1, t - floor(2t/k)) by adding x with every
admissible N(x), and the levels are extended downwards as higher levels ask
for lower thresholds. Isomorph rejection keeps one dict per level below n,
keyed by canonical encoding, and labels the first child of each orbit (e)
once; nothing is kept between calls. Search nodes count the neighbour sets
tried, skipped and dropped ones included. A search its budget stops reports
the best graph found at any level, padded to n vertices with pendant
vertices.

Zarankiewicz search is a row-based branch and bound over neighborhoods of
the smaller part, under three sound symmetry rules (row sizes
non-increasing; columns first used by a row take the smallest unused labels
consecutively; equal-size consecutive rows lexicographically
non-decreasing). Its one bound is the size prune: row sizes never increase,
so when r rows are left, a next row of size s leaves room for at most r*s
edges, and a size that cannot reach the running best is skipped. A cap from
the unbalanced Zarankiewicz bound U >= z(a, b; F) would cut nothing. With
best the edge count of a configuration already found, edges + min(x, U -
edges) < best holds exactly when edges + x < best or U < best, and best <=
z(a, b; F) <= U. Were the bound false, the cap could only make the result
wrong, so the bound checks results instead (verify_upper_bounds). Cycles
are cut by fact (c) applied to the new row as the added vertex x: the row
keeps the family out iff its columns are independent in the conflict graph
of the rows placed so far. Odd lengths never close a cycle in a bipartite
graph; a part of size 0 leaves no rows, and the root records the empty
graph. Let the even lengths of the family be exactly 4, 6, ..., 2*ell, with
ell = 1 when it has none. Then two columns conflict iff their distance in
the rows graph is at most 2*ell - 2: a path of L - 2 edges bounds the
distance, and conversely a shortest path is a path, its length d is even
because both ends are columns, and C_{d+2} is in the family when
2 <= d <= 2*ell - 2. So the search carries distance balls down the
recursion, one set per depth: B_j[c], the columns within distance 2j of
column c, for j = 0, ..., ell - 1. A new row with columns R joins the graph
as one vertex r, and a shortest path through r enters and leaves it through
R once. So with U_i the union of B_i[v] over v in R, and d_c the least i
with c in U_i, both from the old balls, B_k[c] gains U_{k - d_c - 1} for
every k > d_c, and gains nothing else. The conflicts of c are B_{ell-1}[c],
which holds c itself, a bit no row reads. For C4 alone (ell = 2) they are
the union of the rows that contain c, and a family without even lengths
(ell = 1) has none, so the search finds K_{a,b}. A family with a gap in its
even lengths, such as {C6} or {C4, C8}, runs the path DFS of fact (c) over
the rows graph at every node instead. With u columns used, a row of size s
is I + (u, ..., u+f-1), f = 0, 1, ..., with I from _independent_sets(old,
conf, s - f) over the used columns old, as in the Turán search, read from
the set bits of I. These are the rows a walk picking columns upwards
outside the union of the picked columns' conflicts builds: an unused column
is in no row, so it has and is in no conflicts; the walk takes no old
column after a fresh one; conflicts are symmetric; and bit_count() >= size
drops only walks that run out of columns. A row of the previous row's size
loses the old columns below that row's first, which drops only lex-smaller
rows, and is skipped while lex-smaller. Search nodes count the calls to
search and the rows tried, as the Turán search counts its neighbour sets.
The search keeps the raw row configurations tied at the running best, since
almost all ties are overtaken by a larger configuration, and hands over one
graph per column class when it ends (completed or budget-truncated): the
sorted tuple of column masks (bit i of column c's mask set when row i
contains c). Two configurations with equal keys differ by a permutation of
the columns with the rows fixed, so their graphs are isomorphic and give the
same canonical witness.

A Zarankiewicz search starts at a floor, a lower bound known before it
starts, and still finds the value and every tied configuration: best starts
at the floor, record keeps every configuration with at least best edges,
and the size prune skips a size only when full rows would stay strictly
below best. For r <= c, z(r, c) >= z(r, c-1) + 1 and
z(r, r) >= z(r-1, r) + 1, because a new vertex joined to one vertex of the
other part is pendant: it lies on no cycle and adds one edge. So
zarankiewicz_ab and zarankiewicz_number are one walk over a list of shapes
under one node budget. The final shapes are (a, b) for z(a, b), and for
z(n) the part splits from the balanced one towards the most unbalanced,
whose largest value is z(n). Below the first final shape (r, c) the walk
climbs the staircase (1, 1), (1, 2), (2, 2), (2, 3), ..., (r, r), ...,
(r, c - 1). Every shape is the same search. After a staircase step the
floor is its value + 1, and its first tie (the first configuration found
at its value), padded by a pendant vertex, witnesses that floor. A floor
with a witness is attained, so a search that completes without reaching it
has lost a configuration and raises. After a final shape the floor is the
best value so far, with no witness: a later split that finds nothing there
is below the best, and its ties replace the witnesses when they beat it
and join them when they tie it. Only the ties of final shapes become
witnesses. The nodes and the budget cover every shape. A search its budget
stops reports the running final shape's ties, joined as above; without
them, the first tie it knows on the staircase padded to the first final
shape; without that, the earlier final shapes, and before any, the empty
graph. An empty part or a family without even lengths gets no staircase.

Both searches hand their witnesses over as plain graphs, and the result
labels each graph once and keeps one per isomorphism class. Every
certificate records whether the search completed; truncated runs are lower
bounds only and are never reported as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .budgets import node_budget
from .canonical import canonical_labeling, twin_transpositions
from .errors import BudgetExceeded
from .formats import graph6_encode
from .geometry import augment_distance_two
from .graph import Graph, cycle_spectrum, relabel
from .rng import XorShift64Star
from .walks import FLOAT_SLACK, BoundReport


@dataclass(frozen=True)
class FamilySpec:
    """A forbidden cycle family: a nonempty set of cycle lengths >= 3.

    It is the one form in which the package names a family: the searches,
    graph.is_family_free and verify_upper_bounds all take it. Its shape is
    even_run, the run C_4, C_6, ..., C_{2*ell} it holds. The row search
    carries distance balls when that run holds every even length, and
    verify_upper_bounds checks closed forms when the run is the family."""

    lengths: frozenset

    def __post_init__(self):
        lengths = frozenset(self.lengths)
        if not lengths:
            raise ValueError("forbidden family must be nonempty")
        for x in lengths:
            if not isinstance(x, int) or x < 3:
                raise ValueError(
                    f"cycle lengths must be integers >= 3, got {x!r}")
        object.__setattr__(self, "lengths", lengths)

    @staticmethod
    def of(*lengths) -> "FamilySpec":
        return FamilySpec(frozenset(lengths))

    @staticmethod
    def even_cycles(ell: int) -> "FamilySpec":
        """All even cycles C_4, C_6, ..., C_{2*ell}."""
        if ell < 2:
            raise ValueError("ell must be >= 2")
        return FamilySpec(frozenset(range(4, 2 * ell + 1, 2)))

    @staticmethod
    def even_cycles_plus_odd(ell: int, k: int) -> "FamilySpec":
        if k % 2 == 0 or k < 3:
            raise ValueError("k must be an odd length >= 3")
        return FamilySpec(FamilySpec.even_cycles(ell).lengths | {k})

    @property
    def even_lengths(self) -> tuple:
        return tuple(sorted(x for x in self.lengths if x % 2 == 0))

    @property
    def even_run(self) -> int:
        """The largest ell with C_4, C_6, ..., C_{2*ell} all in the family,
        and 1 when C_4 is not."""
        ell = 1
        while 2 * ell + 2 in self.lengths:
            ell += 1
        return ell

    def describe(self) -> str:
        return "{" + ", ".join(f"C{x}" for x in sorted(self.lengths)) + "}"


@dataclass(frozen=True)
class SearchResult:
    """An extremal value with witnesses and a completeness certificate.

    ``witnesses`` are graph6 encodings of canonically labeled extremal
    graphs, sorted; ``completed`` distinguishes an exact value from a
    budget-truncated lower bound.
    """

    kind: str
    instance: tuple
    family: FamilySpec
    value: int
    witnesses: tuple
    nodes: int
    completed: bool


def _conflicts(bits: tuple, lengths, starts) -> list:
    """For each u in starts, the vertices of the graph with neighbour masks
    bits that a path of L - 2 edges joins to u, for some L in lengths. A new
    vertex adjacent to u and v closes a C_L exactly when such a path joins
    them."""
    wanted = 0
    for length in lengths:
        wanted |= 1 << (length - 2)
    deepest = max(lengths) - 2
    out = []
    for u in starts:
        acc = 0
        stack = [(u, 1 << u, 0)]
        while stack:
            v, visited, depth = stack.pop()
            depth += 1
            ahead = bits[v] & ~visited
            if wanted >> depth & 1:
                acc |= ahead
            if depth < deepest:
                while ahead:
                    low = ahead & -ahead
                    ahead ^= low
                    stack.append((low.bit_length() - 1, visited | low, depth))
        out.append(acc)
    return out


def _neighbour_sets(deg, conflicts: list, d: int):
    """Bitmasks of the d-sets N of parent vertices that a new vertex x may
    join: no two members in conflict, and x of least degree in the child,
    so a vertex of degree d - 1 must be in N and none may have less."""
    forced = free = 0
    for v, dv in enumerate(deg):
        if dv >= d:
            free |= 1 << v
        elif dv == d - 1:
            forced |= 1 << v
        else:
            return
    need = d - forced.bit_count()
    if need < 0:
        return
    for v in range(len(deg)):
        if forced >> v & 1:
            if conflicts[v] & forced:
                return
            free &= ~conflicts[v]
    for chosen in _independent_sets(free, conflicts, need):
        yield forced | chosen


def _independent_sets(candidates: int, conflicts: list, size: int):
    """Bitmasks of the size-element subsets of candidates that contain no
    two vertices in conflict."""
    if size == 0:
        yield 0
        return
    while candidates.bit_count() >= size:
        low = candidates & -candidates
        candidates ^= low
        rest = candidates & ~conflicts[low.bit_length() - 1]
        for chosen in _independent_sets(rest, conflicts, size - 1):
            yield chosen | low


def _orbit(mask: int, generators: list) -> set:
    """The orbit of a vertex set, as a bitmask, under the group that the
    permutations in generators (lists v -> image) generate."""
    orbit, stack = {mask}, [mask]
    while stack:
        s = stack.pop()
        for gamma in generators:
            image, rest = 0, s
            while rest:
                low = rest & -rest
                image |= 1 << gamma[low.bit_length() - 1]
                rest ^= low
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _child(P: Graph, neighbours: int) -> Graph:
    """P with a new last vertex joined to the vertices in neighbours."""
    x = P.n
    return Graph(x + 1, P.edges() + [(v, x) for v in range(x)
                                       if neighbours >> v & 1])


def _padded(G: Graph, n: int) -> Graph:
    """G with a path of new vertices hung from its last vertex, up to n
    vertices: a pendant vertex lies on no cycle and adds one edge."""
    return Graph(n, G.edges() + [(v - 1, v) for v in range(G.n, n)])


class _TuranSearch:
    """Level sets of family-free graphs, one vertex at a time (facts (a)-(f)
    of the module docstring). ``levels[k]`` maps canonical encodings to
    (graph, automorphisms the canonical search stored) and holds every class
    on k vertices with at least ``floors[k]`` edges, for k < n. The last
    level keeps no classes. ``tied`` holds the children at the running best,
    of any level, unlabeled, as (parent, neighbours)."""

    def __init__(self, n, family, limit, order_seed):
        self.n = n
        self.family = family
        self.limit = limit
        self.order_seed = order_seed
        self.nodes = 0
        self.best = -1
        self.tied = []
        self.levels = [{0: (Graph(0), [])}] + [{} for _ in range(n)]
        self.floors = [0] + [math.inf] * n

    def over_budget(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"Turan search ex({self.n}, {self.family.describe()}) exceeded "
            f"its budget of {self.limit} search nodes")

    def run(self):
        """Every level up to n; ex(n) is then best, since the last level
        keeps no classes to read it from."""
        ex = 0
        for k in range(1, self.n + 1):
            threshold = ex + 1 if k >= 2 else 0
            level = self.level(k, threshold)
            if k < self.n:
                ex = max(G.m for G, _ in level.values())

    def level(self, k: int, threshold: int) -> dict:
        """levels[k], extended to hold every class with at least threshold
        edges. Children with floors[k] edges or more are there already. On
        the last level the children go to record instead (fact (f))."""
        level = self.levels[k]
        ceiling = self.floors[k]
        if threshold >= ceiling:
            return level
        last = k == self.n
        least = max(0, threshold - 2 * threshold // k)
        parents = [(P, automorphisms) for P, automorphisms
                   in self.level(k - 1, least).values() if P.m >= least]
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + k).shuffle(parents)
        for P, automorphisms in parents:
            deg = P.degrees()
            conflicts = _conflicts(P.bits, self.family.lengths, range(P.n))
            generators = automorphisms + twin_transpositions(P)
            seen = set()
            for d in range(max(0, threshold - P.m), min(ceiling - P.m, k)):
                for neighbours in _neighbour_sets(deg, conflicts, d):
                    self.nodes += 1
                    if self.nodes > self.limit:
                        raise self.over_budget()
                    # fact (f): a last-level child below the best is dropped
                    if last and P.m + d < self.best:
                        continue
                    # fact (e): one child per orbit
                    if neighbours not in seen:
                        if generators:
                            seen |= _orbit(neighbours, generators)
                        if last:
                            self.record(P.m + d, P, neighbours)
                        else:
                            self.add(level, P, neighbours)
        self.floors[k] = threshold
        return level

    def add(self, level: dict, P: Graph, neighbours: int):
        child = _child(P, neighbours)
        key, _, automorphisms = canonical_labeling(child)
        if key not in level:
            level[key] = child, automorphisms
            self.record(child.m + self.n - child.n, P, neighbours)

    def record(self, value: int, P: Graph, neighbours: int):
        """Keep the children of P whose padding to n vertices has the most
        edges, value: each bounds ex(n) below whenever the search stops."""
        if value > self.best:
            self.best = value
            self.tied = []
        if value == self.best:
            self.tied.append((P, neighbours))

    def witnesses(self) -> list:
        """The tied children, built and padded to n vertices."""
        return [_padded(_child(P, neighbours), self.n)
                for P, neighbours in self.tied]


def _result(kind, instance, family, value, graphs, nodes, completed):
    """The result a search reached: exact when it completed, a lower bound
    when its budget stopped it. Each witness graph is labeled once, and the
    first graph of each isomorphism class is encoded. Before the search
    records anything (value < 0), the empty graph certifies the value 0."""
    if value < 0:
        value, graphs = 0, [Graph(sum(instance))]
    classes = {}
    for G in graphs:
        key, perm, _ = canonical_labeling(G)
        classes.setdefault(key, (G, perm))
    return SearchResult(
        kind=kind,
        instance=instance,
        family=family,
        value=value,
        witnesses=tuple(sorted(graph6_encode(relabel(G, perm))
                               for G, perm in classes.values())),
        nodes=nodes,
        completed=completed,
    )


def turan_number(n: int, family: FamilySpec, budget=None,
                 order_seed=None) -> SearchResult:
    """Exact maximum edge count of a family-free graph on n vertices, with
    every extremal graph (up to isomorphism) as a witness.

    Raises BudgetExceeded (carrying the truncated lower-bound result) when
    the node budget runs out.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    search = _TuranSearch(n, family, node_budget(budget), order_seed)
    try:
        search.run()
    except BudgetExceeded as exc:
        exc.result = _result("turan", (n,), family, search.best,
                             search.witnesses(), search.nodes,
                             completed=False)
        raise
    return _result("turan", (n,), family, search.best, search.witnesses(),
                   search.nodes, completed=True)


def _column_key(rows, cols_n: int) -> tuple:
    """The sorted column masks of a row configuration: bit i of column c's
    mask is set when row i contains c. Configurations with equal keys differ
    only by a permutation of the columns."""
    masks = [0] * cols_n
    for i, row in enumerate(rows):
        for c in row:
            masks[c] |= 1 << i
    return tuple(sorted(masks))


def _rows_graph(rows, rows_n: int, cols_n: int) -> Graph:
    """The bipartite graph of a row configuration: rows are vertices
    0..rows_n-1, column c is vertex rows_n + c."""
    return Graph(rows_n + cols_n,
                 [(i, rows_n + c) for i, row in enumerate(rows) for c in row])


def _pad_rows(rows, cols: int, rows_n: int, cols_n: int) -> tuple:
    """A configuration over cols columns, padded to rows_n rows over cols_n
    columns by pendant vertices: each new row joins column 0 and each new
    column joins row 0. A pendant vertex lies on no cycle and adds one
    edge."""
    rows = list(rows) + [(0,)] * (rows_n - len(rows))
    rows[0] += tuple(range(cols, cols_n))
    return tuple(rows)


def _staircase(r: int, c: int) -> list:
    """The instances (1, 1), (1, 2), (2, 2), (2, 3), ..., (r, r), (r, r+1),
    ..., (r, c) for 1 <= r <= c, each one vertex larger than the one
    before."""
    return ([(k // 2, (k + 1) // 2) for k in range(2, 2 * r + 1)]
            + [(r, d) for d in range(r + 1, c + 1)])


def _members(mask: int) -> tuple:
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _grown_balls(balls: list, row: tuple) -> list:
    """The distance balls after a row with columns row joins the rows graph:
    balls[j][c] holds the columns within distance 2j of column c (the module
    docstring's update)."""
    ell = len(balls)
    # reach[i]: the columns within distance 2i of the row, the union of
    # balls[i][v] over v in row; reach[0] is the row itself
    reach = []
    for ball in balls[:-1]:
        u = 0
        for v in row:
            u |= ball[v]
        reach.append(u)
    grown = [balls[0]]
    for k in range(1, ell):
        ball = balls[k][:]
        nearer = 0
        for d in range(k):
            # the columns c with d_c = d gain reach[k - d - 1]
            ring = reach[d] & ~nearer
            nearer |= reach[d]
            gain = reach[k - d - 1]
            while ring:
                low = ring & -ring
                ring ^= low
                ball[low.bit_length() - 1] |= gain
        grown.append(ball)
    return grown


class _ZarankiewiczSearch:
    """Branch and bound over rows (neighborhood sets of the smaller part).

    ``floor`` is a lower bound on the value known before the search starts,
    or -1 for none; the search starts with best at the floor. ``tied`` holds
    the configurations tied at the best value, in the order found."""

    def __init__(self, a, b, family, limit, order_seed, floor=-1):
        self.a, self.b = a, b
        # rows = smaller part
        self.rows_n = min(a, b)
        self.cols_n = max(a, b)
        self.family = family
        self.even = family.even_lengths
        # distance balls when the even lengths are exactly 4, ..., 2*ell
        ell = family.even_run
        self.ell = ell if len(self.even) == ell - 1 else None
        if self.ell is not None:
            # balls[depth][j][c]: the columns within distance 2j of c
            self.balls = [[[1 << c for c in range(self.cols_n)]] * self.ell]
        self.limit = limit
        self.nodes = 0
        self.best = floor
        self.order_seed = order_seed
        self.rows = []
        self.tied = {}
        self.orders = {}

    def over_budget(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"row search z({self.a}, {self.b}; {self.family.describe()}) "
            f"exceeded its budget of {self.limit} search nodes")

    def make_graph(self, rows) -> Graph:
        return _rows_graph(rows, self.rows_n, self.cols_n)

    def record(self, edges):
        """Keep the configuration of the rows so far, with edges edges, when
        it reaches the best."""
        if edges < self.best:
            return
        if edges > self.best:
            self.best = edges
            self.tied = {}
        self.tied[tuple(self.rows)] = None

    def witnesses(self) -> list:
        """The graph of the first configuration tied at the best value in
        each column class, in the order found."""
        classes = {}
        for rows in self.tied:
            classes.setdefault(_column_key(rows, self.cols_n), rows)
        return [self.make_graph(rows) for rows in classes.values()]

    def column_conflicts(self) -> list:
        """conf[c]: the columns that may not share the next row with column
        c, as a column bitmask (fact (c) for the new row vertex); it may hold
        c itself. For a ball family, balls[depth] are the balls of the first
        depth rows, and each call grows those of its depth from the depth
        above by the last row: so every node calls this once, before its
        children."""
        if self.ell is not None:
            depth = len(self.rows)
            if depth:
                self.balls[depth:] = [_grown_balls(self.balls[depth - 1],
                                                   self.rows[-1])]
            return self.balls[depth][-1]
        # the neighbour masks of the rows graph: row i is vertex i, column c
        # is vertex rows_n + c
        shift = self.rows_n
        bits = [0] * (shift + self.cols_n)
        for i, row in enumerate(self.rows):
            for c in row:
                bits[i] |= 1 << (shift + c)
                bits[shift + c] |= 1 << i
        return [conf >> shift for conf in
                _conflicts(bits, self.even,
                           range(shift, shift + self.cols_n))]

    def size_order(self, row_index, top) -> list:
        """The sizes top, ..., 0 of the next row, shuffled by the order
        seed and the row index: the same at every node with that row index
        and top size, so built once per search."""
        sizes = self.orders.get((row_index, top))
        if sizes is None:
            sizes = self.orders[row_index, top] = list(range(top, -1, -1))
            if self.order_seed is not None:
                XorShift64Star(self.order_seed + row_index).shuffle(sizes)
        return sizes

    def search(self, used_cols, edges):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        row_index = len(self.rows)
        if row_index == self.rows_n:
            self.record(edges)
            return
        rows_left = self.rows_n - row_index
        prev = self.rows[-1] if self.rows else None
        conf = self.column_conflicts()
        for s in self.size_order(row_index,
                                 len(prev) if prev else self.cols_n):
            if s == 0:
                # all remaining rows empty
                self.record(edges)
                continue
            # row sizes never increase: the rows left hold at most s each
            if edges + rows_left * s < self.best:
                continue
            # equal-size rows must come in lex nondecreasing order; every
            # graph keeps a representation (greedy lex-min row order works)
            tied = prev is not None and s == len(prev)
            floor = prev[0] if tied else 0
            old = (1 << used_cols) - (1 << floor)
            for f in range(min(s, self.cols_n - used_cols) + 1):
                fresh = tuple(range(used_cols, used_cols + f))
                for chosen in _independent_sets(old, conf, s - f):
                    row = _members(chosen) + fresh
                    if tied and row < prev:
                        continue
                    self.nodes += 1
                    if self.nodes > self.limit:
                        raise self.over_budget()
                    self.rows.append(row)
                    self.search(used_cols + f, edges + s)
                    self.rows.pop()


def _zarankiewicz(kind, instance, family, budget, order_seed, finals):
    """The largest value of the final shapes by the row search, walked in
    order under one node budget, with the staircase below the first one
    (the module docstring's floors)."""
    limit = node_budget(budget)
    r, c = sorted(finals[0])
    # an empty part or a family without even lengths needs no staircase
    steps = _staircase(r, c)[:-1] if r and family.even_lengths else []
    value, graphs = -1, []  # the best final shape so far and its ties
    floor, witness = -1, None  # witness: (rows, columns) of the floor's tie
    spent, stopped = 0, None
    for index, shape in enumerate(steps + finals):
        final = index >= len(steps)
        search = _ZarankiewiczSearch(*shape, family, limit - spent,
                                     order_seed, floor)
        try:
            search.search(0, 0)
        except BudgetExceeded as exc:
            stopped = exc
        spent += search.nodes
        if not search.tied:
            if witness and not stopped:
                raise RuntimeError(
                    f"row search z({search.a}, {search.b}; "
                    f"{family.describe()}) found nothing at its floor "
                    f"{floor}, which has a witness of this instance: a cut "
                    f"lost a configuration")
        elif final:
            # ties beating the best so far replace its witnesses; ties
            # tying it join them
            ties = search.witnesses()
            graphs = ties if search.best > value else graphs + ties
            value, witness = search.best, None
        else:
            witness = next(iter(search.tied)), search.cols_n
        if stopped:
            if witness:
                # the best configuration known, padded to (r, c), bounds z
                G = _rows_graph(_pad_rows(*witness, r, c), r, c)
                value, graphs = G.m, [G]
            raise BudgetExceeded(
                f"row search z({', '.join(map(str, instance))}; "
                f"{family.describe()}) exceeded its budget of {limit} search "
                f"nodes",
                _result(kind, instance, family, value, graphs, spent,
                        completed=False)) from stopped
        floor = value if final else search.best + 1
    return _result(kind, instance, family, value, graphs, spent,
                   completed=True)


def zarankiewicz_ab(a: int, b: int, family: FamilySpec, budget=None,
                    order_seed=None) -> SearchResult:
    """Exact maximum edges of a family-free bipartite graph with parts of
    sizes a and b.

    One node budget covers the whole staircase below (a, b); BudgetExceeded
    carries the best lower bound with a witness reached so far.
    """
    if a < 0 or b < 0:
        raise ValueError("part sizes must be >= 0")
    return _zarankiewicz("zarankiewicz_ab", (a, b), family, budget,
                         order_seed, [(a, b)])


def zarankiewicz_number(n: int, family: FamilySpec, budget=None,
                        order_seed=None) -> SearchResult:
    """Exact maximum edges of a family-free bipartite graph on n vertices,
    maximized over all part splits a + b = n.

    The splits are the final shapes of one walk under one node budget: the
    balanced split first, under its staircase, and each later split under
    the best split value so far, so a split that finds nothing there adds
    no witness.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # a split with an empty part is searched only when no other exists
    splits = [(a, n - a) for a in range(n // 2, 0, -1)] if n > 1 else [(0, n)]
    return _zarankiewicz("zarankiewicz", (n,), family, budget, order_seed,
                         splits)


def polygon_vertex_count(q, ell: int):
    """2*(q^ell + q^(ell-1) + ... + 1), the vertex count of the incidence
    graph of a generalized (ell+1)-gon of order q; q may be real."""
    return 2 * sum(q**i for i in range(ell + 1))


def solve_polygon_order(n: int, ell: int) -> float:
    """The positive real q with polygon_vertex_count(q, ell) = n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    lo, hi = 0.0, float(n)
    for _ in range(200):
        mid = (lo + hi) / 2
        if polygon_vertex_count(mid, ell) - n < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def polygon_edge_bound(n: int, ell: int) -> float:
    """(q + 1)*n/2 at the real polygon order q of n: the edge count of a
    generalized-polygon incidence graph on n vertices, and the bound on a
    bipartite graph on n vertices without C_4, ..., C_{2*ell}."""
    q = solve_polygon_order(n, ell)
    return (q + 1) * n / 2


def unbalanced_z_bound(a: int, b: int, ell: int) -> float:
    """(ab)^(1/2 + 1/(2*ell)) + max(a, b), the unbalanced Zarankiewicz
    bound for parts of sizes a and b without C_4, ..., C_{2*ell}."""
    return (a * b) ** (0.5 + 0.5 / ell) + max(a, b)


def bound_ell(ell: int) -> int:
    """The largest ell' <= ell that is 2 or odd, the regime in which
    unbalanced_z_bound applies; a graph without C_4, ..., C_{2*ell} is also
    without C_4, ..., C_{2*ell'}."""
    return ell - 1 if ell > 2 and ell % 2 == 0 else ell


def verify_upper_bounds(results) -> list:
    """The closed-form upper bounds at each result that a wrong value would
    fail.

    For bipartite (z) instances whose family is exactly the even cycles up
    to 2*ell, with bound_ell(ell) = ell: the polygon bound
    polygon_edge_bound, and for two-part instances the unbalanced bound
    unbalanced_z_bound as well. A Turán result, or a family with no closed
    form, yields no report.
    """
    reports = []
    for res in results:
        ell = res.family.even_run
        if (res.kind == "turan" or ell < 2 or bound_ell(ell) != ell
                or res.family != FamilySpec.even_cycles(ell)):
            continue
        n = res.instance[0] if res.kind == "zarankiewicz" else sum(res.instance)
        bound = polygon_edge_bound(n, ell)
        reports.append(BoundReport(
            check="polygon-edge-bound",
            lhs=res.value,
            rhs=bound,
            holds=res.value <= bound + FLOAT_SLACK,
            equality=abs(res.value - bound) <= FLOAT_SLACK,
            note=f"n = {n}",
        ))
        if res.kind == "zarankiewicz_ab":
            a, b = res.instance
            bound = unbalanced_z_bound(a, b, ell)
            reports.append(BoundReport(
                check="unbalanced-z-bound",
                lhs=res.value,
                rhs=bound,
                holds=res.value <= bound + FLOAT_SLACK,
                note=f"(a, b) = ({a}, {b})",
            ))
    return reports


@dataclass(frozen=True)
class DiscrepancyReport:
    """Certificate that one augmented incidence graph beats the bipartite
    optimum by exactly one edge."""

    graph: Graph = field(repr=False)
    added_edge: tuple
    base_edges: int
    edges: int
    spectrum: frozenset
    z_upper_bound: float
    certified: bool


def discrepancy_witness(base: Graph, budget=None) -> DiscrepancyReport:
    """The quadrangle incidence graph base (ell = 3) plus one edge between
    two vertices at distance two: certified when it stays free of C4, C5
    and C6 with one edge more than the bipartite optimum on its vertex
    count, which base attains."""
    aug, pair = augment_distance_two(base)
    spectrum = cycle_spectrum(aug, 8, budget=budget)
    bound = polygon_edge_bound(aug.n, 3)
    return DiscrepancyReport(
        graph=aug,
        added_edge=pair,
        base_edges=base.m,
        edges=aug.m,
        spectrum=spectrum,
        z_upper_bound=bound,
        certified=(not spectrum & {4, 5, 6}
                   and aug.m == base.m + 1
                   and abs(bound - base.m) <= FLOAT_SLACK),
    )
