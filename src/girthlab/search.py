"""Exact small Turán and Zarankiewicz numbers by exhaustive generation with
isomorph rejection, plus formula checks and the one-extra-edge witness
construction.

Turán search adds one vertex at a time (Garnick, Kwong & Lazebnik,
Extremal graphs without three-cycles or four-cycles, J. Graph Theory 17,
1993). Write ex(k) for ex(k, F) and S(k, t) for the isomorphism classes of
F-free graphs on k vertices with at least t edges. Four facts make the
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

So S(k, t) is built from S(k-1, t - floor(2t/k)) by adding x with every
admissible N(x), and the levels are extended downwards as higher levels ask
for lower thresholds. Isomorph rejection keeps one dict per level, keyed by
canonical encoding, and labels each child once; nothing is kept between
calls. Search nodes count the neighbour sets tried. A search its budget
stops reports the best graph found at any level, padded to n vertices with
pendant vertices.

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
graph, so a family without even lengths has no conflicts and the search
finds K_{a,b}; a part of size 0 leaves no rows, and the root records the
empty graph. For C4 alone the conflicts of column c are the union of the
rows that contain c, since two columns joined by a path of two edges share
a row; longer even lengths take the column entries of the conflict masks.
With u columns used, a row of size s is I + (u, ..., u+f-1), f = 0, 1, ...,
with I from _independent_sets(old, conf, s - f) over the used columns old,
as in the Turán search. These are the rows a walk picking columns upwards
outside the union of the picked columns' conflicts builds: an unused column
is in no row, so it has and is in no conflicts; the walk takes no old
column after a fresh one; conflicts are symmetric; and bit_count() >= size
drops only walks that run out of columns. A row of the previous row's size
loses the old columns below that row's first, which drops only lex-smaller
rows, and is skipped while lex-smaller. Search nodes count the calls to
search and the rows tried, as the Turán search counts its neighbour sets.
The search keeps the raw row configurations tied at the running best and
labels them only once it ends (completed or budget-truncated), since almost
all ties are overtaken by a larger configuration. Then it labels one
configuration per column class, the sorted tuple of column masks (bit i of
column c's mask set when row i contains c): two configurations with equal
keys differ by a permutation of the columns with the rows fixed, so their
graphs are isomorphic and give the same canonical witness.

A Zarankiewicz search starts at a floor, a lower bound known before it
starts, and still finds the value and every tied configuration: best starts
at the floor, record keeps every configuration with at least best edges,
and the size prune skips a size only when full rows would stay strictly
below best. For r <= c, z(r, c) >= z(r, c-1) + 1 and
z(r, r) >= z(r-1, r) + 1, because a new vertex joined to one vertex of the
other part is pendant: it lies on no cycle and adds one edge. So
zarankiewicz_ab walks the staircase (1, 1), (1, 2), (2, 2), (2, 3), ...,
(r, r), ..., (r, c) in a loop. Every shape, (r, c) included, is the same
search, under the value of the shape before it + 1, and that shape's first
tie (the first configuration found at its value), padded by a pendant
vertex, witnesses the floor; only the ties of (r, c) are labeled. A floor
with a witness is attained, so a search that completes without reaching it
has lost a configuration and raises. The nodes and the budget cover every
shape. A search its budget stops in (r, c) reports the ties it has; stopped
below, or before it reaches its floor, it reports the first tie it knows
padded to the requested parts. An empty part or a family without even
lengths gets no floor. zarankiewicz_number searches the balanced split
first, under its staircase, and then the splits towards the most
unbalanced, each under the best split value so far: a split that finds
nothing there is below the best and adds no witness.

Every certificate records whether the search completed; truncated runs are
lower bounds only and are never reported as exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .budgets import search_budget
from .canonical import canonical_graph, canonical_labeling
from .errors import BudgetExceeded, UnsupportedInstance
from .formats import graph6_encode
from .geometry import augment_distance_two, gq_w3, incidence_graph
from .graph import Graph, cycle_spectrum, relabel
from .rng import XorShift64Star
from .walks import BoundReport

FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class FamilySpec:
    """A set of forbidden cycle lengths."""

    lengths: frozenset

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("forbidden family must be nonempty")
        if any(length < 3 for length in self.lengths):
            raise ValueError("cycle lengths must be >= 3")

    @staticmethod
    def of(*lengths) -> "FamilySpec":
        return FamilySpec(frozenset(int(x) for x in lengths))

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

    def even_run_ell(self):
        """Largest ell with {4, 6, ..., 2*ell} contained in the family and
        ell equal to 2 or odd; None when no such ell >= 2 exists.

        This is the regime in which the unbalanced Zarankiewicz bound
        (ab)^(1/2 + 1/(2*ell)) + max(a, b) applies.
        """
        if 4 not in self.lengths:
            return None
        ell = 2
        while 2 * (ell + 1) in self.lengths:
            ell += 1
        return ell - 1 if ell > 2 and ell % 2 == 0 else ell

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
    wall_time: float
    completed: bool
    note: str = ""

    @staticmethod
    def from_witness(kind: str, instance: tuple, family: FamilySpec,
                     G: Graph, note: str = "") -> "SearchResult":
        """Lower-bound certificate from an explicit family-free graph."""
        return SearchResult(
            kind=kind,
            instance=instance,
            family=family,
            value=G.m,
            witnesses=(graph6_encode(canonical_graph(G)),),
            nodes=0,
            wall_time=0.0,
            completed=False,
            note=note or "constructed lower bound, no exhaustive search",
        )


def _conflicts(P: Graph, lengths, starts) -> list:
    """For each u in starts, the vertices of P that a path of L - 2 edges
    joins to u, for some L in lengths. A new vertex adjacent to u and v
    closes a C_L exactly when such a path joins them."""
    wanted = 0
    for length in lengths:
        wanted |= 1 << (length - 2)
    deepest = max(lengths) - 2
    bits = P.bits
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


def _padded(G: Graph, n: int) -> Graph:
    """G with a path of new vertices hung from its last vertex, up to n
    vertices: a pendant vertex lies on no cycle and adds one edge."""
    return Graph(n, G.edges() + [(v - 1, v) for v in range(G.n, n)])


class _TuranSearch:
    """Level sets of family-free graphs, one vertex at a time (facts (a)-(d)
    of the module docstring). ``levels[k]`` maps canonical encodings to
    graphs and holds every class on k vertices with at least ``floors[k]``
    edges."""

    def __init__(self, n, family, limit, order_seed):
        self.n = n
        self.family = family
        self.limit = limit
        self.order_seed = order_seed
        self.nodes = 0
        self.best = -1
        self.tied = []
        self.levels = [{0: Graph(0)}] + [{} for _ in range(n)]
        self.floors = [0] + [math.inf] * n

    def over_budget(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"Turan search ex({self.n}, {self.family.describe()}) exceeded "
            f"its budget of {self.limit} search nodes")

    def run(self):
        ex = 0
        for k in range(1, self.n + 1):
            threshold = ex + 1 if k >= 2 else 0
            ex = max(G.m for G in self.level(k, threshold).values())

    def level(self, k: int, threshold: int) -> dict:
        """levels[k], extended to hold every class with at least threshold
        edges. Children with floors[k] edges or more are there already."""
        level = self.levels[k]
        ceiling = self.floors[k]
        if threshold >= ceiling:
            return level
        least = max(0, threshold - 2 * threshold // k)
        parents = [P for P in self.level(k - 1, least).values()
                   if P.m >= least]
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + k).shuffle(parents)
        for P in parents:
            deg = P.degrees()
            conflicts = _conflicts(P, self.family.lengths, range(P.n))
            for d in range(max(0, threshold - P.m), min(ceiling - P.m, k)):
                for neighbours in _neighbour_sets(deg, conflicts, d):
                    self.add(level, P, neighbours)
        self.floors[k] = threshold
        return level

    def add(self, level: dict, P: Graph, neighbours: int):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        x = P.n
        child = Graph(x + 1, P.edges() + [(v, x) for v in range(x)
                                           if neighbours >> v & 1])
        labeling = canonical_labeling(child)
        if labeling[0] not in level:
            level[labeling[0]] = child
            self.record(child, labeling)

    def record(self, G: Graph, labeling):
        """Keep the graphs whose padding to n vertices has the most edges:
        each bounds ex(n) below whenever the search stops."""
        value = G.m + self.n - G.n
        if value > self.best:
            self.best = value
            self.tied = []
        if value == self.best:
            self.tied.append((G, labeling))

    def labeled_witnesses(self) -> list:
        """One (graph, canonical labeling) per isomorphism class among the
        tied graphs, padded to n vertices."""
        classes = {}
        for G, labeling in self.tied:
            if G.n < self.n:
                G = _padded(G, self.n)
                labeling = canonical_labeling(G)
            classes.setdefault(labeling[0], (G, labeling[1]))
        return list(classes.values())


def _result(kind, instance, family, value, labeled, nodes, t0, completed):
    """The result a search reached: exact when it completed, a lower bound
    when its budget stopped it."""
    return SearchResult(
        kind=kind,
        instance=instance,
        family=family,
        value=value,
        witnesses=tuple(sorted(graph6_encode(relabel(G, perm))
                               for G, perm in labeled)),
        nodes=nodes,
        wall_time=time.monotonic() - t0,
        completed=completed,
        note="" if completed else "budget-truncated",
    )


def _reached(search, n_vertices) -> tuple:
    """The value and labeled witnesses a search has recorded. Before it
    records anything, the empty graph certifies the value 0."""
    if search.best < 0:
        empty = Graph(n_vertices)
        return 0, [(empty, canonical_labeling(empty)[1])]
    return search.best, search.labeled_witnesses()


def turan_number(n: int, family: FamilySpec, budget=None,
                 order_seed=None) -> SearchResult:
    """Exact maximum edge count of a family-free graph on n vertices, with
    every extremal graph (up to isomorphism) as a witness.

    Raises BudgetExceeded (carrying the truncated lower-bound result) when
    the node budget runs out.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t0 = time.monotonic()
    search = _TuranSearch(n, family, search_budget(budget), order_seed)
    try:
        search.run()
    except BudgetExceeded as exc:
        exc.result = _result("turan", (n,), family, *_reached(search, n),
                             search.nodes, t0, completed=False)
        raise
    return _result("turan", (n,), family, *_reached(search, n),
                   search.nodes, t0, completed=True)


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
        self.limit = limit
        self.nodes = 0
        self.best = floor
        self.order_seed = order_seed
        self.rows = []
        self.tied = {}

    def over_budget(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"row search z({self.a}, {self.b}; {self.family.describe()}) "
            f"exceeded its budget of {self.limit} search nodes")

    def make_graph(self, rows) -> Graph:
        return _rows_graph(rows, self.rows_n, self.cols_n)

    def record(self):
        total = sum(len(r) for r in self.rows)
        if total < self.best:
            return
        if total > self.best:
            self.best = total
            self.tied = {}
        self.tied[tuple(self.rows)] = None

    def labeled_witnesses(self) -> list:
        """One (graph, canonical labeling) per isomorphism class among the
        configurations tied at the best value, labeling one configuration
        per column class."""
        classes, seen = {}, set()
        for rows in self.tied:
            column_key = _column_key(rows, self.cols_n)
            if column_key in seen:
                continue
            seen.add(column_key)
            G = self.make_graph(rows)
            key, perm = canonical_labeling(G)
            classes.setdefault(key, (G, perm))
        return list(classes.values())

    def column_conflicts(self) -> list:
        """conf[c]: the columns that may not share the next row with column
        c, as a column bitmask (fact (c) for the new row vertex)."""
        if not self.even:
            # odd cycles never embed in a bipartite graph
            return [0] * self.cols_n
        if self.even == (4,):
            conf = [0] * self.cols_n
            for row in self.rows:
                bits = sum(1 << c for c in row)
                for c in row:
                    conf[c] |= bits
            return conf
        shift = self.rows_n
        return [bits >> shift for bits in
                _conflicts(self.make_graph(self.rows), self.even,
                           range(shift, shift + self.cols_n))]

    def search(self, used_cols, edges):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        row_index = len(self.rows)
        if row_index == self.rows_n:
            self.record()
            return
        rows_left = self.rows_n - row_index
        prev = self.rows[-1] if self.rows else None
        conf = self.column_conflicts()
        sizes = list(range(len(prev) if prev else self.cols_n, -1, -1))
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + row_index).shuffle(sizes)
        for s in sizes:
            if s == 0:
                # all remaining rows empty
                self.record()
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
                    row = tuple(c for c in range(used_cols)
                                if chosen >> c & 1) + fresh
                    if tied and row < prev:
                        continue
                    self.nodes += 1
                    if self.nodes > self.limit:
                        raise self.over_budget()
                    self.rows.append(row)
                    self.search(used_cols + f, edges + s)
                    self.rows.pop()


def _zarankiewicz(a, b, family, limit, order_seed, floor=-1):
    """z(a, b) by the row search, within limit nodes. Without a floor it
    walks the staircase up to (a, b): every shape is the same search, under
    the value of the shape before it + 1, and that shape's first tie, padded
    by a pendant vertex, witnesses the floor. A floor of 0 or more is the
    value of another split, with no witness here: when nothing reaches it
    the result holds that value and no witness."""
    t0 = time.monotonic()
    r, c = sorted((a, b))
    shapes = [(a, b)]
    # an empty part or a family without even lengths needs no floor
    if floor < 0 and r and family.even_lengths:
        shapes[:0] = _staircase(r, c)[:-1]
    witness = None  # (rows, columns) of the last finished shape's first tie
    spent = 0
    try:
        for shape in shapes:
            search = _ZarankiewiczSearch(*shape, family, limit - spent,
                                         order_seed, floor)
            search.search(0, 0)
            spent += search.nodes
            if search.tied:
                witness = next(iter(search.tied)), search.cols_n
            elif witness:
                raise RuntimeError(
                    f"row search z({search.a}, {search.b}; "
                    f"{family.describe()}) found nothing at its floor "
                    f"{floor}, which has a witness of this instance: a cut "
                    f"lost a configuration")
            floor = search.best + 1
    except BudgetExceeded as exc:
        final = (search.rows_n, search.cols_n) == (r, c)
        if search.tied and not final:
            witness = next(iter(search.tied)), search.cols_n
        if witness and not (final and search.tied):
            # the best configuration known, padded to (r, c), bounds z below
            G = _rows_graph(_pad_rows(*witness, r, c), r, c)
            reached = G.m, [(G, canonical_labeling(G)[1])]
        else:
            reached = _reached(search, a + b)
        raise BudgetExceeded(
            f"row search z({a}, {b}; {family.describe()}) exceeded its "
            f"budget of {limit} search nodes",
            _result("zarankiewicz_ab", (a, b), family, *reached,
                    spent + search.nodes, t0, completed=False)) from exc
    return _result("zarankiewicz_ab", (a, b), family,
                   *_reached(search, a + b), spent, t0, completed=True)


def zarankiewicz_ab(a: int, b: int, family: FamilySpec, budget=None,
                    order_seed=None) -> SearchResult:
    """Exact maximum edges of a family-free bipartite graph with parts of
    sizes a and b.

    One node budget covers the whole staircase below (a, b); BudgetExceeded
    carries the best lower bound with a witness reached so far.
    """
    if a < 0 or b < 0:
        raise ValueError("part sizes must be >= 0")
    return _zarankiewicz(a, b, family, search_budget(budget), order_seed)


def zarankiewicz_number(n: int, family: FamilySpec, budget=None,
                        order_seed=None) -> SearchResult:
    """Exact maximum edges of a family-free bipartite graph on n vertices,
    maximized over all part splits a + b = n.

    One node budget covers all the splits: each split gets what the earlier
    splits left of it. The balanced split is searched first, under its
    staircase floor, and each later split under the best split value so
    far: a split that finds nothing there adds no witness.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t0 = time.monotonic()
    limit = search_budget(budget)
    # a split with an empty part is searched only when no other exists
    splits = range(n // 2, 0, -1) if n > 1 else [0]
    results = []
    try:
        for a in splits:
            spent = sum(r.nodes for r in results)
            floor = max(r.value for r in results) if results else -1
            results.append(_zarankiewicz(a, n - a, family, limit - spent,
                                         order_seed, floor))
    except BudgetExceeded as exc:
        # the completed splits and the failing split's own partial result
        # together bound z(n) from below
        if exc.result is not None:
            results.append(exc.result)
        raise BudgetExceeded(
            f"row search z({n}; {family.describe()}) exceeded its budget of "
            f"{limit} search nodes",
            _merge_splits(n, family, results, t0, completed=False,
                          note="budget-truncated")) from exc
    return _merge_splits(n, family, results, t0,
                         completed=all(r.completed for r in results))


def _merge_splits(n, family, results, t0, completed, note="") -> SearchResult:
    """The best split value with the witnesses of every split attaining it;
    the empty graph bounds the value below by 0."""
    best = max([0] + [r.value for r in results])
    witnesses = sorted(
        {w for r in results if r.value == best for w in r.witnesses}
    )
    return SearchResult(
        kind="zarankiewicz",
        instance=(n,),
        family=family,
        value=best,
        witnesses=tuple(witnesses),
        nodes=sum(r.nodes for r in results),
        wall_time=time.monotonic() - t0,
        completed=completed,
        note=note,
    )


def solve_polygon_order(n: int, ell: int) -> float:
    """The positive real q with n = 2*(q^ell + q^(ell-1) + ... + 1)."""
    if n < 2:
        raise ValueError("n must be >= 2")

    def f(q):
        return 2 * sum(q**i for i in range(ell + 1)) - n

    lo, hi = 0.0, float(n)
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def verify_upper_bounds(results) -> list:
    """Evaluate the applicable extremal-formula bounds at each result.

    For bipartite (z) instances whose family is exactly the even cycles up
    to 2*ell (ell = 2 or odd): the generalized-polygon bound (q+1)*n/2 is
    asserted, and for two-part instances the unbalanced bound
    (ab)^(1/2+1/(2*ell)) + max(a,b) as well. For Turán instances the
    n^(1+1/ell)/2 formula is reported as a margin only (its O(n) slack is
    not quantified).
    """
    reports = []
    for res in results:
        ell = res.family.even_run_ell()
        exact_even_family = (
            ell is not None
            and res.family.lengths == frozenset(range(4, 2 * ell + 1, 2))
        )
        if not exact_even_family:
            reports.append(BoundReport(
                check="upper-bound",
                lhs=res.value,
                rhs=None,
                holds=True,
                note=f"no closed-form bound for family {res.family.describe()}",
            ))
            continue
        if res.kind in ("zarankiewicz", "zarankiewicz_ab"):
            n = res.instance[0] if res.kind == "zarankiewicz" else sum(res.instance)
            q = solve_polygon_order(n, ell)
            bound = (q + 1) * n / 2
            reports.append(BoundReport(
                check="polygon-edge-bound",
                lhs=res.value,
                rhs=bound,
                holds=res.value <= bound + FLOAT_SLACK,
                equality=abs(res.value - bound) <= FLOAT_SLACK,
                note=f"q = {q:.6f}, n = {n}",
            ))
            if res.kind == "zarankiewicz_ab":
                a, b = res.instance
                bound2 = (a * b) ** (0.5 + 0.5 / ell) + max(a, b)
                reports.append(BoundReport(
                    check="unbalanced-z-bound",
                    lhs=res.value,
                    rhs=bound2,
                    holds=res.value <= bound2 + FLOAT_SLACK,
                    note=f"(a, b) = ({a}, {b})",
                ))
        elif res.kind == "turan":
            n = res.instance[0]
            bound = 0.5 * n ** (1 + 1 / ell)
            reports.append(BoundReport(
                check="even-cycle-turan-margin",
                lhs=res.value,
                rhs=bound,
                holds=True,
                note="margin report only; linear-term slack unquantified",
            ))
    return reports


@dataclass(frozen=True)
class DiscrepancyReport:
    """Certificate that one augmented incidence graph beats the bipartite
    optimum by exactly one edge."""

    graph: Graph = field(repr=False)
    added_edge: tuple
    family: FamilySpec
    base_edges: int
    edges: int
    spectrum: frozenset
    z_upper_bound: float
    certified: bool


def discrepancy_witness(ell: int = 3, q: int = 2, budget=None):
    """Augmented quadrangle incidence graph: family-free for the even
    cycles up to 2*ell plus C5, with (bipartite optimum + 1) edges.

    Only the ell = 3 (forbid C4, C6, C5) instance is constructible at desk
    scale, for q in {2, 3}.
    """
    if ell != 3:
        raise UnsupportedInstance("only the ell = 3, k = 5 instance is built")
    if q not in (2, 3):
        raise UnsupportedInstance("q must be 2 or 3 at desk scale")
    base = incidence_graph(gq_w3(q))
    aug, pair = augment_distance_two(base)
    family = FamilySpec.even_cycles_plus_odd(3, 5)
    spectrum = cycle_spectrum(aug, 8, budget=budget)
    free = not (spectrum & {4, 5, 6})
    n = aug.n
    q_real = solve_polygon_order(n, 3)
    bound = (q_real + 1) * n / 2
    certified = (
        free
        and aug.m == base.m + 1
        and abs(bound - base.m) <= FLOAT_SLACK
    )
    report = DiscrepancyReport(
        graph=aug,
        added_edge=pair,
        family=family,
        base_edges=base.m,
        edges=aug.m,
        spectrum=spectrum,
        z_upper_bound=bound,
        certified=certified,
    )
    return aug, report
