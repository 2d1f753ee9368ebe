"""Exact small Turán and Zarankiewicz numbers by exhaustive generation with
isomorph rejection, plus formula checks and the one-extra-edge witness
construction.

Turán search grows edge sets by canonical augmentation: a child graph is
accepted only when deleting its canonically-last edge reproduces the parent
(up to isomorphism), and children of one parent are deduplicated by
canonical key, so every isomorphism class of family-free graphs on n
vertices is visited exactly once. Before a child is canonically labeled, its
degrees and then its root refinement name the degrees of the two cells that
hold its last edge (``last_edge_cells``); deleting that edge can only give
the parent when they are the degrees of the added pair's endpoints, so most
rejected children cost a degree scan or one refinement and no search. A
child whose last edge is the added pair is the parent plus that pair, and is
accepted without another labeling.

Zarankiewicz search is a row-based branch and bound over neighborhoods of
the smaller part, under three sound symmetry rules (row sizes
non-increasing; columns first used by a row take the smallest unused labels
consecutively; equal-size consecutive rows lexicographically
non-decreasing) with admissible pruning from the column-pair budget
(quadrilateral-free case) and the unbalanced Zarankiewicz bound. The
search keeps the raw row configurations tied at the running best and
canonically labels them only once it ends (completed or budget-truncated),
since almost all ties are overtaken by a larger configuration.

Every certificate records whether the search completed; truncated runs are
lower bounds only and are never reported as exact.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

from .budgets import search_budget
from .canonical import (
    canonical_graph,
    canonical_labeling,
    last_edge_cells,
    last_edge_under,
)
from .errors import BudgetExceeded, UnsupportedInstance
from .formats import graph6_encode
from .geometry import augment_distance_two, gq_w3, incidence_graph
from .graph import Graph, contains_cycle, cycle_spectrum, relabel
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
        ell = 2
        while 2 * (ell + 1) in self.lengths:
            ell += 1
        if 4 not in self.lengths:
            return None
        while ell > 2 and not (ell == 2 or ell % 2 == 1):
            ell -= 1
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


def _has_path(G: Graph, u: int, v: int, length: int) -> bool:
    """Path with exactly `length` edges from u to v, all vertices distinct."""
    if length == 1:
        return G.has_edge(u, v)
    if length == 2:
        return bool(G.bits[u] & G.bits[v])
    # BFS distances from v for admissible pruning
    dist = [-1] * G.n
    dist[v] = 0
    frontier = [v]
    d = 0
    while frontier and d < length:
        d += 1
        nxt = []
        for x in frontier:
            for w in G.adj[x]:
                if dist[w] == -1:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    if dist[u] == -1 or dist[u] > length:
        return False
    stack = [(u, 1 << u, 0)]
    while stack:
        x, visited, used = stack.pop()
        if used == length:
            if x == v:
                return True
            continue
        remaining = length - used
        for w in G.adj[x]:
            if (visited >> w) & 1:
                continue
            if w == v:
                if remaining == 1:
                    return True
                continue
            if dist[w] >= 0 and dist[w] <= remaining - 1:
                stack.append((w, visited | (1 << w), used + 1))
    return False


def _creates_forbidden(G: Graph, u: int, v: int, lengths) -> bool:
    return any(_has_path(G, u, v, L - 1) for L in sorted(lengths))


class _TuranSearch:
    def __init__(self, n, family, limit, order_seed):
        self.n = n
        self.family = family
        self.limit = limit
        self.nodes = 0
        self.best = -1
        self.witnesses = {}
        self.canon_cache = {}
        self.order_seed = order_seed

    def over_budget(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"Turan search ex({self.n}, {self.family.describe()}) exceeded "
            f"its budget of {self.limit} search nodes")

    def key_and_perm(self, G: Graph):
        cached = self.canon_cache.get(G.bits)
        if cached is None:
            cached = canonical_labeling(G)
            self.canon_cache[G.bits] = cached
        return cached

    def key(self, G: Graph):
        return self.key_and_perm(G)[0]

    def labeled_witnesses(self) -> list:
        return [(G, self.key_and_perm(G)[1]) for G in self.witnesses.values()]

    @staticmethod
    def labeling_unless_rejected(child: Graph, u: int, v: int):
        """The canonical labeling of child = parent + uv, or None when the
        degrees rule out that deleting its last edge xy gives the parent.

        Both deletions lower two child degrees by one, so the degree
        multisets agree only if {deg x, deg y} = {deg u, deg v}. Root cells
        share one degree and are ordered by degree, so the lower cell of the
        last edge has the largest smaller-endpoint degree over all edges,
        known before any refinement. The upper cell's degree needs the root
        refinement, which the labeling then starts from.
        """
        deg = child.degrees()
        pair = sorted((deg[u], deg[v]))
        if pair[0] != max(min(deg[x], deg[y]) for x, y in child.edges()):
            return None
        colors, cells = last_edge_cells(child)
        if sorted(deg[colors.index(cell)] for cell in cells) != pair:
            return None
        return canonical_labeling(child, colors)

    def record(self, G: Graph, gkey):
        if G.m > self.best:
            self.best = G.m
            self.witnesses = {gkey: G}
        elif G.m == self.best:
            self.witnesses[gkey] = G

    def children_of(self, G: Graph, gkey):
        pairs = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not G.has_edge(u, v)
        ]
        if self.order_seed is not None:
            XorShift64Star(self.order_seed).shuffle(pairs)
        out = {}
        for u, v in pairs:
            if _creates_forbidden(G, u, v, self.family.lengths):
                continue
            child = G.with_edge(u, v)
            cached = self.canon_cache.get(child.bits)
            if cached is None:
                cached = self.labeling_unless_rejected(child, u, v)
                if cached is None:
                    continue
                self.canon_cache[child.bits] = cached
            ckey, cperm = cached
            if ckey in out:
                continue
            cle = last_edge_under(child, cperm)
            if cle == (u, v) or self.key(child.without_edge(*cle)) == gkey:
                out[ckey] = child
        return out

    def explore(self, G: Graph, gkey):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        self.record(G, gkey)
        for ckey, child in sorted(self.children_of(G, gkey).items()):
            self.explore(child, ckey)


def _self_labeled(G: Graph) -> tuple:
    return G, canonical_labeling(G)[1]


def _truncated(kind, instance, family, search, n_vertices, t0):
    """The lower-bound result of a search its budget stopped. Before the
    search records anything, the empty graph certifies the value 0."""
    if search.best < 0:
        value, witnesses = 0, [_self_labeled(Graph(n_vertices))]
    else:
        value, witnesses = search.best, search.labeled_witnesses()
    return _finish(kind, instance, family, value, witnesses, search.nodes, t0,
                   completed=False, note="budget-truncated")


def _finish(kind, instance, family, value, labeled_witnesses, nodes, t0,
            completed, note=""):
    """Result from (graph, canonical labeling) witness pairs."""
    encs = sorted(graph6_encode(relabel(G, perm))
                  for G, perm in labeled_witnesses)
    return SearchResult(
        kind=kind,
        instance=instance,
        family=family,
        value=value,
        witnesses=tuple(encs),
        nodes=nodes,
        wall_time=time.monotonic() - t0,
        completed=completed,
        note=note,
    )


def turan_number(n: int, family: FamilySpec, budget=None, order_seed=None,
                 parallel: bool = False) -> SearchResult:
    """Exact maximum edge count of a family-free graph on n vertices, with
    every extremal graph (up to isomorphism) as a witness.

    Raises BudgetExceeded (carrying the truncated lower-bound result) when
    the node budget runs out.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    t0 = time.monotonic()
    limit = search_budget(budget)
    search = _TuranSearch(n, family, limit, order_seed)
    root = Graph(n)
    rkey = search.key(root)
    try:
        if not parallel:
            search.explore(root, rkey)
        else:
            _turan_parallel(search, root, rkey)
    except BudgetExceeded as exc:
        exc.result = _truncated("turan", (n,), family, search, n, t0)
        raise
    return _finish("turan", (n,), family, search.best,
                   search.labeled_witnesses(), search.nodes, t0,
                   completed=True)


def _turan_parallel(search: _TuranSearch, root: Graph, rkey):
    """Explore disjoint level-2 subtrees concurrently; merging is a plain
    union because canonical-parent generation never revisits a class."""
    search.nodes += 1
    search.record(root, rkey)
    level1 = sorted(search.children_of(root, rkey).items())
    tasks = []
    for k1, g1 in level1:
        search.nodes += 1
        search.record(g1, k1)
        tasks.extend(sorted(search.children_of(g1, k1).items()))

    def run(task):
        key, graph = task
        sub = _TuranSearch(search.n, search.family, search.limit,
                           search.order_seed)
        sub.explore(graph, key)
        return sub

    with ThreadPoolExecutor(max_workers=4) as pool:
        for sub in pool.map(run, tasks):
            search.nodes += sub.nodes
            if search.nodes > search.limit:
                raise search.over_budget()
            if sub.best > search.best:
                search.best = sub.best
                search.witnesses = dict(sub.witnesses)
            elif sub.best == search.best:
                search.witnesses.update(sub.witnesses)


@lru_cache(maxsize=None)
def _pair_budget_ub(rows_left: int, pairs_left: int, size_cap: int) -> int:
    """Max total size of `rows_left` rows with sizes <= size_cap and total
    column-pair usage sum C(s,2) <= pairs_left."""
    if rows_left == 0 or size_cap == 0:
        return 0
    best = 0
    for s in range(size_cap, -1, -1):
        cost = s * (s - 1) // 2
        if cost > pairs_left:
            continue
        cand = s + _pair_budget_ub(rows_left - 1, pairs_left - cost, s)
        if cand > best:
            best = cand
        if cand == s * rows_left:
            break
    return best


class _ZarankiewiczSearch:
    """Branch and bound over rows (neighborhood sets of the smaller part)."""

    def __init__(self, a, b, family, limit, order_seed):
        self.a, self.b = a, b
        # rows = smaller part
        self.rows_n = min(a, b)
        self.cols_n = max(a, b)
        self.family = family
        self.even = [x for x in family.even_lengths]
        self.has_c4 = 4 in family.lengths
        self.other_even = [x for x in self.even if x != 4]
        self.limit = limit
        self.nodes = 0
        self.best = -1
        self.order_seed = order_seed
        ell = family.even_run_ell()
        if ell is not None:
            self.total_cap = int(
                (a * b) ** (0.5 + 0.5 / ell) + max(a, b) + FLOAT_SLACK
            )
        else:
            self.total_cap = a * b
        self.rows = []
        self.row_bits = []
        self.tied = set()

    def over_budget(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"row search z({self.a}, {self.b}; {self.family.describe()}) "
            f"exceeded its budget of {self.limit} search nodes")

    def ub_remaining(self, rows_left, size_cap, pairs_left):
        if self.has_c4:
            ub = _pair_budget_ub(rows_left, pairs_left, size_cap)
        else:
            ub = rows_left * size_cap
        return ub

    def make_graph(self, rows) -> Graph:
        edges = []
        for i, row in enumerate(rows):
            edges.extend((i, self.rows_n + c) for c in row)
        return Graph(self.rows_n + self.cols_n, edges)

    def record(self):
        total = sum(len(r) for r in self.rows)
        if total < self.best:
            return
        if total > self.best:
            self.best = total
            self.tied = set()
        self.tied.add(tuple(self.rows))

    def labeled_witnesses(self) -> list:
        """One (graph, canonical labeling) per isomorphism class among the
        configurations tied at the best value."""
        classes = {}
        for rows in self.tied:
            G = self.make_graph(rows)
            key, perm = canonical_labeling(G)
            classes.setdefault(key, (G, perm))
        return list(classes.values())

    def row_ok_for_long_cycles(self, row) -> bool:
        if not self.other_even:
            return True
        trial = self.rows + [row]
        edges = []
        for i, r in enumerate(trial):
            edges.extend((i, self.rows_n + c) for c in r)
        G = Graph(self.rows_n + self.cols_n, edges)
        return not any(contains_cycle(G, L) for L in self.other_even)

    def search(self, row_index, used_cols, pairs_left, size_cap, edges_sum,
               prev_row):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        if row_index == self.rows_n or size_cap == 0:
            self.record()
            return
        rows_left = self.rows_n - row_index
        sizes = list(range(size_cap, -1, -1))
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + row_index).shuffle(sizes)
        for s in sizes:
            if s == 0:
                # all remaining rows empty
                self.record()
                continue
            cost = s * (s - 1) // 2
            if self.has_c4 and cost > pairs_left:
                continue
            ub_rest = self.ub_remaining(rows_left - 1, s,
                                        pairs_left - cost if self.has_c4 else 0)
            ub = min(s + ub_rest, self.total_cap - edges_sum)
            if edges_sum + ub < self.best:
                continue
            # equal-size rows must come in lex nondecreasing order; every
            # graph keeps a representation (greedy lex-min row order works)
            floor_row = prev_row if prev_row is not None and s == len(prev_row) else None
            self._enumerate_rows(row_index, used_cols, pairs_left, s,
                                 edges_sum, [], [0] * row_index, 0,
                                 floor_row, True)

    def _enumerate_rows(self, row_index, used_cols, pairs_left, s, edges_sum,
                        chosen, overlaps, fresh, floor_row, tight):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        if len(chosen) == s:
            row = tuple(chosen)
            if not self.row_ok_for_long_cycles(row):
                return
            self.rows.append(row)
            bits = 0
            for c in row:
                bits |= 1 << c
            self.row_bits.append(bits)
            cost = s * (s - 1) // 2
            self.search(row_index + 1,
                        used_cols + fresh,
                        pairs_left - cost if self.has_c4 else 0,
                        s,
                        edges_sum + s,
                        row)
            self.rows.pop()
            self.row_bits.pop()
            return
        need = s - len(chosen)
        pos = len(chosen)
        last = chosen[-1] if chosen else -1
        lo = last + 1
        if tight and floor_row is not None:
            lo = max(lo, floor_row[pos])
        # old columns: any still-unpicked label < used_cols; fresh columns:
        # exactly used_cols+fresh, used_cols+fresh+1, ... in order
        candidates = list(range(lo, used_cols))
        fresh_cand = used_cols + fresh
        if fresh_cand < self.cols_n and fresh_cand >= lo:
            candidates.append(fresh_cand)
        for c in candidates:
            # room left: columns above c (old) plus fresh supply
            if c < used_cols:
                room = (used_cols - c - 1) + (self.cols_n - used_cols - fresh)
            else:
                room = self.cols_n - c - 1
            if room < need - 1:
                continue
            if self.has_c4:
                bad = False
                for j, rb in enumerate(self.row_bits):
                    if (rb >> c) & 1 and overlaps[j] == 1:
                        bad = True
                        break
                if bad:
                    continue
                new_overlaps = list(overlaps)
                for j, rb in enumerate(self.row_bits):
                    if (rb >> c) & 1:
                        new_overlaps[j] += 1
            else:
                new_overlaps = overlaps
            chosen.append(c)
            still_tight = tight and floor_row is not None and c == floor_row[pos]
            self._enumerate_rows(row_index, used_cols, pairs_left, s,
                                 edges_sum, chosen, new_overlaps,
                                 fresh + (1 if c >= used_cols else 0),
                                 floor_row, still_tight)
            chosen.pop()


def zarankiewicz_ab(a: int, b: int, family: FamilySpec, budget=None,
                    order_seed=None) -> SearchResult:
    """Exact maximum edges of a family-free bipartite graph with parts of
    sizes a and b."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be >= 0")
    t0 = time.monotonic()
    if a == 0 or b == 0:
        empty = Graph(a + b)
        return _finish("zarankiewicz_ab", (a, b), family, 0,
                       [_self_labeled(empty)], 1, t0, completed=True)
    if not family.even_lengths:
        # odd cycles never embed in a bipartite graph
        full = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        return _finish("zarankiewicz_ab", (a, b), family, a * b,
                       [_self_labeled(full)], 1, t0, completed=True,
                       note="family has no even cycle; complete bipartite")
    limit = search_budget(budget)
    search = _ZarankiewiczSearch(a, b, family, limit, order_seed)
    pairs_total = search.cols_n * (search.cols_n - 1) // 2
    try:
        search.search(0, 0, pairs_total, search.cols_n, 0, None)
    except BudgetExceeded as exc:
        exc.result = _truncated("zarankiewicz_ab", (a, b), family, search,
                                a + b, t0)
        raise
    return _finish("zarankiewicz_ab", (a, b), family, search.best,
                   search.labeled_witnesses(), search.nodes, t0,
                   completed=True)


def zarankiewicz_number(n: int, family: FamilySpec, budget=None,
                        order_seed=None, parallel: bool = False) -> SearchResult:
    """Exact maximum edges of a family-free bipartite graph on n vertices,
    maximized over all part splits a + b = n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t0 = time.monotonic()
    if n <= 1:
        return _finish("zarankiewicz", (n,), family, 0,
                       [_self_labeled(Graph(n))], 1, t0, completed=True)
    splits = [(a, n - a) for a in range(1, n // 2 + 1)]

    def run(split):
        return zarankiewicz_ab(split[0], split[1], family, budget=budget,
                               order_seed=order_seed)

    results = []
    try:
        if parallel:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for res in pool.map(run, splits):
                    results.append(res)
        else:
            for split in splits:
                results.append(run(split))
    except BudgetExceeded as exc:
        # the completed splits and the failing split's own partial result
        # together bound z(n) from below
        if exc.result is not None:
            results.append(exc.result)
        exc.result = _merge_splits(n, family, results, t0, completed=False,
                                   note="budget-truncated")
        raise
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
