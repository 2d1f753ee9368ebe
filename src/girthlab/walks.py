"""Exact counting of walks, closed walks, non-returning walks, and paths,
plus checkers for the walk inequalities the rest of the package relies on.

All counts are exact integers; per-vertex averages are exact rationals.
Inequalities are decided by cross-multiplied integer comparisons wherever
the bound is rational; only bounds involving irrational exponents fall back
to floats, with an explicit 1e-9 relative slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .budgets import DEFAULT_CYCLE_BUDGET, node_budget
from .errors import BudgetExceeded, EmptyPart, GirthTooSmall
from .graph import BipartiteGraph, Graph, girth

FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class WalkCounts:
    """A total count over the whole graph and its per-vertex average."""

    kind: str
    length: int
    total: int
    n: int

    @property
    def average(self) -> Fraction:
        return Fraction(self.total, self.n)


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: lhs vs rhs with the verdict."""

    check: str
    lhs: object
    rhs: object
    holds: bool
    equality: bool = False
    note: str = ""


def _require_vertices(G: Graph):
    if G.n == 0:
        raise ValueError("walk counts need at least one vertex")


def walk_totals(G: Graph, k_max: int) -> list:
    """Numbers of walks (ordered) of lengths 0..k_max, from one DP."""
    _require_vertices(G)
    if k_max < 0:
        raise ValueError("k must be >= 0")
    counts = [1] * G.n
    totals = [G.n]
    for _ in range(k_max):
        counts = [sum(map(counts.__getitem__, nbrs)) for nbrs in G.adj]
        totals.append(sum(counts))
    return totals


def walk_count(G: Graph, k: int) -> WalkCounts:
    """Number of walks of length k (ordered, k >= 0), total and average."""
    return WalkCounts(kind="walk", length=k, total=walk_totals(G, k)[k],
                      n=G.n)


def closed_walk_count(G: Graph, k: int) -> WalkCounts:
    """Number of closed walks of length k >= 1: trace(A^k), summed over
    start vertices s as <A^floor(k/2) e_s, A^ceil(k/2) e_s>."""
    _require_vertices(G)
    if k < 1:
        raise ValueError("k must be >= 1")
    half = k // 2
    adj = G.adj
    total = 0
    for s in range(G.n):
        vec = [0] * G.n
        vec[s] = 1
        for _ in range(half):
            vec = [sum(map(vec.__getitem__, nbrs)) for nbrs in adj]
        if k % 2:
            # <x, A x> for the symmetric adjacency matrix A
            total += sum(x * sum(map(vec.__getitem__, nbrs))
                         for x, nbrs in zip(vec, adj) if x)
        else:
            total += sum(x * x for x in vec)
    return WalkCounts(kind="closed", length=k, total=total, n=G.n)


def nonreturning_count(G: Graph, k: int) -> WalkCounts:
    """Number of walks of length k >= 1 that never immediately reuse the
    edge just traversed. DP over directed edges."""
    _require_vertices(G)
    if k < 1:
        raise ValueError("k must be >= 1")
    darts = [(u, v) for u in range(G.n) for v in G.adj[u]]
    dart_id = {d: i for i, d in enumerate(darts)}
    counts = [1] * len(darts)
    for _ in range(k - 1):
        nxt = [0] * len(darts)
        for i, (u, v) in enumerate(darts):
            c = counts[i]
            if c:
                for w in G.adj[v]:
                    if w != u:
                        nxt[dart_id[(v, w)]] += c
        counts = nxt
    return WalkCounts(kind="nonreturning", length=k, total=sum(counts), n=G.n)


def _paths_by_start(G: Graph, starts, ell: int, limit: int,
                    overrun: str) -> list:
    """Directed paths of length 1 <= ell <= 8 from each start vertex, by one
    DFS whose node counter runs across all starts.

    The last two levels are counted without stacking them: a node v at
    depth ell - 1 has one leaf per neighbour outside its path,
    (bits[v] & ~visited).bit_count(), and a node at depth ell - 2 counts
    each such child and its leaves in place. Every one of those nodes still
    counts, so BudgetExceeded (with message `overrun`) is raised exactly
    when the whole DFS visits more than `limit` nodes.
    """
    bits = G.bits
    adj = G.adj
    last = ell - 1
    nodes = 0
    counts = []
    for start in starts:
        total = 0
        stack = [(start, 1 << start, 0)]
        while stack:
            v, visited, depth = stack.pop()
            nodes += 1
            if depth == last:  # only the start, when ell == 1
                leaves = (bits[v] & ~visited).bit_count()
                total += leaves
                nodes += leaves
            elif depth == last - 1:
                for w in adj[v]:
                    if not (visited >> w) & 1:
                        leaves = (bits[w] & ~visited).bit_count()
                        total += leaves
                        nodes += 1 + leaves
            else:
                for w in adj[v]:
                    if not (visited >> w) & 1:
                        stack.append((w, visited | (1 << w), depth + 1))
            if nodes > limit:
                raise BudgetExceeded(overrun)
        counts.append(total)
    return counts


def _check_path_length(ell: int):
    if not 0 <= ell <= 8:
        raise ValueError("ell must be in 0..8 (exhaustive DFS guard)")


def path_count(G: Graph, ell: int, budget=None) -> WalkCounts:
    """Number of directed paths (walks with all vertices distinct) of
    length ell <= 8: the sum of paths_from_each_vertex."""
    _require_vertices(G)
    return WalkCounts(kind="path", length=ell, n=G.n,
                      total=sum(paths_from_each_vertex(G, ell, budget)))


def paths_from_vertex(G: Graph, start: int, ell: int, budget=None) -> int:
    """Directed paths of length ell <= 8 starting at one vertex."""
    if not 0 <= start < G.n:
        raise ValueError(f"start {start} is not a vertex: need "
                         f"0 <= start < n = {G.n}")
    _check_path_length(ell)
    if ell == 0:
        return 1
    limit = node_budget(budget, DEFAULT_CYCLE_BUDGET)
    return _paths_by_start(
        G, (start,), ell, limit,
        f"paths of length {ell} from vertex {start} on a graph with {G.n} "
        f"vertices exceeded their budget of {limit} path nodes")[0]


def paths_from_each_vertex(G: Graph, ell: int, budget=None) -> list:
    """Directed paths of length ell <= 8 from each vertex in turn, under one
    node budget for the whole enumeration."""
    _check_path_length(ell)
    if ell == 0:
        return [1] * G.n
    limit = node_budget(budget, DEFAULT_CYCLE_BUDGET)
    return _paths_by_start(
        G, range(G.n), ell, limit,
        f"path count of length {ell} on a graph with {G.n} vertices "
        f"exceeded its budget of {limit} path nodes")


def check_blakley_roy(G: Graph, k: int, totals=None) -> BoundReport:
    """Average walk count of length k is at least d^k (d = average degree).

    Holds for every simple graph; equality on regular graphs. totals, when
    given, are the walk totals of G up to at least length k (walk_totals).
    """
    if totals is None:
        totals = walk_totals(G, k)
    wk = Fraction(totals[k], G.n)
    rhs = G.average_degree() ** k
    return BoundReport(
        check="blakley-roy",
        lhs=wk,
        rhs=rhs,
        holds=wk >= rhs,
        equality=wk == rhs,
    )


def check_godsil(G: Graph, r: int, s: int, totals=None) -> BoundReport:
    """Walk power-mean monotonicity: w_r^(1/r) >= w_s^(1/s) for even r >= s.

    Decided exactly by comparing w_r^s against w_s^r in big-integer
    arithmetic. totals, when given, are the walk totals of G up to at least
    length r (walk_totals).
    """
    if r % 2 != 0 or not r >= s >= 1:
        raise ValueError("need r even and r >= s >= 1")
    if totals is None:
        totals = walk_totals(G, r)
    lhs = Fraction(totals[r], G.n) ** s
    rhs = Fraction(totals[s], G.n) ** r
    return BoundReport(
        check="godsil-power-mean",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        equality=lhs == rhs,
        note=f"compares w_{r}^{s} vs w_{s}^{r}",
    )


@dataclass(frozen=True)
class HooryReport:
    """Non-returning odd-walk lower bounds in a bipartite graph.

    ``nu`` is the per-vertex average count of non-returning walks of length
    2t+1; ``product_bound`` is d * prod_v (d(v)-1)^(t*d(v)/e(G)) (float);
    ``biregular_bound`` is the exact rational d*(alpha-1)^t*(beta-1)^t.
    """

    t: int
    nu: Fraction
    product_bound: float
    biregular_bound: Fraction
    holds_product: bool
    holds_biregular: bool
    equality: bool


def check_hoory_bipartite(G: BipartiteGraph, t: int) -> HooryReport:
    if not isinstance(G, BipartiteGraph):
        raise TypeError("check_hoory_bipartite needs a BipartiteGraph")
    if t < 1:
        raise ValueError("t must be >= 1")
    a_part, b_part = G.part_x, G.part_y
    if not a_part or not b_part:
        raise EmptyPart("both parts must be nonempty")
    if G.min_degree() < 1:
        raise ValueError("product form needs minimum degree >= 1")
    nu = nonreturning_count(G, 2 * t + 1).average
    d = G.average_degree()
    alpha = Fraction(sum(G.degree(v) for v in a_part), len(a_part))
    beta = Fraction(sum(G.degree(v) for v in b_part), len(b_part))
    # the averages form needs every degree >= 2 (convexity of x*log(x-1));
    # pendant vertices zero the product form, and the bound degenerates to 0
    if G.min_degree() >= 2:
        biregular = d * (alpha - 1) ** t * (beta - 1) ** t
    else:
        biregular = Fraction(0)
    m = G.m
    log_prod = 0.0
    zero_factor = False
    for v in range(G.n):
        dv = G.degree(v)
        if dv == 1:
            zero_factor = True
            break
        log_prod += (t * dv / m) * math.log(dv - 1)
    product = 0.0 if zero_factor else float(d) * math.exp(log_prod)
    nu_f = float(nu)
    holds_product = nu_f >= product * (1 - FLOAT_SLACK) - FLOAT_SLACK
    alpha_int = alpha.denominator == 1
    beta_int = beta.denominator == 1
    biregular_graph = alpha_int and beta_int and all(
        G.degree(v) == alpha for v in a_part
    ) and all(G.degree(v) == beta for v in b_part)
    return HooryReport(
        t=t,
        nu=nu,
        product_bound=product,
        biregular_bound=biregular,
        holds_product=holds_product,
        holds_biregular=nu >= biregular,
        equality=biregular_graph and nu == biregular,
    )


def check_closed_walk_bound(G: BipartiteGraph, ell: int) -> BoundReport:
    """Closed walks of length 2*ell+2 in a bipartite graph of girth at
    least 2*ell+2 are few: the average is at most
    (max part size)*Delta^2 + (4*Delta)^(ell+1).

    Raises GirthTooSmall when the girth precondition fails.
    """
    if not isinstance(G, BipartiteGraph):
        raise TypeError("check_closed_walk_bound needs a BipartiteGraph")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    g = girth(G)
    if g < 2 * ell + 2:
        raise GirthTooSmall(f"girth {g} < {2 * ell + 2}")
    w = closed_walk_count(G, 2 * ell + 2).average
    delta = G.max_degree()
    max_part = max(len(G.part_x), len(G.part_y))
    bound = max_part * delta**2 + (4 * delta) ** (ell + 1)
    return BoundReport(
        check="high-girth-closed-walks",
        lhs=w,
        rhs=bound,
        holds=w <= bound,
        equality=w == bound,
        note=f"max part {max_part}, max degree {delta}",
    )


def check_path_lower_bound(G: Graph, ell: int, budget=None) -> BoundReport:
    """Average path count of length ell is at least d^ell - ell^2 *
    Delta^(ell-1); holds for every graph."""
    p = path_count(G, ell, budget=budget).average
    d = G.average_degree()
    delta = G.max_degree()
    rhs = d**ell - ell**2 * delta ** (ell - 1)
    return BoundReport(
        check="path-undercount",
        lhs=p,
        rhs=rhs,
        holds=p >= rhs,
        equality=p == rhs,
    )
