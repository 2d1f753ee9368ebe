from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from girthlab.corpus import bipartite_corpus, walks_corpus
from girthlab.errors import BudgetExceeded, EmptyPart, GirthTooSmall
from girthlab.graph import BipartiteGraph, Graph
from girthlab.walks import (
    check_blakley_roy,
    check_closed_walk_bound,
    check_godsil,
    check_hoory_bipartite,
    check_path_lower_bound,
    closed_walk_count,
    nonreturning_count,
    path_count,
    paths_from_each_vertex,
    paths_from_vertex,
    walk_count,
    walk_totals,
)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def star(leaves=3):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def matrix_power_total(g, k):
    """Naive oracle: total walks of length k = sum of entries of the k-th
    power of the adjacency matrix, in exact integers."""
    n = g.n
    mat = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(k):
        acc = [
            [sum(acc[i][x] * mat[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(sum(row) for row in acc)


def matrix_power_trace(g, k):
    n = g.n
    mat = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    acc = [row[:] for row in mat]
    for _ in range(k - 1):
        acc = [
            [sum(acc[i][x] * mat[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(acc[i][i] for i in range(n))


class TestWalkCount:
    def test_path_k2(self):
        wc = walk_count(path3(), 2)
        assert (wc.total, wc.average) == (6, 2)

    def test_star_k2(self):
        wc = walk_count(star(), 2)
        assert (wc.total, wc.average) == (12, 3)

    def test_regular_power(self, heawood):
        for k in range(5):
            assert walk_count(heawood, k).average == 3**k

    def test_matches_matrix_oracle(self):
        for g in walks_corpus(25, 7):
            if g.n > 12:
                continue
            for k in (2, 3, 6):
                assert walk_count(g, k).total == matrix_power_total(g, k)


class TestClosedWalks:
    def test_k2_is_degree_sum(self):
        for g in walks_corpus(20, 11):
            assert closed_walk_count(g, 2).average == g.average_degree()

    def test_triangle_k3(self):
        wc = closed_walk_count(triangle(), 3)
        assert (wc.total, wc.average) == (6, 2)

    def test_heawood_k6(self, heawood):
        assert closed_walk_count(heawood, 6).average == 111

    def test_matches_trace_oracle(self):
        for g in walks_corpus(15, 13):
            if g.n > 12:
                continue
            for k in (2, 4, 5):
                assert closed_walk_count(g, k).total == matrix_power_trace(g, k)


class TestNonReturning:
    def test_regular_formula(self, heawood, tutte_coxeter):
        for g, r in ((heawood, 3), (tutte_coxeter, 3)):
            for k in range(1, 7):
                assert nonreturning_count(g, k).average == r * (r - 1) ** (k - 1)

    def test_cycle_always_two(self):
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        for k in (1, 3, 6):
            assert nonreturning_count(c5, k).average == 2

    def test_path_k2(self):
        wc = nonreturning_count(path3(), 2)
        assert (wc.total, wc.average) == (2, Fraction(2, 3))


class TestPathCount:
    def test_triangle(self):
        assert path_count(triangle(), 2).total == 6

    def test_path3(self):
        wc = path_count(path3(), 2)
        assert (wc.total, wc.average) == (2, Fraction(2, 3))

    def test_heawood_unique_growth(self, heawood):
        assert path_count(heawood, 3).total == 14 * 3 * 2 * 2

    @given(st.integers(0, 4))
    @settings(max_examples=10, deadline=None)
    def test_paths_at_most_walks(self, ell):
        for g in walks_corpus(10, 17):
            assert path_count(g, ell).total <= walk_count(g, ell).total


class TestBlakleyRoy:
    def test_regular_equality(self, heawood):
        rep = check_blakley_roy(heawood, 4)
        assert rep.holds and rep.equality

    def test_star(self):
        rep = check_blakley_roy(star(), 2)
        assert rep.lhs == 3 and rep.rhs == Fraction(9, 4) and rep.holds

    def test_edgeless(self):
        rep = check_blakley_roy(Graph(4), 3)
        assert rep.holds and rep.lhs == 0

    def test_corpus_never_violated(self):
        for g in walks_corpus(120, 23):
            for k in (1, 2, 3, 6):
                assert check_blakley_roy(g, k).holds


class TestGodsil:
    def test_equal_exponents(self):
        rep = check_godsil(star(), 2, 2)
        assert rep.holds and rep.equality

    def test_star_2_1(self):
        assert check_godsil(star(), 2, 1).holds

    def test_rejects_odd_r(self):
        with pytest.raises(ValueError):
            check_godsil(star(), 3, 1)

    def test_corpus_never_violated(self):
        for g in walks_corpus(80, 29):
            for r, s in ((2, 1), (4, 2), (4, 3), (6, 1), (6, 5)):
                assert check_godsil(g, r, s).holds


class TestHoory:
    def test_heawood_equality(self, heawood):
        rep = check_hoory_bipartite(heawood, 1)
        assert rep.nu == 12
        assert rep.biregular_bound == 12
        assert abs(rep.product_bound - 12) < 1e-9
        assert rep.equality

    def test_star_degenerate(self):
        g = BipartiteGraph(4, [(0, 1), (0, 2), (0, 3)], [0, 1, 1, 1])
        rep = check_hoory_bipartite(g, 1)
        assert rep.biregular_bound == 0
        assert rep.holds_product and rep.holds_biregular

    def test_empty_part(self):
        with pytest.raises(EmptyPart):
            check_hoory_bipartite(BipartiteGraph(2, [], [0, 0]), 1)

    def test_corpus(self):
        for g in bipartite_corpus(25, 31):
            for t in (1, 2):
                rep = check_hoory_bipartite(g, t)
                assert rep.holds_product and rep.holds_biregular


class TestClosedWalkBound:
    def test_heawood(self, heawood):
        rep = check_closed_walk_bound(heawood, 2)
        assert rep.lhs == 111 and rep.rhs == 7 * 9 + 12**3 and rep.holds

    def test_tutte_coxeter(self, tutte_coxeter):
        rep = check_closed_walk_bound(tutte_coxeter, 3)
        assert rep.holds

    def test_edgeless(self):
        rep = check_closed_walk_bound(BipartiteGraph(4, [], [0, 0, 1, 1]), 2)
        assert rep.holds and rep.lhs == 0 == rep.rhs

    def test_girth_guard(self, heawood):
        with pytest.raises(GirthTooSmall):
            check_closed_walk_bound(heawood, 3)

    def test_negative_ell_rejected(self, heawood):
        """ell is checked before the walk count, whose message names k."""
        with pytest.raises(ValueError, match="ell must be >= 1"):
            check_closed_walk_bound(heawood, -1)


class TestPathLowerBound:
    def test_heawood(self, heawood):
        rep = check_path_lower_bound(heawood, 3)
        assert rep.lhs == 12 and rep.rhs == 27 - 9 * 9 and rep.holds

    def test_edgeless(self):
        rep = check_path_lower_bound(Graph(3), 2)
        assert rep.holds

    def test_k4(self):
        rep = check_path_lower_bound(
            Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]), 2
        )
        assert rep.lhs == 6 and rep.holds

    def test_corpus_never_violated(self):
        for g in walks_corpus(80, 37):
            for ell in (2, 3):
                assert check_path_lower_bound(g, ell).holds


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        walk_count(Graph(0), 1)


def test_budget_errors_name_instance_and_limit():
    g = star(4)
    with pytest.raises(BudgetExceeded, match="length 2 on a graph with 5 "
                                             "vertices .* budget of 3 path"):
        path_count(g, 2, budget=3)
    with pytest.raises(BudgetExceeded, match="length 2 from vertex 1 on a graph "
                                             "with 5 vertices .* budget of 3 path"):
        paths_from_vertex(g, 1, 2, budget=3)


def _reference_path_dfs(g, starts, ell):
    """Reference: the path DFS as it was before its last levels were
    counted in bulk. Every node, leaves included, is stacked and popped.
    Returns (paths, nodes) over all the starts."""
    paths = nodes = 0
    for start in starts:
        stack = [(start, 1 << start, 0)]
        while stack:
            v, visited, depth = stack.pop()
            nodes += 1
            if depth == ell:
                paths += 1
                continue
            for w in g.adj[v]:
                if not (visited >> w) & 1:
                    stack.append((w, visited | (1 << w), depth + 1))
    return paths, nodes


def _boundary_graphs(heawood):
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    return [heawood, k4, star(4), path3(), Graph(3)] + walks_corpus(8, 3)


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_path_budget_boundary_matches_reference_dfs(ell, heawood):
    """A budget of exactly the reference DFS's node count passes with the
    same count, and one node less raises."""
    for g in _boundary_graphs(heawood):
        paths, nodes = _reference_path_dfs(g, range(g.n), ell)
        assert path_count(g, ell, budget=nodes).total == paths
        with pytest.raises(BudgetExceeded):
            path_count(g, ell, budget=nodes - 1)
        assert paths_from_each_vertex(g, ell, budget=nodes) == [
            _reference_path_dfs(g, [v], ell)[0] for v in range(g.n)]
        with pytest.raises(BudgetExceeded):
            paths_from_each_vertex(g, ell, budget=nodes - 1)
        start = g.n - 1
        paths, nodes = _reference_path_dfs(g, [start], ell)
        assert paths_from_vertex(g, start, ell, budget=nodes) == paths
        with pytest.raises(BudgetExceeded):
            paths_from_vertex(g, start, ell, budget=nodes - 1)


@pytest.mark.parametrize("start", [3, -1])
def test_paths_from_vertex_rejects_a_start_outside_the_graph(start):
    for ell in (0, 2):
        with pytest.raises(ValueError, match=f"start {start} .* n = 3"):
            paths_from_vertex(path3(), start, ell)


def test_closed_walks_match_trace_oracle_for_odd_and_even_k(heawood):
    for g in [triangle(), star(), heawood] + walks_corpus(10, 43):
        if g.n > 14:
            continue
        for k in range(1, 8):
            assert closed_walk_count(g, k).total == matrix_power_trace(g, k)


def test_bounds_from_one_walk_sequence_equal_the_checks():
    """What the walks suite decides from one walk sequence per graph is
    what check_blakley_roy and check_godsil report."""
    for g in walks_corpus(40, 19) + [star(), path3(), Graph(4)]:
        totals = walk_totals(g, 6)
        if g.n <= 12:
            assert totals == [matrix_power_total(g, k) for k in range(7)]
        for k in range(1, 7):
            assert (check_blakley_roy(g, k, totals)
                    == check_blakley_roy(g, k))
        for r in (2, 4, 6):
            for s in range(1, r + 1):
                assert (check_godsil(g, r, s, totals)
                        == check_godsil(g, r, s))
