import math

import pytest

from girthlab.corpus import c4_free_corpus
from girthlab.errors import BudgetExceeded, EpsilonOutOfRange
from girthlab.geometry import incidence_graph, pg2_incidence, polarity_graph
from girthlab.graph import Graph, contains_cycle, is_family_free
from girthlab.rng import XorShift64Star
from girthlab.search import FamilySpec
from girthlab.stability import (
    best_root,
    check_degree_outlier_bound,
    extract_bipartite,
    high_degree_edge_fraction,
    truncate_degrees,
)
from girthlab.verify import _constructed_set
from girthlab.walks import FLOAT_SLACK, BoundReport


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestTruncate:
    def test_noop_above_max_degree(self, heawood):
        g, removed = truncate_degrees(heawood, 3)
        assert removed == 0 and g.m == heawood.m

    def test_star_center_removed(self):
        g, removed = truncate_degrees(star(5), 2)
        assert removed == 5 and g.m == 0

    def test_polarity_q5_untouched_at_q_plus_one(self):
        g = polarity_graph(5)
        out, removed = truncate_degrees(g, 6)
        assert removed == 0 and out.m == g.m

    def test_idempotent(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (4, 5)])
        once, removed1 = truncate_degrees(g, 2)
        twice, removed2 = truncate_degrees(once, 2)
        assert removed2 == 0 and once == twice


class TestBestRoot:
    def test_vertex_transitive_ties_to_zero(self, heawood):
        from girthlab.walks import paths_from_vertex

        v, count = best_root(heawood, 2)
        assert v == 0
        assert all(
            paths_from_vertex(heawood, u, 3) == count
            for u in range(heawood.n)
        )

    def test_path_three(self):
        g = Graph(3, [(0, 1), (1, 2)])
        v, count = best_root(g, 1)
        assert (v, count) == (0, 1)

    def test_star(self):
        g = star(4)
        v, count = best_root(g, 1)
        assert v == 1 and count == 3  # each leaf starts leaves-1 paths

    def test_empty_graph_has_no_root(self):
        with pytest.raises(ValueError, match="no vertices"):
            best_root(Graph(0), 2)

    def test_one_budget_covers_all_roots(self):
        """PG(2,3) incidence is 4-regular on 26 vertices, so the paths of
        length 3 from one root take 1 + 4 + 12 + 36 = 53 DFS nodes, and
        those from all roots 26 * 53 = 1378."""
        g = incidence_graph(pg2_incidence(3))
        assert best_root(g, 2) == (0, 36)
        assert best_root(g, 2, budget=26 * 53) == (0, 36)
        for budget in (53, 26 * 53 - 1):
            with pytest.raises(BudgetExceeded,
                               match=f"graph with 26 vertices .* budget of "
                                     f"{budget} path nodes"):
                best_root(g, 2, budget=budget)


class TestExtraction:
    def test_subgraph_inherits_family_freeness(self):
        g = polarity_graph(5)
        rep = extract_bipartite(g, 2)
        assert is_family_free(rep.subgraph, FamilySpec.even_cycles(2))
        assert rep.edges_extracted == rep.subgraph.m

    def test_edges_come_from_input(self):
        g = polarity_graph(4)
        rep = extract_bipartite(g, 2)
        back = rep.subgraph_vertices
        for u, v in rep.subgraph.edges():
            assert g.has_edge(back[u], back[v])

    def test_plane_layer_sizes(self):
        g = incidence_graph(pg2_incidence(4))
        rep = extract_bipartite(g, 2, delta=5)
        assert rep.layer_sizes[0] == 1
        assert rep.layer_sizes[2] == 20  # (q+1)*q below a point vertex
        assert rep.unique_parent_layers

    def test_edge_count_at_most_path_count(self, tutte_coxeter):
        rep = extract_bipartite(tutte_coxeter, 3)
        assert rep.edges_extracted <= rep.path_count_from_root

    def test_edges_inject_into_reaching_paths(self, tutte_coxeter):
        """Each extracted edge lies on at most one root path that reaches
        the outer layer, so the reaching-path count dominates e(H)."""
        ell = 3
        rep = extract_bipartite(tutte_coxeter, ell)
        g = tutte_coxeter  # no truncation happens at this size
        outer = set(
            rep.subgraph_vertices[i]
            for i in range(rep.subgraph.n)
            if rep.subgraph.side[i] == 1
        )
        reaching = 0
        stack = [(rep.root, 1 << rep.root, 0)]
        while stack:
            v, visited, depth = stack.pop()
            if depth == ell + 1:
                reaching += v in outer
                continue
            for w in g.adj[v]:
                if not (visited >> w) & 1:
                    stack.append((w, visited | (1 << w), depth + 1))
        assert rep.edges_extracted <= reaching

    def test_default_delta_formula(self):
        g = polarity_graph(3)
        rep = extract_bipartite(g, 2)
        assert rep.delta == math.ceil(g.n ** (1 / 2 + 1 / 8))


class TestDegreeOutliers:
    def test_eps_range(self, heawood):
        with pytest.raises(EpsilonOutOfRange):
            check_degree_outlier_bound(heawood, range(5), 2.0)
        with pytest.raises(EpsilonOutOfRange):
            high_degree_edge_fraction(heawood, 0.0)

    def test_vertices_outside_graph_rejected(self):
        """Vertices 99..101 of a 4-vertex path are not vertices: they must
        not count in |B|."""
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="outside 0..3"):
            check_degree_outlier_bound(g, [0, 99, 100, 101], 0.5)

    def test_regular_graph_no_outliers(self, heawood):
        rep = high_degree_edge_fraction(heawood, 0.5)
        assert rep.edges_at_sqrt_outliers == 0 and rep.holds_sqrt

    def test_polarity_bound(self):
        for q in (2, 3, 4, 5):
            rep = high_degree_edge_fraction(polarity_graph(q), 0.5)
            assert rep.holds_sqrt

    def test_sampled_sets_on_c4_free_corpus(self):
        rng = XorShift64Star(314)
        for g in c4_free_corpus(10, 2718):
            assert not contains_cycle(g, 4)
            for eps in (0.3, 0.5, 1.0):
                for _ in range(20):
                    B = [v for v in range(g.n) if rng.coin()]
                    if not B:
                        continue
                    assert check_degree_outlier_bound(g, B, eps).holds

    def test_one_pass_count_matches_two_generator_form(self):
        """Over the verify suite's graphs and sampled sets, the one-pass
        count gives the report the two-generator form gave."""
        rng = XorShift64Star(71)
        graphs = list(_constructed_set().values()) + c4_free_corpus(12, 72)
        for g in graphs:
            for eps in (0.3, 0.5, 1.0):
                for _ in range(20):
                    B = rng.sample(range(g.n))
                    assert (check_degree_outlier_bound(g, B, eps)
                            == _two_generator_outlier_bound(g, B, eps))


def _two_generator_outlier_bound(G, B, eps):
    """check_degree_outlier_bound with the count as a generator of
    neighbour counts inside a filtering list comprehension."""
    b_mask = G.mask(B)
    size = b_mask.bit_count()
    threshold = (1 + eps) * math.sqrt(size)
    into_b = [k for k in ((bits & b_mask).bit_count() for bits in G.bits)
              if k >= threshold]
    lhs = sum(into_b)
    rhs = 2 * size / eps
    return BoundReport(
        check="degree-outlier-endpoints",
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + FLOAT_SLACK,
        note=f"|S| = {len(into_b)}, |B| = {size}, eps = {eps}",
    )
