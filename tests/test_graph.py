import itertools
import math

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from girthlab.corpus import dense_corpus, walks_corpus
from girthlab.errors import BudgetExceeded, NotBipartite
from girthlab.geometry import (augment_distance_two, gq_w3, incidence_graph,
                               polarity_graph)
from girthlab.graph import (
    BipartiteGraph,
    _greedy_clique,
    Graph,
    bipartition,
    chromatic_number,
    contains_cycle,
    cycle_spectrum,
    dense_layer_radius,
    diameter,
    e_between,
    girth,
    induced_subgraph,
    is_bipartite,
    is_family_free,
    max_bipartite_local,
    neighborhood_layers,
    odd_cycle_run,
    peel_min_degree,
    relabel,
)
from girthlab.search import FamilySpec
from girthlab.verify import _constructed_set

INF = math.inf


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, mask) if keep])


class TestGraphBasics:
    def test_dedupe_and_symmetry(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.adj[0] == (1,) and g.adj[1] == (0,)

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_bipartite_validation(self):
        with pytest.raises(NotBipartite):
            BipartiteGraph(2, [(0, 1)], [0, 0])
        b = BipartiteGraph(3, [(0, 2), (1, 2)], [0, 0, 1])
        assert b.part_x == (0, 1) and b.part_y == (2,)
        # the parts are computed once, not rebuilt on every access
        assert b.part_x is b.part_x and b.part_y is b.part_y


class TestLayers:
    def test_star_center(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        layers = neighborhood_layers(g, 0, 2)
        assert layers[0] == (0,)
        assert layers[1] == (1, 2, 3, 4)
        assert layers[2] == ()

    def test_heawood_layer_profile(self, heawood):
        for v in range(heawood.n):
            sizes = [len(x) for x in neighborhood_layers(heawood, v, 3)]
            assert sizes == [1, 3, 6, 4]

    def test_disconnected(self):
        g = Graph(4, [(0, 1)])
        layers = neighborhood_layers(g, 3, 3)
        assert [len(x) for x in layers] == [1, 0, 0, 0]

    @given(graphs(max_n=9), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_layers_partition_component(self, g, v):
        v = v % g.n
        layers = neighborhood_layers(g, v, g.n)
        flat = [u for layer in layers for u in layer]
        assert len(flat) == len(set(flat))
        # consecutive-layer edges only
        index = {u: r for r, layer in enumerate(layers) for u in layer}
        for u, w in g.edges():
            if u in index and w in index:
                assert abs(index[u] - index[w]) <= 1


class TestGirthAndCycles:
    def test_known_girths(self, heawood, tutte_coxeter):
        assert girth(heawood) == 6
        assert girth(tutte_coxeter) == 8
        assert girth(path_graph(5)) == INF
        assert girth(cycle_graph(5)) == 5
        assert girth(complete_graph(4)) == 3

    def test_girth_matches_spectrum_minimum(self):
        for g in [cycle_graph(7), complete_graph(5), Graph(6, [(0, 1)]),
                  Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6),
                            (6, 3)])]:
            spec = cycle_spectrum(g, g.n)
            expected = min(spec) if spec else INF
            assert girth(g) == expected

    def test_k4_spectrum(self):
        assert cycle_spectrum(complete_graph(4), 4) == frozenset({3, 4})

    def test_heawood_spectrum(self, heawood):
        assert cycle_spectrum(heawood, 14) == frozenset({6, 8, 10, 12, 14})

    def test_contains_cycle(self, heawood):
        assert contains_cycle(complete_graph(4), 3)
        assert not contains_cycle(heawood, 5)
        assert contains_cycle(heawood, 6)

    def test_family_free(self, heawood, tutte_coxeter):
        assert is_family_free(heawood, FamilySpec.even_cycles(2))
        assert not is_family_free(heawood, FamilySpec.even_cycles(3))
        assert is_family_free(tutte_coxeter,
                              FamilySpec.even_cycles_plus_odd(3, 7))
        assert is_family_free(path_graph(6),
                              FamilySpec.even_cycles_plus_odd(5, 3))

    def test_odd_cycle_run(self):
        # wheel-like dense graph: odd cycles of many lengths
        g = complete_graph(9)
        assert odd_cycle_run(g, 3, 5) == 1
        assert odd_cycle_run(path_graph(6), 3, 5) is None

    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_against_permutation_oracle(self, g):
        """Exhaustive oracle: cycles = closed vertex tours of distinct
        vertices with all consecutive adjacencies."""
        expected = set()
        for k in range(3, g.n + 1):
            found = False
            for combo in itertools.permutations(range(g.n), k):
                if combo[0] != min(combo):
                    continue
                if all(
                    g.has_edge(combo[i], combo[(i + 1) % k]) for i in range(k)
                ):
                    found = True
                    break
            if found:
                expected.add(k)
        assert set(cycle_spectrum(g, max(3, g.n))) == expected
        assert girth(g) == min(expected, default=INF)


def reference_layer_radius(g, rmax, min_average):
    """Reference for dense_layer_radius: scan every vertex's layers 1..rmax
    with set membership and exact rational averages."""
    min_r = None
    for v in range(g.n):
        layers = neighborhood_layers(g, v, rmax)
        for r in range(1, rmax + 1):
            layer = layers[r]
            if len(layer) < 2:
                continue
            members = set(layer)
            deg_sum = sum(
                sum(1 for w in g.adj[u] if w in members) for u in layer
            )
            if Fraction(deg_sum, len(layer)) >= min_average:
                min_r = r if min_r is None else min(min_r, r)
        if min_r == 1:
            break
    return min_r


class TestDenseLayerRadius:
    @pytest.mark.parametrize("seed", [16, 51, 1729])
    @pytest.mark.parametrize("s", [5, 7])
    def test_matches_reference_on_dense_corpus(self, seed, s):
        radii = [dense_layer_radius(g, 3, 2 * s - 4)
                 for g in dense_corpus(60, seed)]
        assert radii == [reference_layer_radius(g, 3, 2 * s - 4)
                         for g in dense_corpus(60, seed)]
        assert any(r is not None for r in radii)

    @given(graphs(max_n=10), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_small_graphs(self, g, rmax, min_average):
        assert dense_layer_radius(g, rmax, min_average) == (
            reference_layer_radius(g, rmax, min_average))

    def test_complete_graph_qualifies_at_radius_one(self):
        # N_1(v) of K_9 is K_8: average degree 7
        assert dense_layer_radius(complete_graph(9), 3, 7) == 1
        assert dense_layer_radius(complete_graph(9), 3, 8) is None
        # a path's layers hold two vertices 2r apart, so no inner edges
        assert dense_layer_radius(path_graph(6), 3, 0) == 1
        assert dense_layer_radius(path_graph(6), 3, 1) is None


class TestBipartition:
    def test_even_cycle(self):
        assert is_bipartite(cycle_graph(6))
        assert not is_bipartite(cycle_graph(5))

    def test_bipartition_colors(self):
        side = bipartition(path_graph(4))
        assert side == (0, 1, 0, 1)


class TestMaxBipartiteLocal:
    def test_bipartite_input_is_fixed_point(self, heawood):
        h = max_bipartite_local(heawood)
        assert h.m == heawood.m

    def test_triangle(self):
        h = max_bipartite_local(complete_graph(3))
        assert h.m == 2

    def test_half_degree_guarantee_polarity(self):
        g = polarity_graph(3)
        h = max_bipartite_local(g)
        assert h.m >= g.m / 2
        for v in range(g.n):
            assert h.degree(v) >= g.degree(v) / 2

    @given(graphs(max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_half_degree_guarantee_random(self, g):
        h = max_bipartite_local(g)
        for v in range(g.n):
            assert 2 * h.degree(v) >= g.degree(v)


class TestPeel:
    def test_no_isolated_threshold_zero(self, heawood):
        res = peel_min_degree(heawood, 0)
        assert res.core.m == heawood.m and res.trace == ()

    def test_path_cascades(self):
        res = peel_min_degree(path_graph(4), 1)
        assert res.core.n == 0
        assert len(res.trace) == 4

    def test_regular_untouched(self, heawood):
        res = peel_min_degree(heawood, 2)
        assert res.core.n == 14

    @given(graphs(max_n=10), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_replaying_trace_reproduces_core(self, g, threshold):
        res = peel_min_degree(g, threshold)
        assert res.core.min_degree() > threshold or res.core.n == 0
        alive = set(range(g.n))
        for v in res.trace:
            deg = sum(1 for u in g.adj[v] if u in alive)
            assert deg <= threshold
            alive.discard(v)
        assert tuple(sorted(alive)) == res.kept


def _dsatur_greedy(g):
    """Reference: the DSATUR greedy colour count."""
    n = g.n
    color = [-1] * n
    sat = [0] * n  # bitmask of neighbor colors
    for _ in range(n):
        v = max(
            (u for u in range(n) if color[u] == -1),
            key=lambda u: (sat[u].bit_count(), g.degree(u), -u),
        )
        c = 0
        while (sat[v] >> c) & 1:
            c += 1
        color[v] = c
        for w in g.adj[v]:
            sat[w] |= 1 << c
    return max(color) + 1 if n else 0


def _greedy_then_branch_and_bound(g):
    """Reference: the chromatic number by a greedy upper bound, then a
    branch and bound started from it."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    if is_bipartite(g):
        return 2
    lower = max(len(_greedy_clique(g)), 3)
    best = _dsatur_greedy(g)
    if lower == best:
        return lower
    n = g.n
    color = [-1] * n
    neighbor_colors = [0] * n

    def bnb(colored, used):
        nonlocal best
        if used >= best:
            return
        if colored == n:
            best = used
            return
        v = max(
            (u for u in range(n) if color[u] == -1),
            key=lambda u: (neighbor_colors[u].bit_count(), g.degree(u), -u),
        )
        for c in range(min(used + 1, best - 1)):
            if (neighbor_colors[v] >> c) & 1:
                continue
            color[v] = c
            touched = []
            for w in g.adj[v]:
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


class TestChromatic:
    def brute_force_colorable(self, g, k):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return True
        return False

    def test_bipartite_is_two(self, heawood):
        assert chromatic_number(heawood) == 2

    def test_odd_cycle_three(self):
        assert chromatic_number(cycle_graph(7)) == 3

    def test_polarity_two_matches_brute_force(self):
        g = polarity_graph(2)
        chi = chromatic_number(g)
        assert not self.brute_force_colorable(g, chi - 1)
        assert self.brute_force_colorable(g, chi)

    def test_matches_greedy_then_branch_and_bound(self):
        """Starting the search unbounded, so that its first descent is the
        greedy colouring, gives the chromatic number that a separate greedy
        pass and a search bounded by it give."""
        cases = ([polarity_graph(q) for q in (2, 3, 4, 5)]
                 + dense_corpus(60, 51) + walks_corpus(200, 42))
        for g in cases:
            assert chromatic_number(g) == _greedy_then_branch_and_bound(g)

    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, g):
        chi = chromatic_number(g)
        assert self.brute_force_colorable(g, chi)
        if chi > 1:
            assert not self.brute_force_colorable(g, chi - 1)


class TestEBetween:
    def test_parts_give_edge_count(self, heawood):
        assert e_between(heawood, heawood.part_x, heawood.part_y) == heawood.m

    def test_whole_vertex_set_doubles(self, heawood):
        v = range(heawood.n)
        assert e_between(heawood, v, v) == 2 * heawood.m

    def test_disjoint_nonadjacent(self):
        g = Graph(4, [(0, 1)])
        assert e_between(g, [2], [3]) == 0

    def test_negative_vertex_rejected(self):
        """-1 would index the last vertex and count the edge 3-2."""
        with pytest.raises(ValueError, match="outside 0..3"):
            e_between(path_graph(4), [-1], [2])

    def test_vertex_beyond_n_rejected(self):
        with pytest.raises(ValueError, match="outside 0..3"):
            e_between(path_graph(4), [7], [0])

    @given(graphs(max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_self_pairs_double_induced_edges(self, g):
        S = [v for v in range(g.n) if v % 2 == 0]
        induced = sum(1 for u, v in g.edges() if u in S and v in S)
        assert e_between(g, S, S) == 2 * induced


def test_diameter(heawood, tutte_coxeter):
    assert diameter(heawood) == 3
    assert diameter(tutte_coxeter) == 4
    assert diameter(Graph(3, [(0, 1)])) == INF


def test_budget_errors_name_instance_and_limit(grotzsch):
    k5 = Graph(5, list(itertools.combinations(range(5), 2)))
    with pytest.raises(BudgetExceeded, match="up to length 5 on a graph with 5 "
                                             "vertices .* budget of 2 path"):
        cycle_spectrum(k5, 5, budget=2)
    with pytest.raises(BudgetExceeded, match="graph with 11 vertices .* budget "
                                             "of 1 branch-and-bound nodes"):
        chromatic_number(grotzsch, budget=1)


# Path expansions of searches that find nothing, so each runs to the end.
# Budgets are counted in expansions, so these counts must not drift.
_EXHAUSTIVE_SEARCHES = {
    "tutte-coxeter C4": (lambda: incidence_graph(gq_w3(2)), 4, 81),
    "tutte-coxeter C6": (lambda: incidence_graph(gq_w3(2)), 6, 154),
    "W(3,3) incidence C6": (lambda: incidence_graph(gq_w3(3)), 6, 1718),
    "polarity q=5 C4": (lambda: polarity_graph(5), 4, 1020),
}


@pytest.mark.parametrize("name", sorted(_EXHAUSTIVE_SEARCHES))
def test_exhaustive_search_expansion_counts(name):
    make, k, count = _EXHAUSTIVE_SEARCHES[name]
    g = make()
    assert not contains_cycle(g, k, budget=count)
    with pytest.raises(BudgetExceeded):
        contains_cycle(g, k, budget=count - 1)


def test_family_free_lengths_share_one_budget(tutte_coxeter):
    # the C4 and C6 searches expand 81 + 154 paths
    family = FamilySpec.even_cycles(3)
    assert is_family_free(tutte_coxeter, family, budget=235)
    with pytest.raises(BudgetExceeded, match="budget of 234 path"):
        is_family_free(tutte_coxeter, family, budget=234)


def _nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _nx_spectrum(g, lmax):
    return {len(c) for c in nx.simple_cycles(_nx(g), length_bound=lmax)}


@pytest.mark.parametrize("name", sorted(_constructed_set()))
def test_distances_match_networkx_on_constructed_graphs(name):
    g = _constructed_set()[name]
    h = _nx(g)
    assert girth(g) == nx.girth(h)
    dist = {v: nx.single_source_shortest_path_length(h, v) for v in range(g.n)}
    assert diameter(g) == max(max(d.values()) for d in dist.values())
    for v in range(g.n):
        layers = neighborhood_layers(g, v, 3)
        assert layers == [tuple(sorted(u for u, r in dist[v].items()
                                       if r == k)) for k in range(4)]
    side = bipartition(g)
    assert (side is not None) == nx.is_bipartite(h)
    if side is not None:
        for comp in nx.connected_components(h):
            root = min(comp)
            assert all(side[v] == dist[root][v] % 2 for v in comp)


@pytest.mark.parametrize("base", ["quadrangle-incidence-q2",
                                  "quadrangle-incidence-q3",
                                  "plane-incidence-q2"])
def test_augmented_spectrum_matches_networkx(base):
    aug, _ = augment_distance_two(_constructed_set()[base])
    assert cycle_spectrum(aug, 8) == _nx_spectrum(aug, 8)


def test_girth_matches_networkx_on_walks_corpus():
    for g in walks_corpus(120, 42):
        assert girth(g) == nx.girth(_nx(g))


def test_dense_spectrum_matches_networkx():
    # networkx lists every cycle, so keep the length bound small here
    for g in dense_corpus(4, 51):
        assert cycle_spectrum(g, 5) == _nx_spectrum(g, 5)


def test_relabel_rejects_non_permutations():
    """A map that sends two vertices to one would merge edges, and one of
    the wrong length would rename vertices that do not exist."""
    g = Graph(3, [(0, 1), (0, 2)])
    assert relabel(g, [2, 0, 1]) == Graph(3, [(2, 0), (2, 1)])
    for perm in ([1, 0, 0], [0, 1, 2, 3], [0, 1]):
        with pytest.raises(ValueError, match="permutation of the 3 vertices"):
            relabel(g, perm)


def test_induced_subgraph_rejects_non_vertices():
    """A vertex set holding a non-vertex would map a new vertex to a vertex
    that does not exist."""
    g = Graph(3, [(0, 1), (1, 2)])
    assert induced_subgraph(g, [2, 1, 1]) == (Graph(2, [(0, 1)]), (1, 2))
    for vertices in ([0, 99], [-1, 0], [3]):
        with pytest.raises(ValueError, match="outside 0..2"):
            induced_subgraph(g, vertices)
