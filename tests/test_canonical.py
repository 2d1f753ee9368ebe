import itertools

from hypothesis import given, settings, strategies as st

from girthlab.canonical import (
    are_isomorphic,
    canonical_graph,
    canonical_key,
    canonical_last_edge,
    last_edge_cells,
)
from girthlab.graph import Graph, relabel


@st.composite
def graph_and_permutation(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(list(range(n))))
    return Graph(n, [e for e, keep in zip(pairs, mask) if keep]), perm


@given(graph_and_permutation())
@settings(max_examples=120, deadline=None)
def test_invariant_under_relabeling(case):
    g, perm = case
    assert canonical_key(g) == canonical_key(relabel(g, perm))


@given(graph_and_permutation())
@settings(max_examples=60, deadline=None)
def test_canonical_graph_is_fixed_point(case):
    g, perm = case
    cg = canonical_graph(g)
    assert canonical_graph(relabel(g, perm)) == cg
    assert canonical_key(cg) == canonical_key(g)


def brute_isomorphic(g, h):
    if (g.n, g.m) != (h.n, h.m):
        return False
    return any(
        all(h.has_edge(p[u], p[v]) for u, v in g.edges())
        for p in itertools.permutations(range(g.n))
    )


def test_exact_on_all_graphs_up_to_four():
    """Canonical keys agree with brute-force isomorphism for every graph on
    at most 4 vertices."""
    graphs = []
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            graphs.append(
                Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            )
    for g in graphs:
        for h in graphs:
            if g.n != h.n:
                continue
            assert (canonical_key(g) == canonical_key(h)) == brute_isomorphic(g, h)


def test_distinguishes_path_from_star():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    s4 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not are_isomorphic(p4, s4)


def test_symmetric_graphs_complete_fast():
    # worst cases for refinement: no splitting at the root
    for g in (
        Graph(12),
        Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)]),
        Graph(12, [(2 * i, 2 * i + 1) for i in range(6)]),
        Graph(8, [(i, 4 + j) for i in range(4) for j in range(4)]),
    ):
        canonical_key(g)


def test_canonical_last_edge_consistency():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    e = canonical_last_edge(g)
    assert g.has_edge(*e)
    # removing it must give the same parent class from every relabeling
    parent_key = canonical_key(g.without_edge(*e))
    for perm in itertools.permutations(range(5)):
        h = relabel(g, perm)
        eh = canonical_last_edge(h)
        assert canonical_key(h.without_edge(*eh)) == parent_key


def test_edgeless_has_no_last_edge():
    assert canonical_last_edge(Graph(4)) is None
    assert last_edge_cells(Graph(4))[1] is None


@given(graph_and_permutation())
@settings(max_examples=150, deadline=None)
def test_last_edge_lies_in_predicted_cells(case):
    """The root refinement, whose cells are ordered by degree, alone names
    the cells of the canonically last edge, and names the same cells after
    relabeling."""
    g, perm = case
    predicted = []
    for h in (g, relabel(g, perm)):
        colors, cells = last_edge_cells(h)
        e = canonical_last_edge(h)
        degrees = h.degrees()
        assert all(degrees[x] <= degrees[y] for x in range(h.n)
                   for y in range(h.n) if colors[x] < colors[y])
        if e is None:
            assert cells is None
        else:
            assert tuple(sorted(colors[x] for x in e)) == cells
        predicted.append(cells)
    assert predicted[0] == predicted[1]
