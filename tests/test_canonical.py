import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from girthlab import canonical
from girthlab.canonical import (
    _NODE_CAP,
    _CanonSearch,
    _twin_classes,
    are_isomorphic,
    canonical_graph,
    canonical_key,
    canonical_labeling,
    canonical_last_edge,
    twin_transpositions,
)
from girthlab.errors import BudgetExceeded
from girthlab.graph import Graph, relabel
from girthlab.search import FamilySpec, _orbit, _TuranSearch
from girthlab.verify import _constructed_set

CONSTRUCTED = _constructed_set()


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
    parent_key = canonical_key(Graph(5, [f for f in g.edges() if f != e]))
    for perm in itertools.permutations(range(5)):
        h = relabel(g, perm)
        eh = canonical_last_edge(h)
        parent = Graph(5, [f for f in h.edges() if f != eh])
        assert canonical_key(parent) == parent_key


def test_edgeless_has_no_last_edge():
    assert canonical_last_edge(Graph(4)) is None


class _UnprunedSearch(_CanonSearch):
    """Reference: the search with automorphism pruning off. It stores no
    automorphism and never jumps back, so it walks the whole twin-pruned
    tree."""

    def _automorphism(self, colors, path, ref_inv, ref_path):
        return None


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def _assert_matches_unpruned(g):
    pruned, unpruned = _CanonSearch(g), _UnprunedSearch(g)
    assert pruned.run() == unpruned.run()
    assert pruned.nodes <= unpruned.nodes
    return pruned


def _is_automorphism(g, gamma):
    return sorted(gamma) == list(range(g.n)) and all(
        g.has_edge(gamma[u], gamma[v]) for u, v in g.edges())


# The unpruned tree of the PG(2,4) and PG(2,5) incidence graphs and of the
# W(3,3) incidence graph is too large to walk in a test.
UNPRUNED_FEASIBLE = [name for name, g in CONSTRUCTED.items() if g.n <= 31]

# sha256 of repr(_UnprunedSearch(g).run()), which walks 694,093 tree nodes
# on the PG(2,4) incidence graph and 158,801 on the W(3,3) one (5.4 and 3.8
# minutes on one core of a 2-vCPU x86-64 VM under CPython 3.11).
UNPRUNED_DIGESTS = {
    "plane-incidence-q4":
        "d925c7af8ecb7fb59c1ce4e9f1f33ff19344dd555fb2f6995999b26dc4eccd50",
    "quadrangle-incidence-q3":
        "a48197cd46c0765cd3f537b50746139a4f0f4fcffd46696c44a82f393cd6dc39",
}


@pytest.mark.parametrize("name", UNPRUNED_FEASIBLE)
def test_pruning_matches_unpruned_search_on_constructions(name):
    """Pruning keeps (encoding, perm) byte-identical on each construction and
    on a seeded relabeling of it, and every automorphism it stores is one."""
    for g in (CONSTRUCTED[name], _shuffled(CONSTRUCTED[name], 7)):
        search = _assert_matches_unpruned(g)
        assert search.generators
        assert all(_is_automorphism(g, gamma) for gamma in search.generators)


@pytest.mark.parametrize("name", list(UNPRUNED_DIGESTS))
def test_pruning_matches_recorded_unpruned_search(name):
    result = _CanonSearch(CONSTRUCTED[name]).run()
    assert hashlib.sha256(repr(result).encode()).hexdigest() == \
        UNPRUNED_DIGESTS[name]


def _circulant(n, steps, offset=0):
    chords = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in steps}
    return [(u + offset, v + offset) for u, v in chords if u != v]


def _complement(g):
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not g.has_edge(u, v)])


@st.composite
def small_graph(draw, max_n=10):
    """A graph on at most max_n vertices whose automorphisms often go beyond
    twins: random, a disjoint union of circulants, or disjoint copies of a
    random graph; any of them possibly complemented."""
    kind = draw(st.sampled_from(["random", "circulants", "copies"]))
    if kind == "circulants":
        sizes = draw(st.lists(st.integers(min_value=1, max_value=max_n),
                              min_size=1, max_size=3)
                     .filter(lambda xs: sum(xs) <= max_n))
        edges, n = [], 0
        for size in sizes:
            steps = draw(st.sets(st.integers(min_value=1,
                                             max_value=max(1, size // 2))))
            edges += _circulant(size, steps, n)
            n += size
    else:
        copies = 1 if kind == "random" else draw(st.integers(min_value=2,
                                                             max_value=4))
        m = draw(st.integers(min_value=1, max_value=max_n // copies))
        pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        base = [e for e, keep in zip(pairs, mask) if keep]
        edges = [(u + c * m, v + c * m) for c in range(copies) for u, v in base]
        n = m * copies
    g = Graph(n, sorted(edges))
    return _complement(g) if draw(st.booleans()) else g


@given(small_graph(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_pruning_matches_unpruned_search_on_small_graphs(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    _assert_matches_unpruned(g)
    _assert_matches_unpruned(relabel(g, perm))


def test_pruning_matches_unpruned_search_on_unions_of_circulants():
    """Relabeled disjoint unions of circulants on up to 16 vertices, half of
    them complemented. Their trees part at several depths, and jumping back
    one level too far changes the result on some of them."""
    rng = random.Random(0)
    for _ in range(200):
        edges, n = [], 0
        while True:
            size = rng.randint(3, 9)
            if n + size > 16:
                break
            steps = {d for d in range(1, size // 2 + 1) if rng.random() < 0.5}
            edges += _circulant(size, steps, n)
            n += size
        g = Graph(n, sorted(edges))
        if rng.random() < 0.5:
            g = _complement(g)
        perm = list(range(n))
        rng.shuffle(perm)
        _assert_matches_unpruned(relabel(g, perm))


@pytest.mark.parametrize("name", list(CONSTRUCTED))
def test_canonical_graph_invariant_under_relabeling_of_constructions(name):
    g = CONSTRUCTED[name]
    cg = canonical_graph(g)
    assert canonical_key(cg) == canonical_key(g)
    for seed in range(3):
        assert canonical_graph(_shuffled(g, seed)) == cg


def test_pg23_incidence_tree_is_small():
    search = _CanonSearch(CONSTRUCTED["plane-incidence-q3"])
    search.run()
    assert search.nodes <= 1000  # 17,915 without automorphism pruning


def _exposed_automorphisms(g):
    """The automorphisms canonical_labeling stores, then the twin
    transpositions."""
    return canonical_labeling(g)[2] + twin_transpositions(g)


def _vertex_orbits(g, generators):
    return {frozenset(mask.bit_length() - 1
                      for mask in _orbit(1 << v, generators))
            for v in range(g.n)}


@pytest.mark.parametrize("name", list(CONSTRUCTED))
def test_exposed_automorphisms_preserve_bits_on_constructions(name):
    for g in [CONSTRUCTED[name]] + [_shuffled(CONSTRUCTED[name], seed)
                                    for seed in range(3)]:
        generators = _exposed_automorphisms(g)
        assert generators
        assert all(_is_automorphism(g, gamma) for gamma in generators)


def test_exposed_automorphisms_preserve_bits_on_turan_levels():
    """Every class the Turán search keeps for ex(10; {C4, C5}), with the
    automorphisms it stored for the class and the class's twin
    transpositions. The levels, 0 to 9, hold graphs with twins and
    without."""
    run = _TuranSearch(10, FamilySpec.of(4, 5), 10**9, None)
    run.run()
    classes = [value for level in run.levels for value in level.values()]
    assert len(classes) > 100
    assert any(twin_transpositions(g) for g, _ in classes)
    for g, automorphisms in classes:
        assert automorphisms == canonical_labeling(g)[2]
        for gamma in automorphisms + twin_transpositions(g):
            assert _is_automorphism(g, gamma)


def test_twin_transpositions_generate_each_twin_class():
    """The empty graph, whose automorphisms the canonical search never
    stores, and K3 plus a pendant path: each twin class is one orbit."""
    empty = Graph(6)
    assert canonical_labeling(empty)[2] == []
    assert len(_vertex_orbits(empty, twin_transpositions(empty))) == 1
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    assert _vertex_orbits(g, twin_transpositions(g)) == {
        frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset({4})}


# The incidence graphs of PG(2,q) and of GQ(2,2) (Tutte–Coxeter) have a
# point-line duality; W(3,3) is not self-dual, so its points and lines stay
# apart.
INCIDENCE_ORBITS = {"plane-incidence-q2": 1, "plane-incidence-q3": 1,
                    "plane-incidence-q4": 1, "plane-incidence-q5": 1,
                    "quadrangle-incidence-q2": 1,
                    "quadrangle-incidence-q3": 2}


@pytest.mark.parametrize("name", list(INCIDENCE_ORBITS))
def test_exposed_automorphisms_give_the_vertex_orbits(name):
    g = CONSTRUCTED[name]
    assert len(_vertex_orbits(g, _exposed_automorphisms(g))) == \
        INCIDENCE_ORBITS[name]


def test_node_cap_message_names_graph_and_cap(monkeypatch):
    monkeypatch.setattr(canonical, "_NODE_CAP", 5)
    with pytest.raises(BudgetExceeded, match="14 vertices .* cap of 5 tree nodes"):
        canonical_key(CONSTRUCTED["plane-incidence-q2"])


# The colour-list refinement and search that the ordered partitions
# replaced, kept verbatim as the oracle they must match: the module
# docstring argues that the two give the same tree, leaf for leaf.


def _refine(n: int, bits: tuple, colors: list) -> list:
    """Stable iterated refinement by multisets of neighbor colors.

    Deterministic and label-invariant: new colors are assigned by sorting
    the (old color, sorted neighbor colors) keys.
    """
    ncolors = len(set(colors))
    while True:
        keys = []
        for v in range(n):
            mask = bits[v]
            neigh = []
            while mask:
                low = mask & -mask
                neigh.append(colors[low.bit_length() - 1])
                mask ^= low
            neigh.sort()
            keys.append((colors[v], tuple(neigh)))
        order = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [order[key] for key in keys]
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def _twin_representatives(candidates: list, bits: tuple) -> list:
    """Reference: the candidates with no twin earlier in the list, by the
    pairwise rule (equal neighbourhoods outside the pair)."""
    reps = []
    for v in candidates:
        vb = bits[v]
        is_dup = False
        for r in reps:
            mask = ~((1 << v) | (1 << r))
            if (vb & mask) == (bits[r] & mask):
                is_dup = True
                break
        if not is_dup:
            reps.append(v)
    return reps


@given(small_graph(max_n=12), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_twin_classes_pick_the_pairwise_representatives(g, rnd):
    """The twin classes, computed once per graph, keep the candidates that
    the pairwise rule keeps, for any candidate list in any order."""
    twin = _twin_classes(g.bits)
    candidates = [v for v in range(g.n) if rnd.random() < 0.7]
    rnd.shuffle(candidates)
    reps = {}
    for v in candidates:
        reps.setdefault(twin[v], v)
    assert list(reps.values()) == _twin_representatives(candidates, g.bits)


class _ColourListSearch(_CanonSearch):
    """Reference: the search on colour lists, refined by the loop above."""

    def run(self):
        if self.n == 0:
            return 0, ()
        self._descend(_refine(self.n, self.bits, [0] * self.n), ())
        return self.best, self.best_perm

    def _descend(self, colors, path):
        """Search below the node reached by individualizing ``path`` in
        order. Returns the depth of the node the search jumps back to, or
        None to go on with the next sibling."""
        self.nodes += 1
        if self.nodes > _NODE_CAP:
            raise BudgetExceeded(
                f"canonical search of a graph on {self.n} vertices exceeded "
                f"its cap of {_NODE_CAP} tree nodes")
        n = self.n
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next((c for c in range(n) if counts[c] >= 2), None)
        if target is None:
            return self._leaf(colors, path)
        depth = len(path)
        candidates = [v for v in range(n) if colors[v] == target]
        explored = []
        orbit = None
        known = 0
        for v in _twin_representatives(candidates, self.bits):
            if explored and self.generators:
                if known != len(self.generators):
                    known = len(self.generators)
                    orbit = self._orbits(path)
                if any(orbit[u] == orbit[v] for u in explored):
                    continue
            explored.append(v)
            split = [2 * c for c in colors]
            split[v] -= 1
            order = {c: i for i, c in enumerate(sorted(set(split)))}
            jump = self._descend(_refine(n, self.bits, [order[c] for c in split]),
                                 path + (v,))
            if jump is not None and jump < depth:
                return jump
        return None

    def _leaf(self, colors, path):
        n = self.n
        inv = [0] * n
        for v in range(n):
            inv[colors[v]] = v
        bits = self.bits
        enc = 0
        for i in range(n):
            vi = inv[i]
            for j in range(i + 1, n):
                enc = (enc << 1) | ((bits[vi] >> inv[j]) & 1)
        earlier = self.leaves.get(enc)
        if earlier is not None:
            return self._automorphism(colors, path, *earlier)
        self.leaves[enc] = (inv, path)
        if self.best is None or enc < self.best:
            self.best = enc
            self.best_perm = tuple(colors)
        return None


_partition_refine = canonical._refine


def _checked_refine(bits, cells, split=-1, touched=-1):
    """The partition refinement, asserted equal to the colour-list loop on
    the colouring of the same partition."""
    refined = _partition_refine(bits, cells, split, touched)
    colors = [0] * len(bits)
    for i, cell in enumerate(cells):
        for v in cell:
            colors[v] = i
    expected = [[] for _ in range(len(bits))]
    for v, c in enumerate(_refine(len(bits), bits, colors)):
        expected[c].append(v)
    assert refined == [cell for cell in expected if cell]
    return refined


def _assert_matches_colour_list(g):
    """The partition search, with every refinement it runs checked against
    the loop, gives the result, the automorphisms and the tree-node count
    of the colour-list search."""
    with mock.patch.object(canonical, "_refine", _checked_refine):
        search = _CanonSearch(g)
        result = search.run()
    reference = _ColourListSearch(g)
    assert result == reference.run()
    assert search.generators == reference.generators
    assert search.nodes == reference.nodes


@given(small_graph(max_n=12), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_partitions_match_colour_list_on_small_graphs(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    _assert_matches_colour_list(relabel(g, perm))


def test_partitions_match_colour_list_on_turan_levels():
    run = _TuranSearch(10, FamilySpec.of(4, 5), 10**9, None)
    run.run()
    for level in run.levels:
        for g, _ in level.values():
            _assert_matches_colour_list(g)


@pytest.mark.parametrize("name", list(CONSTRUCTED))
def test_partitions_match_colour_list_on_constructions(name):
    for seed in range(3):
        _assert_matches_colour_list(_shuffled(CONSTRUCTED[name], seed))
