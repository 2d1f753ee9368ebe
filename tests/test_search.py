"""The extremal searches are cross-checked four independent ways: direct
enumeration over all edge subsets (n <= 7), closed-form and published values
(triangle case, ex(n; {C3, C4}) to n = 14), re-runs under shuffled
exploration order and concurrency, and reference searches without the cuts
and shortcuts of the production searches."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from girthlab import canonical, search
from girthlab.canonical import (
    canonical_graph,
    canonical_key,
    canonical_labeling,
    last_edge_under,
)
from girthlab.errors import BudgetExceeded
from girthlab.formats import graph6_decode, graph6_encode
from girthlab.geometry import gq_w3, incidence_graph
from girthlab.graph import Graph, contains_cycle, is_family_free, relabel
from girthlab.rng import XorShift64Star
from girthlab.search import (
    FamilySpec,
    SearchResult,
    discrepancy_witness,
    polygon_edge_bound,
    polygon_vertex_count,
    solve_polygon_order,
    turan_number,
    verify_upper_bounds,
    zarankiewicz_ab,
    zarankiewicz_number,
)

C4 = FamilySpec.of(4)
C3 = FamilySpec.of(3)
C4C5 = FamilySpec.of(4, 5)
EX_C4C5 = {5: 6, 6: 7, 7: 9, 8: 10, 9: 12}
# Garnick, Kwong & Lazebnik, J. Graph Theory 17 (1993), beyond the reach of
# the reference searches
EX_C3C4 = (0, 1, 2, 3, 5, 6, 8, 10, 12, 15, 16, 18, 21, 23)


def brute_force_extremal(n, lengths):
    """Direct oracle: scan all edge subsets by decreasing size; certify the
    first size with a family-free graph by checking every larger subset
    contains a forbidden cycle. Feasible to n = 7."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    forbidden_masks = []
    for k in lengths:
        if k > n:
            continue
        index = {e: i for i, e in enumerate(pairs)}
        for combo in itertools.permutations(range(n), k):
            if combo[0] != min(combo) or combo[1] > combo[-1]:
                continue
            mask = 0
            for i in range(k):
                u, v = combo[i], combo[(i + 1) % k]
                mask |= 1 << index[(u, v) if u < v else (v, u)]
            forbidden_masks.append(mask)
    forbidden_masks = sorted(set(forbidden_masks))

    def family_free(mask):
        return all(mask & f != f for f in forbidden_masks)

    for size in range(len(pairs), -1, -1):
        if any(
            family_free(sum(1 << i for i in combo))
            for combo in itertools.combinations(range(len(pairs)), size)
        ):
            return size
    return 0


class TestFamilySpec:
    def test_even_cycles(self):
        assert FamilySpec.even_cycles(3).lengths == frozenset({4, 6})
        assert FamilySpec.even_cycles_plus_odd(2, 5).lengths == frozenset({4, 5})

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec.of()
        with pytest.raises(ValueError):
            FamilySpec.of(2)
        with pytest.raises(ValueError):
            FamilySpec.of(True)
        with pytest.raises(ValueError):
            FamilySpec.even_cycles_plus_odd(2, 4)

    def test_non_integer_length_rejected(self):
        """4.5 would count as odd, and z(3, 3) would come out 9."""
        with pytest.raises(ValueError, match="integers >= 3, got 4.5"):
            FamilySpec(frozenset({4.5}))

    def test_of_does_not_truncate(self):
        """of() keeps the value it is given: 4.5 is not truncated to 4."""
        with pytest.raises(ValueError, match="got 4.5"):
            FamilySpec.of(4.5)

    def test_integral_float_rejected_before_the_search(self):
        """4.0 is rejected when the family is built, not by a TypeError
        inside the search's conflict masks."""
        with pytest.raises(ValueError, match="got 4.0"):
            turan_number(5, FamilySpec(frozenset({4.0})))

    def test_lengths_stored_as_frozenset(self):
        family = FamilySpec({4, 6})
        assert type(family.lengths) is frozenset
        assert family == FamilySpec.even_cycles(3)
        assert hash(family) == hash(FamilySpec.even_cycles(3))

    def test_even_run(self):
        for ell in range(2, 8):
            assert FamilySpec.even_cycles(ell).even_run == ell
            assert FamilySpec.even_cycles_plus_odd(ell, 3).even_run == ell
        assert FamilySpec.of(3).even_run == 1


class TestTuran:
    def test_triangle_on_three_vertices(self):
        assert turan_number(3, C4).value == 3

    @pytest.mark.parametrize("n", range(3, 9))
    def test_mantel(self, n):
        res = turan_number(n, C3)
        assert res.value == n * n // 4
        assert res.completed

    @pytest.mark.parametrize("n,expected", [(4, 4), (5, 6), (6, 7)])
    def test_c4c5_matches_direct_enumeration(self, n, expected):
        assert brute_force_extremal(n, (4, 5)) == expected
        assert turan_number(n, C4C5).value == expected

    @pytest.mark.slow
    def test_c4c5_matches_direct_enumeration_n7(self):
        assert brute_force_extremal(7, (4, 5)) == 9
        assert turan_number(7, C4C5).value == 9

    @pytest.mark.parametrize("n", sorted(EX_C4C5))
    def test_c4c5_regression_fixtures(self, n):
        res = turan_number(n, C4C5)
        assert res.value == EX_C4C5[n] and res.completed

    def test_witnesses_are_family_free_and_extremal(self):
        res = turan_number(7, C4C5)
        assert res.witnesses
        for enc in res.witnesses:
            g = graph6_decode(enc)
            assert g.m == res.value
            assert is_family_free(g, res.family)

    def test_order_invariance(self):
        base = turan_number(7, C4C5)
        shuffled = turan_number(7, C4C5, order_seed=12345)
        assert base.value == shuffled.value
        assert base.witnesses == shuffled.witnesses

    @pytest.mark.parametrize("n", [8, 9])
    def test_independent_orderings_agree_beyond_direct_range(self, n):
        """Above the direct-enumeration range the fixture values are
        certified by two searches with unrelated exploration orders."""
        first = turan_number(n, C4C5, order_seed=1)
        second = turan_number(n, C4C5, order_seed=987654321)
        assert first.value == second.value == EX_C4C5[n]
        assert first.witnesses == second.witnesses

    def test_monotone_in_n(self):
        values = [turan_number(n, C4C5).value for n in range(3, 9)]
        assert values == sorted(values)

    def test_girth_five_values_to_fourteen(self):
        values = [turan_number(n, FamilySpec.of(3, 4)).value
                  for n in range(1, 15)]
        assert tuple(values) == EX_C3C4

    def test_petersen_is_the_unique_girth_five_extremal_graph_at_ten(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        petersen = Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])
        res = turan_number(10, FamilySpec.of(3, 4))
        assert (res.value, res.completed) == (15, True)
        assert res.witnesses == (graph6_encode(canonical_graph(petersen)),)

    @pytest.mark.slow
    @pytest.mark.parametrize("lengths,expected", [((4, 5), 23), ((4, 7), 21)])
    def test_fourteen_vertices_complete_under_a_budget(self, lengths,
                                                       expected):
        """The first generalized-polygon order for ell = 2 is in reach:
        two exploration orders give the same exact value and witnesses."""
        family = FamilySpec.of(*lengths)
        first = turan_number(14, family, budget=200_000, order_seed=1)
        second = turan_number(14, family, budget=200_000,
                              order_seed=987654321)
        assert first.completed and second.completed
        assert first.value == second.value == expected
        assert first.witnesses == second.witnesses

    def test_budget_carries_partial_result(self):
        with pytest.raises(BudgetExceeded) as err:
            turan_number(7, C3, budget=10)
        assert err.value.result is not None
        assert not err.value.result.completed

    def test_budget_error_names_instance_and_limit(self):
        with pytest.raises(BudgetExceeded,
                           match=r"ex\(7, \{C3\}\) .* budget of 10 search nodes"):
            turan_number(7, C3, budget=10)

    def test_zero_budget_certifies_zero_with_the_empty_graph(self):
        with pytest.raises(BudgetExceeded) as err:
            turan_number(5, C4, budget=0)
        res = err.value.result
        assert (res.value, res.witnesses) == (0, (graph6_encode(Graph(5)),))


class TestZarankiewicz:
    def test_budget_before_first_record_certifies_zero(self):
        """The empty graph certifies 0 even when the budget stops the
        search before it records any configuration."""
        with pytest.raises(BudgetExceeded) as err:
            zarankiewicz_ab(3, 3, FamilySpec.of(4), budget=1)
        res = err.value.result
        assert (res.value, res.witnesses) == (0, (graph6_encode(Graph(6)),))
        assert not res.completed

    def test_budget_error_names_instance_and_limit(self):
        with pytest.raises(BudgetExceeded,
                           match=r"z\(3, 4; \{C4\}\) .* budget of 2 search nodes"):
            zarankiewicz_ab(3, 4, C4, budget=2)

    def test_two_vertices(self):
        assert zarankiewicz_number(2, C4).value == 1

    KNOWN_AB = {
        (2, 2): 3, (2, 3): 4, (2, 4): 5, (2, 5): 6, (2, 6): 7, (2, 7): 8,
        (3, 3): 6, (3, 4): 7, (3, 5): 8, (3, 6): 9, (3, 7): 10,
        (4, 4): 9, (4, 5): 10, (4, 6): 12, (4, 7): 13,
        (5, 5): 12, (5, 6): 14, (5, 7): 15,
        (6, 6): 16, (6, 7): 18, (7, 7): 21,
    }

    @pytest.mark.parametrize("ab", sorted(KNOWN_AB))
    def test_quadrilateral_table(self, ab):
        a, b = ab
        res = zarankiewicz_ab(a, b, C4)
        assert res.value == self.KNOWN_AB[ab]
        assert res.completed
        assert res.value <= (a * b) ** 0.75 + max(a, b) + 1e-9

    def test_all_odd_family_is_complete_bipartite(self):
        res = zarankiewicz_ab(3, 4, FamilySpec.of(3, 5))
        assert res.value == 12

    def test_z_at_most_ex(self):
        for n in (5, 6, 7):
            assert (
                zarankiewicz_number(n, C4).value <= turan_number(n, C4).value
            )

    def test_monotone_in_n(self):
        values = [zarankiewicz_number(n, C4).value for n in range(4, 10)]
        assert values == sorted(values)

    def test_family_with_c6(self):
        # parts (3,3): none of C4/C6 may appear; oracle scans all 2^9 graphs
        pairs = [(i, 3 + j) for i in range(3) for j in range(3)]
        oracle = max(
            len(edges)
            for mask in range(1 << 9)
            for edges in [[pairs[i] for i in range(9) if (mask >> i) & 1]]
            if is_family_free(Graph(6, edges), FamilySpec.even_cycles(3))
        )
        res = zarankiewicz_ab(3, 3, FamilySpec.even_cycles(3))
        for enc in res.witnesses:
            assert is_family_free(graph6_decode(enc), res.family)
        assert res.value == oracle == 5

    def test_order_invariance(self):
        base = zarankiewicz_number(10, C4)
        shuffled = zarankiewicz_number(10, C4, order_seed=777)
        assert base.value == shuffled.value
        assert base.witnesses == shuffled.witnesses

    def test_witnesses_quadrilateral_free(self):
        res = zarankiewicz_number(8, C4)
        for enc in res.witnesses:
            assert is_family_free(graph6_decode(enc), C4)

    @pytest.mark.slow
    @pytest.mark.parametrize("n,lengths,value,nodes,witnesses", [
        (18, (4, 6), 22, 291_211, 6), (16, (4, 6, 8), 17, 62_654, 29)])
    def test_reach(self, n, lengths, value, nodes, witnesses):
        """z(n) for ell = 3 and 4 at the default order: the value, the node
        count and the number of extremal classes."""
        res = zarankiewicz_number(n, FamilySpec.of(*lengths))
        assert (res.value, res.nodes, len(res.witnesses), res.completed) == (
            value, nodes, witnesses, True)


class TestFourteenVertices:
    def test_heawood_is_the_unique_witness(self, heawood):
        res = zarankiewicz_number(14, C4)
        assert res.value == 21
        assert res.completed
        assert res.witnesses == (graph6_encode(canonical_graph(heawood)),)


class TestUpperBounds:
    def test_polygon_bound_equality_at_14(self):
        res = zarankiewicz_number(14, C4)
        reports = verify_upper_bounds([res])
        polygon = [r for r in reports if r.check == "polygon-edge-bound"]
        assert polygon and polygon[0].holds and polygon[0].equality

    def test_constructed_lower_bound(self, tutte_coxeter):
        res = SearchResult(
            kind="zarankiewicz",
            instance=(30,),
            family=FamilySpec.even_cycles(3),
            value=tutte_coxeter.m,
            witnesses=(),
            nodes=0,
            completed=False,
        )
        assert res.value == 45
        q = solve_polygon_order(30, 3)
        assert abs(q - 2) < 1e-9
        reports = verify_upper_bounds([res])
        polygon = [r for r in reports if r.check == "polygon-edge-bound"][0]
        assert polygon.holds and polygon.equality

    def test_no_report_without_a_bound_that_can_fail(self):
        """A Turán result, or a family with no closed form, yields no
        report."""
        results = [turan_number(3, C4),
                   zarankiewicz_number(6, FamilySpec.of(6)),
                   zarankiewicz_ab(3, 3, C4C5)]
        assert verify_upper_bounds(results) == []

    def test_unbalanced_bound_on_a_two_part_result(self):
        res = zarankiewicz_ab(3, 5, C4)
        reports = verify_upper_bounds([res])
        assert [r.check for r in reports] == ["polygon-edge-bound",
                                              "unbalanced-z-bound"]
        polygon, unbalanced = reports
        assert polygon.rhs == polygon_edge_bound(8, 2)
        assert unbalanced.rhs == 15 ** 0.75 + 5
        assert res.value == 8
        assert polygon.holds and unbalanced.holds
        assert unbalanced.note == "(a, b) = (3, 5)"

    def test_bounds_fail_on_a_value_above_them(self):
        res = zarankiewicz_ab(3, 5, C4)
        # 13 edges exceed both the polygon bound 9.21 and 15^0.75 + 5 = 12.62
        inflated = SearchResult(
            kind=res.kind, instance=res.instance, family=res.family,
            value=13, witnesses=(), nodes=0, completed=True)
        reports = verify_upper_bounds([inflated])
        assert len(reports) == 2
        assert not any(r.holds for r in reports)

    def test_solve_polygon_order(self):
        assert abs(solve_polygon_order(14, 2) - 2) < 1e-9
        assert abs(solve_polygon_order(2 * (9 + 3 + 1), 2) - 3) < 1e-9

    @pytest.mark.parametrize("ell", [0, -1])
    def test_solve_polygon_order_rejects_ell_below_one(self, ell):
        with pytest.raises(ValueError):
            solve_polygon_order(14, ell)

    def test_polygon_counts(self):
        # Heawood (ell = 2) and Tutte-Coxeter (ell = 3) at q = 2
        assert polygon_vertex_count(2, 2) == 14
        assert polygon_vertex_count(2, 3) == 30
        assert polygon_vertex_count(3, 3) == 80
        assert abs(polygon_edge_bound(14, 2) - 21) < 1e-9
        assert abs(polygon_edge_bound(80, 3) - 160) < 1e-9


class TestDiscrepancyWitness:
    def test_q2(self, tutte_coxeter):
        rep = discrepancy_witness(tutte_coxeter)
        assert (rep.graph.n, rep.graph.m) == (30, 46)
        assert rep.certified
        assert 3 in rep.spectrum and not rep.spectrum & {4, 5, 6}
        assert rep.edges == rep.base_edges + 1

    def test_q3(self):
        rep = discrepancy_witness(incidence_graph(gq_w3(3)))
        assert (rep.graph.n, rep.graph.m) == (80, 161)
        assert rep.certified


# lengths, even_run, the row search's ball ell (None: the path DFS), and
# whether verify_upper_bounds checks closed forms for the family
FAMILY_SHAPES = [
    ((3,), 1, 1, False),
    ((4,), 2, 2, True),
    ((4, 5), 2, 2, False),
    ((4, 6), 3, 3, True),
    ((4, 6, 7), 3, 3, False),
    ((4, 6, 8), 4, 4, False),
    ((4, 6, 8, 10), 5, 5, True),
    ((6,), 1, None, False),
    ((4, 8), 2, None, False),
    ((3, 4), 2, 2, False),
    ((4, 6, 10), 3, None, False),
    ((3, 5), 1, 1, False),
]


@pytest.mark.parametrize("lengths,run,ball_ell,bounded", FAMILY_SHAPES)
def test_family_shape_from_even_run(lengths, run, ball_ell, bounded):
    """even_run, and what the row search and verify_upper_bounds derive
    from it: balls exactly when the run holds every even length, and the
    polygon (and, for two parts, the unbalanced) bound exactly for the
    families C_4, ..., C_{2*ell} with ell = 2 or odd, never for Turán."""
    family = FamilySpec.of(*lengths)
    assert family.even_run == run
    assert search._ZarankiewiczSearch(3, 5, family, 0, None).ell == ball_ell

    def checks(kind, instance):
        res = SearchResult(kind=kind, instance=instance, family=family,
                           value=0, witnesses=(), nodes=0, completed=True)
        return [rep.check for rep in verify_upper_bounds([res])]

    polygon = ["polygon-edge-bound"] if bounded else []
    unbalanced = ["unbalanced-z-bound"] if bounded else []
    assert checks("zarankiewicz", (14,)) == polygon
    assert checks("zarankiewicz_ab", (3, 5)) == polygon + unbalanced
    assert checks("turan", (7,)) == []


@pytest.mark.parametrize("lengths", [(6,), (4, 8), (3, 4), (4, 5), (4, 6, 7)])
def test_witnesses_are_free_of_their_family(lengths):
    """Every witness of both searches, for families with gaps, odd lengths
    or both, is free of the result's family and has its value in edges."""
    family = FamilySpec.of(*lengths)
    for res in (zarankiewicz_ab(4, 5, family), turan_number(8, family)):
        assert res.completed and res.witnesses
        for enc in res.witnesses:
            w = graph6_decode(enc)
            assert w.m == res.value
            assert is_family_free(w, res.family)


def brute_z(a, b, lengths):
    from girthlab.graph import contains_cycle

    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    best = 0
    for mask in range(1 << (a * b)):
        if bin(mask).count("1") <= best:
            continue
        g = Graph(a + b, [pairs[i] for i in range(a * b) if (mask >> i) & 1])
        if not any(contains_cycle(g, L) for L in lengths):
            best = g.m
    return best


@pytest.mark.parametrize("lengths", [(4,), (4, 6), (6,)])
@pytest.mark.parametrize("ab", [(2, 4), (3, 3), (3, 4)])
def test_zab_matches_bitmask_oracle(lengths, ab):
    a, b = ab
    assert zarankiewicz_ab(a, b, FamilySpec.of(*lengths)).value == brute_z(
        a, b, lengths
    )


def test_witness_key_round_trip():
    res = turan_number(6, C4C5)
    for enc in res.witnesses:
        g = graph6_decode(enc)
        assert graph6_encode(canonical_graph(g)) == enc
        assert canonical_key(g) == canonical_key(canonical_graph(g))


def _edge_augmentation_ex(n, lengths):
    """Reference: (value, witnesses) of ex(n, {C_L : L in lengths}) by
    canonical augmentation with edges, the search girthlab used before
    vertex augmentation, with no cut. It visits every isomorphism class of
    family-free graphs on n vertices: a child is kept when deleting its
    canonically last edge gives back the parent's class."""
    labelings = {}

    def labeling(G):
        if G.bits not in labelings:
            labelings[G.bits] = canonical_labeling(G)
        return labelings[G.bits]

    best = {}

    def explore(G, key):
        best.setdefault(G.m, {})[key] = G
        children = {}
        for u, v in itertools.combinations(range(n), 2):
            if G.has_edge(u, v):
                continue
            child = Graph(n, G.edges() + [(u, v)])
            if any(contains_cycle(child, length) for length in lengths):
                continue
            ckey, cperm, _ = labeling(child)
            if ckey in children:
                continue
            last = last_edge_under(child, cperm)
            parent = Graph(n, [e for e in child.edges() if e != last])
            if labeling(parent)[0] == key:
                children[ckey] = child
        for ckey, child in sorted(children.items()):
            explore(child, ckey)

    root = Graph(n)
    explore(root, labeling(root)[0])
    value = max(best)
    return value, tuple(sorted(graph6_encode(relabel(G, labeling(G)[1]))
                               for G in best[value].values()))


class _EagerZarankiewicz(search._ZarankiewiczSearch):
    """Reference: every configuration tying the running best is canonically
    labeled when it is found, and the first graph of each isomorphism class
    is a witness."""

    def __init__(self, *args):
        super().__init__(*args)
        self.classes = {}

    def record(self, edges):
        total = sum(len(r) for r in self.rows)
        assert edges == total, (self.rows, edges)
        if total < self.best:
            return
        if total > self.best:
            self.classes = {}
        super().record(total)
        G = self.make_graph(self.rows)
        self.classes.setdefault(canonical_labeling(G)[0], G)

    def witnesses(self):
        return list(self.classes.values())


def _outcome(call):
    """(value, witnesses, completed, nodes) of a search, truncated or not."""
    try:
        res = call()
    except BudgetExceeded as exc:
        res = exc.result
    return res.value, res.witnesses, res.completed, res.nodes


def _against_reference(monkeypatch, name, reference, call):
    fast = _outcome(call)
    monkeypatch.setattr(search, name, reference)
    assert _outcome(call) == fast


ORACLE_FAMILIES = [(3,), (4,), (3, 4), (4, 5), (3, 5),
                   (5,), (4, 6), (4, 7), (3, 5, 7)]


@functools.cache
def _oracle(n, lengths):
    return _edge_augmentation_ex(n, lengths)


@pytest.mark.parametrize("order_seed", [None, 1, 987654321])
@pytest.mark.parametrize("lengths", ORACLE_FAMILIES)
def test_turan_prefilter_matches_unfiltered_reference(lengths, order_seed):
    """The vertex-augmentation search, with its threshold, min-degree and
    conflict cuts, finds the value and every extremal class that the
    uncut edge-augmentation reference finds."""
    family = FamilySpec.of(*lengths)
    for n in range(1, 9):
        res = turan_number(n, family, order_seed=order_seed)
        assert (res.value, res.witnesses, res.completed) == (
            *_oracle(n, lengths), True)


class _LabelEveryChild(search._TuranSearch):
    """Reference: the level loop without orbit pruning (fact (e)) or the
    last-level drop (fact (f)). Every admissible neighbour set is labeled,
    on every level."""

    def level(self, k, threshold):
        level = self.levels[k]
        ceiling = self.floors[k]
        if threshold >= ceiling:
            return level
        least = max(0, threshold - 2 * threshold // k)
        parents = [P for P, _ in self.level(k - 1, least).values()
                   if P.m >= least]
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + k).shuffle(parents)
        for P in parents:
            deg = P.degrees()
            conflicts = search._conflicts(P.bits, self.family.lengths,
                                          range(P.n))
            for d in range(max(0, threshold - P.m), min(ceiling - P.m, k)):
                for neighbours in search._neighbour_sets(deg, conflicts, d):
                    self.nodes += 1
                    if self.nodes > self.limit:
                        raise self.over_budget()
                    self.add(level, P, neighbours)
        self.floors[k] = threshold
        return level


class _EagerLastLevel(search._TuranSearch):
    """Reference: the level loop before fact (f). The last level keeps a
    level dict like the others, and the first child of each orbit is
    labeled when it is found, whatever its edge count."""

    def level(self, k, threshold):
        level = self.levels[k]
        ceiling = self.floors[k]
        if threshold >= ceiling:
            return level
        least = max(0, threshold - 2 * threshold // k)
        parents = [(P, automorphisms) for P, automorphisms
                   in self.level(k - 1, least).values() if P.m >= least]
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + k).shuffle(parents)
        for P, automorphisms in parents:
            deg = P.degrees()
            conflicts = search._conflicts(P.bits, self.family.lengths,
                                          range(P.n))
            generators = automorphisms + search.twin_transpositions(P)
            seen = set()
            for d in range(max(0, threshold - P.m), min(ceiling - P.m, k)):
                for neighbours in search._neighbour_sets(deg, conflicts, d):
                    self.nodes += 1
                    if self.nodes > self.limit:
                        raise self.over_budget()
                    if neighbours not in seen:
                        if generators:
                            seen |= search._orbit(neighbours, generators)
                        self.add(level, P, neighbours)
        self.floors[k] = threshold
        return level


def _turan_run(monkeypatch, cls, call):
    """The outcome of call, run with cls as the Turán search, and the items
    of every level below n of that search, in insertion order."""
    runs = []

    class Recorded(cls):
        def run(self):
            runs.append(self)
            super().run()

    monkeypatch.setattr(search, "_TuranSearch", Recorded)
    outcome = _outcome(call)
    monkeypatch.undo()
    return outcome, [list(level.items()) for level in runs[0].levels[:-1]]


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("lengths", ORACLE_FAMILIES)
def test_orbit_pruning_matches_labeling_every_child(monkeypatch, lengths,
                                                    order_seed):
    """Labeling one neighbour set per orbit of the parent's automorphisms
    keeps the value, witnesses, completeness and node count, and every level
    keeps the same first child of each class in the same order."""
    family = FamilySpec.of(*lengths)
    for n in range(1, 11):
        call = functools.partial(turan_number, n, family,
                                 order_seed=order_seed)
        assert _turan_run(monkeypatch, search._TuranSearch, call) == \
            _turan_run(monkeypatch, _LabelEveryChild, call), n


@pytest.mark.parametrize("n,lengths", [(8, (4, 5)), (7, (3,)), (9, (4, 7))])
def test_truncated_orbit_pruning_matches_labeling_every_child(monkeypatch, n,
                                                              lengths):
    """Skipped neighbour sets still count as nodes, so a budget stops the
    pruned search where it stops the reference, with the same result."""
    family = FamilySpec.of(*lengths)
    full = turan_number(n, family)
    for budget in range(0, full.nodes, max(1, full.nodes // 20)):
        call = functools.partial(turan_number, n, family, budget=budget)
        assert _turan_run(monkeypatch, search._TuranSearch, call) == \
            _turan_run(monkeypatch, _LabelEveryChild, call), budget


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("lengths", ORACLE_FAMILIES)
def test_last_level_ties_match_eager_labeling(monkeypatch, lengths,
                                              order_seed):
    """Dropping last-level children below the running best and labeling
    the ties once at the end keeps the value, witnesses, completeness and
    node count, and every level below n item for item."""
    family = FamilySpec.of(*lengths)
    for n in range(1, 11):
        call = functools.partial(turan_number, n, family,
                                 order_seed=order_seed)
        assert _turan_run(monkeypatch, search._TuranSearch, call) == \
            _turan_run(monkeypatch, _EagerLastLevel, call), n


@pytest.mark.parametrize("n,lengths", [(8, (4, 5)), (7, (3,)), (9, (4, 7))])
def test_truncated_last_level_ties_match_eager_labeling(monkeypatch, n,
                                                        lengths):
    """A budget that stops the search on the last level reports the ties
    it holds then, labeled, as the eager reference does."""
    family = FamilySpec.of(*lengths)
    full = turan_number(n, family)
    for budget in range(0, full.nodes, max(1, full.nodes // 20)):
        call = functools.partial(turan_number, n, family, budget=budget)
        assert _turan_run(monkeypatch, search._TuranSearch, call) == \
            _turan_run(monkeypatch, _EagerLastLevel, call), budget


def test_last_level_labels_only_the_final_ties(monkeypatch):
    """ex(9; {C4, C5}) at order seed 42 labels 202 graphs; labeling every
    first child of an orbit on the last level took 297."""
    labeled = []

    def counting_labeling(G, *args):
        labeled.append(G)
        return canonical_labeling(G, *args)

    monkeypatch.setattr(search, "canonical_labeling", counting_labeling)
    res = turan_number(9, C4C5, order_seed=42)
    assert (res.value, len(res.witnesses), res.completed) == (12, 8, True)
    assert len(labeled) == 202


@pytest.mark.parametrize("lengths", [(4,), (4, 6)])
def test_deferred_witnesses_match_eager_reference(monkeypatch, lengths):
    family = FamilySpec.of(*lengths)
    sizes = [(a, b) for a in range(1, 31) for b in range(a, 31) if a * b <= 30]
    for a, b in sizes:
        _against_reference(
            monkeypatch, "_ZarankiewiczSearch", _EagerZarankiewicz,
            lambda: zarankiewicz_ab(a, b, family))
        monkeypatch.undo()


@pytest.mark.parametrize("budget", [10, 60, 300, 500, 2000])
def test_truncated_searches_match_references(monkeypatch, budget):
    """On the budget-truncated path too, deferred labeling leaves the
    partial value, witnesses and node count unchanged. Budgets 10 to 300
    stop z(5, 6) on its staircase; 500 stops it in (5, 6) itself, whose
    ties then fall into four classes."""
    _against_reference(
        monkeypatch, "_ZarankiewiczSearch", _EagerZarankiewicz,
        lambda: zarankiewicz_ab(5, 6, C4, budget=budget))


class _RowCheckedZarankiewicz(search._ZarankiewiczSearch):
    """Reference: the cycle check without conflict masks. Only C4 is cut
    part-way through a row, by the columns that already share a row, and
    each finished row is checked with contains_cycle for every even
    length."""

    def column_conflicts(self):
        conf = [0] * self.cols_n
        if 4 in self.family.lengths:
            for row in self.rows:
                for c, d in itertools.permutations(row, 2):
                    conf[c] |= 1 << d
        return conf

    def search(self, *args):
        if self.rows and any(contains_cycle(self.make_graph(self.rows), length)
                             for length in self.even):
            return
        super().search(*args)


SMALL_AB = [(a, b) for a in range(1, 31) for b in range(a, 31) if a * b <= 30]
# without C4 the reference has no cut before a row is finished:
# z(3, 9; {C6}) takes it about 200,000 nodes, z(3, 10) 850,000
C6_AB = [ab for ab in SMALL_AB if ab not in ((3, 9), (3, 10))]


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("lengths,sizes", [((4,), SMALL_AB),
                                           ((4, 6), SMALL_AB),
                                           ((4, 6, 8), SMALL_AB),
                                           ((4, 8), SMALL_AB),
                                           ((6,), C6_AB)])
def test_conflict_masks_match_row_checked_reference(monkeypatch, lengths,
                                                    sizes, order_seed):
    """The conflict-mask cut finds the value and every extremal class that
    the row-checked reference finds. For C4 the two searches walk the same
    tree; longer cycles are cut part-way through a row, so the search never
    takes more nodes."""
    family = FamilySpec.of(*lengths)
    for a, b in sizes:
        call = functools.partial(zarankiewicz_ab, a, b, family,
                                 order_seed=order_seed)
        fast = _outcome(call)
        monkeypatch.setattr(search, "_ZarankiewiczSearch",
                            _RowCheckedZarankiewicz)
        slow = _outcome(call)
        monkeypatch.undo()
        assert fast[:3] == slow[:3], (a, b)
        if lengths == (4,):
            assert fast[3] == slow[3], (a, b)
        else:
            assert fast[3] <= slow[3], (a, b)


def _path_conflicts(rows, rows_n, cols_n, even):
    """Reference: conf[c] from the rows graph, by the path DFS _conflicts
    from each column vertex, with no state kept between nodes."""
    if not even:
        # odd cycles never embed in a bipartite graph
        return [0] * cols_n
    # the neighbour masks of the rows graph: row i is vertex i, column c
    # is vertex rows_n + c
    shift = rows_n
    bits = [0] * (shift + cols_n)
    for i, row in enumerate(rows):
        for c in row:
            bits[i] |= 1 << (shift + c)
            bits[shift + c] |= 1 << i
    return [conf >> shift for conf in
            search._conflicts(bits, even, range(shift, shift + cols_n))]


def _without_self(conf):
    """The conflict masks with each column's own bit cleared, which no row
    search reads."""
    return [mask & ~(1 << c) for c, mask in enumerate(conf)]


class _ConflictCheckedZarankiewicz(search._ZarankiewiczSearch):
    """The row search, asserting at every node that the conflicts it carries
    are the path DFS's."""

    def column_conflicts(self):
        conf = super().column_conflicts()
        assert _without_self(conf) == _path_conflicts(
            self.rows, self.rows_n, self.cols_n, self.even), self.rows
        return conf


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("lengths", [(4,), (4, 6), (4, 6, 8), (4, 6, 8, 10)])
def test_carried_balls_match_path_conflicts(monkeypatch, lengths, order_seed):
    """At every node of the row search, the distance balls carried down the
    recursion give the conflicts that the path DFS over the rows graph
    gives, and the search's outcome is unchanged."""
    family = FamilySpec.of(*lengths)
    for a, b in SMALL_AB:
        _against_reference(
            monkeypatch, "_ZarankiewiczSearch", _ConflictCheckedZarankiewicz,
            functools.partial(zarankiewicz_ab, a, b, family,
                              order_seed=order_seed))
        monkeypatch.undo()


@st.composite
def rows_placed_and_removed(draw):
    """A column count up to 8 and a sequence of steps, each a row (a set of
    columns) to place or None to remove the last one."""
    cols = draw(st.integers(1, 8))
    steps = draw(st.lists(st.none() | st.sets(st.integers(0, cols - 1)),
                          max_size=12))
    return cols, steps


@given(rows_placed_and_removed(),
       st.sampled_from([(3,), (4,), (4, 5), (4, 6), (4, 6, 8), (3, 4, 6, 7),
                        (4, 6, 8, 10)]))
@settings(max_examples=300, deadline=None)
def test_ball_update_matches_path_conflicts(case, lengths):
    """Rows placed and removed depth first, as the row search places them,
    in any configuration, not only family-free ones: after each step the
    carried balls give the path DFS's conflicts."""
    cols, steps = case
    run = search._ZarankiewiczSearch(1, cols, FamilySpec.of(*lengths), 0, None)
    for step in steps:
        if step is None:
            if run.rows:
                run.rows.pop()
        else:
            run.rows.append(tuple(sorted(step)))
        assert _without_self(run.column_conflicts()) == _path_conflicts(
            run.rows, len(run.rows), cols, run.even), run.rows


class _ColumnWalkZarankiewicz(search._ZarankiewiczSearch):
    """Reference: each row is built one column at a time, in increasing
    order, skipping a column in conflict with one already picked or with no
    room left for the rest of the row, and holding the row at or above the
    previous row of its size position by position. Fresh columns come after
    the old ones, as the next unused labels."""

    def search(self, used_cols, edges_sum):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        row_index = len(self.rows)
        if row_index == self.rows_n:
            self.record(edges_sum)
            return
        rows_left = self.rows_n - row_index
        prev_row = self.rows[-1] if self.rows else None
        conf = self.column_conflicts()
        sizes = list(range(len(prev_row) if prev_row else self.cols_n, -1, -1))
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + row_index).shuffle(sizes)
        for s in sizes:
            if s == 0:
                self.record(edges_sum)
                continue
            if edges_sum + rows_left * s < self.best:
                continue
            floor_row = prev_row if prev_row and s == len(prev_row) else None
            self._enumerate_rows(used_cols, s, edges_sum, [], conf, 0, 0,
                                 floor_row, True)

    def _enumerate_rows(self, used_cols, s, edges_sum, chosen, conf, blocked,
                        fresh, floor_row, tight):
        self.nodes += 1
        if self.nodes > self.limit:
            raise self.over_budget()
        if len(chosen) == s:
            self.rows.append(tuple(chosen))
            self.search(used_cols + fresh, edges_sum + s)
            self.rows.pop()
            return
        need = s - len(chosen)
        pos = len(chosen)
        lo = chosen[-1] + 1 if chosen else 0
        if tight and floor_row is not None:
            lo = max(lo, floor_row[pos])
        candidates = list(range(lo, used_cols))
        fresh_cand = used_cols + fresh
        if lo <= fresh_cand < self.cols_n:
            candidates.append(fresh_cand)
        for c in candidates:
            # room left: columns above c (old) plus fresh supply
            if c < used_cols:
                room = (used_cols - c - 1) + (self.cols_n - used_cols - fresh)
            else:
                room = self.cols_n - c - 1
            if room < need - 1 or blocked >> c & 1:
                continue
            chosen.append(c)
            still_tight = (tight and floor_row is not None
                           and c == floor_row[pos])
            self._enumerate_rows(used_cols, s, edges_sum, chosen, conf,
                                 blocked | conf[c],
                                 fresh + (1 if c >= used_cols else 0),
                                 floor_row, still_tight)
            chosen.pop()


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("lengths", [(4,), (4, 6), (4, 6, 8), (4, 8), (6,)])
def test_rows_match_column_walk_reference(monkeypatch, lengths, order_seed):
    """Rows taken from _independent_sets give the value and every extremal
    class that the column-by-column walk, with its room cut and position-wise
    lex floor, gives. The two count nodes differently, so nodes are not
    compared."""
    family = FamilySpec.of(*lengths)
    for a, b in SMALL_AB:
        call = functools.partial(zarankiewicz_ab, a, b, family,
                                 order_seed=order_seed)
        fast = _outcome(call)
        monkeypatch.setattr(search, "_ZarankiewiczSearch",
                            _ColumnWalkZarankiewicz)
        walked = _outcome(call)
        monkeypatch.undo()
        assert fast[:3] == walked[:3], (a, b)


def _reference_result(kind, instance, family, value, graphs, nodes,
                      completed):
    """The result with the canonical encodings of graphs, each kept once."""
    return SearchResult(
        kind=kind,
        instance=instance,
        family=family,
        value=value,
        witnesses=tuple(sorted({
            graph6_encode(relabel(G, canonical_labeling(G)[1]))
            for G in graphs})),
        nodes=nodes,
        completed=completed,
    )


def _reference_reached(run, n_vertices):
    if run.best < 0:
        return 0, [Graph(n_vertices)]
    return run.best, run.witnesses()


def _reference_z(a, b, family, limit, order_seed, floor=-1):
    """Reference: z(a, b) as one split of the split-by-split driver. Without
    a floor it walks the staircase up to (a, b); a floor of 0 or more is the
    value of an earlier split, with no witness here."""
    r, c = sorted((a, b))
    shapes = [(a, b)]
    if floor < 0 and r and family.even_lengths:
        shapes[:0] = search._staircase(r, c)[:-1]
    witness = None
    spent = 0
    try:
        for shape in shapes:
            run = search._ZarankiewiczSearch(*shape, family, limit - spent,
                                             order_seed, floor)
            run.search(0, 0)
            spent += run.nodes
            if run.tied:
                witness = next(iter(run.tied)), run.cols_n
            elif witness:
                raise RuntimeError(
                    f"row search z({run.a}, {run.b}; "
                    f"{family.describe()}) found nothing at its floor "
                    f"{floor}, which has a witness of this instance: a cut "
                    f"lost a configuration")
            floor = run.best + 1
    except BudgetExceeded as exc:
        final = (run.rows_n, run.cols_n) == (r, c)
        if run.tied and not final:
            witness = next(iter(run.tied)), run.cols_n
        if witness and not (final and run.tied):
            G = search._rows_graph(search._pad_rows(*witness, r, c), r, c)
            reached = G.m, [G]
        else:
            reached = _reference_reached(run, a + b)
        raise BudgetExceeded(
            f"row search z({a}, {b}; {family.describe()}) exceeded its "
            f"budget of {limit} search nodes",
            _reference_result("zarankiewicz_ab", (a, b), family, *reached,
                              spent + run.nodes, completed=False)) from exc
    return _reference_result("zarankiewicz_ab", (a, b), family,
                             *_reference_reached(run, a + b), spent,
                             completed=True)


def _reference_merge(n, family, results, completed):
    """The best split value with the witnesses of every split attaining it;
    the empty graph bounds the value below by 0."""
    best = max([0] + [r.value for r in results])
    witnesses = sorted(
        {w for r in results if r.value == best for w in r.witnesses})
    return SearchResult(
        kind="zarankiewicz",
        instance=(n,),
        family=family,
        value=best,
        witnesses=tuple(witnesses),
        nodes=sum(r.nodes for r in results),
        completed=completed,
    )


def _reference_z_n(n, family, limit, order_seed):
    """Reference: z(n) split by split, each split one _reference_z call on
    what the earlier splits left of the budget, and the results merged."""
    splits = range(n // 2, 0, -1) if n > 1 else [0]
    results = []
    try:
        for a in splits:
            spent = sum(r.nodes for r in results)
            floor = max(r.value for r in results) if results else -1
            results.append(_reference_z(a, n - a, family, limit - spent,
                                        order_seed, floor))
    except BudgetExceeded as exc:
        if exc.result is not None:
            results.append(exc.result)
        raise BudgetExceeded(
            f"row search z({n}; {family.describe()}) exceeded its budget of "
            f"{limit} search nodes",
            _reference_merge(n, family, results, completed=False)) from exc
    return _reference_merge(n, family, results,
                            completed=all(r.completed for r in results))


def _driver_outcome(call, budget):
    """(value, witnesses, completed, nodes, message) of a call at a
    budget, truncated or not; message is None when it completes."""
    try:
        res, message = call(budget), None
    except BudgetExceeded as exc:
        res, message = exc.result, str(exc)
    return res.value, res.witnesses, res.completed, res.nodes, message


ORACLE_AB = ([(a, b) for a in range(1, 25) for b in range(a, 25)
              if a * b <= 24] + [(0, 3), (4, 0), (4, 3), (6, 2)])


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("lengths", [(4,), (4, 6), (6,)])
def test_one_walk_matches_split_by_split_driver(lengths, order_seed):
    """The one walk over staircase steps and final shapes gives z(a, b) and
    z(n) exactly as the split-by-split driver did: value, witnesses,
    completeness, nodes and the budget message, at budgets from 0 to
    the full run's nodes."""
    family = FamilySpec.of(*lengths)
    cases = [(functools.partial(zarankiewicz_ab, a, b, family,
                                order_seed=order_seed),
              functools.partial(_reference_z, a, b, family,
                                order_seed=order_seed))
             for a, b in ORACLE_AB]
    if lengths != (6,):
        cases += [(functools.partial(zarankiewicz_number, n, family,
                                     order_seed=order_seed),
                   functools.partial(_reference_z_n, n, family,
                                     order_seed=order_seed))
                   for n in range(13)]
    for walk, reference in cases:
        full = walk().nodes
        budgets = {0, 1, full // 6, full // 3, full // 2, 2 * full // 3,
                   5 * full // 6, full - 1, full}
        for budget in sorted(b for b in budgets if b >= 0):
            assert _driver_outcome(walk, budget) == \
                _driver_outcome(reference, budget), (walk.args, budget)


def _unfloored(a, b, family, order_seed, cls=search._ZarankiewiczSearch):
    """z(a, b) by the row search with its floor off, as the public calls
    build their results."""
    run = cls(a, b, family, 10**9, order_seed)
    run.search(0, 0)
    return _reference_result("zarankiewicz_ab", (a, b), family,
                             *_reference_reached(run, a + b), run.nodes, True)


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("lengths", [(4,), (4, 6), (4, 6, 8), (4, 8), (6,)])
def test_floors_match_unfloored_search(lengths, order_seed):
    """The staircase floor z(a, b - 1) + 1 and the best-split floor of z(n)
    leave the value, every extremal class and completeness as the search
    without a floor finds them: the size prune is strict, so configurations
    tying the floor are still recorded."""
    family = FamilySpec.of(*lengths)
    for a, b in SMALL_AB:
        res = zarankiewicz_ab(a, b, family, order_seed=order_seed)
        ref = _unfloored(a, b, family, order_seed)
        assert (res.value, res.witnesses, res.completed) == (
            ref.value, ref.witnesses, True), (a, b)
    if lengths not in ((4,), (4, 6)):
        return
    for n in range(13):
        res = zarankiewicz_number(n, family, order_seed=order_seed)
        splits = [_unfloored(a, n - a, family, order_seed)
                  for a in (range(1, n // 2 + 1) if n > 1 else [0])]
        ref = _reference_merge(n, family, splits, completed=True)
        assert (res.value, res.witnesses, res.completed) == (
            ref.value, ref.witnesses, True), n


class _UnprunedZarankiewicz(search._ZarankiewiczSearch):
    """Reference: the size prune edges + rows_left * s < best never fires,
    since best stays -1 while the search runs. record keeps the running best
    and its ties, and the root call hands that best back when it ends."""

    running = -1

    def record(self, edges):
        if edges > self.running:
            self.running = edges
            self.tied = {}
        if edges == self.running:
            self.tied[tuple(self.rows)] = None

    def search(self, used_cols, edges):
        if self.rows:
            return super().search(used_cols, edges)
        self.running, self.best = self.best, -1
        super().search(used_cols, edges)
        self.best = self.running


@pytest.mark.parametrize("lengths", [(4,), (4, 6), (4, 6, 8, 10)])
def test_size_prune_matches_unpruned_search(lengths):
    """The size prune leaves the value and every extremal class as a search
    without it, unfloored, finds them."""
    family = FamilySpec.of(*lengths)
    for a, b in SMALL_AB:
        res = zarankiewicz_ab(a, b, family)
        ref = _unfloored(a, b, family, None, _UnprunedZarankiewicz)
        assert (res.value, res.witnesses) == (ref.value, ref.witnesses), (a, b)


class _UnorderedRowsZarankiewicz(search._ZarankiewiczSearch):
    """Reference: the row search without the lex rule for equal-size rows.
    A row may take any used column whatever the previous row's size, so
    every order of the rows of one size is searched."""

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
                self.record(edges)
                continue
            if edges + rows_left * s < self.best:
                continue
            old = (1 << used_cols) - 1
            for f in range(min(s, self.cols_n - used_cols) + 1):
                fresh = tuple(range(used_cols, used_cols + f))
                for chosen in search._independent_sets(old, conf, s - f):
                    row = tuple(c for c in range(used_cols)
                                if chosen >> c & 1) + fresh
                    self.nodes += 1
                    if self.nodes > self.limit:
                        raise self.over_budget()
                    self.rows.append(row)
                    self.search(used_cols + f, edges + s)
                    self.rows.pop()


@pytest.mark.parametrize("lengths", [(4,), (4, 6)])
def test_lex_rule_matches_unordered_rows(monkeypatch, lengths):
    """The lex rule for equal-size rows (the previous row's first column as
    a floor, and the skip of lex-smaller rows) leaves the value, every
    extremal class and completeness as the search without it finds them.
    The reference searches more rows, so nodes are not compared."""
    family = FamilySpec.of(*lengths)
    for a, b in SMALL_AB:
        call = functools.partial(zarankiewicz_ab, a, b, family)
        fast = _outcome(call)
        monkeypatch.setattr(search, "_ZarankiewiczSearch",
                            _UnorderedRowsZarankiewicz)
        unordered = _outcome(call)
        monkeypatch.undo()
        assert fast[:3] == unordered[:3], (a, b)


class _AnyFreshColumnsZarankiewicz(search._ZarankiewiczSearch):
    """Reference: the row search without the fresh-column rule. A row may be
    any independent set over all the columns, since an unused column has no
    conflicts, so a row's new columns need not be the next unused labels.
    The lex rule for equal-size rows stays. ``used`` is the bitmask of the
    columns the rows so far hold."""

    def search(self, used, edges):
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
                self.record(edges)
                continue
            if edges + rows_left * s < self.best:
                continue
            tied = prev is not None and s == len(prev)
            floor = prev[0] if tied else 0
            columns = (1 << self.cols_n) - (1 << floor)
            for chosen in search._independent_sets(columns, conf, s):
                row = tuple(c for c in range(self.cols_n) if chosen >> c & 1)
                if tied and row < prev:
                    continue
                self.nodes += 1
                if self.nodes > self.limit:
                    raise self.over_budget()
                self.rows.append(row)
                self.search(used | chosen, edges + s)
                self.rows.pop()


@pytest.mark.parametrize("lengths", [(4,), (4, 6)])
def test_fresh_column_rule_matches_any_fresh_columns(monkeypatch, lengths):
    """The fresh-column rule (a row's new columns are the next unused
    labels) leaves the value, every extremal class and completeness as the
    search that lets a row take any columns finds them. The reference
    searches every relabeling of the new columns, so it stops at a·b <= 24
    and nodes are not compared."""
    family = FamilySpec.of(*lengths)
    for a, b in [(a, b) for a, b in SMALL_AB if a * b <= 24]:
        call = functools.partial(zarankiewicz_ab, a, b, family)
        fast = _outcome(call)
        monkeypatch.setattr(search, "_ZarankiewiczSearch",
                            _AnyFreshColumnsZarankiewicz)
        anywhere = _outcome(call)
        monkeypatch.undo()
        assert fast[:3] == anywhere[:3], (a, b)


class _ShuffledAtEveryNode(search._ZarankiewiczSearch):
    """Reference: the size order built and shuffled afresh at every node."""

    def size_order(self, row_index, top):
        sizes = list(range(top, -1, -1))
        if self.order_seed is not None:
            XorShift64Star(self.order_seed + row_index).shuffle(sizes)
        return sizes


@pytest.mark.parametrize("order_seed", [None, 1, 42])
def test_size_order_built_once_matches_every_node(monkeypatch, order_seed):
    """Building each size order once per (row index, top size) leaves the
    value, witnesses, completeness and node count, truncated or not."""
    for call in [
            functools.partial(zarankiewicz_ab, 5, 7, C4),
            functools.partial(zarankiewicz_ab, 6, 6, FamilySpec.of(4, 6)),
            functools.partial(zarankiewicz_number, 11, C4),
            functools.partial(zarankiewicz_number, 11, C4, budget=300)]:
        _against_reference(monkeypatch, "_ZarankiewiczSearch",
                           _ShuffledAtEveryNode,
                           functools.partial(call, order_seed=order_seed))
        monkeypatch.undo()


@pytest.mark.parametrize("call", [
    functools.partial(zarankiewicz_ab, 3, 3, C4),
    functools.partial(zarankiewicz_ab, 3, 3, C4, budget=5),
    functools.partial(zarankiewicz_number, 6, C4),
    functools.partial(zarankiewicz_number, 6, C4, budget=10)])
def test_canonical_cap_reaches_the_caller_unchanged(monkeypatch, call):
    """When labeling the witnesses hits the canonical search's tree-node
    cap, z(a, b) and z(n) raise that error as it is: it names the labeling
    and its cap, not the row search's budget, and carries no result."""
    monkeypatch.setattr(canonical, "_NODE_CAP", 3)
    with pytest.raises(BudgetExceeded, match=r"^canonical search of a graph "
                       r"on 6 vertices exceeded its cap of 3 tree nodes$") \
            as err:
        call()
    assert err.value.result is None


@pytest.mark.parametrize("name", ["_ZarankiewiczSearch"])
def test_floor_above_the_value_raises(monkeypatch, name):
    """A floor with a witness bounds its shape below, so a search that finds
    nothing there has lost a configuration. Given 1 above every certified
    floor, the staircase raises instead of reporting less: at (1, 2) as the
    requested instance, and at (1, 2) as a step below (3, 4)."""
    class AboveTheValue(getattr(search, name)):
        def __init__(self, a, b, family, limit, order_seed, floor=-1):
            super().__init__(a, b, family, limit, order_seed,
                             floor + 1 if floor >= 0 else floor)

    monkeypatch.setattr(search, name, AboveTheValue)
    for a, b in [(1, 2), (3, 4)]:
        with pytest.raises(RuntimeError, match="found nothing at its floor"):
            zarankiewicz_ab(a, b, C4)


@st.composite
def configuration_and_column_permutation(draw):
    cols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.sets(st.integers(0, cols - 1)), max_size=5))
    perm = draw(st.permutations(range(cols)))
    return [tuple(sorted(r)) for r in rows], cols, perm


def _configuration_graph(rows, cols):
    return Graph(len(rows) + cols,
                 [(i, len(rows) + c) for i, row in enumerate(rows) for c in row])


@given(configuration_and_column_permutation())
@settings(max_examples=200, deadline=None)
def test_column_key_is_invariant_under_column_permutation(case):
    rows, cols, perm = case
    moved = [tuple(sorted(perm[c] for c in row)) for row in rows]
    assert search._column_key(rows, cols) == search._column_key(moved, cols)
    assert canonical_graph(_configuration_graph(rows, cols)) == \
        canonical_graph(_configuration_graph(moved, cols))


def test_one_labeling_per_column_class(monkeypatch):
    """z(3, 9) ties many configurations at order seed 42 but labels one per
    column class."""
    labeled, keys = [], []
    column_key = search._column_key

    def counting_labeling(G, *args):
        labeled.append(G)
        return canonical_labeling(G, *args)

    def recording_key(rows, cols_n):
        keys.append(column_key(rows, cols_n))
        return keys[-1]

    monkeypatch.setattr(search, "canonical_labeling", counting_labeling)
    monkeypatch.setattr(search, "_column_key", recording_key)
    res = zarankiewicz_ab(3, 9, C4, order_seed=42)
    assert res.completed and res.value == 12
    assert len(labeled) == len(set(keys)) < len(keys)


@pytest.mark.parametrize("lengths", [(4,), (4, 6)])
def test_witnesses_take_the_first_tie_of_each_column_class(lengths):
    """The row search hands over, in the order found, the graph of the first
    tied configuration of every column class, and no other graph."""
    family = FamilySpec.of(*lengths)
    for a, b in SMALL_AB:
        run = search._ZarankiewiczSearch(a, b, family, 10**9, None)
        run.search(0, 0)
        keys = [search._column_key(rows, run.cols_n) for rows in run.tied]
        firsts = [rows for i, rows in enumerate(run.tied)
                  if keys[i] not in keys[:i]]
        assert run.witnesses() == [run.make_graph(rows) for rows in firsts]


@pytest.mark.parametrize("lengths,top", [((4,), 16), ((4, 6), 16),
                                         ((4, 6, 8), 14)])
def test_turan_with_every_odd_cycle_matches_row_search(lengths, top):
    """A graph on n vertices with no odd cycle of length at most n is
    bipartite, so ex(n; F + every odd length 3..n) = z(n; F), with the same
    extremal classes. The Turán search shares none of the row search's cuts
    and symmetry rules, only canonical labeling."""
    for n in range(top + 1):
        turan = turan_number(
            n, FamilySpec.of(*lengths, *range(3, n + 1, 2)))
        rows = zarankiewicz_number(n, FamilySpec.of(*lengths))
        assert (turan.value, turan.witnesses, turan.completed) == (
            rows.value, rows.witnesses, rows.completed), n


@pytest.mark.parametrize("n,lengths", [(8, (4, 5)), (7, (3,)), (9, (4, 7))])
def test_turan_budget_boundary(n, lengths):
    """A budget of exactly the nodes a full run takes completes it with
    the same result; one node less raises."""
    family = FamilySpec.of(*lengths)
    full = turan_number(n, family, order_seed=1)
    exact = turan_number(n, family, budget=full.nodes, order_seed=1)
    assert (exact.value, exact.witnesses, exact.completed, exact.nodes) == (
        full.value, full.witnesses, True, full.nodes)
    with pytest.raises(BudgetExceeded):
        turan_number(n, family, budget=full.nodes - 1, order_seed=1)


@pytest.mark.parametrize("order_seed", [None, 1])
@pytest.mark.parametrize("n,lengths", [(8, (4, 5)), (7, (3,))])
def test_truncated_turan_is_an_honest_lower_bound(n, lengths, order_seed):
    """A truncated search reports at most the exact value, each witness is
    a family-free graph on n vertices with that many edges, and a larger
    budget never reports less."""
    family = FamilySpec.of(*lengths)
    full = turan_number(n, family, order_seed=order_seed)
    previous = 0
    for budget in range(0, full.nodes, max(1, full.nodes // 40)):
        with pytest.raises(BudgetExceeded) as err:
            turan_number(n, family, budget=budget, order_seed=order_seed)
        res = err.value.result
        assert not res.completed
        assert previous <= res.value <= full.value
        assert res.witnesses
        for enc in res.witnesses:
            g = graph6_decode(enc)
            assert (g.n, g.m) == (n, res.value)
            assert not any(contains_cycle(g, length) for length in lengths)
        previous = res.value


@pytest.mark.parametrize("order_seed", [None, 1])
def test_truncated_long_family_z_is_an_honest_lower_bound(order_seed):
    """As for Turán: a search of z(6, 6; {C4, C6}) stopped by its budget
    reports at most the exact value, never less for a larger budget, and
    witnesses that are {C4, C6}-free on 12 vertices with that many edges."""
    lengths = (4, 6)
    family = FamilySpec.of(*lengths)
    full = zarankiewicz_ab(6, 6, family, order_seed=order_seed)
    previous = 0
    for budget in range(0, full.nodes, max(1, full.nodes // 20)):
        with pytest.raises(BudgetExceeded) as err:
            zarankiewicz_ab(6, 6, family, budget=budget, order_seed=order_seed)
        res = err.value.result
        assert not res.completed
        assert previous <= res.value <= full.value
        assert res.witnesses
        for enc in res.witnesses:
            g = graph6_decode(enc)
            assert (g.n, g.m) == (12, res.value)
            assert not any(contains_cycle(g, length) for length in lengths)
        previous = res.value


@pytest.mark.parametrize("from_env", [False, True])
def test_truncated_z_keeps_completed_splits(monkeypatch, from_env):
    """A budget that stops z(10) in split (3, 7) still reports the splits
    finished before it and that split's own partial result. The balanced
    split (5, 5) runs first and each later split under the best split value
    so far, each on what the earlier splits left of the one budget, whether
    that budget is passed in or read from GIRTHLAB_BUDGET."""
    def split(a, budget, done):
        floor = max(r.value for r in done) if done else -1
        return _reference_z(a, 10 - a, C4, budget, None, floor)

    full = []
    for a in (5, 4, 3):
        full.append(split(a, 10**9, full))
    budget = full[0].nodes + full[1].nodes + full[2].nodes // 2
    finished, partial = [], None
    for a in range(5, 0, -1):
        left = budget - sum(r.nodes for r in finished)
        try:
            finished.append(split(a, left, finished))
        except BudgetExceeded as exc:
            partial = exc.result
            break
    assert len(finished) == 2 and partial is not None
    if from_env:
        monkeypatch.setenv("GIRTHLAB_BUDGET", str(budget))
    with pytest.raises(BudgetExceeded) as err:
        zarankiewicz_number(10, C4, budget=None if from_env else budget)
    res = err.value.result
    assert not res.completed
    assert res.value == max(r.value for r in finished + [partial]) == 12
    assert res.witnesses
    assert res.nodes == sum(r.nodes for r in finished) + partial.nodes
    assert res.nodes == budget + 1


@pytest.mark.parametrize("instance,family", [
    ((0, 5), C4), ((3, 0), C4), ((3, 4), FamilySpec.of(3, 5)),
    ((5, 5), C3), ((6,), FamilySpec.of(3, 5)), ((1,), C4)])
def test_budget_covers_trivial_z_instances(instance, family):
    """An empty part and a family without even lengths run through the row
    search like any other instance: budget 0 stops them with the empty
    graph as the lower bound, and the nodes of a full run complete them
    with the same result."""
    call = functools.partial(
        zarankiewicz_ab if len(instance) == 2 else zarankiewicz_number,
        *instance, family)
    full = call()
    with pytest.raises(BudgetExceeded) as err:
        call(budget=0)
    res = err.value.result
    assert (res.value, res.witnesses, res.completed) == (
        0, (graph6_encode(Graph(sum(instance))),), False)
    exact = call(budget=full.nodes)
    assert (exact.value, exact.witnesses, exact.completed) == (
        full.value, full.witnesses, True)


@pytest.mark.parametrize("n", range(6, 11))
def test_zarankiewicz_budget_boundary(n):
    """One budget covers every part split of z(n): a budget of exactly the
    nodes a full run takes completes it with the same result; one node less
    raises, having spent at most one node over the budget."""
    full = zarankiewicz_number(n, C4, order_seed=1)
    exact = zarankiewicz_number(n, C4, budget=full.nodes, order_seed=1)
    assert (exact.value, exact.witnesses, exact.completed, exact.nodes) == (
        full.value, full.witnesses, True, full.nodes)
    budget = full.nodes - 1
    with pytest.raises(BudgetExceeded) as err:
        zarankiewicz_number(n, C4, budget=budget, order_seed=1)
    assert err.value.result.nodes <= budget + 1
    assert f"z({n}; {{C4}})" in str(err.value)
    assert f"budget of {budget} " in str(err.value)
