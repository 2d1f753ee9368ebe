import itertools

import pytest

from girthlab.errors import NoSuchPair
from girthlab.finite_field import ff_make, ff_mul
from girthlab.geometry import (
    absolute_points,
    augment_distance_two,
    gq_w3,
    incidence_graph,
    pg2_incidence,
    polarity_graph,
)
from girthlab.graph import (
    BipartiteGraph,
    contains_cycle,
    cycle_spectrum,
    diameter,
    girth,
)


def brute_plane_counts(q):
    """Independent oracle: enumerate GF(q)^3 minus zero up to scaling and
    count a.x = 0 incidences directly."""
    F = ff_make(q)

    def dot(u, v):
        total = 0
        for x, y in zip(u, v):
            total = F.add[total][ff_mul(F, x, y)]
        return total

    seen = set()
    for vec in itertools.product(range(q), repeat=3):
        if vec == (0, 0, 0):
            continue
        lead = next(c for c in vec if c)
        inv = F.inv[lead]
        seen.add(tuple(ff_mul(F, inv, c) for c in vec))
    pts = sorted(seen)
    pairs = sum(1 for a in pts for x in pts if dot(a, x) == 0)
    return len(pts), pairs


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_plane_counts_match_oracle(q):
    struct = pg2_incidence(q)
    n_pts, n_pairs = brute_plane_counts(q)
    assert struct.n_points == n_pts == q * q + q + 1
    assert struct.n_lines == n_pts
    assert len(struct.pairs) == n_pairs == (q + 1) * n_pts


@pytest.mark.parametrize("q", [2, 3])
def test_plane_axioms(q):
    struct = pg2_incidence(q)
    on_line = [set(line) for line in struct.line_points]
    for line in on_line:
        assert len(line) == q + 1
    for p1 in range(struct.n_points):
        for p2 in range(p1 + 1, struct.n_points):
            common = sum(1 for line in on_line if p1 in line and p2 in line)
            assert common == 1


@pytest.mark.parametrize("q,pts,lines,pairs", [(2, 15, 15, 45), (3, 40, 40, 160)])
def test_quadrangle_counts(q, pts, lines, pairs):
    struct = gq_w3(q)
    assert (struct.n_points, struct.n_lines, len(struct.pairs)) == (pts, lines, pairs)
    for line in struct.line_points:
        assert len(line) == q + 1


def brute_quadrangle_lines(q):
    """Independent oracle: every line of PG(3, q) as the normalized nonzero
    combinations a*x + b*y of each pair of points x, y on it, kept when
    x1*y2 - x2*y1 + x3*y4 - x4*y3 vanishes on every pair of its points."""
    F = ff_make(q)

    def normalize(vec):
        inv = F.inv[next(c for c in vec if c)]
        return tuple(ff_mul(F, inv, c) for c in vec)

    def form(x, y):
        total = 0
        for i, j, sign in ((0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1)):
            term = ff_mul(F, x[i], y[j])
            total = F.add[total][term if sign > 0 else F.neg[term]]
        return total

    pts = sorted({normalize(v) for v in itertools.product(range(q), repeat=4)
                  if any(v)})
    index = {p: i for i, p in enumerate(pts)}
    lines = set()
    for x, y in itertools.combinations(pts, 2):
        span = {normalize(tuple(F.add[ff_mul(F, a, xc)][ff_mul(F, b, yc)]
                                for xc, yc in zip(x, y)))
                for a in range(q) for b in range(q) if (a, b) != (0, 0)}
        lines.add(tuple(sorted(index[p] for p in span)))
    return sorted(line for line in lines
                  if all(form(pts[i], pts[j]) == 0
                         for i, j in itertools.combinations(line, 2)))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_quadrangle_lines_match_oracle(q):
    """Each totally isotropic line, built once from its first pair, gives
    the oracle's sorted line list; a line is named by its two first
    points."""
    struct = gq_w3(q)
    assert list(struct.line_points) == brute_quadrangle_lines(q)
    assert struct.lines == tuple(line[:2] for line in struct.line_points)


def test_quadrangle_point_degrees():
    struct = gq_w3(2)
    per_point = [0] * struct.n_points
    for p, _ in struct.pairs:
        per_point[p] += 1
    assert set(per_point) == {3}


@pytest.mark.parametrize("q,girth_expect,diam_expect", [(2, 6, 3), (3, 6, 3),
                                                        (4, 6, 3), (5, 6, 3)])
def test_plane_incidence_graph(q, girth_expect, diam_expect):
    g = incidence_graph(pg2_incidence(q))
    n = 2 * (q * q + q + 1)
    assert g.n == n
    assert g.m == (q + 1) * n // 2
    assert set(g.degrees()) == {q + 1}
    assert girth(g) == girth_expect
    assert diameter(g) == diam_expect


@pytest.mark.parametrize("q,girth_expect,diam_expect", [(2, 8, 4), (3, 8, 4)])
def test_quadrangle_incidence_graph(q, girth_expect, diam_expect):
    g = incidence_graph(gq_w3(q))
    n = 2 * (q**3 + q**2 + q + 1)
    assert g.n == n
    assert g.m == (q + 1) * n // 2
    assert set(g.degrees()) == {q + 1}
    assert girth(g) == girth_expect
    assert diameter(g) == diam_expect


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_polarity_graph_shape(q):
    g = polarity_graph(q)
    assert g.n == q * q + q + 1
    assert g.m == q * (q + 1) ** 2 // 2
    assert not contains_cycle(g, 4)
    low = [v for v in range(g.n) if g.degree(v) == q]
    assert len(low) == q + 1
    assert sorted(low) == sorted(absolute_points(q))
    assert all(g.degree(v) == q + 1 for v in range(g.n) if v not in low)


def test_polarity_q2_small_values():
    g = polarity_graph(2)
    assert (g.n, g.m) == (7, 9)
    assert sorted(g.degrees()).count(2) == 3


def test_polarity_q3_edges():
    assert polarity_graph(3).m == 24


class TestAugmentation:
    def test_tutte_coxeter(self, tutte_coxeter):
        aug, (x, y) = augment_distance_two(tutte_coxeter)
        assert aug.m == 46
        assert tutte_coxeter.side[x] == tutte_coxeter.side[y]
        spec = cycle_spectrum(aug, 8)
        assert 3 in spec
        assert not spec & {4, 5, 6}

    def test_heawood(self, heawood):
        aug, _ = augment_distance_two(heawood)
        assert aug.m == 22
        assert 3 in cycle_spectrum(aug, 6)

    def test_path_in_one_part(self):
        h = BipartiteGraph(3, [(0, 1), (1, 2)], [0, 1, 0])
        aug, (x, y) = augment_distance_two(h)
        assert aug.m == 3
        assert (x, y) == (0, 2)

    def test_no_pair(self):
        h = BipartiteGraph(2, [(0, 1)], [0, 1])
        with pytest.raises(NoSuchPair):
            augment_distance_two(h)


def test_incidence_graph_deterministic(heawood):
    again = incidence_graph(pg2_incidence(2))
    assert again == heawood
    assert again.side == heawood.side
