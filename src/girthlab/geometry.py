"""Finite-geometry graph constructions: projective-plane and symplectic
generalized-quadrangle incidence structures, orthogonal polarity graphs, and
the distance-two augmentation that trades bipartiteness for one extra edge.

Conventions (fixed for bit-for-bit reproducible output):
  * projective points are coordinate vectors over GF(q) normalized so the
    first nonzero coordinate is 1, ordered lexicographically;
  * lines of PG(2,q) are normalized dual triples, ordered the same way;
  * lines of PG(3,q) are identified by their full sorted point-index tuple
    and ordered by it; the two smallest indices span the line;
  * the symplectic form is <x,y> = x1*y2 - x2*y1 + x3*y4 - x4*y3;
  * incidence-graph vertices are points first, then lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import NoSuchPair
from .finite_field import FieldTable, ff_add, ff_dot, ff_inv, ff_make, ff_mul, ff_neg
from .graph import BipartiteGraph, Graph, neighborhood_layers


@dataclass(frozen=True)
class IncidenceStructure:
    """Points, lines, and their incidence pairs for one geometry."""

    q: int
    kind: str
    points: tuple  # coordinate vectors
    lines: tuple  # descriptors: dual triple (plane) or 2 point indices (gq)
    line_points: tuple  # per line, the sorted tuple of incident point indices
    pairs: tuple  # sorted (point index, line index) pairs

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_lines(self) -> int:
        return len(self.lines)


def _projective_points(F: FieldTable, length: int) -> tuple:
    pts = []
    for vec in product(range(F.q), repeat=length):
        lead = next((c for c in vec if c != 0), None)
        if lead == 1:
            pts.append(vec)
    pts.sort()
    return tuple(pts)


def _normalize(F: FieldTable, vec) -> tuple:
    lead = next((c for c in vec if c != 0), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    if lead == 1:
        return tuple(vec)
    s = ff_inv(F, lead)
    return tuple(ff_mul(F, s, c) for c in vec)


def pg2_incidence(q: int) -> IncidenceStructure:
    """Point-line incidence of the projective plane PG(2,q).

    q^2+q+1 points and as many lines; line a contains point x iff a.x = 0.
    """
    F = ff_make(q)
    pts = _projective_points(F, 3)
    lines = pts  # dual triples range over the same normalized vectors
    line_points = []
    pairs = []
    for li, a in enumerate(lines):
        incident = tuple(
            pi for pi, x in enumerate(pts) if ff_dot(F, a, x) == 0
        )
        line_points.append(incident)
        pairs.extend((pi, li) for pi in incident)
    return IncidenceStructure(
        q=q,
        kind="projective_plane",
        points=pts,
        lines=lines,
        line_points=tuple(line_points),
        pairs=tuple(sorted(pairs)),
    )


def _symplectic(F: FieldTable, x, y) -> int:
    a = ff_add(F, ff_mul(F, x[0], y[1]), ff_neg(F, ff_mul(F, x[1], y[0])))
    b = ff_add(F, ff_mul(F, x[2], y[3]), ff_neg(F, ff_mul(F, x[3], y[2])))
    return ff_add(F, a, b)


def gq_w3(q: int) -> IncidenceStructure:
    """The symplectic generalized quadrangle W(3,q).

    Points are all points of PG(3,q); lines are the lines of PG(3,q) that
    are totally isotropic under the fixed alternating form. Each of the
    q^3+q^2+q+1 points lies on q+1 of the q^3+q^2+q+1 lines.

    Each line is built once, from its first isotropic pair: a pair already
    on a found line spans that line, so it is skipped.
    """
    F = ff_make(q)
    pts = _projective_points(F, 4)
    index = {p: i for i, p in enumerate(pts)}
    lines = []
    collinear = [0] * len(pts)  # per point, a mask of the found lines' points
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if collinear[i] >> j & 1:
                continue
            y = pts[j]
            if _symplectic(F, x, y) != 0:
                continue
            members = {j}
            for lam in range(F.q):
                combo = tuple(
                    ff_add(F, xc, ff_mul(F, lam, yc)) for xc, yc in zip(x, y)
                )
                members.add(index[_normalize(F, combo)])
            line = tuple(sorted(members))
            lines.append(line)
            mask = sum(1 << p for p in line)
            for p in line:
                collinear[p] |= mask
    ordered = sorted(lines)
    # alternating + bilinear: every point pair on each line must pair to zero
    for line in ordered:
        for ai in line:
            for bi in line:
                if ai < bi and _symplectic(F, pts[ai], pts[bi]) != 0:
                    raise AssertionError("non-isotropic pair on a kept line")
    pairs = [(pi, li) for li, line in enumerate(ordered) for pi in line]
    return IncidenceStructure(
        q=q,
        kind="symplectic_quadrangle",
        points=pts,
        lines=tuple(line[:2] for line in ordered),
        line_points=tuple(ordered),
        pairs=tuple(sorted(pairs)),
    )


def incidence_graph(struct: IncidenceStructure) -> BipartiteGraph:
    """Bipartite point-line incidence graph; X = points, Y = lines."""
    np_, nl = struct.n_points, struct.n_lines
    edges = [(pi, np_ + li) for pi, li in struct.pairs]
    side = [0] * np_ + [1] * nl
    return BipartiteGraph(np_ + nl, edges, side)


def polarity_graph(q: int) -> Graph:
    """Orthogonal polarity graph on the points of PG(2,q): u ~ v iff
    u.v = 0 and u != v. C4-free with q(q+1)^2/2 edges; the q+1 self-conjugate
    points (u.u = 0) have degree q, all others degree q+1.
    """
    F = ff_make(q)
    pts = _projective_points(F, 3)
    edges = [
        (i, j)
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if ff_dot(F, pts[i], pts[j]) == 0
    ]
    return Graph(len(pts), edges)


def absolute_points(q: int) -> tuple:
    """Indices of the self-conjugate points of the orthogonal polarity."""
    F = ff_make(q)
    pts = _projective_points(F, 3)
    return tuple(i for i, p in enumerate(pts) if ff_dot(F, p, p) == 0)


def augment_distance_two(H: BipartiteGraph) -> tuple:
    """Add one edge between the lexicographically first same-part pair at
    distance exactly two; returns (augmented Graph, (x, y)).

    Raises NoSuchPair when no same-part pair is at distance two.
    """
    for x in range(H.n):
        layers = neighborhood_layers(H, x, 2)
        two = [y for y in layers[2] if H.side[y] == H.side[x]]
        if two:
            y = min(two)
            return Graph(H.n, H.edges() + [(x, y)]), (x, y)
    raise NoSuchPair("no same-part pair at distance two")
