#!/usr/bin/env python3
"""Run the dense-bipartite-subgraph extraction on the distance-two
augmentation of the W(3,q) incidence graph, the graph that
`girthlab construct augment q` builds, and print the layer profile, the
retained edge count, and how it compares with the degree heuristics.

The augmented graph is free of C4, C5 and C6 but not bipartite, and its
diameter is 4, so layers ell and ell + 1 are both nonempty for ell = 2, 3.
(A polarity graph has diameter 2 and leaves nothing to extract.) At q = 3
the layers are (1, 5, 14, 42) at ell = 2, with 42 edges extracted, and
(1, 5, 14, 42, 18) at ell = 3, with 72.

The path and cycle counts take their node budget from GIRTHLAB_BUDGET,
else 100,000,000 path nodes. As with the girthlab command, a count that
runs out of it ends the script with a one-line message and exit status 4,
and a GIRTHLAB_BUDGET that is not a node count >= 0 with one line and
exit status 2.

Usage:
  python scripts/extraction_demo.py --q 5
  python scripts/extraction_demo.py --q 4 --ell 2 --delta 5
  GIRTHLAB_BUDGET=1000000 python scripts/extraction_demo.py --q 13 --ell 3
"""

import argparse
import sys

from girthlab.errors import BudgetExceeded
from girthlab.finite_field import SUPPORTED_ORDERS
from girthlab.geometry import augment_distance_two, gq_w3, incidence_graph
from girthlab.graph import is_family_free
from girthlab.search import FamilySpec
from girthlab.stability import extract_bipartite, high_degree_edge_fraction


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=int, default=5, choices=SUPPORTED_ORDERS)
    ap.add_argument("--ell", type=int, default=2,
                    help="extract between BFS layers ell and ell + 1")
    ap.add_argument("--delta", type=int, default=None)
    args = ap.parse_args()
    if args.ell < 2:
        ap.error("--ell must be at least 2")
    # the root is chosen by counting paths of length ell + 1 <= 8
    if args.ell > 7:
        ap.error("--ell must be at most 7")
    if args.delta is not None and args.delta < 0:
        ap.error("--delta must be at least 0")
    try:
        demo(args)
    except ValueError as exc:
        # a GIRTHLAB_BUDGET that is not a node count
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(4)


def demo(args):
    g, _ = augment_distance_two(incidence_graph(gq_w3(args.q)))
    d = float(g.average_degree())
    print(f"augmented W(3,q) incidence graph q={args.q}: n={g.n} m={g.m} "
          f"avg degree {d:.3f}")
    rep = extract_bipartite(g, args.ell, delta=args.delta)
    print(f"truncation threshold {rep.delta}: removed "
          f"{rep.removed_by_truncation} edges")
    print(f"root {rep.root} starts {rep.path_count_from_root} paths of "
          f"length {args.ell + 1}")
    print(f"layer sizes {rep.layer_sizes}")
    print(f"extracted bipartite subgraph: {rep.subgraph.n} vertices, "
          f"{rep.edges_extracted} edges (d^{args.ell + 1} = "
          f"{d ** (args.ell + 1):.1f})")
    if rep.edges_extracted:
        free = is_family_free(rep.subgraph, FamilySpec.even_cycles(args.ell))
        print(f"subgraph inherits forbidden-cycle freeness: {free}")
    else:
        # every vertex of layer ell + 1 has a neighbour in layer ell
        print(f"layer {args.ell + 1} is empty: nothing extracted")
    outliers = high_degree_edge_fraction(g, 0.5)
    print(f"edges at degree >= 1.5*sqrt(n) vertices: "
          f"{outliers.edges_at_sqrt_outliers} (bound {outliers.sqrt_bound:.1f})")


if __name__ == "__main__":
    main()
