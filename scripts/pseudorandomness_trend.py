#!/usr/bin/env python3
"""Edge-density deviation trend over the projective-plane incidence graphs.

For each field order q, sample random (S, T) pairs (each vertex kept with
probability 1/2) and report max and mean of |e(S,T) - (2d/n)|S||T||,
normalized by n^(3/2). The normalized maximum should shrink as q grows.
"""

import argparse

from girthlab.finite_field import SUPPORTED_ORDERS
from girthlab.geometry import incidence_graph, pg2_incidence
from girthlab.search import polygon_vertex_count
from girthlab.spectral import pseudorandomness_report, spectral_summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=42)
    # the eigensolver takes at most 512 vertices, and PG(2, q) incidence
    # graphs have polygon_vertex_count(q, 2)
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4, 5],
                    choices=[q for q in SUPPORTED_ORDERS
                             if polygon_vertex_count(q, 2) <= 512])
    args = ap.parse_args()
    if args.samples < 0:
        ap.error("--samples must be at least 0")

    print(f"{'q':>3} {'n':>4} {'lam':>8} {'max_dev':>9} {'norm_max':>9} "
          f"{'norm_mean':>9}")
    prev = None
    for q in args.orders:
        g = incidence_graph(pg2_incidence(q))
        summary = spectral_summary(g, bipartite=True)
        rep = pseudorandomness_report(g, args.samples, args.seed, ell=2)
        trend = ""
        if prev is not None:
            trend = "  v" if rep.normalized_max <= prev else "  ^ (increase)"
        prev = rep.normalized_max
        print(f"{q:>3} {g.n:>4} {summary.lam:>8.4f} {rep.max_deviation:>9.3f} "
              f"{rep.normalized_max:>9.5f} {rep.normalized_mean:>9.5f}{trend}")


if __name__ == "__main__":
    main()
