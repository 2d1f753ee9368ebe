#!/usr/bin/env python3
"""Tabulate exact Turán numbers ex(n; C_4, ..., C_2ell, C_k) for the odd
lengths k = 2ell + 1 and 2ell + 3, next to the bipartite number
z(n; C_4, ..., C_2ell), which they approach as n grows.

Usage:
  python scripts/turan_table.py --max-n 14
  python scripts/turan_table.py --max-n 12 --ell 3

Each value comes with its search nodes, its seconds and a truncation flag:
a search that runs out of its node budget (GIRTHLAB_BUDGET) prints its
lower bound and "yes" under "trunc".
"""

import argparse
import time

from girthlab.errors import BudgetExceeded
from girthlab.search import FamilySpec, turan_number, zarankiewicz_number


def columns(ell):
    """(name, search, family) of each column of the table."""
    odd = [FamilySpec.even_cycles_plus_odd(ell, k)
           for k in (2 * ell + 1, 2 * ell + 3)]
    even = FamilySpec.even_cycles(ell)
    return ([(f"ex(n;{_lengths(f)})", turan_number, f) for f in odd]
            + [(f"z(n;{_lengths(even)})", zarankiewicz_number, even)])


def _lengths(family):
    return ",".join(f"C{x}" for x in sorted(family.lengths))


def timed(search, n, family):
    """(result, seconds); a budget-truncated result keeps its lower bound."""
    t0 = time.monotonic()
    try:
        res = search(n, family)
    except BudgetExceeded as exc:
        res = exc.result
    return res, time.monotonic() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=14)
    ap.add_argument("--ell", type=int, default=2,
                    help="forbid even cycles up to length 2*ell")
    args = ap.parse_args()
    if args.ell < 2:
        ap.error("--ell must be at least 2")

    table = [(name, search, family, max(12, len(name)))
             for name, search, family in columns(args.ell)]
    print(f"{'n':>3}" + "".join(
        f" {name:>{width}} {'nodes':>8} {'sec':>7} {'trunc':>5}"
        for name, _, _, width in table))
    for n in range(1, args.max_n + 1):
        row = f"{n:>3}"
        for _, search, family, width in table:
            res, seconds = timed(search, n, family)
            flag = "no" if res.completed else "yes"
            row += (f" {res.value:>{width}} {res.nodes:>8} {seconds:>7.2f}"
                    f" {flag:>5}")
        print(row, flush=True)


if __name__ == "__main__":
    main()
