#!/usr/bin/env python3
"""Tabulate exact Turán numbers ex(n; {C4, C5}) and ex(n; {C4, C7}) next to
the bipartite number z(n; C4), which they approach as n grows.

Usage:
  python scripts/turan_table.py --max-n 14

Each value comes with its search nodes, its seconds and a truncation flag:
a search that runs out of its node budget (GIRTHLAB_BUDGET) prints its
lower bound and "yes" under "trunc".
"""

import argparse
import time

from girthlab.errors import BudgetExceeded
from girthlab.search import FamilySpec, turan_number, zarankiewicz_number

COLUMNS = (
    ("ex(n;C4,C5)", turan_number, FamilySpec.of(4, 5)),
    ("ex(n;C4,C7)", turan_number, FamilySpec.of(4, 7)),
    ("z(n;C4)", zarankiewicz_number, FamilySpec.of(4)),
)


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
    args = ap.parse_args()

    print(f"{'n':>3}" + "".join(
        f" {name:>12} {'nodes':>8} {'sec':>7} {'trunc':>5}"
        for name, _, _ in COLUMNS))
    for n in range(1, args.max_n + 1):
        row = f"{n:>3}"
        for _, search, family in COLUMNS:
            res, seconds = timed(search, n, family)
            flag = "no" if res.completed else "yes"
            row += f" {res.value:>12} {res.nodes:>8} {seconds:>7.2f} {flag:>5}"
        print(row, flush=True)


if __name__ == "__main__":
    main()
