#!/usr/bin/env python3
"""Tabulate exact bipartite extremal numbers z(a, b) for a forbidden even
cycle family, next to the closed-form upper bound (ab)^(1/2+1/(2L)) + max(a,b)
at the largest L <= ell that is 2 or odd, which the table prints.

Usage:
  python scripts/zarankiewicz_table.py --max-side 7
  python scripts/zarankiewicz_table.py --max-side 5 --ell 3

A search that runs out of its node budget (GIRTHLAB_BUDGET) prints its
lower bound, flagged as budget-truncated.
"""

import argparse
import time

from girthlab.errors import BudgetExceeded
from girthlab.search import (
    FamilySpec,
    bound_ell,
    unbalanced_z_bound,
    zarankiewicz_ab,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-side", type=int, default=7)
    ap.add_argument("--ell", type=int, default=2,
                    help="forbid even cycles up to length 2*ell")
    args = ap.parse_args()
    if args.ell < 2:
        ap.error("--ell must be at least 2")

    family = FamilySpec.even_cycles(args.ell)
    ell = bound_ell(args.ell)
    print(f"forbidden: {family.describe()}")
    print(f"bound: (ab)^(1/2+1/(2*ell)) + max(a, b) at ell = {ell}")
    print(f"{'a':>3} {'b':>3} {'z':>4} {'bound':>8} {'nodes':>10} {'sec':>7}")
    for a in range(2, args.max_side + 1):
        for b in range(a, args.max_side + 1):
            t0 = time.monotonic()
            try:
                res = zarankiewicz_ab(a, b, family)
            except BudgetExceeded as exc:
                res = exc.result
            bound = unbalanced_z_bound(a, b, ell)
            flag = "" if res.completed else "  (budget-truncated!)"
            print(f"{a:>3} {b:>3} {res.value:>4} {bound:>8.2f} "
                  f"{res.nodes:>10} {time.monotonic() - t0:>7.2f}{flag}")


if __name__ == "__main__":
    main()
