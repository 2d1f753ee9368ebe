"""Command-line entry point.

Subcommands:
  construct  build a named graph (pg2 | gq | polarity | augment) and write
             it as graph6, edge-list JSON, or DOT
  analyze    girth, degree histogram, bipartiteness, bounded cycle
             spectrum, chromatic number of a graph file
  verify     run a verification suite and emit a JSON run report

Exit codes: 0 pass, 1 check failure, 2 bad arguments or an unwritable --out,
3 an unreadable or malformed input, 4 budget exhausted. The environment
variable GIRTHLAB_BUDGET overrides the default enumeration budgets.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .budgets import node_budget
from .errors import (
    BudgetExceeded,
    GirthlabError,
    ParseError,
    Unsupported,
    UnsupportedOrder,
)
from .formats import graph6_encode, load_graph, to_dot, to_edge_json
from .geometry import (
    augment_distance_two,
    gq_w3,
    incidence_graph,
    pg2_incidence,
    polarity_graph,
)
from .graph import Graph, chromatic_number, cycle_spectrum, girth, is_bipartite
from .verify import SUITES, run_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4


def build_construction(kind: str, q: int, base: str = "gq") -> Graph:
    if kind == "pg2":
        return incidence_graph(pg2_incidence(q))
    if kind == "gq":
        return incidence_graph(gq_w3(q))
    if kind == "polarity":
        return polarity_graph(q)
    if kind == "augment":
        source = pg2_incidence(q) if base == "pg2" else gq_w3(q)
        graph, _ = augment_distance_two(incidence_graph(source))
        return graph
    raise ValueError(f"unknown construction kind {kind!r}")


def _serialize(G: Graph, fmt: str) -> bytes:
    if fmt == "graph6":
        return graph6_encode(G) + b"\n"
    if fmt == "json":
        return (to_edge_json(G) + "\n").encode("ascii")
    if fmt == "dot":
        return to_dot(G).encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def _write(data: bytes, out):
    try:
        if out is None or out == "-":
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:
            with open(out, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        # so that every OSError main sees comes from reading the input
        raise ValueError(f"cannot write the output: {exc}") from exc


def cmd_construct(args) -> int:
    graph = build_construction(args.kind, args.q, args.base)
    _write(_serialize(graph, args.format), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    graph = load_graph(args.path)
    g = girth(graph)
    lmax = min(args.lmax, graph.n) if graph.n >= 3 else 0
    spectrum = (sorted(cycle_spectrum(graph, lmax, budget=args.budget))
                if lmax >= 3 else [])
    report = {
        "path": args.path,
        "vertices": graph.n,
        "edges": graph.m,
        "girth": None if g == float("inf") else int(g),
        "degree_histogram": dict(sorted(Counter(graph.degrees()).items())),
        "bipartite": is_bipartite(graph),
        "cycle_spectrum_lmax": lmax,
        "cycle_spectrum": spectrum,
        "chromatic_number": (
            chromatic_number(graph, budget=args.budget)
            if graph.n <= 64 else None
        ),
    }
    _write((json.dumps(report, indent=2, sort_keys=True) + "\n").encode(),
           args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verify(args.suite, seed=args.seed, budget=args.budget)
    _write(report.to_json().encode(), args.out)
    failed = [r for r in report.records if r.holds is False]
    for fail in failed:
        print(f"FAIL {fail.name} [{fail.instance}]: {fail.lhs} vs {fail.rhs}",
              file=sys.stderr)
    return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED


def _budget_option(text: str) -> int:
    try:
        return node_budget(text, source="--budget")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from exc


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthlab",
        description="constructions and verification for graphs without "
                    "short even cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a named graph")
    pc.add_argument("kind", choices=["pg2", "gq", "polarity", "augment"])
    pc.add_argument("q", type=int, help="field order")
    pc.add_argument("--format", choices=["graph6", "json", "dot"],
                    default="graph6")
    pc.add_argument("--base", choices=["gq", "pg2"], default="gq",
                    help="incidence graph to augment (augment kind only)")
    pc.add_argument("--out", default=None, help="output path (default stdout)")
    pc.set_defaults(func=cmd_construct)

    pa = sub.add_parser("analyze", help="summarize a graph file")
    pa.add_argument("path")
    pa.add_argument("--lmax", type=int, default=16,
                    help="cycle spectrum length cap (default 16)")
    pa.add_argument("--budget", type=_budget_option, default=None,
                    help="node budget of the cycle and chromatic searches")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=list(SUITES))
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--budget", type=_budget_option, default=None)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UnsupportedOrder, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (ParseError, Unsupported, OSError) as exc:
        # OSError: the input file could not be read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GirthlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
