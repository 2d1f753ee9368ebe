"""Verification suites: a fixed registry of checks over the canonical
instance set (constructions at small field orders plus seeded random
corpora), producing machine-readable run reports.

Each record carries a descriptive ``ref`` tag naming the mathematical fact
being checked, string-formatted exact values, and either a verdict
(asserted checks) or ``holds: null`` (reported-only diagnostics). Record
order is fixed by this module, so reports for equal (suite, seed, budget)
are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

from . import __version__
from .canonical import canonical_graph
from .corpus import (
    bipartite_corpus,
    c4_free_corpus,
    dense_corpus,
    near_biregular_corpus,
    walks_corpus,
)
from .formats import graph6_encode
from .geometry import (
    augment_distance_two,
    gq_w3,
    incidence_graph,
    pg2_incidence,
    polarity_graph,
)
from .graph import (
    Graph,
    chromatic_number,
    contains_cycle,
    cycle_spectrum,
    dense_layer_radius,
    girth,
    odd_cycle_run,
)
from .rng import XorShift64Star
from .search import (
    FamilySpec,
    discrepancy_witness,
    polygon_edge_bound,
    polygon_vertex_count,
    turan_number,
    unbalanced_z_bound,
    verify_upper_bounds,
    zarankiewicz_ab,
    zarankiewicz_number,
)
from .spectral import (
    adjacency_matrix,
    bipartite_mixing,
    eigenvalues_symmetric,
    near_regular_mixing,
    pseudorandomness_report,
    regular_mixing,
    spectral_summary,
)
from .stability import degree_levels, high_degree_edge_fraction, outlier_bound
from .walks import (
    FLOAT_SLACK,
    check_blakley_roy,
    check_closed_walk_bound,
    check_godsil,
    check_hoory_bipartite,
    check_path_lower_bound,
    closed_walk_count,
    nonreturning_count,
    walk_totals,
)

SUITES = ("geometry", "walks", "spectral", "search", "all")

# every check_* operation in the package; `verify all` must exercise the
# count behind each. The sampled degree-outlier and mixing tallies call the
# count their check_* function wraps (outlier_bound, MixingBound.verdicts),
# not the function itself, whose validation and report the tests exercise.
CHECK_OPS = (
    "check_blakley_roy",
    "check_godsil",
    "check_hoory_bipartite",
    "check_closed_walk_bound",
    "check_path_lower_bound",
    "check_mixing_regular",
    "check_mixing_bipartite",
    "check_mixing_near_regular",
    "check_degree_outlier_bound",
)

EX_C4C5_FIXTURES = {5: 6, 6: 7, 7: 9, 8: 10, 9: 12}


@dataclass(frozen=True)
class CheckRecord:
    name: str
    ref: str
    instance: str
    lhs: str
    rhs: str
    holds: bool | None  # None marks a reported-only diagnostic
    margin: str | None = None
    op: str | None = None


@dataclass
class RunReport:
    suite: str
    seed: int
    budget: int | None
    records: list
    coverage: list
    overall_pass: bool

    def to_json(self) -> str:
        payload = {
            "command": "verify",
            "suite": self.suite,
            "seed": self.seed,
            "budget": self.budget,
            "package": f"girthlab {__version__}",
            "records": [
                {
                    "name": r.name,
                    "ref": r.ref,
                    "instance": r.instance,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "holds": r.holds,
                    "margin": r.margin,
                }
                for r in self.records
            ],
            "coverage": self.coverage,
            "counts": {
                "asserted": sum(1 for r in self.records if r.holds is not None),
                "failed": sum(1 for r in self.records if r.holds is False),
                "diagnostics": sum(1 for r in self.records if r.holds is None),
            },
            "overall_pass": self.overall_pass,
            "wall_time_s": None,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _margin(lhs, rhs) -> str:
    try:
        return str(rhs - lhs)
    except TypeError:
        return ""


def _rec(name, ref, instance, lhs, rhs, holds, op=None) -> CheckRecord:
    return CheckRecord(
        name=name,
        ref=ref,
        instance=instance,
        lhs=str(lhs),
        rhs=str(rhs),
        holds=holds,
        margin=_margin(lhs, rhs) if holds is not None else None,
        op=op,
    )


def _eq(name, ref, instance, lhs, rhs) -> CheckRecord:
    """Record asserting lhs == rhs."""
    return _rec(name, ref, instance, lhs, rhs, lhs == rhs)


def _tally(name, ref, instance, verdicts, op=None) -> CheckRecord:
    """Record of a check over the cases whose verdicts (booleans) the
    iterable yields; it holds when none failed."""
    violations = checked = 0
    for v in verdicts:
        checked += 1
        violations += not v
    return _rec(name, ref, instance, f"violations={violations}",
                f"checked={checked}", violations == 0, op=op)


def _outlier_verdicts(rng: XorShift64Star, graphs, eps: float, draws: int):
    """Verdicts of the degree-outlier bound at eps over `draws` vertex sets
    drawn from each graph in turn, as masks; an empty draw is skipped."""
    for g, levels in graphs:
        for _ in range(draws):
            b_mask = rng.sample_mask(g.n)
            if b_mask:
                yield outlier_bound(levels, b_mask, eps)[0]


# generalized-polygon incidence graphs: name prefix, field orders q,
# point-line incidence structure, and ell; each graph has
# 2(q^ell + ... + q + 1) vertices and girth 2*ell + 2
_POLYGONS = (
    ("plane-incidence", (2, 3, 4, 5), pg2_incidence, 2),
    ("quadrangle-incidence", (2, 3), gq_w3, 3),
)
_POLARITY_ORDERS = (2, 3, 4, 5)


def _constructed_set():
    """The named instance list used across suites."""
    out = {}
    for prefix, orders, structure, _ in _POLYGONS:
        for q in orders:
            out[f"{prefix}-q{q}"] = incidence_graph(structure(q))
    for q in _POLARITY_ORDERS:
        out[f"polarity-q{q}"] = polarity_graph(q)
    return out


def geometry_suite(seed: int, constructed: dict, budget=None) -> list:
    records = []
    for prefix, orders, _, ell in _POLYGONS:
        for q in orders:
            inst = f"{prefix}-q{q}"
            g = constructed[inst]
            n_expect = polygon_vertex_count(q, ell)
            records.append(_eq("vertex-count", "generalized polygon incidence",
                               inst, g.n, n_expect))
            records.append(_eq("edge-count", "polygon edge equality", inst,
                               g.m, (q + 1) * n_expect // 2))
            records.append(_eq("regularity", "generalized polygon incidence",
                               inst, sorted(set(g.degrees())), [q + 1]))
            records.append(_eq("girth", "generalized polygon incidence",
                               inst, girth(g), 2 * ell + 2))
    for q in _POLARITY_ORDERS:
        inst = f"polarity-q{q}"
        g = constructed[inst]
        records.append(_eq("edge-count", "polarity graph", inst, g.m,
                           q * (q + 1) ** 2 // 2))
        records.append(_eq("quadrilateral-free", "polarity graph", inst,
                           contains_cycle(g, 4, budget=budget), False))
        low = g.degrees().count(q)
        records.append(_rec("low-degree-vertices", "polarity graph", inst,
                            low, q + 1,
                            low == q + 1 and set(g.degrees()) == {q, q + 1}))
    rep = discrepancy_witness(constructed["quadrangle-incidence-q2"],
                              budget=budget)
    records.append(_eq("augmented-edge-count", "distance-two augmentation",
                       "quadrangle-incidence-q2", rep.edges,
                       rep.base_edges + 1))
    records.append(_rec("augmented-cycle-spectrum",
                        "distance-two augmentation",
                        "quadrangle-incidence-q2", sorted(rep.spectrum),
                        "contains 3, avoids 4,5,6",
                        3 in rep.spectrum and not rep.spectrum & {4, 5, 6}))
    hw = constructed["plane-incidence-q2"]
    aug2, _ = augment_distance_two(hw)
    spectrum2 = cycle_spectrum(aug2, 6, budget=budget)
    records.append(_rec("augmented-edge-count", "distance-two augmentation",
                        "plane-incidence-q2", aug2.m, hw.m + 1,
                        aug2.m == hw.m + 1 and 3 in spectrum2))
    # chromatic ceiling on polarity graphs (k = 9, ell = 2)
    for q in _POLARITY_ORDERS:
        g = constructed[f"polarity-q{q}"]
        chi = chromatic_number(g, budget=budget)
        c = g.min_degree() / math.sqrt(g.n)
        bound = (4 * 9) ** 3 / c**2
        records.append(_rec("chromatic-ceiling",
                            "odd-cycle chromatic bound", f"polarity-q{q}",
                            chi, bound, chi < bound))
    # degree-outlier bound on quadrilateral-free graphs
    rng = XorShift64Star(seed + 71)
    c4_free = [(g, degree_levels(g)) for g in chain(
        constructed.values(), c4_free_corpus(12, seed + 72))]
    for eps in (0.3, 0.5, 1.0):
        records.append(_tally("degree-outlier-endpoints",
                              "degree outlier bound",
                              f"constructed+corpus eps={eps}",
                              _outlier_verdicts(rng, c4_free, eps, 50),
                              op="check_degree_outlier_bound"))
    frac = high_degree_edge_fraction(constructed["polarity-q5"], 0.5)
    records.append(_rec("high-degree-edge-fraction", "degree outlier bound",
                        "polarity-q5",
                        frac.edges_at_sqrt_outliers, frac.sqrt_bound, None))
    return records


def walks_suite(seed: int, constructed: dict, budget=None) -> list:
    records = []
    everything = list(constructed.values()) + walks_corpus(500, seed)
    totals = [walk_totals(g, 6) for g in everything]
    # name, ref, parameter, its values, op, and the verdicts at one value
    bounds = (
        ("walk-floor", "Blakley-Roy walk bound", "k", range(1, 7),
         "check_blakley_roy",
         lambda k: (check_blakley_roy(g, k, t).holds
                    for g, t in zip(everything, totals))),
        ("walk-power-mean", "Godsil walk power mean", "r", (2, 4, 6),
         "check_godsil",
         lambda r: (check_godsil(g, r, s, t).holds
                    for g, t in zip(everything, totals)
                    for s in range(1, r + 1))),
        ("path-floor", "path undercount bound", "ell", (2, 3, 4),
         "check_path_lower_bound",
         lambda ell: (check_path_lower_bound(g, ell, budget=budget).holds
                      for g in everything)),
    )
    for name, ref, param, values, op, verdicts in bounds:
        for x in values:
            records.append(_tally(name, ref, f"corpus+constructed {param}={x}",
                                  verdicts(x), op=op))
    # regular graphs: non-returning counts meet the floor with equality
    regular = ((g, g.max_degree()) for g in constructed.values()
               if g.min_degree() == g.max_degree())
    records.append(_tally("nonreturning-regular-equality",
                          "non-returning walk floor", "constructed regular",
                          (nonreturning_count(g, k).average
                           == r * (r - 1) ** (k - 1)
                           for g, r in regular for k in range(1, 7))))
    hoory = (check_hoory_bipartite(g, t)
             for g in bipartite_corpus(30, seed + 5) for t in (1, 2))
    records.append(_tally("bipartite-nonreturning-floor",
                          "Hoory bipartite non-returning bound",
                          "bipartite corpus t=1,2",
                          (rep.holds_product and rep.holds_biregular
                           for rep in hoory),
                          op="check_hoory_bipartite"))
    rep = check_hoory_bipartite(constructed["plane-incidence-q2"], 1)
    records.append(_rec("bipartite-nonreturning-equality",
                        "Hoory bipartite non-returning bound",
                        "plane-incidence-q2", rep.nu, rep.biregular_bound,
                        rep.equality, op="check_hoory_bipartite"))
    for prefix, orders, _, ell in _POLYGONS:
        for q in orders:
            name = f"{prefix}-q{q}"
            rep = check_closed_walk_bound(constructed[name], ell)
            records.append(_rec("closed-walk-ceiling",
                                "high-girth closed-walk ceiling",
                                f"{name} ell={ell}", rep.lhs, rep.rhs,
                                rep.holds, op="check_closed_walk_bound"))
    records.append(_eq("closed-walk-average", "trace power identity",
                       "plane-incidence-q2 k=6",
                       closed_walk_count(constructed["plane-incidence-q2"],
                                         6).average, 111))
    # odd cycle runs in dense neighborhoods
    dense = dense_corpus(60, seed + 9)
    for s in (5, 7):
        radii = (dense_layer_radius(g, 3, 2 * s - 4) for g in dense)
        found = [odd_cycle_run(g, min_r, s, budget=budget) is not None
                 for g, min_r in zip(dense, radii) if min_r is not None]
        records.append(_rec("odd-cycle-run", "dense neighborhood odd cycles",
                            f"dense corpus s={s}",
                            f"violations={found.count(False)}",
                            f"qualifying={len(found)}",
                            bool(found) and all(found)))
    return records


def spectral_suite(seed: int, constructed: dict, budget=None) -> list:
    records = []
    # one eigensolve per graph: the flat summaries derive from these
    summaries = {
        name: spectral_summary(g, bipartite=not name.startswith("polarity"))
        for name, g in constructed.items()
    }
    hw_summary = summaries["plane-incidence-q2"]
    records.append(_rec("eigen-gap", "incidence spectral gap",
                        "plane-incidence-q2", hw_summary.lam, math.sqrt(2),
                        abs(hw_summary.lam - math.sqrt(2)) <= 1e-6))
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    eig = eigenvalues_symmetric(adjacency_matrix(c4))
    records.append(_rec("eigen-fixture", "4-cycle spectrum", "C4",
                        [round(x, 9) for x in eig], [2.0, 0.0, 0.0, -2.0],
                        max(abs(a - b) for a, b in
                            zip(eig, [2.0, 0.0, 0.0, -2.0])) <= 1e-8))
    powers = (abs(sum(x**k for x in summaries[name].eigenvalues)
                  - closed_walk_count(g, k).total)
              <= 1e-6 * g.n * g.max_degree()**k
              for name, g in constructed.items() for k in (2, 4, 6))
    symmetry = (max(abs(x + y) for x, y in
                    zip(summ.eigenvalues, reversed(summ.eigenvalues))) <= 1e-6
                for summ in summaries.values() if summ.bipartite)
    records.append(_tally("trace-powers", "trace power identity",
                          "constructed k=2,4,6", chain(powers, symmetry)))
    rng = XorShift64Star(seed + 21)
    for name in ("plane-incidence-q2", "quadrangle-incidence-q2"):
        g = constructed[name]
        records.append(_tally(
            "mixing-regular", "expander mixing (regular)",
            f"{name} 1000 pairs",
            regular_mixing(g, summaries[name].flat()).verdicts(
                rng, g, range(g.n), range(g.n), 1000),
            op="check_mixing_regular"))
    for name in ("plane-incidence-q2", "quadrangle-incidence-q2"):
        g = constructed[name]
        records.append(_tally(
            "mixing-bipartite", "expander mixing (bipartite regular)",
            f"{name} 1000 pairs",
            bipartite_mixing(g, summaries[name]).verdicts(
                rng, g, g.part_x, g.part_y, 1000),
            op="check_mixing_bipartite"))
    beta, gamma = 0.0005, 0.4
    records.append(_tally(
        "mixing-near-regular", "expander mixing (near-regular)",
        f"near-biregular corpus beta={beta} gamma={gamma}",
        (v for g in near_biregular_corpus(3, seed + 33)
         for v in near_regular_mixing(g, beta, gamma).verdicts(
             rng, g, g.part_x, g.part_y, 100)),
        op="check_mixing_near_regular"))
    trend = []
    for q in (2, 3, 4, 5):
        g = constructed[f"plane-incidence-q{q}"]
        rep = pseudorandomness_report(g, 500, seed, ell=2)
        trend.append(rep.normalized_max)
        records.append(_rec("edge-deviation", "edge-density pseudorandomness",
                            f"plane-incidence-q{q} 500 samples",
                            rep.normalized_max, "normalized max deviation",
                            None))
    records.append(_rec("edge-deviation-trend",
                        "edge-density pseudorandomness",
                        "plane incidence q=2..5",
                        [round(v, 9) for v in trend], "non-increasing in q",
                        all(trend[i] >= trend[i + 1]
                            for i in range(len(trend) - 1))))
    return records


def search_suite(seed: int, constructed: dict, budget=None) -> list:
    records = []
    fam_c4 = FamilySpec.of(4)
    fam_c3 = FamilySpec.of(3)
    z14 = zarankiewicz_number(14, fam_c4, budget=budget)
    records.append(_rec("zarankiewicz-value", "exact bipartite extremal",
                        "n=14 no-C4", z14.value, 21,
                        z14.value == 21 and z14.completed))
    hw_canonical = graph6_encode(
        canonical_graph(constructed["plane-incidence-q2"])
    )
    records.append(_rec("zarankiewicz-witness", "polygon edge equality",
                        "n=14 no-C4",
                        [w.decode("ascii") for w in z14.witnesses],
                        hw_canonical.decode("ascii"),
                        z14.witnesses == (hw_canonical,)))
    z2 = zarankiewicz_number(2, fam_c4, budget=budget)
    records.append(_eq("zarankiewicz-value", "exact bipartite extremal",
                       "n=2 no-C4", z2.value, 1))
    for n in range(3, 9):
        r = turan_number(n, fam_c3, budget=budget)
        records.append(_rec("turan-value", "Mantel triangle bound",
                            f"n={n} no-C3", r.value, n * n // 4,
                            r.value == n * n // 4 and r.completed))
    r34 = turan_number(3, fam_c4, budget=budget)
    records.append(_eq("turan-value", "exact extremal", "n=3 no-C4",
                       r34.value, 3))
    ex_c4c5 = {}
    for n, expected in sorted(EX_C4C5_FIXTURES.items()):
        r = ex_c4c5[n] = turan_number(n, FamilySpec.of(4, 5), budget=budget)
        records.append(_rec("turan-value", "regression fixture",
                            f"n={n} no-C4,C5", r.value, expected,
                            r.value == expected and r.completed))
    # unbalanced table plus its closed-form bound
    records.append(_tally("unbalanced-z-table",
                          "unbalanced Zarankiewicz bound",
                          "2<=a<=b<=7 no-C4",
                          (zarankiewicz_ab(a, b, fam_c4, budget=budget).value
                           <= unbalanced_z_bound(a, b, 2) + FLOAT_SLACK
                           for a in range(2, 8) for b in range(a, 8))))
    for rep in verify_upper_bounds([z14]):
        records.append(_rec(rep.check, "polygon edge bound", "n=14 no-C4",
                            rep.lhs, rep.rhs, rep.holds))
    # bipartite optimum never beats the unrestricted optimum
    ex7 = turan_number(7, fam_c4, budget=budget)
    zs = [zarankiewicz_number(n, fam_c4, budget=budget).value
          for n in range(4, 11)]
    z7 = zs[7 - 4]
    records.append(_rec("bipartite-below-general", "restriction monotonicity",
                        "n=7 no-C4", z7, ex7.value, z7 <= ex7.value))
    records.append(_rec("monotone-in-n", "extremal monotonicity",
                        "z(n) no-C4 n=4..10", zs, "non-decreasing",
                        all(zs[i] <= zs[i + 1] for i in range(len(zs) - 1))))
    ex7_45 = ex_c4c5[7].value
    records.append(_rec("monotone-in-family", "extremal monotonicity",
                        "n=7", ex7_45, ex7.value, ex7_45 <= ex7.value))
    # the 30-vertex quadrangle certificate: construction meets the formula
    tc = constructed["quadrangle-incidence-q2"]
    bound = polygon_edge_bound(30, 3)
    records.append(_rec("construction-meets-bound", "polygon edge equality",
                        "n=30 no-C4,C6", tc.m, bound,
                        abs(tc.m - bound) <= FLOAT_SLACK))
    for q in (2, 3):
        rep = discrepancy_witness(constructed[f"quadrangle-incidence-q{q}"],
                                  budget=budget)
        records.append(_rec("augmented-witness", "one-edge discrepancy",
                            f"quadrangle q={q}",
                            f"edges={rep.edges}, spectrum={sorted(rep.spectrum)}",
                            f"bipartite optimum {rep.z_upper_bound} + 1",
                            rep.certified))
    return records


_SUITE_FUNCS = {
    "geometry": geometry_suite,
    "walks": walks_suite,
    "spectral": spectral_suite,
    "search": search_suite,
}


def run_verify(suite: str, seed: int = 42, budget=None) -> RunReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    constructed = _constructed_set()
    records = []
    for name in names:
        records.extend(_SUITE_FUNCS[name](seed, constructed, budget))
    coverage = sorted({r.op for r in records if r.op})
    if suite == "all":
        missing = [op for op in CHECK_OPS if op not in coverage]
        records.append(_rec("check-coverage", "suite completeness",
                            "all suites", coverage, list(CHECK_OPS),
                            not missing))
    overall = all(r.holds for r in records if r.holds is not None)
    return RunReport(
        suite=suite,
        seed=seed,
        budget=budget,
        records=records,
        coverage=coverage,
        overall_pass=overall,
    )
