"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and runtime budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test is independent.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from girthlab.canonical import canonical_graph
from girthlab.corpus import (
    c4_free_corpus,
    dense_corpus,
    near_biregular_corpus,
    walks_corpus,
)
from girthlab.formats import graph6_encode
from girthlab.geometry import (
    augment_distance_two,
    gq_w3,
    incidence_graph,
    pg2_incidence,
    polarity_graph,
)
from girthlab.graph import (
    chromatic_number,
    cycle_spectrum,
    dense_layer_radius,
    girth,
    odd_cycle_run,
)
from girthlab.rng import XorShift64Star
from girthlab.search import FamilySpec, zarankiewicz_number
from girthlab.spectral import (
    check_mixing_bipartite,
    check_mixing_near_regular,
    check_mixing_regular,
    pseudorandomness_report,
    spectral_summary,
)
from girthlab.stability import check_degree_outlier_bound
from girthlab.verify import _constructed_set
from girthlab.walks import (
    check_blakley_roy,
    check_godsil,
    check_path_lower_bound,
    closed_walk_count,
    nonreturning_count,
)

SEED = 42


def report(number, description, elapsed, budget):
    print(f"[criterion {number:2d}] PASS in {elapsed:.1f}s "
          f"(budget {budget}s): {description}")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_generalized_polygon_equality():
    t0 = time.monotonic()
    for q in (2, 3, 4, 5):
        g = incidence_graph(pg2_incidence(q))
        n = 2 * (q * q + q + 1)
        assert g.n == n
        assert 2 * g.m == (q + 1) * n
        assert girth(g) == 6
        assert set(g.degrees()) == {q + 1}
    for q in (2, 3):
        g = incidence_graph(gq_w3(q))
        n = 2 * (q**3 + q**2 + q + 1)
        assert g.n == n
        assert 2 * g.m == (q + 1) * n
        assert girth(g) == 8
    report(1, "polygon incidence graphs: counts, regularity, girth",
           time.monotonic() - t0, 5)


def test_criterion_02_exact_zarankiewicz_14():
    t0 = time.monotonic()
    res = zarankiewicz_number(14, FamilySpec.of(4))
    assert res.value == 21
    assert res.completed, "search certificate must mark completion"
    heawood = incidence_graph(pg2_incidence(2))
    assert res.witnesses == (graph6_encode(canonical_graph(heawood)),)
    report(2, "z(14, no-C4) = 21 with Heawood as the unique witness",
           time.monotonic() - t0, 600)


def test_criterion_03_walk_inequality_suite():
    t0 = time.monotonic()
    graphs = list(_constructed_set().values()) + walks_corpus(500, SEED)
    assert all(g.n <= 80 for g in graphs)
    violations = 0
    for g in graphs:
        for k in range(1, 7):
            violations += not check_blakley_roy(g, k).holds
        for r in (2, 4, 6):
            for s in range(1, r + 1):
                violations += not check_godsil(g, r, s).holds
        for ell in (2, 3, 4):
            violations += not check_path_lower_bound(g, ell).holds
        degs = set(g.degrees())
        if len(degs) == 1:
            r = degs.pop()
            for k in range(1, 7):
                expect = Fraction(r * max(r - 1, 0) ** (k - 1)) if r else 0
                violations += nonreturning_count(g, k).average != expect
    assert violations == 0
    report(3, f"walk inequalities on {len(graphs)} graphs, exact arithmetic",
           time.monotonic() - t0, 120)


def test_criterion_04_spectral_cross_validation():
    t0 = time.monotonic()
    for name, g in _constructed_set().items():
        if g.n > 80:
            continue
        bip = not name.startswith("polarity")
        summary = spectral_summary(g, bipartite=bip)
        delta = g.max_degree()
        for k in (2, 4, 6):
            lhs = sum(x**k for x in summary.eigenvalues)
            rhs = closed_walk_count(g, k).total
            assert abs(lhs - rhs) <= 1e-6 * g.n * delta**k
    heawood = incidence_graph(pg2_incidence(2))
    lam = spectral_summary(heawood, bipartite=True).lam
    assert abs(lam - math.sqrt(2)) <= 1e-6
    report(4, "eigenvalue power sums match closed-walk counts; "
              "Heawood gap = sqrt(2)", time.monotonic() - t0, 60)


def test_criterion_05_mixing_suite():
    t0 = time.monotonic()
    rng = XorShift64Star(SEED)
    heawood = incidence_graph(pg2_incidence(2))
    tutte_coxeter = incidence_graph(gq_w3(2))
    for g in (heawood, tutte_coxeter):
        flat = spectral_summary(g, bipartite=False)
        bip = spectral_summary(g, bipartite=True)
        for _ in range(1000):
            S = [v for v in range(g.n) if rng.coin()]
            T = [v for v in range(g.n) if rng.coin()]
            assert check_mixing_regular(g, S, T, summary=flat).holds
        for _ in range(1000):
            S = [v for v in g.part_x if rng.coin()]
            T = [v for v in g.part_y if rng.coin()]
            assert check_mixing_bipartite(g, S, T, summary=bip).holds
    beta, gamma = 0.0005, 0.4
    for g in near_biregular_corpus(3, SEED + 33):
        summary = spectral_summary(g, bipartite=True)
        d = float(summary.average_degree)
        assert summary.lam < (1 - gamma) * d
        assert float(summary.variance) < beta * d * d
        for _ in range(100):
            S = [v for v in g.part_x if rng.coin()]
            T = [v for v in g.part_y if rng.coin()]
            rep = check_mixing_near_regular(g, S, T, beta, gamma,
                                            summary=summary)
            assert rep.holds
    report(5, "mixing bounds: 1000 pairs regular/bipartite, 100 per "
              "near-biregular graph", time.monotonic() - t0, 120)


def test_criterion_06_discrepancy_witness():
    t0 = time.monotonic()
    tutte_coxeter = incidence_graph(gq_w3(2))
    aug, pair = augment_distance_two(tutte_coxeter)
    assert aug.n == 30 and aug.m == 46
    assert tutte_coxeter.side[pair[0]] == tutte_coxeter.side[pair[1]]
    spectrum = cycle_spectrum(aug, 8)
    assert 3 in spectrum
    assert not spectrum & {4, 5, 6}
    report(6, "augmented quadrangle: 30 vertices, 46 edges, spectrum "
              f"{sorted(spectrum)}", time.monotonic() - t0, 300)


def test_criterion_07_degree_outlier_suite():
    t0 = time.monotonic()
    rng = XorShift64Star(SEED + 71)
    graphs = list(_constructed_set().values()) + c4_free_corpus(12, SEED + 72)
    violations = 0
    checked = 0
    for g in graphs:
        for eps in (0.3, 0.5, 1.0):
            for _ in range(50):
                B = [v for v in range(g.n) if rng.coin()]
                if not B:
                    continue
                checked += 1
                violations += not check_degree_outlier_bound(g, B, eps).holds
    assert violations == 0 and checked > 0
    report(7, f"degree-outlier endpoint bound: {checked} sampled sets, "
              "zero violations", time.monotonic() - t0, 60)


def test_criterion_08_odd_cycle_runs():
    t0 = time.monotonic()
    qualifying = 0
    for g in dense_corpus(60, SEED + 9):
        for s in (5, 7):
            min_r = dense_layer_radius(g, 3, 2 * s - 4)
            if min_r is not None:
                qualifying += 1
                assert odd_cycle_run(g, min_r, s) is not None
    assert qualifying > 0
    report(8, f"odd-length cycle runs found in all {qualifying} qualifying "
              "dense instances", time.monotonic() - t0, 300)


def test_criterion_09_pseudorandomness_trend():
    t0 = time.monotonic()
    values = []
    for q in (2, 3, 4, 5):
        g = incidence_graph(pg2_incidence(q))
        rep = pseudorandomness_report(g, 500, SEED, ell=2)
        values.append(rep.normalized_max)
    assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))
    report(9, "normalized max edge deviation non-increasing over q=2..5: "
              + ", ".join(f"{v:.4f}" for v in values),
           time.monotonic() - t0, 60)


def test_criterion_10_chromatic_ceiling():
    t0 = time.monotonic()
    k, ell = 9, 2
    for q in (2, 3, 4, 5):
        g = polarity_graph(q)
        chi = chromatic_number(g)
        c = g.min_degree() / math.sqrt(g.n)
        bound = (4 * k) ** (ell + 1) / c**ell
        assert 0 < chi < bound
    report(10, "exact chromatic numbers of polarity graphs below the "
               "odd-cycle ceiling", time.monotonic() - t0, 60)


def test_criterion_11_determinism():
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "girthlab", "verify", "all", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # the report must be valid JSON
    report(11, "verify-all reports byte-identical",
           time.monotonic() - t0, 600)
