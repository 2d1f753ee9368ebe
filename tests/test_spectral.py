import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthlab.corpus import near_biregular_corpus, walks_corpus
from girthlab.errors import (
    HypothesisFailed,
    NoConvergence,
    NotBipartite,
    NotRegular,
    PartViolation,
)
from girthlab.graph import BipartiteGraph, Graph
from girthlab.rng import XorShift64Star
from girthlab.spectral import (
    adjacency_matrix,
    check_mixing_bipartite,
    check_mixing_near_regular,
    check_mixing_regular,
    degree_variance,
    eigenvalues_symmetric,
    pseudorandomness_report,
    spectral_summary,
)
from girthlab.verify import _constructed_set
from girthlab.walks import closed_walk_count

CONSTRUCTED = _constructed_set()


def test_two_by_two():
    eig = eigenvalues_symmetric([[0.0, 1.0], [1.0, 0.0]])
    assert abs(eig[0] - 1) < 1e-10 and abs(eig[1] + 1) < 1e-10


def test_c4_spectrum():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    eig = eigenvalues_symmetric(adjacency_matrix(c4))
    for got, want in zip(eig, [2, 0, 0, -2]):
        assert abs(got - want) < 1e-9


class TestEigensolver:
    def test_heawood(self, heawood):
        summary = spectral_summary(heawood, bipartite=True)
        assert abs(summary.lam - math.sqrt(2)) < 1e-8
        assert abs(sum(x * x for x in summary.eigenvalues) - 42) < 1e-6
        assert abs(sum(x**6 for x in summary.eigenvalues) - 1554) < 1e-6

    def test_against_lapack_oracle(self):
        for g in walks_corpus(20, 41):
            ours = eigenvalues_symmetric(adjacency_matrix(g))
            lapack = sorted(np.linalg.eigvalsh(adjacency_matrix(g)).tolist(),
                            reverse=True)
            assert max(abs(a - b) for a, b in zip(ours, lapack)) < 1e-8

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            eigenvalues_symmetric([[0.0, 1.0], [0.5, 0.0]])

    def test_trace_powers_match_closed_walks(self, heawood, tutte_coxeter):
        for g in (heawood, tutte_coxeter):
            eig = eigenvalues_symmetric(adjacency_matrix(g))
            delta = g.max_degree()
            for k in (2, 3, 4, 6):
                lhs = sum(x**k for x in eig)
                rhs = closed_walk_count(g, k).total
                assert abs(lhs - rhs) <= 1e-6 * g.n * delta**k

    def test_bipartite_spectrum_symmetric(self, tutte_coxeter):
        eig = spectral_summary(tutte_coxeter, bipartite=True).eigenvalues
        n = len(eig)
        assert all(abs(eig[i] + eig[n - 1 - i]) < 1e-6 for i in range(n))


class TestSummary:
    def test_regular_lambda1(self, heawood):
        summary = spectral_summary(heawood)
        assert abs(summary.lambda_1 - 3) < 1e-8
        assert summary.variance == 0

    def test_extreme_bounds_bipartite(self, tutte_coxeter):
        s = spectral_summary(tutte_coxeter, bipartite=True)
        d = float(s.average_degree)
        assert s.lambda_1 >= d - 1e-9
        assert s.lambda_n <= -d + 1e-9

    def test_variance_exact(self):
        g = Graph(3, [(0, 1)])
        # degrees 1,1,0: mean 2/3, variance (2*(1/3)^2 + (2/3)^2)/3 = 2/9
        assert degree_variance(g) == pytest.approx(2 / 9)

    def test_not_bipartite_flag(self):
        tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotBipartite):
            spectral_summary(tri, bipartite=True)


class TestMixingRegular:
    def test_full_sets_zero_deviation(self, heawood):
        rep = check_mixing_regular(heawood, range(14), range(14))
        assert rep.deviation < 1e-9 and rep.holds

    def test_empty(self, heawood):
        rep = check_mixing_regular(heawood, [], [])
        assert rep.holds and rep.e_st == 0

    def test_random_pairs(self, heawood, tutte_coxeter):
        rng = XorShift64Star(77)
        for g in (heawood, tutte_coxeter):
            summary = spectral_summary(g)
            for _ in range(200):
                S = [v for v in range(g.n) if rng.coin()]
                T = [v for v in range(g.n) if rng.coin()]
                assert check_mixing_regular(g, S, T, summary=summary).holds

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            check_mixing_regular(Graph(3, [(0, 1)]), [0], [1])


class TestMixingBipartite:
    def test_parts_exact(self, heawood):
        rep = check_mixing_bipartite(heawood, heawood.part_x, heawood.part_y)
        assert rep.e_st == 21 and rep.deviation < 1e-9

    def test_singletons(self, heawood):
        summary = spectral_summary(heawood, bipartite=True)
        for x in heawood.part_x[:3]:
            for y in heawood.part_y[:3]:
                rep = check_mixing_bipartite(heawood, [x], [y],
                                             summary=summary)
                assert rep.holds

    def test_part_violation(self, heawood):
        with pytest.raises(PartViolation):
            check_mixing_bipartite(heawood, heawood.part_y[:1],
                                   heawood.part_y[:1])


class TestMixingNearRegular:
    def test_exactly_regular_passes(self, heawood):
        rep = check_mixing_near_regular(heawood, heawood.part_x[:4],
                                        heawood.part_y[:4], 0.0001, 0.4)
        assert rep.holds

    def test_hypothesis_failure_reported(self, heawood):
        aug = Graph(15, heawood.edges() + [(0, 14)])
        side = list(heawood.side) + [1]
        pendant = BipartiteGraph(15, aug.edges(), side)
        with pytest.raises(HypothesisFailed) as err:
            check_mixing_near_regular(pendant, [0], [14], 0.1, 0.5)
        assert err.value.failed

    def test_corpus_samples(self):
        rng = XorShift64Star(99)
        for g in near_biregular_corpus(2, 4242):
            summary = spectral_summary(g, bipartite=True)
            for _ in range(30):
                S = [v for v in g.part_x if rng.coin()]
                T = [v for v in g.part_y if rng.coin()]
                rep = check_mixing_near_regular(g, S, T, 0.0005, 0.4,
                                                summary=summary)
                assert rep.holds


class TestPseudorandomness:
    def test_complete_bipartite_zero(self):
        g = BipartiteGraph(8, [(i, 4 + j) for i in range(4) for j in range(4)],
                           [0] * 4 + [1] * 4)
        rep = pseudorandomness_report(g, 100, 3)
        assert rep.max_deviation < 1e-9

    def test_zero_samples(self, heawood):
        rep = pseudorandomness_report(heawood, 0, 1)
        assert rep.samples == 0 and rep.normalized_max == 0.0

    def test_negative_samples_rejected(self, heawood):
        """A negative count is rejected, not reported as zero samples."""
        with pytest.raises(ValueError, match="samples must be >= 0"):
            pseudorandomness_report(heawood, -1, 1)

    def test_ell_zero_rejected(self, heawood):
        with pytest.raises(ValueError, match="ell must be >= 1"):
            pseudorandomness_report(heawood, 10, 1, ell=0)

    def test_deterministic_given_seed(self, heawood):
        a = pseudorandomness_report(heawood, 50, 13)
        b = pseudorandomness_report(heawood, 50, 13)
        assert a == b

    def test_plane_trend(self):
        from girthlab.geometry import incidence_graph, pg2_incidence

        vals = []
        for q in (2, 3, 4, 5):
            g = incidence_graph(pg2_incidence(q))
            vals.append(pseudorandomness_report(g, 200, 42).normalized_max)
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def _reference_jacobi(M, tol=1e-10, max_sweeps=100):
    """Reference: the solver as it was before its rotation was rewritten,
    which updates columns p and q and then rows p and q of the full matrix
    with numpy slices. The solver must return bit-identical eigenvalues."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if n == 0:
        return []
    norm = math.sqrt(float((A * A).sum()))
    if norm == 0.0:
        return [0.0] * n
    mask = ~np.eye(n, dtype=bool)
    for sweep in range(max_sweeps):
        off = math.sqrt(float((A[mask] ** 2).sum()))
        if off < tol * norm:
            return sorted(np.diag(A).tolist(), reverse=True)
        thresh = 0.2 * off / (n * n) if sweep < 3 else 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                scale = 100.0 * abs(apq)
                if (
                    sweep > 3
                    and abs(A[p, p]) + scale == abs(A[p, p])
                    and abs(A[q, q]) + scale == abs(A[q, q])
                ):
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    continue
                if abs(apq) <= thresh or apq == 0.0:
                    continue
                h = A[q, q] - A[p, p]
                if abs(h) + scale == abs(h):
                    t = apq / h
                else:
                    theta = h / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(1.0 + theta * theta)
                    )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
    raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps")


def _assert_matches_reference(M):
    """Bit-identical to the reference (float.hex tells -0.0 from 0.0), and
    within 1e-9 of LAPACK relative to the Frobenius norm."""
    ours = eigenvalues_symmetric(M)
    assert [x.hex() for x in ours] == [x.hex() for x in _reference_jacobi(M)]
    M = np.asarray(M, dtype=float)
    if M.size:
        lapack = sorted(np.linalg.eigvalsh(M).tolist(), reverse=True)
        scale = max(1.0, math.sqrt(float((M * M).sum())))
        assert max(abs(a - b) for a, b in zip(ours, lapack)) <= 1e-9 * scale


@pytest.mark.parametrize("name", list(CONSTRUCTED))
def test_solver_matches_reference_on_constructions(name):
    _assert_matches_reference(adjacency_matrix(CONSTRUCTED[name]))


@pytest.mark.parametrize("seed", [0, 33, 1729])
def test_solver_matches_reference_on_near_biregular_corpus(seed):
    for g in near_biregular_corpus(3, seed):
        _assert_matches_reference(adjacency_matrix(g))


ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def symmetric_matrices(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            A[i, j] = A[j, i] = draw(ENTRIES)
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)):
        A[i, :] = A[:, i] = draw(st.sampled_from([0.0, -0.0]))
    return A


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_solver_matches_reference_on_random_symmetric_matrices(A):
    try:
        _reference_jacobi(A)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            eigenvalues_symmetric(A)
        return
    _assert_matches_reference(A)


def test_sweep_cap_still_raises():
    g = CONSTRUCTED["plane-incidence-q2"]
    with pytest.raises(NoConvergence, match="1 sweeps"):
        eigenvalues_symmetric(adjacency_matrix(g), max_sweeps=1)
    with pytest.raises(NoConvergence):
        _reference_jacobi(adjacency_matrix(g), max_sweeps=1)
    assert eigenvalues_symmetric(adjacency_matrix(g), max_sweeps=100)


def test_flat_summary_equals_a_flat_solve(heawood):
    bipartite = spectral_summary(heawood, bipartite=True)
    assert bipartite.flat() == spectral_summary(heawood, bipartite=False)
    assert abs(bipartite.lam - math.sqrt(2)) < 1e-8
    assert abs(bipartite.flat().lam - 3) < 1e-8
