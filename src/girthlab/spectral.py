"""Eigenvalues by cyclic Jacobi rotations, spectral summaries, and the
mixing inequalities that bound edge counts between vertex sets by the
spectral gap.

The gap parameter lambda excludes the largest eigenvalue in the general
setting and both extreme eigenvalues in the bipartite setting (where the
spectrum is symmetric and the most negative eigenvalue is trivial);
``gap_parameter`` is the one place that convention lives.

The eigenvalues are printed in the verify report, so the solver must round
exactly as it always has: every change to it keeps the cyclic rotation
order and each rotation's floating-point operations, and is tested for
bit-identical output against a copy of the original loop. That rules out
the parallel (Brent-Luk) ordering, whose different rotation order changes
the last bits of the eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    EmptyPart,
    HypothesisFailed,
    NoConvergence,
    NotBipartite,
    NotRegular,
    PartViolation,
)
from .graph import BipartiteGraph, Graph, e_between, is_bipartite
from .rng import XorShift64Star

BOUND_SLACK = 1e-6
_JACOBI_TOL = 1e-10


def eigenvalues_symmetric(M, max_sweeps: int = 100) -> list:
    """All eigenvalues of a symmetric matrix, sorted descending.

    Cyclic Jacobi: sweep the strict upper triangle, rotating each (p, q)
    pair to annihilate A[p,q], until the off-diagonal Frobenius norm drops
    below 1e-10 * ||M||_F. Raises NoConvergence after max_sweeps sweeps.

    The eigenvalues must stay bit-identical to those of the plain rotation,
    which updates columns p and q and then rows p and q of the full matrix
    (the verify report prints them). This loop does the same floating-point
    operations with fewer numpy calls: the matrix stays exactly symmetric,
    so rows p and q are computed once from the old rows, elementwise with
    no BLAS call and no fused multiply-add, and written as both rows and
    columns; the 2x2 block is computed from Python floats in the plain
    rotation's column-then-row order. The rotation order stays cyclic by
    rows: a parallel (Brent-Luk) ordering would round differently.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    if n > 512:
        raise ValueError("eigensolver guarded to n <= 512")
    if n == 0:
        return []
    if not np.array_equal(A, A.T):
        raise ValueError("matrix must be symmetric")
    norm = math.sqrt(float((A * A).sum()))
    if norm == 0.0:
        return [0.0] * n
    mask = ~np.eye(n, dtype=bool)
    item = A.item
    for sweep in range(max_sweeps):
        off = math.sqrt(float((A[mask] ** 2).sum()))
        if off < _JACOBI_TOL * norm:
            return sorted(np.diag(A).tolist(), reverse=True)
        # small threshold for early sweeps avoids stalling on noise entries
        thresh = 0.2 * off / (n * n) if sweep < 3 else 0.0
        for p in range(n - 1):
            row_p = A[p]
            for q in range(p + 1, n):
                apq = item(p, q)
                scale = 100.0 * abs(apq)
                if sweep > 3:
                    app, aqq = abs(item(p, p)), abs(item(q, q))
                    if app + scale == app and aqq + scale == aqq:
                        # negligible against the diagonal: rotation is a no-op
                        A[p, q] = 0.0
                        A[q, p] = 0.0
                        continue
                if abs(apq) <= thresh or apq == 0.0:
                    continue
                app, aqq = item(p, p), item(q, q)
                h = aqq - app
                if abs(h) + scale == abs(h):
                    t = apq / h
                else:
                    theta = h / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(1.0 + theta * theta)
                    )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_q = A[q]
                new_p = c * row_p - s * row_q
                new_q = s * row_p + c * row_q
                # the block after the column step, then after the row step
                col_pp = c * app - s * apq
                col_qp = c * apq - s * aqq
                col_pq = s * app + c * apq
                col_qq = s * apq + c * aqq
                new_p[p] = c * col_pp - s * col_qp
                new_q[q] = s * col_pq + c * col_qq
                new_p[q] = 0.0
                new_q[p] = 0.0
                A[p] = new_p
                A[q] = new_q
                A[:, p] = new_p
                A[:, q] = new_q
    raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps")


def adjacency_matrix(G: Graph) -> np.ndarray:
    A = np.zeros((G.n, G.n))
    for u, v in G.edges():
        A[u, v] = 1.0
        A[v, u] = 1.0
    return A


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: tuple  # sorted descending
    lam: float  # gap parameter under the chosen convention
    average_degree: Fraction
    variance: Fraction
    bipartite: bool

    @property
    def lambda_1(self) -> float:
        return self.eigenvalues[0]

    @property
    def lambda_n(self) -> float:
        return self.eigenvalues[-1]

    def flat(self) -> SpectralSummary:
        """The same spectrum under the general convention, where lambda
        excludes only the largest eigenvalue."""
        return replace(self, lam=gap_parameter(self.eigenvalues, False),
                       bipartite=False)


def gap_parameter(eigenvalues, bipartite: bool) -> float:
    """The largest |eigenvalue| once the largest eigenvalue is excluded,
    and in the bipartite setting the most negative one too; eigenvalues are
    sorted descending."""
    inner = eigenvalues[1:-1] if bipartite else eigenvalues[1:]
    return max((abs(x) for x in inner), default=0.0)


def degree_variance(G: Graph) -> Fraction:
    """Exact (1/n) * sum (d(v) - d)^2 = (1/n) * sum d(v)^2 - d^2."""
    d = G.average_degree()
    return Fraction(sum(dv * dv for dv in G.degrees()), G.n) - d * d


def spectral_summary(G: Graph, bipartite: bool = False) -> SpectralSummary:
    """Eigenvalues plus the gap parameter appropriate for the setting.

    With bipartite=True the graph must be 2-colorable and lambda excludes
    both extreme eigenvalues; otherwise only the largest one.
    """
    if G.n == 0:
        raise ValueError("spectral summary needs at least one vertex")
    if bipartite and not is_bipartite(G):
        raise NotBipartite("bipartite flag set on a non-bipartite graph")
    eig = eigenvalues_symmetric(adjacency_matrix(G))
    return SpectralSummary(
        eigenvalues=tuple(eig),
        lam=gap_parameter(eig, bipartite),
        average_degree=G.average_degree(),
        variance=degree_variance(G),
        bipartite=bipartite,
    )


@dataclass(frozen=True)
class MixingReport:
    """|e(S,T) - expected| against the spectral-gap bound."""

    e_st: int
    expected: float
    deviation: float
    bound: float
    holds: bool
    set_sizes: tuple


def _is_regular(G: Graph):
    degs = set(G.degrees())
    return degs.pop() if len(degs) == 1 else None


def _mixing_report(G: Graph, S: set, T: set, degree, bound: float) -> MixingReport:
    """|e(S,T) - (degree/n)|S||T|| against ``bound``."""
    est = e_between(G, S, T)
    expected = degree / G.n * len(S) * len(T)
    deviation = abs(est - expected)
    return MixingReport(
        e_st=est,
        expected=expected,
        deviation=deviation,
        bound=bound,
        holds=deviation <= bound + BOUND_SLACK,
        set_sizes=(len(S), len(T)),
    )


def check_mixing_regular(G: Graph, S, T, summary: SpectralSummary = None) -> MixingReport:
    """Regular-graph mixing: |e(S,T) - (d/n)|S||T|| <= lam*sqrt(|S||T|)."""
    d = _is_regular(G)
    if d is None:
        raise NotRegular("mixing bound needs a regular graph")
    if summary is None:
        summary = spectral_summary(G, bipartite=False)
    S, T = set(S), set(T)
    return _mixing_report(G, S, T, d, summary.lam * math.sqrt(len(S) * len(T)))


def check_mixing_bipartite(
    G: BipartiteGraph, S, T, summary: SpectralSummary = None
) -> MixingReport:
    """Regular bipartite mixing: for S in X and T in Y,
    |e(S,T) - (2d/n)|S||T|| <= lam*(|S|+|T|)/2."""
    if not isinstance(G, BipartiteGraph):
        raise NotBipartite("check_mixing_bipartite needs a BipartiteGraph")
    d = _is_regular(G)
    if d is None:
        raise NotRegular("mixing bound needs a regular bipartite graph")
    S, T = set(S), set(T)
    x_set, y_set = set(G.part_x), set(G.part_y)
    if not S <= x_set:
        raise PartViolation("S must lie inside part X")
    if not T <= y_set:
        raise PartViolation("T must lie inside part Y")
    if summary is None:
        summary = spectral_summary(G, bipartite=True)
    return _mixing_report(G, S, T, 2 * d, summary.lam * (len(S) + len(T)) / 2)


def check_mixing_near_regular(
    G: BipartiteGraph,
    S,
    T,
    beta: float,
    gamma: float,
    summary: SpectralSummary = None,
) -> MixingReport:
    """Near-regular bipartite mixing.

    Hypotheses, checked before the bound and reported honestly on failure:
      (i)  lam(G) < (1 - gamma) * d
      (ii) VAR(G) < beta * d^2
      plus alpha := 4*sqrt(beta)/gamma < 1/4.
    Conclusion: |e(S,T) - (2d/n)|S||T|| <= (4*alpha*d + lam/2)*n.
    """
    if not isinstance(G, BipartiteGraph):
        raise NotBipartite("check_mixing_near_regular needs a BipartiteGraph")
    if not (0 < beta < 1 and 0 < gamma < 1):
        raise ValueError("beta and gamma must lie in (0, 1)")
    if summary is None:
        summary = spectral_summary(G, bipartite=True)
    d = float(summary.average_degree)
    alpha = 4.0 * math.sqrt(beta) / gamma
    failed = []
    if not summary.lam < (1.0 - gamma) * d:
        failed.append("spectral gap: lam >= (1-gamma)*d")
    if not float(summary.variance) < beta * d * d:
        failed.append("variance: VAR >= beta*d^2")
    if not alpha < 0.25:
        failed.append("alpha = 4*sqrt(beta)/gamma >= 1/4")
    if failed:
        raise HypothesisFailed("; ".join(failed), failed=failed)
    S, T = set(S), set(T)
    x_set, y_set = set(G.part_x), set(G.part_y)
    if not S <= x_set or not T <= y_set:
        raise PartViolation("S must lie in X and T in Y")
    return _mixing_report(G, S, T, 2 * d,
                          (4.0 * alpha * d + summary.lam / 2.0) * G.n)


@dataclass(frozen=True)
class DeviationReport:
    """Empirical edge-count deviations over random (S, T) samples.

    Deviations are |e(S,T) - (2d/n)|S||T||; the normalized figures divide
    by n^(1+1/ell).
    """

    samples: int
    seed: int
    ell: int
    n: int
    max_deviation: float
    mean_deviation: float
    normalized_max: float
    normalized_mean: float


def pseudorandomness_report(
    G: BipartiteGraph, samples: int, seed: int, ell: int = 2
) -> DeviationReport:
    """Sample S in X and T in Y (each vertex kept with probability 1/2 from
    the seeded generator) and record edge-count deviations."""
    if not isinstance(G, BipartiteGraph):
        raise NotBipartite("pseudorandomness_report needs a BipartiteGraph")
    if not G.part_x or not G.part_y:
        raise EmptyPart("both parts must be nonempty")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    rng = XorShift64Star(seed)
    d = float(G.average_degree())
    scale = G.n ** (1.0 + 1.0 / ell)
    devs = []
    xs, ys = G.part_x, G.part_y
    for _ in range(samples):
        S = rng.sample(xs)
        T = rng.sample(ys)
        est = e_between(G, S, T)
        devs.append(abs(est - 2 * d / G.n * len(S) * len(T)))
    if not devs:
        return DeviationReport(0, seed, ell, G.n, 0.0, 0.0, 0.0, 0.0)
    mx = max(devs)
    mean = sum(devs) / len(devs)
    return DeviationReport(
        samples=samples,
        seed=seed,
        ell=ell,
        n=G.n,
        max_deviation=mx,
        mean_deviation=mean,
        normalized_max=mx / scale,
        normalized_mean=mean / scale,
    )
