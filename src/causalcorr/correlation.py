"""Deciding whether a joint outcome distribution is a correlation on a causal structure.

A distribution over the node outcomes qualifies when it factorizes across
every pair of node sets with disjoint causal pasts; checking the maximal
pairs suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph as cg
from .dist import JointDistribution, independence_deviation
from .errors import ShapeMismatch


@dataclass
class CorrelationVerdict:
    """Outcome of the factorization check.

    ``violations`` lists ``(U, W, max_deviation)`` for every maximal
    disjoint-past pair whose joint marginal deviates from the product of the
    side marginals by more than ``tol`` (max-abs over entries), sorted
    canonically.  ``is_correlation`` iff no violations.  ``pairs_checked``
    counts the pairs tested and ``max_deviation`` is the worst deviation over
    all of them (0.0 when there are none), reported whether or not it passes.
    """

    is_correlation: bool
    violations: list[tuple[frozenset[str], frozenset[str], float]]
    tol: float
    pairs_checked: int
    max_deviation: float

    def to_dict(self) -> dict:
        return {
            "is_correlation": self.is_correlation,
            "violations": [
                {"U": sorted(u), "W": sorted(w), "dev": dev} for u, w, dev in self.violations
            ],
            "tol": self.tol,
            "pairs_checked": self.pairs_checked,
            "max_deviation": self.max_deviation,
        }


def is_correlation(
    graph: cg.CausalGraph, dist: JointDistribution, tol: float = 1e-9
) -> CorrelationVerdict:
    """Check the disjoint-past factorization condition for every maximal pair.

    The distribution's variables must be exactly the graph's nodes with
    matching alphabet sizes (any order).  Each pair ``(U, W)`` costs one
    ``dist.independence_deviation`` reduction of the table, with no
    intermediate distribution.  Graphs with no disjoint-past pairs accept every
    distribution vacuously.
    """
    if set(dist.var_ids) != set(graph.nodes):
        raise ShapeMismatch(
            f"distribution variables {sorted(dist.var_ids)} != graph nodes {sorted(graph.nodes)}"
        )
    for v, k in dist.variables:
        if graph.outcomes[v] != k:
            raise ShapeMismatch(f"variable {v!r} has size {k}, graph says {graph.outcomes[v]}")

    violations = []
    pairs_checked = 0
    worst = 0.0
    for u_set, w_set in cg.maximal_disjoint_past_pairs(graph):
        if not u_set or not w_set:
            continue
        dev = independence_deviation(dist, (u_set, w_set))
        pairs_checked += 1
        worst = max(worst, dev)
        if dev > tol:
            violations.append((u_set, w_set, dev))
    violations.sort(key=lambda t: (sorted(t[0]), sorted(t[1])))
    return CorrelationVerdict(
        is_correlation=not violations,
        violations=violations,
        tol=tol,
        pairs_checked=pairs_checked,
        max_deviation=worst,
    )
