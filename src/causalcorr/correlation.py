"""Deciding whether a joint outcome distribution is a correlation on a causal structure.

A distribution over the node outcomes qualifies when it factorizes across
every pair of node sets with disjoint causal pasts; checking the maximal
pairs suffices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import graph as cg
from ._config import check_tol
from .dist import JointDistribution, _factorised
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
        violations = [{"U": sorted(u), "W": sorted(w), "dev": dev} for u, w, dev in self.violations]
        return {**asdict(self), "violations": violations}


def is_correlation(
    graph: cg.CausalGraph, dist: JointDistribution, tol: float = 1e-9
) -> CorrelationVerdict:
    """Check the disjoint-past factorization condition for every maximal pair.

    ``tol`` must be finite and >= 0, and the distribution's variables exactly
    the graph's nodes with their alphabet sizes (any order); both are checked
    on every call.  One ``dist._deviations`` run checks every pair, summing
    each pair's joint from the smallest joint already summed that holds it.
    The pairs and their plan (``dist._factor_plan``) depend only on the
    graph's nodes and edges and the variables with their sizes, and
    ``dist._factorised`` keeps them under those, so a structure met again
    runs the kernel only.  Graphs with no disjoint-past pairs accept every
    distribution vacuously.
    """
    check_tol(tol)
    if set(dist.var_ids) != set(graph.nodes):
        raise ShapeMismatch(
            f"distribution variables {sorted(dist.var_ids)} != graph nodes {sorted(graph.nodes)}"
        )
    for v, k in dist.variables:
        if graph.outcomes[v] != k:
            raise ShapeMismatch(f"variable {v!r} has size {k}, graph says {graph.outcomes[v]}")

    key = (tuple(graph.nodes), tuple(graph.edges), dist.variables)
    pairs, devs = _factorised(dist, key, lambda: cg.maximal_disjoint_past_pairs(graph))
    violations = [(u, w, dev) for (u, w), dev in zip(pairs, devs) if dev > tol]
    violations.sort(key=lambda t: (sorted(t[0]), sorted(t[1])))
    return CorrelationVerdict(
        is_correlation=not violations,
        violations=violations,
        tol=tol,
        pairs_checked=len(pairs),
        max_deviation=max(devs, default=0.0),
    )
