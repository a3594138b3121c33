"""Deciding whether a joint outcome distribution is a correlation on a causal structure.

A distribution over the node outcomes qualifies when it factorizes across
every pair of node sets with disjoint causal pasts; checking the maximal
pairs suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph as cg
from ._config import MAX_CACHED_INDEX_ENTRIES, BoundedCache, check_tol
from .dist import JointDistribution, _deviation_kernel, _factor_index
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


# per (nodes, edges, variables): each checked pair with its cell index
_AXES = BoundedCache(MAX_CACHED_INDEX_ENTRIES)


def is_correlation(
    graph: cg.CausalGraph, dist: JointDistribution, tol: float = 1e-9
) -> CorrelationVerdict:
    """Check the disjoint-past factorization condition for every maximal pair.

    ``tol`` must be finite and >= 0, and the distribution's variables exactly
    the graph's nodes with their alphabet sizes (any order); both are checked
    on every call.  Each pair ``(U, W)`` costs one ``dist._deviation_kernel``
    run, one ``np.bincount`` of the table.  The pairs and their cell indices
    (``dist._factor_index``) depend only on the graph's nodes and edges and
    the variables with their sizes, and are kept under them (at most
    ``MAX_CACHED_INDEX_ENTRIES`` index entries in all, the oldest dropped
    first), so a structure met again runs the kernels only.  Graphs with no
    disjoint-past pairs accept every distribution vacuously.
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
    plan = _AXES.get(key)
    if plan is None:
        plan = tuple((u, w, _factor_index(dist.variables, (u, w))) for u, w in cg.maximal_disjoint_past_pairs(graph))
        _AXES.put(key, plan, 1 + sum(index[0].size + index[1].size for *_, index in plan))
    violations = []
    worst = 0.0
    for u_set, w_set, index in plan:
        dev = _deviation_kernel(dist.table, *index)
        worst = max(worst, dev)
        if dev > tol:
            violations.append((u_set, w_set, dev))
    violations.sort(key=lambda t: (sorted(t[0]), sorted(t[1])))
    return CorrelationVerdict(
        is_correlation=not violations,
        violations=violations,
        tol=tol,
        pairs_checked=len(plan),
        max_deviation=worst,
    )
