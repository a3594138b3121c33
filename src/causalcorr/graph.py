"""Finite directed acyclic graphs of events.

Nodes are opaque string ids carrying a finite outcome alphabet; edges are
identified by their own string ids, so parallel edges between the same pair
of nodes are allowed.  All operations are pure functions on immutable graph
values.  Wherever an ordering matters (topological ties, enumeration output,
generated edge ids) it is fixed lexicographically so results are reproducible.

The Bell scenario graph (:class:`BellScenario`, :func:`make_bell_graph`) is
defined here too, so that writing it loads no numpy; ``bell`` imports both.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from . import _schema
from .errors import CycleError, NodeMismatch, ShapeMismatch, SizeLimitExceeded, UnknownNode, as_size

# Disjoint-past pairs listed before maximal_disjoint_past_pairs refuses:
# the most that any graph of 14 or fewer nodes has (the 14-node antichain)
DEFAULT_MAX_PAIRS = 2**13 - 1


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class CausalGraph:
    """A finite DAG of events with per-node outcome alphabet sizes.

    ``nodes`` and ``edges`` keep their declared order; ``outcomes`` maps each
    node id to the size of its outcome alphabet (>= 1).  Instances are treated
    as immutable values.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    outcomes: dict[str, int] = field(compare=True)

    @classmethod
    def build(cls, nodes: Iterable[tuple[str, int]], edges: Iterable[tuple[str, str, str]]) -> "CausalGraph":
        """Construct from ``(node_id, outcome_size)`` and ``(edge_id, src, dst)`` triples (sizes: ``errors.as_size``)."""
        node_list = list(nodes)
        return cls(
            nodes=tuple(n for n, _ in node_list),
            edges=tuple(Edge(*e) for e in edges),
            outcomes={n: as_size(k, "node", n) for n, k in node_list},
        )

    def in_edges(self, v: str) -> list[Edge]:
        return [e for e in self.edges if e.dst == v]

    def out_edges(self, v: str) -> list[Edge]:
        return [e for e in self.edges if e.src == v]

    def parents(self, v: str) -> set[str]:
        return {e.src for e in self.edges if e.dst == v}

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise UnknownNode(f"no edge with id {edge_id!r}")


def _size_faults(kind, ids, sizes, noun, unit=" size"):
    """The violations of the sizes of ``ids`` in ``sizes``, in order: a size
    is missing, no integer (a Python or numpy int, no bool) or below 1."""
    for i in ids:
        size = sizes.get(i)
        if size is None:
            yield f"{kind} {i!r}: missing {noun}"
        elif isinstance(size, bool) or not isinstance(size, numbers.Integral):
            yield f"{kind} {i!r}: {noun}{unit} {size!r} is not an integer"
        elif size < 1:
            yield f"{kind} {i!r}: {noun}{unit} {size} < 1"


def validate(graph: CausalGraph) -> list[str]:
    """Check all graph invariants; returns a list of violations (empty means ok).

    Violations are data, not faults: each entry names the offending node or
    edge.  Cycles are reported with one explicit witness path.
    """
    violations = []
    seen = set()
    for n in graph.nodes:
        if n in seen:
            violations.append(f"duplicate node id {n!r}")
        seen.add(n)
    node_set = set(graph.nodes)
    edge_ids = set()
    for e in graph.edges:
        if e.id in edge_ids:
            violations.append(f"duplicate edge id {e.id!r}")
        edge_ids.add(e.id)
        if e.src not in node_set:
            violations.append(f"edge {e.id!r}: unknown source node {e.src!r}")
        if e.dst not in node_set:
            violations.append(f"edge {e.id!r}: unknown target node {e.dst!r}")
    violations += _size_faults("node", graph.nodes, graph.outcomes, "outcome alphabet")
    # each node once: a duplicate id seeded twice would count its edges twice
    _, indeg = _kahn(CausalGraph(tuple(dict.fromkeys(graph.nodes)), graph.edges, graph.outcomes))
    if any(indeg.values()):
        # every node Kahn's pass leaves has a left-over predecessor: walk back
        # from the smallest until a node repeats; that loop, forwards, is a cycle
        pred: dict[str, str] = {}
        for e in graph.edges:
            if indeg.get(e.src) and indeg.get(e.dst):
                pred[e.dst] = min(pred.get(e.dst, e.src), e.src)
        walk, seen = [min(n for n, d in indeg.items() if d)], set()
        while walk[-1] not in seen:
            seen.add(walk[-1])
            walk.append(pred[walk[-1]])
        violations.append("cycle: " + "->".join(walk[walk.index(walk[-1]):][::-1]))
    return violations


def _kahn(graph: CausalGraph) -> tuple[list[str], dict[str, int]]:
    """Kahn's pass over the edges between known nodes: the nodes in layered
    order (each layer sorted), and each node's in-degree from the nodes the
    pass never reached, positive exactly on and after the cycles when every
    node is listed once."""
    indeg = {n: 0 for n in graph.nodes}
    adj: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for e in graph.edges:
        if e.src in adj and e.dst in adj:
            adj[e.src].append(e.dst)
            indeg[e.dst] += 1
    layer = sorted(n for n in graph.nodes if indeg[n] == 0)
    order = []
    while layer:
        nxt = []
        for n in layer:
            order.append(n)
            for c in adj[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    nxt.append(c)
        layer = sorted(nxt)
    return order, indeg


def topological_order(graph: CausalGraph) -> list[str]:
    """Nodes ordered so every edge goes forward, layer by layer.

    Each layer holds the nodes whose remaining dependencies are exhausted and
    is emitted in lexicographic order, so sources come before everything they
    feed and the output is deterministic.
    """
    node_set = set(graph.nodes)
    for e in graph.edges:
        if e.src not in node_set or e.dst not in node_set:
            raise UnknownNode(f"edge {e.id!r} joins an unknown node")
    order, _ = _kahn(graph)
    if len(order) != len(graph.nodes):
        raise CycleError("graph contains a directed cycle")
    return order


def causal_past(graph: CausalGraph, seed: Iterable[str]) -> frozenset[str]:
    """Union of the seed nodes and everything with a directed path into them.

    Every node is a member of its own causal past; the result is ancestral,
    so the operation is idempotent and monotone in the seed.  The graph must
    be acyclic (CycleError otherwise) and its edges must join known nodes.
    """
    masks = dict(zip(graph.nodes, _past_masks(graph)))
    mask = 0
    for n in seed:
        if n not in masks:
            raise UnknownNode(f"unknown node {n!r}")
        mask |= masks[n]
    return frozenset(n for i, n in enumerate(graph.nodes) if mask >> i & 1)


def _past_masks(graph: CausalGraph) -> list[int]:
    """Bitmask of causal_past({v}) for each node, indexed by position in graph.nodes."""
    order = topological_order(graph)  # first: it refuses edges that join unknown nodes
    index = {n: i for i, n in enumerate(graph.nodes)}
    preds: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for e in graph.edges:
        preds[e.dst].add(e.src)
    masks = [0] * len(graph.nodes)
    for n in order:
        m = 1 << index[n]
        for p in preds[n]:
            m |= masks[index[p]]
        masks[index[n]] = m
    return masks


def maximal_disjoint_past_pairs(
    graph: CausalGraph, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """All maximal unordered pairs of nonempty node sets with disjoint causal pasts.

    Maximality means no node can be added to either side while keeping the
    pasts disjoint.  The maximal pairs are the formal concepts of the
    symmetric relation "past(u) and past(w) are disjoint": with
    ``partner(U) = {v : past(v) disjoint from past(U)}``, each pair is
    ``(A, partner(A))`` for a set ``A`` closed under ``partner(partner(.))``
    with both sides nonempty, so both sides are ancestral.  ``partner`` takes
    the past of ``U``, not ``U`` itself; only then is the closure extensive.
    Ganter's NextClosure lists the closed sets in lectic order and computes
    at most one closure per node for each, so the run time is polynomial in
    the number of pairs.  Each pair is two closed sets; SizeLimitExceeded is
    raised as soon as there are more than ``max_pairs`` pairs, which bounds
    the work as well.  Output is sorted canonically.
    """
    n = len(graph.nodes)
    masks = _past_masks(graph)
    # conflict[u]: the nodes whose causal past meets that of u
    conflict = [sum(1 << v for v in range(n) if masks[v] & m) for m in masks]
    # hits[k][byte]: the union of conflict[u] over the nodes u of byte k that are set in byte
    hits = []
    for k in range(0, n, 8):
        table = [0]
        for c in conflict[k:k + 8]:
            table += [t | c for t in table]
        hits.append(table)
    full = (1 << n) - 1

    def partner(mask: int) -> int:
        hit = 0
        for table in hits:
            hit |= table[mask & 255]
            mask >>= 8
        return full & ~hit

    pairs = []
    closed = 0
    w = full  # partner of the empty set
    a = partner(w)  # the closure of the empty set
    while True:
        if a and w:
            closed += 1
            if closed > 2 * max_pairs:
                raise SizeLimitExceeded(
                    f"more than {max_pairs} disjoint-past pairs, the pair-enumeration guard"
                )
            if a < w:
                pairs.append((a, w))
        # next closed set in lectic order: the largest node i not in a whose
        # closure of (a below i) + i adds nothing below i
        for i in reversed(range(n)):
            bit = 1 << i
            if a & bit:
                continue
            low = a & (bit - 1)
            b_partner = partner(low | bit)
            b = partner(b_partner)
            if b & (bit - 1) == low:
                a, w = b, b_partner
                break
        else:
            break

    by_name = sorted(range(n), key=graph.nodes.__getitem__)

    def names(mask: int) -> list[str]:
        return [graph.nodes[i] for i in by_name if mask >> i & 1]

    # each side as its sorted name list: the smaller side first, pairs in list order
    keyed = sorted(sorted((names(u), names(w))) for u, w in pairs)
    return [(frozenset(su), frozenset(sw)) for su, sw in keyed]


def _precedes(graph: CausalGraph) -> set[tuple[str, str]]:
    """The strict causal order: the pairs ``(u, w)`` of distinct nodes with a
    directed path from ``u`` to ``w``."""
    masks = _past_masks(graph)
    return {(u, w) for w, m in zip(graph.nodes, masks) for i, u in enumerate(graph.nodes) if m >> i & 1 and u != w}


def transitive_closure(graph: CausalGraph) -> CausalGraph:
    """Graph with an added edge ``u->w#tc`` for every indirect-only causal link."""
    have = {(e.src, e.dst) for e in graph.edges}
    added = tuple(Edge(f"{u}->{w}#tc", u, w) for u, w in sorted(_precedes(graph) - have))
    return CausalGraph(nodes=graph.nodes, edges=(*graph.edges, *added), outcomes=dict(graph.outcomes))


def poset_equal(g1: CausalGraph, g2: CausalGraph) -> bool:
    """True iff the two graphs induce identical reachability relations."""
    if set(g1.nodes) != set(g2.nodes):
        raise NodeMismatch("graphs are over different node sets")
    return _precedes(g1) == _precedes(g2)


def graph_to_dict(graph: CausalGraph) -> dict:
    return {
        "nodes": [{"id": n, "outcomes": graph.outcomes[n]} for n in graph.nodes],
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in graph.edges],
    }


def graph_from_dict(data: dict) -> CausalGraph:
    """Parse the graph JSON schema; unknown fields are rejected."""
    nodes, edges = _schema.fields(data, "graph JSON", {"nodes": list, "edges": list})
    return CausalGraph.build(
        [_schema.fields(item, "graph JSON node", {"id": str, "outcomes": int}) for item in nodes],
        [_schema.fields(item, "graph JSON edge", {"id": str, "src": str, "dst": str}) for item in edges],
    )


@dataclass(frozen=True)
class BellScenario:
    """Party count with per-party setting/outcome sizes and a source outcome size."""

    settings: tuple[int, ...]
    outcomes: tuple[int, ...]
    source_outcomes: int = 1

    def __post_init__(self):
        if len(self.settings) != len(self.outcomes) or not self.settings:
            raise ShapeMismatch("settings and outcomes must list one size per party")
        object.__setattr__(self, "settings", tuple(as_size(k, "setting", f"x{i}") for i, k in enumerate(self.settings, 1)))
        object.__setattr__(self, "outcomes", tuple(as_size(k, "outcome", f"a{i}") for i, k in enumerate(self.outcomes, 1)))
        object.__setattr__(self, "source_outcomes", as_size(self.source_outcomes, "source", "s"))
        if min(self.settings) < 1 or min(self.outcomes) < 1 or self.source_outcomes < 1:
            raise ShapeMismatch("all sizes must be >= 1")

    @property
    def n(self) -> int:
        return len(self.settings)

    def setting_ids(self) -> list[str]:
        return [f"x{i + 1}" for i in range(self.n)]

    def outcome_ids(self) -> list[str]:
        return [f"a{i + 1}" for i in range(self.n)]


def make_bell_graph(scenario: BellScenario) -> CausalGraph:
    """The 2n+1-node scenario graph with deterministic node and edge ids."""
    nodes = [("s", scenario.source_outcomes)]
    nodes += [(x, k) for x, k in zip(scenario.setting_ids(), scenario.settings)]
    nodes += [(a, k) for a, k in zip(scenario.outcome_ids(), scenario.outcomes)]
    edges = [(f"s->a{i + 1}", "s", f"a{i + 1}") for i in range(scenario.n)]
    edges += [(f"x{i + 1}->a{i + 1}", f"x{i + 1}", f"a{i + 1}") for i in range(scenario.n)]
    return CausalGraph.build(nodes, edges)
