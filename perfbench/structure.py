"""Workload ``structure``: poset, marginal and rewrite work on larger graphs.

Ops: ``is_correlation`` on 10-14-node sparse random DAGs (distributions made
in set-up); classical ``evaluate`` on such DAGs with an ancestral-marginal
cross-check; ``push_back_determinism``; hidden-Bayesian-network round trips;
and ``lift_trivial_edge`` followed by ``reroute_transitive_edge``.  Pair
enumeration, marginals and rewrites dominate, classical contraction is light
(many nodes, small alphabets), and neither quantum nor the LP is used.
"""

from __future__ import annotations

import numpy as np

from causalcorr import classical, dist, graph, hbn

import models as m

# Product of all outcome and hidden alphabet sizes of the DAG models.  The
# seed's guard refuses products above 2**24 whatever the contraction costs;
# rerouting doubles two alphabets, so the budget leaves it a factor 4.  A
# dense model above the guard is a probe instead.
STATE_BUDGET_LOG2 = 20
PUSH_BACK_FAMILIES = ("bell", "triangle", "bilocality")  # depth 1; depth 2 outgrows the alphabet guard
IN_PROCESS = True
ROUNDS = 80
TRACE_OPS = 40
LOOSE = 1 << 40  # guard for the checks' own evaluations of converted models


def _ancestors(edges, seeds) -> set:
    parents = {}
    for u, w in edges:
        parents.setdefault(w, set()).add(u)
    out, todo = set(), list(seeds)
    while todo:
        v = todo.pop()
        if v not in out:
            out.add(v)
            todo.extend(parents.get(v, ()))
    return out


def dag_model(rng, n: int, with_triangle: bool = False):
    """Binary sparse DAG with a seeded model inside the state budget.

    With ``with_triangle`` the DAG also holds edges u->v, v->w and u->w, and
    the transitive edge u->w carries alphabet 2.
    """
    nodes, edges = m.sparse_dag(rng, n, extra=int(rng.integers(1, 4)))
    triangle = None
    if with_triangle:
        u, v, w = sorted(int(i) for i in rng.choice(n, size=3, replace=False))
        triangle = (nodes[u], nodes[v], nodes[w])
        edges = sorted(set(edges) | {(nodes[u], nodes[v]), (nodes[v], nodes[w]), (nodes[u], nodes[w])})
    g = m.make_graph(nodes, edges, 2)
    ids = [e.id for e in g.edges]
    sizes = {e: 1 for e in ids}
    for i in rng.permutation(len(ids))[: max(0, STATE_BUDGET_LOG2 - n - 2 * with_triangle)]:
        sizes[ids[i]] = 2
    if triangle:
        sizes[f"{triangle[0]}->{triangle[2]}"] = 2
    return g, m.random_classical(rng, g, sizes), nodes, edges, triangle


def correlation_op(rng, n):
    g, model, *_ = dag_model(rng, n)
    p = classical.evaluate(model)

    def run():
        m.check_is_correlation(g, p, 1e-9)

    return run


def evaluate_op(rng, n):
    g, model, nodes, edges, _ = dag_model(rng, n)
    subset = _ancestors(edges, [str(v) for v in rng.choice(nodes, size=2, replace=False)])

    def run():
        p = classical.evaluate(model)
        m.check_normalised(p, 1e-9)
        part = classical.evaluate_marginal_ancestral(model, subset)
        m.check_equal(dist.marginal(p, subset), part, 1e-12, "ancestral marginal")

    return run


def push_back_op(rng, n):
    g = m.family_graph(str(rng.choice(PUSH_BACK_FAMILIES)), 2)
    model = m.random_classical(rng, g, {e.id: int(rng.integers(1, 3)) for e in g.edges})
    p = classical.evaluate(model)

    def run():
        pushed = classical.push_back_determinism(model)
        m.check_equal(p, classical.evaluate(pushed, max_states=LOOSE), 1e-12, "pushed-back joint")
        for v in g.nodes:
            gate = pushed.gates[v]
            m.check(not gate.in_edges or gate.deterministic, f"gate at {v} is not deterministic")

    return run


def hbn_op(rng, n):
    if rng.uniform() < 0.5:
        g = m.family_graph(str(rng.choice(list(m.FAMILIES))), 2)
    else:
        nodes, edges = m.sparse_dag(rng, n - 4, extra=1)
        g = m.make_graph(nodes, edges, 2)
    # Every edge's alphabet multiplies into its source's HBN state, and
    # to_classical copies that state onto each outgoing edge, so its gate
    # grows as the state to the power of the out-degree.  Alphabet 2 on at
    # most three edges leaving nodes of out-degree <= 2 keeps memory flat
    # across seeds.
    out_degree = {v: sum(e.src == v for e in g.edges) for v in g.nodes}
    candidates = [e.id for e in g.edges if out_degree[e.src] <= 2]
    sizes = {e.id: 1 for e in g.edges}
    for i in rng.permutation(len(candidates))[:3]:
        sizes[candidates[i]] = 2
    model = m.random_classical(rng, g, sizes)
    p = classical.evaluate(model)

    def run():
        net = hbn.from_classical(model)
        m.check_equal(p, hbn.evaluate(net, max_states=LOOSE), 1e-12, "HBN joint")
        back = hbn.to_classical(net)
        m.check_equal(p, classical.evaluate(back, max_states=LOOSE), 1e-12, "round-trip joint")

    return run


def rewrite_op(rng, n):
    g, model, nodes, edges, (u, v, w) = dag_model(rng, n, with_triangle=True)
    p = classical.evaluate(model)
    # a pair in causal order that is not yet an edge, for the trivial lift
    pairs = [(a, b) for b in nodes for a in sorted(_ancestors(edges, [b]) - {b}) if (a, b) not in edges]
    src, dst = pairs[int(rng.integers(len(pairs)))] if pairs else (u, w)

    def run():
        lifted = classical.lift_trivial_edge(model, src, dst)
        m.check_equal(p, classical.evaluate(lifted), 1e-12, "lifted joint")
        rerouted = classical.reroute_transitive_edge(lifted, f"{u}->{w}", v)
        m.check(all(e.id != f"{u}->{w}" for e in rerouted.graph.edges), "rerouted edge still present")
        m.check_equal(p, classical.evaluate(rerouted), 1e-12, "rerouted joint")

    return run


MIX = (
    ("correlation", correlation_op, 3),
    ("evaluate", evaluate_op, 3),
    ("push_back", push_back_op, 2),
    ("hbn", hbn_op, 2),
    ("rewrite", rewrite_op, 2),
)


def build(seed: int, workdir) -> tuple[list, list]:
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(ROUNDS):
        for kind, make, count in MIX:
            for j in range(count):
                n = 10 + (r * count + j) % 5  # 10-14 nodes, evenly
                ops.append(m.Op(f"{kind}-{r}.{j}", kind, make(rng, n)))
    rng.shuffle(ops)
    return ops, _probes(rng)


def _probes(rng) -> list:
    """Known seed defects: guards that refuse cheap inputs."""
    nodes, edges = m.sparse_dag(rng, 14, extra=2)
    g = m.make_graph(nodes, edges, 2)
    dense = m.random_classical(rng, g, {e.id: 2 for e in g.edges})

    def dense_evaluate():  # 2**29 states by the guard's count; contracts in milliseconds
        m.check_normalised(classical.evaluate(dense), 1e-9)

    nodes16, edges16 = m.sparse_dag(rng, 16, extra=2)
    g16 = m.make_graph(nodes16, edges16, 2)
    p16 = classical.evaluate(m.random_classical(rng, g16, {e.id: 1 for e in g16.edges}))

    def sixteen_node_pairs():
        m.check(graph.maximal_disjoint_past_pairs(g16), "no disjoint-past pairs found")
        m.check_is_correlation(g16, p16, 1e-9)

    return [
        m.Op("probe-14-node-alphabet-2-evaluate", "probe", dense_evaluate),
        m.Op("probe-16-node-is-correlation", "probe", sixteen_node_pairs),
    ]
