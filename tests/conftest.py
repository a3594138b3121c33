"""Shared fixtures: the standard scenario graphs and a few canonical inputs."""

import itertools
import math

import numpy as np
import pytest

from causalcorr import bell as bell_mod
from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr import graph as cg
from causalcorr import hbn as hm
from causalcorr._config import max_state_space
from causalcorr.errors import CycleError, SizeLimitExceeded, UnknownNode, require_valid
from causalcorr.graph import CausalGraph


def bell_graph(outcomes: int = 2, source_outcomes: int = 1) -> CausalGraph:
    """Two-party scenario: source s and per-party setting/measurement arms."""
    return CausalGraph.build(
        [("s", source_outcomes), ("x", outcomes), ("y", outcomes), ("a", outcomes), ("b", outcomes)],
        [("s->a", "s", "a"), ("s->b", "s", "b"), ("x->a", "x", "a"), ("y->b", "y", "b")],
    )


def popescu_graph(outcomes: int = 2) -> CausalGraph:
    """Preselection scenario: intermediate measurements ap, bp between source and arms."""
    return CausalGraph.build(
        [
            ("s", outcomes),
            ("ap", outcomes),
            ("bp", outcomes),
            ("x", outcomes),
            ("y", outcomes),
            ("a", outcomes),
            ("b", outcomes),
        ],
        [
            ("s->ap", "s", "ap"),
            ("s->bp", "s", "bp"),
            ("ap->a", "ap", "a"),
            ("bp->b", "bp", "b"),
            ("x->a", "x", "a"),
            ("y->b", "y", "b"),
        ],
    )


def bilocality_graph(outcomes: int = 2) -> CausalGraph:
    """Two independent sources s, t feeding three measurement stations."""
    return CausalGraph.build(
        [
            ("s", outcomes),
            ("t", outcomes),
            ("x", outcomes),
            ("y", outcomes),
            ("z", outcomes),
            ("a", outcomes),
            ("b", outcomes),
            ("c", outcomes),
        ],
        [
            ("s->a", "s", "a"),
            ("s->b", "s", "b"),
            ("t->b", "t", "b"),
            ("t->c", "t", "c"),
            ("x->a", "x", "a"),
            ("y->b", "y", "b"),
            ("z->c", "z", "c"),
        ],
    )


def triangle_graph(outcomes: int = 2) -> CausalGraph:
    """Three roots, each feeding the two measurement nodes it does not face."""
    return CausalGraph.build(
        [
            ("x", outcomes),
            ("y", outcomes),
            ("z", outcomes),
            ("a", outcomes),
            ("b", outcomes),
            ("c", outcomes),
        ],
        [
            ("x->b", "x", "b"),
            ("x->c", "x", "c"),
            ("y->a", "y", "a"),
            ("y->c", "y", "c"),
            ("z->a", "z", "a"),
            ("z->b", "z", "b"),
        ],
    )


def sequential_graph(outcomes: int = 2) -> CausalGraph:
    """Two rounds of measurements per arm, each with its own setting."""
    return CausalGraph.build(
        [
            ("s", outcomes),
            ("xp", outcomes),
            ("yp", outcomes),
            ("ap", outcomes),
            ("bp", outcomes),
            ("x", outcomes),
            ("y", outcomes),
            ("a", outcomes),
            ("b", outcomes),
        ],
        [
            ("s->ap", "s", "ap"),
            ("s->bp", "s", "bp"),
            ("xp->ap", "xp", "ap"),
            ("yp->bp", "yp", "bp"),
            ("ap->a", "ap", "a"),
            ("bp->b", "bp", "b"),
            ("x->a", "x", "a"),
            ("y->b", "y", "b"),
        ],
    )


def parallel_edge_graph(outcomes: int = 2) -> CausalGraph:
    """Parallel edges u->v and v->z, declared out of id order, around a relay w and a direct u->z."""
    return CausalGraph.build(
        [("u", outcomes), ("w", outcomes), ("v", outcomes), ("z", 2)],
        [
            ("e2", "u", "v"),
            ("e1", "u", "v"),
            ("f", "w", "v"),
            ("e0", "u", "w"),
            ("g1", "v", "z"),
            ("g0", "v", "z"),
            ("h", "u", "z"),
        ],
    )


def assert_identical(a, b):
    """Same dtype, shape and bytes: equal to the last bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def all_test_graphs(outcomes: int = 2) -> dict[str, CausalGraph]:
    return {
        "bell": bell_graph(outcomes),
        "popescu": popescu_graph(outcomes),
        "bilocality": bilocality_graph(outcomes),
        "triangle": triangle_graph(outcomes),
        "sequential": sequential_graph(outcomes),
    }


def causal_past_bfs(graph: CausalGraph, seed) -> frozenset[str]:
    """The seed and every node with a directed path into it, by a search back along the edges."""
    todo = list(seed)
    for n in todo:
        if n not in graph.nodes:
            raise UnknownNode(f"unknown node {n!r}")
    preds: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for e in graph.edges:
        preds[e.dst].add(e.src)
    result: set[str] = set()
    while todo:
        n = todo.pop()
        if n in result:
            continue
        result.add(n)
        todo.extend(preds[n])
    return frozenset(result)


def ancestral_sets(graph: CausalGraph) -> list[frozenset[str]]:
    """All node sets equal to their own causal past (including the empty set), by subset scan."""
    nodes = graph.nodes
    subsets = (frozenset(v for i, v in enumerate(nodes) if sub >> i & 1) for sub in range(1 << len(nodes)))
    return [s for s in subsets if causal_past_bfs(graph, s) == s]


def evaluate_naive(model: cm.ClassicalModel, max_states: int | None = None) -> dm.JointDistribution:
    """Full-enumeration evaluator: explicit loops over outcome and hidden tuples.

    Independent of the einsum path; a cross-check of ``classical.evaluate`` on small models.
    """
    require_valid(cm.validate_model(model))
    graph = model.graph
    state_space = math.prod(graph.outcomes[v] for v in graph.nodes)
    state_space *= math.prod(model.edge_alphabet[e.id] for e in graph.edges)
    if state_space > max_state_space(max_states):
        raise SizeLimitExceeded(f"state space {state_space} exceeds the guard")
    edge_ids = [e.id for e in graph.edges]
    edge_pos = {e: i for i, e in enumerate(edge_ids)}
    edge_sizes = tuple(model.edge_alphabet[e] for e in edge_ids)
    node_pos = {v: i for i, v in enumerate(graph.nodes)}
    outcome_sizes = tuple(graph.outcomes[v] for v in graph.nodes)
    gates = [model.gates[v] for v in graph.nodes]
    table = np.zeros(outcome_sizes)
    for outcome in np.ndindex(*outcome_sizes):
        total = 0.0
        for hidden in np.ndindex(*edge_sizes) if edge_sizes else [()]:
            p = 1.0
            for v, gate in zip(graph.nodes, gates):
                idx = (
                    tuple(hidden[edge_pos[e]] for e in gate.in_edges)
                    + (outcome[node_pos[v]],)
                    + tuple(hidden[edge_pos[e]] for e in gate.out_edges)
                )
                p *= float(gate.tensor[idx])
                if p == 0.0:
                    break
            total += p
        table[outcome] = total
    variables = tuple((v, graph.outcomes[v]) for v in graph.nodes)
    return dm.JointDistribution(variables, table, norm_tol=1e-9)


def validate_model_loop(model: cm.ClassicalModel) -> list[str]:
    """Oracle of ``classical.validate_model``: every gate's rows checked gate by gate."""
    violations = list(cg.validate(model.graph))
    alphabet = model.edge_alphabet
    in_ids, out_ids = {}, {}  # node -> ids of its in- and out-edges, in one pass
    for e in model.graph.edges:
        size = alphabet.get(e.id)
        if size is None:
            violations.append(f"edge {e.id!r}: missing hidden alphabet")
        elif size < 1:
            violations.append(f"edge {e.id!r}: hidden alphabet size {size} < 1")
        in_ids.setdefault(e.dst, []).append(e.id)
        out_ids.setdefault(e.src, []).append(e.id)
    for v in model.graph.nodes:
        gate = model.gates.get(v)
        if gate is None:
            violations.append(f"node {v!r}: missing gate")
            continue
        ins = tuple(sorted(in_ids.get(v, ())))
        outs = tuple(sorted(out_ids.get(v, ())))
        if gate.in_edges != ins or gate.out_edges != outs:
            violations.append(
                f"node {v!r}: gate wired to {gate.in_edges}/{gate.out_edges}, expected {ins}/{outs}"
            )
            continue
        try:
            expected = (
                tuple(alphabet[e] for e in ins)
                + (model.graph.outcomes[v],)
                + tuple(alphabet[e] for e in outs)
            )
        except KeyError:
            continue
        if gate.tensor.shape != expected:
            violations.append(
                f"node {v!r}: gate tensor shape {gate.tensor.shape}, expected {expected}"
            )
            continue
        if np.any(gate.tensor < 0):
            violations.append(f"node {v!r}: negative gate entry {float(gate.tensor.min())}")
        n_in = len(ins)
        sums = gate.tensor.sum(axis=tuple(range(n_in, gate.tensor.ndim)))
        dev = float(np.abs(sums - 1.0).max()) if sums.size else abs(float(sums) - 1.0)
        if not math.isfinite(dev):  # a NaN or infinite entry makes its row sum so
            violations.append(f"node {v!r}: non-finite gate entry")
        elif dev > cm.GATE_NORM_TOL:
            violations.append(f"node {v!r}: gate rows deviate from 1 by {dev}")
    return violations


def hbn_validate_loop(hbn: hm.HiddenBayesNet) -> list[str]:
    """Oracle of ``hbn.validate``: every table's rows checked table by table.

    Raises KeyError where a node's or a parent's hidden alphabet, or a
    node's outcome alphabet, is missing.
    """
    violations = list(cg.validate(hbn.graph))
    for v in hbn.graph.nodes:
        size = hbn.node_alphabet.get(v)
        if size is None:
            violations.append(f"node {v!r}: missing hidden alphabet")
        elif size < 1:
            violations.append(f"node {v!r}: hidden alphabet size {size} < 1")
    for v in hbn.graph.nodes:
        trans = hbn.transitions.get(v)
        read = hbn.readouts.get(v)
        if trans is None or read is None:
            violations.append(f"node {v!r}: missing transition or readout table")
            continue
        pa = hm.sorted_parents(hbn.graph, v)
        expected = tuple(hbn.node_alphabet[u] for u in pa) + (hbn.node_alphabet[v],)
        if trans.shape != expected:
            violations.append(f"node {v!r}: transition shape {trans.shape}, expected {expected}")
            continue
        if np.any(trans < 0):
            violations.append(f"node {v!r}: negative transition entry")
        dev = float(np.abs(trans.sum(axis=-1) - 1.0).max())
        if not dev <= hm.ROW_NORM_TOL:  # negated, so that a NaN entry's row sum fails it
            violations.append(f"node {v!r}: transition rows deviate from 1 by {dev}")
        expected_r = (hbn.node_alphabet[v], hbn.graph.outcomes[v])
        if read.shape != expected_r:
            violations.append(f"node {v!r}: readout shape {read.shape}, expected {expected_r}")
            continue
        if np.any(read < 0):
            violations.append(f"node {v!r}: negative readout entry")
        dev = float(np.abs(read.sum(axis=-1) - 1.0).max())
        if not dev <= hm.ROW_NORM_TOL:
            violations.append(f"node {v!r}: readout rows deviate from 1 by {dev}")
    return violations


def enumerate_strategies(scenario) -> list[tuple[tuple[int, ...], ...]]:
    """Oracle: every deterministic strategy of a Bell scenario, per party the tuple of its
    outcomes at each setting, in ``itertools.product`` order."""
    per_party = [list(itertools.product(range(m), repeat=k)) for k, m in zip(scenario.settings, scenario.outcomes)]
    return list(itertools.product(*per_party))


def all_topological_orders(graph: CausalGraph, limit: int = 100) -> list[list[str]]:
    """Up to ``limit`` distinct topological orders, in lexicographic order."""
    adj = {n: [e.dst for e in graph.out_edges(n)] for n in graph.nodes}
    indeg = {n: len(graph.in_edges(n)) for n in graph.nodes}
    out: list[list[str]] = []
    current: list[str] = []

    def rec():
        if len(out) >= limit:
            return
        if len(current) == len(graph.nodes):
            out.append(list(current))
            return
        for n in sorted(graph.nodes):
            if indeg[n] == 0 and n not in current:
                current.append(n)
                for c in adj[n]:
                    indeg[c] -= 1
                rec()
                for c in adj[n]:
                    indeg[c] += 1
                current.pop()
                if len(out) >= limit:
                    return

    rec()
    if not out:
        raise CycleError("graph contains a directed cycle")
    return out


def pr_box_dist() -> dm.JointDistribution:
    """PR box conditional with uniform binary settings and a trivial source."""
    table = np.zeros((1, 2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if a ^ b == x * y:
            table[0, x, y, a, b] = 0.125
    return dm.JointDistribution(
        (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table
    )


def record_bell_lps(monkeypatch) -> list:
    """Make ``bell.local_membership`` append each float LP ``(A, b)`` it solves to the returned list."""
    built = []
    solve = bell_mod.solve_phase1

    def recording_solve(a, b, tol):
        built.append((a, b))
        return solve(a, b, tol=tol)

    monkeypatch.setattr(bell_mod, "solve_phase1", recording_solve)
    return built


def deterministic_mixture(rng, settings, outcomes, n_terms) -> np.ndarray:
    """Conditional ``cond[x..., a...]`` of a random convex mixture of deterministic strategies."""
    cond = np.zeros(tuple(settings) + tuple(outcomes))
    for w in rng.dirichlet(np.ones(n_terms)):
        strategy = [rng.integers(m, size=k) for k, m in zip(settings, outcomes)]
        for xs in itertools.product(*(range(k) for k in settings)):
            cond[xs + tuple(strategy[i][x] for i, x in enumerate(xs))] += w
    return cond


def bell_joint(settings, outcomes, conds, setting_probs=None, source_probs=(1.0,)) -> dm.JointDistribution:
    """Scenario joint over (s, x1.., a1..) from one conditional ``cond[x..., a...]`` per source outcome.

    Settings are uniform unless ``setting_probs`` gives one distribution per party.
    """
    if setting_probs is None:
        setting_probs = [np.full(k, 1.0 / k) for k in settings]
    table = np.stack([p * np.asarray(c, dtype=float) for p, c in zip(source_probs, conds)])
    for i, p in enumerate(setting_probs):
        shape = [1] * table.ndim
        shape[1 + i] = len(p)
        table = table * np.reshape(p, shape)
    variables = (
        (("s", len(source_probs)),)
        + tuple((f"x{i + 1}", k) for i, k in enumerate(settings))
        + tuple((f"a{i + 1}", m) for i, m in enumerate(outcomes))
    )
    return dm.JointDistribution(variables, table)


@pytest.fixture
def bell():
    return bell_graph()


@pytest.fixture
def popescu():
    return popescu_graph()


@pytest.fixture
def bilocality():
    return bilocality_graph()


@pytest.fixture
def triangle():
    return triangle_graph()


@pytest.fixture
def sequential():
    return sequential_graph()
