import itertools

import numpy as np
import pytest

from causalcorr import bell as bm
from causalcorr import classical as cm
from causalcorr import graph as gm
from causalcorr.correlation import is_correlation
from causalcorr.errors import CycleError, NodeMismatch, ShapeMismatch, SizeLimitExceeded, UnknownNode
from causalcorr.graph import CausalGraph

from conftest import causal_past_bfs


def chain(*names, outcomes=2):
    nodes = [(n, outcomes) for n in names]
    edges = [(f"{a}->{b}", a, b) for a, b in zip(names, names[1:])]
    return CausalGraph.build(nodes, edges)


def random_dag(rng, n_nodes, p=0.4):
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.uniform() < p:
            edges.append((f"e{i}_{j}", names[i], names[j]))
    return CausalGraph.build([(n, 2) for n in names], edges)


def sparse_dag(rng, n_nodes, extra=2):
    """Random tree on 2-3 roots plus ``extra`` forward edges, nodes declared in shuffled order."""
    names = [f"v{i:02d}" for i in range(n_nodes)]
    n_roots = int(rng.integers(2, 4))
    pairs = {(int(rng.integers(0, j)), j) for j in range(n_roots, n_nodes)}
    while len(pairs) < n_nodes - n_roots + extra:
        i, j = sorted(int(v) for v in rng.choice(n_nodes, size=2, replace=False))
        pairs.add((i, j))
    nodes = [(names[i], 2) for i in rng.permutation(n_nodes)]
    edges = [(f"{names[i]}->{names[j]}", names[i], names[j]) for i, j in sorted(pairs)]
    return CausalGraph.build(nodes, edges)


def bell_scenario_graph(parties):
    return bm.make_bell_graph(bm.BellScenario((2,) * parties, (2,) * parties))


def antichain(n_nodes):
    return CausalGraph.build([(f"n{i:02d}", 2) for i in range(n_nodes)], [])


class TestValidate:
    def test_single_node_ok(self):
        g = CausalGraph.build([("a", 1)], [])
        assert gm.validate(g) == []

    def test_two_cycle_reported(self):
        g = CausalGraph.build([("a", 2), ("b", 2)], [("e1", "a", "b"), ("e2", "b", "a")])
        violations = gm.validate(g)
        assert any("cycle" in v for v in violations)

    def test_bell_graph_ok(self, bell):
        assert gm.validate(bell) == []

    def test_bad_endpoint_and_outcome(self):
        g = CausalGraph.build([("a", 0)], [("e", "a", "zz")])
        violations = gm.validate(g)
        assert any("zz" in v for v in violations)
        assert any("outcome" in v for v in violations)

    @pytest.mark.parametrize("size", [2.5, "3", None, True])
    def test_build_refuses_a_size_that_is_no_integer(self, size):
        # int() would truncate 2.5 and parse "3", so validate would never see the fault
        with pytest.raises(ShapeMismatch, match=r"node 'b': size .* is not an integer"):
            CausalGraph.build([("a", 2), ("b", size)], [])
        g = CausalGraph.build([("a", np.int64(3)), ("b", np.uint8(2))], [])
        assert g.outcomes == {"a": 3, "b": 2} and all(type(k) is int for k in g.outcomes.values())

    def test_duplicate_ids(self):
        g = CausalGraph(
            nodes=("a", "a"), edges=(gm.Edge("e", "a", "a"),), outcomes={"a": 2}
        )
        violations = gm.validate(g)
        assert any("duplicate node" in v for v in violations)

    def test_duplicate_node_with_an_edge_is_only_a_duplicate(self):
        g = CausalGraph(nodes=("a", "a", "b"), edges=(gm.Edge("e", "a", "b"),), outcomes={"a": 2, "b": 2})
        assert gm.validate(g) == ["duplicate node id 'a'"]

    def test_duplicate_node_does_not_hide_a_cycle(self):
        # d listed twice must not count d->x twice and so release the cycle x->y->x
        edges = (gm.Edge("e1", "d", "x"), gm.Edge("e2", "x", "y"), gm.Edge("e3", "y", "x"))
        g = CausalGraph(nodes=("d", "d", "x", "y"), edges=edges, outcomes={"d": 2, "x": 2, "y": 2})
        assert gm.validate(g) == ["duplicate node id 'd'", "cycle: x->y->x"]

    @staticmethod
    def cycle_witness(g):
        [cycle] = [v for v in gm.validate(g) if v.startswith("cycle: ")]
        return cycle[len("cycle: "):].split("->")

    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([("a", "b"), ("b", "a")], ["a", "b", "a"]),
            # c hangs off the cycle: it has no unprocessed successor, but one unprocessed predecessor
            ([("a", "b"), ("b", "a"), ("b", "c")], ["a", "b", "a"]),
            ([("b", "c"), ("c", "d"), ("d", "b"), ("d", "e"), ("e", "f")], ["b", "c", "d", "b"]),
            ([("a", "b"), ("b", "a"), ("b", "zz"), ("zz", "a")], ["a", "b", "a"]),
        ],
    )
    def test_cycle_witness_is_a_closed_path_of_edges(self, edges, expected):
        names = sorted({v for e in edges for v in e} - {"zz"})
        g = CausalGraph.build([(n, 2) for n in names], [(f"{u}->{v}", u, v) for u, v in edges])
        witness = self.cycle_witness(g)
        assert witness == expected
        assert witness[0] == witness[-1] and len(set(witness)) == len(witness) - 1
        assert all((u, v) in edges for u, v in zip(witness, witness[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_cycle_reported_exactly_when_ordering_fails(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"n{i}" for i in range(6)]
        for _ in range(40):
            pairs = {(str(u), str(v)) for u, v in rng.choice(names, size=(int(rng.integers(3, 9)), 2)) if u != v}
            g = CausalGraph.build([(n, 2) for n in names], [(f"{u}->{v}", u, v) for u, v in sorted(pairs)])
            try:
                gm.topological_order(g)
            except CycleError:
                witness = self.cycle_witness(g)
                assert all((u, v) in pairs for u, v in zip(witness, witness[1:]))
                assert witness[0] == witness[-1] and len(set(witness)) == len(witness) - 1
            else:
                assert gm.validate(g) == []


class TestTopologicalOrder:
    def test_chain_forced(self):
        assert gm.topological_order(chain("x", "a")) == ["x", "a"]

    def test_bell_layers(self, bell):
        order = gm.topological_order(bell)
        assert order.index("s") < order.index("a")
        assert set(order[:3]) == {"s", "x", "y"}
        assert set(order[3:]) == {"a", "b"}

    def test_triangle_layers(self, triangle):
        order = gm.topological_order(triangle)
        assert set(order[:3]) == {"x", "y", "z"}
        assert set(order[3:]) == {"a", "b", "c"}

    def test_cycle_raises(self):
        g = CausalGraph.build([("a", 2), ("b", 2)], [("e1", "a", "b"), ("e2", "b", "a")])
        with pytest.raises(CycleError):
            gm.topological_order(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_respects_edges(self, seed):
        g = random_dag(np.random.default_rng(seed), 7)
        order = gm.topological_order(g)
        assert sorted(order) == sorted(g.nodes)
        pos = {v: i for i, v in enumerate(order)}
        for e in g.edges:
            assert pos[e.src] < pos[e.dst]


class TestCausalPast:
    def test_bell_measurement(self, bell):
        assert gm.causal_past(bell, ["a"]) == frozenset({"a", "x", "s"})

    def test_empty_seed(self, bell):
        assert gm.causal_past(bell, []) == frozenset()

    def test_bilocality_b(self, bilocality):
        assert gm.causal_past(bilocality, ["b"]) == frozenset({"b", "s", "t", "y"})

    def test_unknown_node(self, bell):
        with pytest.raises(UnknownNode):
            gm.causal_past(bell, ["nope"])

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_and_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, 6)
        nodes = list(g.nodes)
        small = frozenset(rng.choice(nodes, size=2, replace=False))
        large = small | {nodes[0]}
        p_small = gm.causal_past(g, small)
        p_large = gm.causal_past(g, large)
        assert p_small <= p_large
        assert gm.causal_past(g, p_small) == p_small

    def test_edge_to_unknown_node_refused(self):
        g = CausalGraph.build([("a", 2)], [("e", "a", "zz")])
        with pytest.raises(UnknownNode):
            gm.causal_past(g, ["a"])

    def test_cyclic_graph_refused(self):
        g = CausalGraph.build([("a", 2), ("b", 2), ("c", 2)], [("e1", "a", "b"), ("e2", "b", "a")])
        with pytest.raises(CycleError):
            gm.causal_past(g, ["c"])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_search_on_every_subset(self, seed):
        g = random_dag(np.random.default_rng(seed), 7)
        for sub in range(1 << len(g.nodes)):
            seed_set = [v for i, v in enumerate(g.nodes) if sub >> i & 1]
            assert gm.causal_past(g, seed_set) == causal_past_bfs(g, seed_set)


def brute_force_pairs(graph):
    """Exhaustive maximal disjoint-past pairs, straight from the definition."""
    nodes = list(graph.nodes)
    subsets = [
        frozenset(c)
        for r in range(1, len(nodes) + 1)
        for c in itertools.combinations(nodes, r)
    ]
    def past(s):
        return causal_past_bfs(graph, s)

    found = set()
    for u in subsets:
        for w in subsets:
            if past(u) & past(w):
                continue
            maximal = True
            for v in nodes:
                if v in u or v in w:
                    continue
                if not past(u | {v}) & past(w) or not past(u) & past(w | {v}):
                    maximal = False
                    break
            if maximal:
                found.add((u, w) if sorted(u) <= sorted(w) else (w, u))
    return sorted(found, key=lambda p: (sorted(p[0]), sorted(p[1])))


def subset_scan_pairs(graph):
    """Maximal pairs by the earlier enumeration: every ancestral subset and its largest partner."""
    n = len(graph.nodes)
    masks = [
        sum(1 << i for i, u in enumerate(graph.nodes) if u in causal_past_bfs(graph, [v]))
        for v in graph.nodes
    ]
    full = (1 << n) - 1

    def partner(mask):
        return sum(1 << i for i in range(n) if not masks[i] & mask)

    pairs = set()
    for sub in range(1, full + 1):
        if any(sub >> i & 1 and masks[i] & ~sub for i in range(n)):
            continue
        w = partner(sub)
        if w and partner(w) == sub:
            pairs.add((min(sub, w), max(sub, w)))

    def unmask(mask):
        return frozenset(graph.nodes[i] for i in range(n) if mask >> i & 1)

    out = []
    for u, w in pairs:
        su, sw = unmask(u), unmask(w)
        if sorted(sw) < sorted(su):
            su, sw = sw, su
        out.append((su, sw))
    out.sort(key=lambda p: (sorted(p[0]), sorted(p[1])))
    return out


class TestMaximalDisjointPastPairs:
    def test_bell_exact(self, bell):
        pairs = gm.maximal_disjoint_past_pairs(bell)
        expected = {
            (frozenset({"s"}), frozenset({"x", "y"})),
            (frozenset({"x"}), frozenset({"b", "s", "y"})),
            (frozenset({"x", "a", "s"}), frozenset({"y"})),
        }
        assert {frozenset((u, w)) for u, w in pairs} == {frozenset(p) for p in expected}
        assert pairs == brute_force_pairs(bell)

    def test_chain_has_none(self):
        assert gm.maximal_disjoint_past_pairs(chain("x", "a")) == []

    def test_isolated_pair(self):
        g = CausalGraph.build([("u", 2), ("v", 2)], [])
        assert gm.maximal_disjoint_past_pairs(g) == [(frozenset({"u"}), frozenset({"v"}))]

    def test_pairs_are_ancestral_and_disjoint(self, bilocality):
        for u, w in gm.maximal_disjoint_past_pairs(bilocality):
            assert gm.causal_past(bilocality, u) == u
            assert gm.causal_past(bilocality, w) == w
            assert not u & w

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        g = random_dag(np.random.default_rng(seed), 6, p=0.3)
        assert gm.maximal_disjoint_past_pairs(g) == brute_force_pairs(g)

    def test_figure_graphs_match_brute_force(self, popescu, triangle, bilocality):
        for g in (popescu, triangle, bilocality):
            assert gm.maximal_disjoint_past_pairs(g) == brute_force_pairs(g)

    def test_size_guard(self):
        g = CausalGraph.build([(f"n{i}", 2) for i in range(15)], [])
        with pytest.raises(SizeLimitExceeded):
            gm.maximal_disjoint_past_pairs(g)


class TestNextClosureMatchesSubsetScan:
    """Same pairs in the same order as the earlier subset scan, on graphs it could handle."""

    @pytest.mark.parametrize("seed", range(40))
    def test_sparse_dags(self, seed):
        rng = np.random.default_rng(600 + seed)
        g = sparse_dag(rng, 10 + seed % 5, extra=int(rng.integers(0, 4)))
        assert gm.maximal_disjoint_past_pairs(g) == subset_scan_pairs(g)

    @pytest.mark.parametrize("parties", range(2, 7))
    def test_bell_graphs(self, parties):
        g = bell_scenario_graph(parties)
        pairs = gm.maximal_disjoint_past_pairs(g)
        assert pairs == subset_scan_pairs(g)
        assert len(pairs) == 2**parties - 1

    @pytest.mark.parametrize("n_nodes", range(1, 14))
    def test_antichains(self, n_nodes):
        g = antichain(n_nodes)
        pairs = gm.maximal_disjoint_past_pairs(g)
        assert pairs == subset_scan_pairs(g)
        assert len(pairs) == 2 ** (n_nodes - 1) - 1

    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_cases(self, seed):
        g = random_dag(np.random.default_rng(seed), 6, p=0.3)
        assert gm.maximal_disjoint_past_pairs(g) == subset_scan_pairs(g)

    def test_figure_graphs(self, bell, popescu, triangle, bilocality, sequential):
        for g in (bell, popescu, triangle, bilocality, sequential):
            assert gm.maximal_disjoint_past_pairs(g) == subset_scan_pairs(g)


class TestPairGuard:
    def test_fourteen_node_antichain_accepted(self):
        assert len(gm.maximal_disjoint_past_pairs(antichain(14))) == 2**13 - 1

    def test_sixteen_node_dag_gets_a_verdict(self):
        g = sparse_dag(np.random.default_rng(16), 16)
        verdict = is_correlation(g, cm.evaluate(cm.random_model(g, 2, seed=16)))
        assert verdict.is_correlation

    def test_twenty_five_node_bell_graph(self):
        g = bell_scenario_graph(12)
        assert len(g.nodes) == 25
        assert len(gm.maximal_disjoint_past_pairs(g)) == 4095

    def test_max_pairs_refused(self, bell, monkeypatch):
        monkeypatch.setattr(gm, "DEFAULT_MAX_PAIRS", 3)
        assert len(gm.maximal_disjoint_past_pairs(bell)) == 3
        monkeypatch.setattr(gm, "DEFAULT_MAX_PAIRS", 2)
        with pytest.raises(SizeLimitExceeded):
            gm.maximal_disjoint_past_pairs(bell)


class TestPairCache:
    """Repeated calls: each returns a fresh list, and a refusal holds every time."""

    def test_mutating_the_returned_list_leaves_the_next_call(self, bell):
        pairs = gm.maximal_disjoint_past_pairs(bell)
        expected = list(pairs)
        pairs.clear()
        pairs.append((frozenset({"x"}), frozenset({"a"})))
        again = gm.maximal_disjoint_past_pairs(bell)
        assert again == expected == brute_force_pairs(bell)
        assert again is not gm.maximal_disjoint_past_pairs(bell)

    def test_smaller_max_pairs_after_a_cached_call_still_refused(self, bell, monkeypatch):
        assert len(gm.maximal_disjoint_past_pairs(bell)) == 3
        monkeypatch.setattr(gm, "DEFAULT_MAX_PAIRS", 2)
        for _ in range(2):  # a refusal is never kept
            with pytest.raises(SizeLimitExceeded, match="more than 2 disjoint-past pairs"):
                gm.maximal_disjoint_past_pairs(bell)
        monkeypatch.setattr(gm, "DEFAULT_MAX_PAIRS", 3)
        assert len(gm.maximal_disjoint_past_pairs(bell)) == 3

    def test_same_nodes_other_edges(self, bell):
        signalling = CausalGraph.build([(v, bell.outcomes[v]) for v in bell.nodes], [*bell.edges, ("x->b", "x", "b")])
        for g in (bell, signalling, bell, signalling):
            assert gm.maximal_disjoint_past_pairs(g) == brute_force_pairs(g)


class TestClosureAndPosetEqual:
    def test_chain_gains_shortcut(self):
        g = chain("u", "v", "w")
        closed = gm.transitive_closure(g)
        assert {(e.src, e.dst) for e in closed.edges} == {("u", "v"), ("v", "w"), ("u", "w")}
        assert gm.poset_equal(g, closed)

    def test_bell_closure_is_itself(self, bell):
        closed = gm.transitive_closure(bell)
        assert len(closed.edges) == len(bell.edges)
        assert gm.poset_equal(bell, closed)

    def test_popescu_closure_adds_source_links(self, popescu):
        closed = gm.transitive_closure(popescu)
        added = {(e.src, e.dst) for e in closed.edges} - {(e.src, e.dst) for e in popescu.edges}
        assert added == {("s", "a"), ("s", "b")}
        assert gm.poset_equal(popescu, closed)

    def test_poset_equal_detects_difference(self):
        g1 = chain("u", "v", "w")
        g2 = CausalGraph.build([("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v")])
        assert not gm.poset_equal(g1, g2)

    def test_node_mismatch(self, bell, triangle):
        with pytest.raises(NodeMismatch):
            gm.poset_equal(bell, triangle)

    @pytest.mark.parametrize("seed", range(4))
    def test_closure_idempotent_on_random_dags(self, seed):
        g = random_dag(np.random.default_rng(seed), 6)
        closed = gm.transitive_closure(g)
        assert gm.poset_equal(g, closed)
        assert len(gm.transitive_closure(closed).edges) == len(closed.edges)


class TestGraphJson:
    def test_round_trip(self, bell):
        data = gm.graph_to_dict(bell)
        again = gm.graph_from_dict(data)
        assert again == bell

    def test_unknown_field_rejected(self, bell):
        data = gm.graph_to_dict(bell)
        data["extra"] = 1
        from causalcorr.errors import SchemaError

        with pytest.raises(SchemaError):
            gm.graph_from_dict(data)
