"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import itertools
import time

import numpy as np

from causalcorr import bell as bm
from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr import graph as gm
from causalcorr import hbn as hm
from causalcorr import quantum as qm
from causalcorr.correlation import is_correlation
from causalcorr.graph import CausalGraph

from conftest import (
    all_test_graphs,
    all_topological_orders,
    ancestral_sets,
    bell_graph,
    enumerate_strategies,
    evaluate_naive,
    pr_box_dist,
    popescu_graph,
    triangle_graph,
)
from test_bell import CHSH_ALICE, CHSH_BOB, SINGLET, chsh_222, strategy_dist


BELL_VARS = (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2))


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_local_bound_and_polytope():
    start = time.perf_counter()
    scenario = chsh_222()
    strategies = enumerate_strategies(scenario)
    assert len(strategies) == 16
    values = [bm.chsh_value(strategy_dist(s)) for s in strategies]
    assert max(values) == 2.0

    rng = np.random.default_rng(42)
    for trial in range(100):
        weights = rng.dirichlet(np.ones(16))
        table = np.zeros((1, 2, 2, 2, 2))
        for w, st in zip(weights, strategies):
            for x, y in itertools.product(range(2), repeat=2):
                table[0, x, y, st[0][x], st[1][y]] += 0.25 * w
        mixture = dm.JointDistribution(BELL_VARS, table)
        verdict = bm.local_membership(scenario, mixture)
        assert verdict.is_local
        rebuilt = np.zeros((2, 2, 2, 2))
        for st, w in verdict.weights[0].items():
            for x, y in itertools.product(range(2), repeat=2):
                rebuilt[x, y, st[0][x], st[1][y]] += w
        assert np.abs(rebuilt - table[0] / 0.25).max() <= 1e-9

    pr = pr_box_dist()
    assert bm.chsh_value(pr) == 4.0
    assert not bm.local_membership(scenario, pr).is_local
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"local bound 2, 100 mixtures accepted, PR box rejected ({elapsed:.2f}s)")


def test_criterion_02_tsirelson_point():
    start = time.perf_counter()
    scenario = chsh_222()
    model = bm.quantum_bell_model(
        scenario, [SINGLET], [CHSH_ALICE, CHSH_BOB], [[0.5, 0.5], [0.5, 0.5]], [1.0]
    )
    joint = qm.evaluate(model)
    s_value = bm.chsh_value(joint)
    assert abs(s_value - 2.0 * np.sqrt(2.0)) <= 1e-6
    ns = bm.check_free_will_no_signalling(scenario, joint)
    assert ns.passes
    assert max([ns.freewill_deviation] + ns.nosig_deviations) <= 1e-9
    assert not bm.local_membership(scenario, joint).is_local
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"CHSH = {s_value:.7f} = 2*sqrt(2) within 1e-6, no-signalling, nonlocal ({elapsed:.2f}s)")


def test_criterion_03_bell_equivalence_fuzz():
    start = time.perf_counter()
    scenario = chsh_222()
    graph = bm.make_bell_graph(scenario)
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(500):
        if trial % 2 == 0:
            t = rng.uniform(size=(1, 2, 2, 2, 2))
            d = dm.JointDistribution(BELL_VARS, t / t.sum())
        else:
            sizes = {e.id: int(rng.integers(1, 3)) for e in graph.edges}
            m = cm.random_model(graph, sizes, seed=int(rng.integers(0, 2**31)))
            d = cm.evaluate(m)
        v_bell = bm.check_free_will_no_signalling(scenario, d, tol=1e-9).passes
        v_corr = is_correlation(graph, d, tol=1e-9).is_correlation
        assert v_bell == v_corr
        checked += 1
    assert checked == 500
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"500 tables, factorization check == free-will/no-signalling check ({elapsed:.1f}s)")


def test_criterion_04_model_outputs_are_correlations():
    start = time.perf_counter()
    graphs = all_test_graphs()
    rng = np.random.default_rng(11)
    names = sorted(graphs)
    for trial in range(100):
        g = graphs[names[trial % len(names)]]
        sizes = {e.id: int(rng.integers(1, 4)) for e in g.edges}
        m = cm.random_model(g, sizes, seed=trial)
        p = cm.evaluate(m)
        assert abs(p.table.sum() - 1.0) <= 1e-9
        assert is_correlation(g, p, tol=1e-8).is_correlation
    for trial in range(50):
        g = graphs[names[trial % len(names)]]
        dims = {e.id: int(rng.integers(1, 4)) for e in g.edges}
        model = qm.random_model(g, dims, seed=trial)
        p = qm.evaluate(model)
        assert abs(p.table.sum() - 1.0) <= 1e-9
        assert is_correlation(g, p, tol=1e-8).is_correlation
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"100 classical + 50 quantum models normalized and factorizing ({elapsed:.1f}s)")


def test_criterion_05_ancestral_marginals():
    graphs = all_test_graphs()
    count = 0
    for name in sorted(graphs):
        g = graphs[name]
        m = cm.random_model(g, 2, seed=hash(name) % 1000)
        full = cm.evaluate(m)
        for subset in ancestral_sets(g):
            sub = cm.evaluate_marginal_ancestral(m, subset)
            if not subset:
                assert abs(float(sub.table) - 1.0) <= 1e-12
            else:
                expected = dm.marginal(full, subset)
                dev = np.abs(sub.reorder(expected.var_ids).table - expected.table).max()
                assert dev <= 1e-12
            count += 1
    report(5, f"{count} ancestral subsets, restricted evaluation == marginal within 1e-12")


def test_criterion_06_hbn_round_trips():
    graphs = [bell_graph(), popescu_graph(), triangle_graph()]
    for trial in range(100):
        g = graphs[trial % 3]
        m = cm.random_model(g, 2, seed=trial)
        net = hm.from_classical(m)
        dev = np.abs(hm.evaluate(net).table - cm.evaluate(m).table).max()
        assert dev <= 1e-12
    for trial in range(100):
        g = graphs[trial % 3]
        net = hm.random_hbn(g, 2, seed=trial)
        m = hm.to_classical(net)
        dev = np.abs(cm.evaluate(m).table - hm.evaluate(net).table).max()
        assert dev <= 1e-12
    report(6, "100 + 100 conversions preserve the joint within 1e-12")


def test_criterion_07_push_back_determinism():
    chain3 = CausalGraph.build(
        [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")]
    )
    fork = CausalGraph.build(
        [("r", 2), ("p", 2), ("q", 2)], [("rp", "r", "p"), ("rq", "r", "q")]
    )
    graphs = [bell_graph(), triangle_graph(), chain3, fork]
    for trial in range(50):
        g = graphs[trial % 4]
        m = cm.random_model(g, 2, seed=trial)
        pushed = cm.push_back_determinism(m)
        assert cm.validate_model(pushed) == []
        for v in g.nodes:
            if g.in_edges(v):
                assert pushed.gates[v].deterministic
        dev = np.abs(cm.evaluate(pushed).table - cm.evaluate(m).table).max()
        assert dev <= 1e-12
    report(7, "50 models made deterministic at non-root nodes, joint preserved within 1e-12")


def test_criterion_08_decoherence_embedding():
    graphs = [bell_graph(), popescu_graph(), triangle_graph()]
    for trial in range(50):
        g = graphs[trial % 3]
        m = cm.random_model(g, 2, seed=trial)
        q = qm.decohere_embed(m)
        assert qm.validate_model(q) == []
        dev = np.abs(qm.evaluate(q).table - cm.evaluate(m).table).max()
        assert dev <= 1e-10
    report(8, "50 classical models embedded quantumly, joint preserved within 1e-10")


def test_criterion_09_lift_and_reroute_witness():
    g = popescu_graph()
    for seed in range(5):
        m = cm.random_model(g, 2, seed=seed)
        base = cm.evaluate(m)

        lifted = cm.lift_trivial_edge(m, "s", "a")
        assert np.abs(cm.evaluate(lifted).table - base.table).max() <= 1e-12
        relayed = cm.reroute_transitive_edge(lifted, "s->a#lift", "ap")
        assert np.abs(cm.evaluate(relayed).table - base.table).max() <= 1e-12

        # reverse composition: start on the closure graph with a live edge
        closure = CausalGraph(
            nodes=g.nodes,
            edges=g.edges + (gm.Edge("s->a", "s", "a"),),
            outcomes=dict(g.outcomes),
        )
        m2 = cm.random_model(closure, 2, seed=seed + 100)
        base2 = cm.evaluate(m2)
        rerouted = cm.reroute_transitive_edge(m2, "s->a", "ap")
        assert np.abs(cm.evaluate(rerouted).table - base2.table).max() <= 1e-12
        relifted = cm.lift_trivial_edge(rerouted, "s", "a", edge_id="s->a")
        assert np.abs(cm.evaluate(relifted).table - base2.table).max() <= 1e-12
        assert gm.poset_equal(relifted.graph, closure)
    report(9, "lift+reroute and reroute+lift preserve the joint within 1e-12")


def test_criterion_10_order_invariance():
    for seed, make in ((0, bell_graph), (1, triangle_graph), (2, popescu_graph)):
        g = make()
        model = qm.random_model(g, 2, seed=seed)
        orders = all_topological_orders(g, limit=5)
        assert len(orders) == 5
        tables = [qm.evaluate(model, order=o).table for o in orders]
        for t in tables[1:]:
            assert np.abs(t - tables[0]).max() <= 1e-10

    from conftest import bilocality_graph

    big = bilocality_graph()  # 2^8 outcomes x 2^7 hidden = 2^15 states
    m = cm.random_model(big, 2, seed=3)
    fast = cm.evaluate(m)
    slow = evaluate_naive(m)
    assert np.abs(fast.table - slow.table).max() <= 1e-12
    small = cm.random_model(bell_graph(), 3, seed=4)
    assert np.abs(cm.evaluate(small).table - evaluate_naive(small).table).max() <= 1e-12
    report(10, "5 contraction orders within 1e-10; elimination == enumeration within 1e-12")


def test_criterion_11_coarse_graining():
    rng = np.random.default_rng(13)
    for trial in range(10):
        shape = tuple(rng.integers(2, 4, size=2))
        f = rng.integers(0, 2, size=shape)
        cg = dm.CoarseGraining(shape, 2, f)
        t = rng.uniform(size=shape)
        p = dm.JointDistribution(
            tuple((f"v{i}", k) for i, k in enumerate(shape)), t / t.sum()
        )
        res = dm.factor_coarse_graining(p, cg, eps=0.0)
        assert res.achieved_error == 0.0
        for idx in np.ndindex(*shape):
            reduced = tuple(res.factor_maps[k][idx[k]] for k in range(2))
            assert res.composed[reduced] == f[idx]

    parity = np.array([[(i + j) % 2 for j in range(3)] for i in range(3)])
    cg = dm.CoarseGraining((3, 3), 2, parity)
    p = dm.JointDistribution((("v1", 3), ("v2", 3)), np.full((3, 3), 1 / 9))
    res = dm.factor_coarse_graining(p, cg, eps=0.0)
    assert res.achieved_error == 0.0
    assert sum(res.sizes) == 4
    from test_dist import exhaustive_min_sizes

    assert exhaustive_min_sizes(p.table, parity, (3, 3), 2, 0.0) == 4
    report(11, "exact factorizations found; greedy matches the exhaustive optimum (4)")
