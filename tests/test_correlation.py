import itertools

import numpy as np
import pytest

from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr import graph as gm
from causalcorr.correlation import is_correlation
from causalcorr.errors import CausalCorrError, ShapeMismatch
from causalcorr.graph import CausalGraph

from conftest import all_test_graphs, bell_graph, outer_product, pr_box_dist


def random_table(rng, graph):
    sizes = tuple(graph.outcomes[v] for v in graph.nodes)
    t = rng.uniform(size=sizes)
    return dm.JointDistribution(tuple((v, graph.outcomes[v]) for v in graph.nodes), t / t.sum())


class TestIsCorrelation:
    def test_chain_accepts_everything(self):
        g = CausalGraph.build([("x", 2), ("a", 2)], [("x->a", "x", "a")])
        rng = np.random.default_rng(0)
        for _ in range(5):
            verdict = is_correlation(g, random_table(rng, g))
            assert verdict.is_correlation
            assert verdict.violations == []

    def test_signalling_table_violates(self, bell):
        # independent uniform settings and source; b copies x, a is uniform noise
        table = np.zeros((1, 2, 2, 2, 2))  # s, x, y, a, b
        for x, y, a in itertools.product(range(2), repeat=3):
            table[0, x, y, a, x] = 1 / 8
        d = dm.JointDistribution(
            (("s", 1), ("x", 2), ("y", 2), ("a", 2), ("b", 2)), table
        )
        verdict = is_correlation(bell, d)
        assert not verdict.is_correlation
        offenders = [(u, w) for u, w, _ in verdict.violations]
        assert any("x" in u and "b" in w or "x" in w and "b" in u for u, w in offenders)
        # P(x, b, y) = delta/4 vs P(x) P(b, y) = 1/8, so the gap is 1/8
        dev = max(dev for _, _, dev in verdict.violations)
        assert dev == pytest.approx(0.125, abs=1e-12)

    def test_pr_box_is_correlation(self, bell):
        pr = pr_box_dist().reorder(("s", "x1", "x2", "a1", "a2"))
        renamed = dm.JointDistribution(
            (("s", 1), ("x", 2), ("y", 2), ("a", 2), ("b", 2)), pr.table
        )
        assert is_correlation(bell, renamed).is_correlation

    def test_shape_mismatch(self, bell):
        with pytest.raises(ShapeMismatch):
            is_correlation(bell, dm.JointDistribution((("q", 2),), np.array([0.5, 0.5])))

    def test_variable_order_irrelevant(self, bell):
        pr = pr_box_dist()
        renamed = dm.JointDistribution(
            (("s", 1), ("x", 2), ("y", 2), ("a", 2), ("b", 2)), pr.table
        )
        shuffled = renamed.reorder(("b", "y", "s", "a", "x"))
        assert is_correlation(bell, shuffled).is_correlation

    def test_closure_invariance(self, popescu):
        m = cm.random_model(popescu, 2, seed=11)
        p = cm.evaluate(m)
        closed = gm.transitive_closure(popescu)
        v1 = is_correlation(popescu, p)
        v2 = is_correlation(closed, p)
        assert v1.is_correlation and v2.is_correlation

    def test_classical_outputs_pass(self, bell, triangle):
        for g, seed in ((bell, 0), (triangle, 1)):
            m = cm.random_model(g, 2, seed=seed)
            assert is_correlation(g, cm.evaluate(m), tol=1e-9).is_correlation

    def test_verdict_json(self, bell):
        pr = pr_box_dist()
        renamed = dm.JointDistribution(
            (("s", 1), ("x", 2), ("y", 2), ("a", 2), ("b", 2)), pr.table
        )
        d = is_correlation(bell, renamed).to_dict()
        assert d["is_correlation"] is True
        assert d["violations"] == []
        assert d["tol"] == 1e-9


def factorisation_loop_violations(graph, dist, tol):
    """Oracle: the per-pair check built from validated distributions, three
    marginals, one product and one reorder per pair.

    Returns every pair's ``(U, W, deviation)`` in pair order and the
    violations sorted as ``is_correlation`` sorts them.
    """
    checked = []
    for u_set, w_set in gm.maximal_disjoint_past_pairs(graph):
        if not u_set or not w_set:
            continue
        joint = dm.marginal(dist, u_set | w_set)
        pu = dm.marginal(dist, u_set)
        pw = dm.marginal(dist, w_set)
        prod = outer_product(pu, pw).reorder(joint.var_ids)
        checked.append((u_set, w_set, float(np.abs(joint.table - prod.table).max())))
    violations = sorted(
        (t for t in checked if t[2] > tol), key=lambda t: (sorted(t[0]), sorted(t[1]))
    )
    return checked, violations


def signalling_bell_table():
    """Uniform settings and noise outcome a; b copies x (names of the ``bell`` graph)."""
    table = np.zeros((1, 2, 2, 2, 2))  # s, x, y, a, b
    for x, y, a in itertools.product(range(2), repeat=3):
        table[0, x, y, a, x] = 1 / 8
    return dm.JointDistribution((("s", 1), ("x", 2), ("y", 2), ("a", 2), ("b", 2)), table)


def oracle_cases():
    """(label, graph, distribution) on the five figure graphs."""
    rng = np.random.default_rng(7)
    cases = []
    for outcomes in (2, 3):
        for name, g in all_test_graphs(outcomes).items():
            cases.append((f"{name}-o{outcomes}-random", g, random_table(rng, g)))
            model_output = cm.evaluate(cm.random_model(g, 2, seed=outcomes))
            cases.append((f"{name}-o{outcomes}-model", g, model_output))
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            sizes = tuple(g.outcomes[v] for v in nodes)
            t = rng.uniform(size=sizes)
            shuffled = dm.JointDistribution(tuple((v, g.outcomes[v]) for v in nodes), t / t.sum())
            cases.append((f"{name}-o{outcomes}-shuffled", g, shuffled))
            rng.shuffle(nodes)
            cases.append((f"{name}-o{outcomes}-reorder-view", g, model_output.reorder(nodes)))
    bell = all_test_graphs()["bell"]
    signalling = signalling_bell_table()
    cases.append(("bell-signalling", bell, signalling))
    cases.append(("bell-signalling-reorder-view", bell, signalling.reorder(("b", "y", "s", "a", "x"))))
    return cases


ORACLE_CASES = oracle_cases()


class TestFactorisationKernelOracle:
    @pytest.mark.parametrize("label, graph, dist", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_marginal_product_loop(self, label, graph, dist):
        assert_matches_oracle(graph, dist)

    def test_some_cases_pass_and_some_fail(self):
        verdicts = [is_correlation(g, d).is_correlation for _, g, d in ORACLE_CASES]
        assert any(verdicts) and not all(verdicts)

    def test_signalling_table_passes_some_pairs(self, bell):
        checked, violations = factorisation_loop_violations(bell, signalling_bell_table(), 1e-9)
        assert 0 < len(violations) < len(checked)


def assert_matches_oracle(graph, dist):
    checked, expected = factorisation_loop_violations(graph, dist, tol=1e-9)
    verdict = is_correlation(graph, dist, tol=1e-9)
    assert [(u, w) for u, w, _ in verdict.violations] == [(u, w) for u, w, _ in expected]
    for (_, _, dev), (_, _, want) in zip(verdict.violations, expected):
        assert abs(dev - want) <= 1e-15
    assert verdict.is_correlation == (not expected)
    assert verdict.pairs_checked == len(checked)
    assert abs(verdict.max_deviation - max((d for _, _, d in checked), default=0.0)) <= 1e-15
    return verdict


class TestFactorisationCache:
    def test_reordered_distribution_after_a_cached_call(self, bell):
        signalling = signalling_bell_table()
        first = assert_matches_oracle(bell, signalling)
        for order in (("b", "y", "s", "a", "x"), ("x", "a", "b", "y", "s")):
            verdict = assert_matches_oracle(bell, signalling.reorder(order))
            assert verdict.violations == first.violations

    def test_same_node_ids_other_edges(self, bell):
        # b copies x: a violation on the bell graph, allowed once x->b is an edge
        wired = CausalGraph.build([(v, bell.outcomes[v]) for v in bell.nodes], [*bell.edges, ("x->b", "x", "b")])
        signalling = signalling_bell_table()
        verdicts = [assert_matches_oracle(g, signalling) for g in (bell, wired, bell, wired)]
        assert [v.is_correlation for v in verdicts] == [False, True, False, True]

    def test_same_nodes_and_edges_other_outcome_counts(self):
        # the kept cell index depends on the alphabet sizes, so it is keyed on them
        rng = np.random.default_rng(4)
        graphs = [bell_graph(2), bell_graph(3), bell_graph(2, source_outcomes=2)]
        assert len({(tuple(g.nodes), tuple(g.edges)) for g in graphs}) == 1
        for g in graphs + graphs:
            assert_matches_oracle(g, random_table(rng, g))

    # a bool is a numbers.Real, but no tolerance
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9, True, False])
    def test_rejects_a_tolerance_that_is_not_finite_and_non_negative(self, bell, tol):
        with pytest.raises(CausalCorrError, match="tol="):
            is_correlation(bell, signalling_bell_table(), tol=tol)

    def test_zero_tolerance_is_valid(self, bell):
        assert not is_correlation(bell, signalling_bell_table(), tol=0).is_correlation
        uniform = dm.JointDistribution(tuple((v, bell.outcomes[v]) for v in bell.nodes), np.full(16, 1 / 16))
        assert is_correlation(bell, uniform, tol=0).is_correlation  # dyadic sums and products: no round-off

    @pytest.mark.parametrize("name", ["bell", "sequential", "bilocality"])
    def test_kept_plans_answer_as_new_ones(self, name, monkeypatch):
        from causalcorr._config import BoundedCache

        rng = np.random.default_rng(5)
        cases = [(g, d) for g in (all_test_graphs(2)[name], all_test_graphs(3)[name])
                 for d in (random_table(rng, g), cm.evaluate(cm.random_model(g, 2, seed=1)))]
        cases += [(g, d.reorder(tuple(rng.permutation(list(d.var_ids))))) for g, d in cases]
        monkeypatch.setattr(dm, "_FACTOR_PLANS", BoundedCache(0))  # keeps nothing
        unkept = [is_correlation(g, d).to_dict() for g, d in cases]
        cache = BoundedCache(dm.MAX_CACHED_INDEX_ENTRIES)
        monkeypatch.setattr(dm, "_FACTOR_PLANS", cache)
        for _ in range(2):
            assert [is_correlation(g, d).to_dict() for g, d in cases] == unkept
        assert len(cache.entries) == len({d.variables for _, d in cases})

    def test_bilocality_plan_sums_each_pair_from_a_smaller_joint(self, bilocality):
        # the 15 pairs of the binary bilocality graph: 3 are summed from the 256-entry table and
        # 12 from smaller joints, 1,792 entries in all where one sum per pair over the table is 3,840
        p = random_table(np.random.default_rng(0), bilocality)
        plan = dm._factor_plan(p.variables, gm.maximal_disjoint_past_pairs(bilocality))
        assert len(plan) == 15
        assert sum(lead.size * trail.size for _, _, _, lead, trail, _, _ in plan) == 7 * p.table.size < 15 * p.table.size

    def test_holds_at_most_its_bound(self, monkeypatch):
        from causalcorr._config import BoundedCache

        assert dm._FACTOR_PLANS.limit == dm.MAX_CACHED_INDEX_ENTRIES
        cache = BoundedCache(1000)
        monkeypatch.setattr(dm, "_FACTOR_PLANS", cache)
        for i in range(400):  # graphs of one 2 x 2 pair each: an entry weighs 1 + 2 + 2 index entries
            g = CausalGraph.build([(f"u{i}", 2), (f"v{i}", 2)], [])
            is_correlation(g, dm.JointDistribution(((f"u{i}", 2), (f"v{i}", 2)), np.full((2, 2), 0.25)))
            assert cache.load <= 1000
        assert len(cache.entries) == 200 and cache.load == 1000


class TestVerdictMargin:
    def test_passing_verdict_reports_margin(self, bell):
        pr = pr_box_dist().reorder(("s", "x1", "x2", "a1", "a2"))
        renamed = dm.JointDistribution((("s", 1), ("x", 2), ("y", 2), ("a", 2), ("b", 2)), pr.table)
        verdict = is_correlation(bell, renamed)
        assert verdict.pairs_checked == len(gm.maximal_disjoint_past_pairs(bell))
        assert verdict.max_deviation < 1e-15

    def test_failing_verdict_margin_is_worst_violation(self, bell):
        verdict = is_correlation(bell, signalling_bell_table())
        assert verdict.max_deviation == max(dev for _, _, dev in verdict.violations)
        assert verdict.max_deviation == pytest.approx(0.125, abs=1e-12)

    def test_no_pairs_reports_zero(self):
        g = CausalGraph.build([("x", 2), ("a", 2)], [("x->a", "x", "a")])
        verdict = is_correlation(g, random_table(np.random.default_rng(0), g))
        assert verdict.pairs_checked == 0 and verdict.max_deviation == 0.0
