import itertools

import numpy as np
import pytest

from causalcorr import bell as bm
from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr import quantum as qm
from causalcorr.correlation import is_correlation
from causalcorr.errors import (
    IncompletePOVM,
    NotNoSignalling,
    ShapeMismatch,
)
from causalcorr._simplex import solve_phase1

from conftest import bell_joint, deterministic_mixture, pr_box_dist, record_bell_lps


def pauli_axis(theta):
    """Dichotomic observable along an angle in the x-z plane."""
    return np.array(
        [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]], dtype=complex
    )


def projector(theta, sign):
    return (np.eye(2, dtype=complex) + sign * pauli_axis(theta)) / 2


SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)

# Alice measures along her angle; Bob aligns his +1 outcome with the
# antipodal axis, the convention under which the singlet gives S = +2*sqrt(2)
CHSH_ALICE = [[projector(t, +1), projector(t, -1)] for t in (0.0, np.pi / 2)]
CHSH_BOB = [[projector(t, -1), projector(t, +1)] for t in (np.pi / 4, -np.pi / 4)]


def chsh_222():
    return bm.BellScenario(settings=(2, 2), outcomes=(2, 2))


def strategy_dist(strategy, scenario=None):
    """Joint of one deterministic strategy under uniform settings, trivial source."""
    table = np.zeros((1, 2, 2, 2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        table[0, x, y, strategy[0][x], strategy[1][y]] = 0.25
    return dm.JointDistribution(
        (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table
    )


def response_loop_lps(scenario, dist):
    """Oracle: the per-source-outcome LPs ``(A, b)``, built one response row
    index per (setting tuple, strategy) and one zero block per setting tuple.

    Returns the strategies and ``{source outcome: (A, b)}`` for the source
    outcomes with positive probability.
    """
    strategies = bm.enumerate_strategies(scenario)
    n_strat = len(strategies)
    xs = scenario.setting_ids()
    cond = dm.conditional(dist, targets=scenario.outcome_ids(), givens=xs + ["s"])
    a_sizes = scenario.outcomes
    n_a = int(np.prod(a_sizes, dtype=np.int64))
    x_tuples = list(itertools.product(*(range(k) for k in scenario.settings)))
    response = {}
    for xt in x_tuples:
        cols = np.zeros(n_strat, dtype=np.int64)
        for j, strat in enumerate(strategies):
            at = tuple(strat[i][xt[i]] for i in range(scenario.n))
            cols[j] = int(np.ravel_multi_index(at, a_sizes))
        response[xt] = cols
    lps = {}
    p_s = dm.marginal(dist, {"s"}).table
    for s in range(scenario.source_outcomes):
        if p_s[s] <= cond.zero_tol:
            continue
        rows = []
        rhs = []
        for xt in x_tuples:
            if not cond.defined[xt + (s,)]:
                continue
            block = np.zeros((n_a, n_strat))
            block[response[xt], np.arange(n_strat)] = 1.0
            rows.append(block)
            rhs.append(cond.probs[xt + (s,)].ravel())
        rows.append(np.ones((1, n_strat)))
        rhs.append(np.array([1.0]))
        lps[s] = (np.vstack(rows), np.concatenate(rhs))
    return strategies, lps


def embedded_pr_box(settings, outcomes):
    """Conditional with ``a1 xor a2 = [x1 = x2 = 1]`` on outcomes {0, 1}: no-signalling, not local."""
    cond = np.zeros(tuple(settings) + tuple(outcomes))
    for x, y, a, b in itertools.product(range(settings[0]), range(settings[1]), range(2), range(2)):
        if a ^ b == int(x == y == 1):
            cond[x, y, a, b] = 0.5
    return cond


def oracle_case(name):
    """(scenario, joint, expected verdict) of the strategy-matrix oracle cases."""
    rng = np.random.default_rng(5)
    if name == "two-sources-zero-setting":
        # party 2's setting 1 has probability 0, so its rows are undefined
        settings, outcomes = (2, 3), (2, 2)
        conds = [deterministic_mixture(rng, settings, outcomes, 4) for _ in range(2)]
        probs = [np.array([0.5, 0.5]), np.array([0.6, 0.0, 0.4])]
        joint = bell_joint(settings, outcomes, conds, probs, source_probs=(0.25, 0.75))
        return bm.BellScenario(settings, outcomes, source_outcomes=2), joint, True
    if name == "three-party":
        settings, outcomes = (2, 3, 2), (2, 2, 3)
        joint = bell_joint(settings, outcomes, [deterministic_mixture(rng, settings, outcomes, 6)])
        return bm.BellScenario(settings, outcomes), joint, True
    settings, outcomes = (2, 3), (3, 2)
    local = name == "unequal-mixture"
    cond = deterministic_mixture(rng, settings, outcomes, 5) if local else embedded_pr_box(settings, outcomes)
    joint = bell_joint(settings, outcomes, [cond], [np.array([0.3, 0.7]), np.array([0.2, 0.3, 0.5])])
    return bm.BellScenario(settings, outcomes), joint, local


def singlet_joint():
    model = bm.quantum_bell_model(
        chsh_222(), [SINGLET], [CHSH_ALICE, CHSH_BOB], [[0.5, 0.5], [0.5, 0.5]], [1.0]
    )
    return qm.evaluate(model)


class TestMakeBellGraph:
    def test_two_party_binary(self):
        g = bm.make_bell_graph(chsh_222())
        assert g.nodes == ("s", "x1", "x2", "a1", "a2")
        assert len(g.edges) == 4
        assert {(e.src, e.dst) for e in g.edges} == {
            ("s", "a1"),
            ("s", "a2"),
            ("x1", "a1"),
            ("x2", "a2"),
        }

    def test_single_party(self):
        g = bm.make_bell_graph(bm.BellScenario(settings=(2,), outcomes=(2,)))
        assert len(g.nodes) == 3
        assert len(g.edges) == 2

    def test_three_party(self):
        g = bm.make_bell_graph(bm.BellScenario(settings=(2, 2, 2), outcomes=(2, 2, 2)))
        assert len(g.nodes) == 7
        assert len(g.edges) == 6


class TestFreeWillNoSignalling:
    def test_pr_box_passes(self):
        verdict = bm.check_free_will_no_signalling(chsh_222(), pr_box_dist())
        assert verdict.passes
        assert verdict.freewill_deviation < 1e-15
        assert max(verdict.nosig_deviations) < 1e-15

    def test_fully_uniform_passes(self):
        table = np.full((1, 2, 2, 2, 2), 1 / 16)
        d = dm.JointDistribution(
            (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table
        )
        assert bm.check_free_will_no_signalling(chsh_222(), d).passes

    def test_setting_signalling_deviation_quarter(self):
        # party 2's outcome copies party 1's setting; party 1's outcome and
        # party 2's setting are trivial, so the witness marginal has 4 entries
        scenario = bm.BellScenario(settings=(2, 1), outcomes=(1, 2))
        table = np.zeros((1, 2, 1, 1, 2))
        for x in range(2):
            table[0, x, 0, 0, x] = 0.5
        d = dm.JointDistribution(
            (("s", 1), ("x1", 2), ("x2", 1), ("a1", 1), ("a2", 2)), table
        )
        verdict = bm.check_free_will_no_signalling(scenario, d)
        assert not verdict.passes
        assert verdict.nosig_deviations[0] == pytest.approx(0.25, abs=1e-12)

    def test_agrees_with_generic_correlation_check(self):
        scenario = chsh_222()
        graph = bm.make_bell_graph(scenario)
        rng = np.random.default_rng(0)
        agree = 0
        for _ in range(50):
            t = rng.uniform(size=(1, 2, 2, 2, 2))
            d = dm.JointDistribution(
                (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), t / t.sum()
            )
            v1 = bm.check_free_will_no_signalling(scenario, d).passes
            v2 = is_correlation(graph, d).is_correlation
            assert v1 == v2
            agree += 1
        assert agree == 50


def marginal_loop_free_will_no_signalling(scenario, dist):
    """Oracle: free-will and no-signalling deviations from validated marginals,
    outer products and reorders, one marginal per factor."""
    xs = scenario.setting_ids()
    as_ = scenario.outcome_ids()
    joint_xs = dm.marginal(dist, set(xs) | {"s"}).reorder(xs + ["s"])
    factor = dm.marginal(dist, {"s"}).table
    for x in reversed(xs):
        factor = np.multiply.outer(dm.marginal(dist, {x}).table, factor)
    freewill_dev = float(np.abs(joint_xs.table - factor).max())
    nosig_devs = []
    for i in range(scenario.n):
        keep = [v for v in as_ if v != as_[i]] + xs + ["s"]
        lhs = dm.marginal(dist, set(keep)).reorder(keep)
        rest = [v for v in keep if v != xs[i]]
        rhs = np.multiply.outer(
            dm.marginal(dist, {xs[i]}).table, dm.marginal(dist, set(rest)).reorder(rest).table
        )
        perm = [([xs[i]] + rest).index(v) for v in keep]
        nosig_devs.append(float(np.abs(lhs.table - np.transpose(rhs, perm)).max()))
    return freewill_dev, nosig_devs


def random_bell_dist(rng, scenario, order=None):
    """Random table over the scenario's variables, declared in ``order`` if given."""
    graph = bm.make_bell_graph(scenario)
    nodes = list(order or graph.nodes)
    t = rng.uniform(size=tuple(graph.outcomes[v] for v in nodes))
    return dm.JointDistribution(tuple((v, graph.outcomes[v]) for v in nodes), t / t.sum())


def no_signalling_oracle_cases():
    rng = np.random.default_rng(3)
    three = bm.BellScenario(settings=(2, 3, 2), outcomes=(2, 2, 3), source_outcomes=2)
    signalling = np.zeros((1, 2, 2, 2, 2))
    for x, y, a in itertools.product(range(2), repeat=3):
        signalling[0, x, y, a, x] = 1 / 8
    signalling = dm.JointDistribution((("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), signalling)
    mixture = bell_joint(
        (2, 3, 2), (2, 2, 3),
        [deterministic_mixture(rng, (2, 3, 2), (2, 2, 3), 4) for _ in range(2)],
        setting_probs=[[0.3, 0.7], [0.2, 0.5, 0.3], [0.6, 0.4]],
        source_probs=(0.4, 0.6),
    )
    order = ["a2", "x3", "s", "a1", "x1", "a3", "x2"]
    cases = [
        ("chsh-pr-box", chsh_222(), pr_box_dist()),
        ("chsh-pr-box-reorder-view", chsh_222(), pr_box_dist().reorder(("a2", "x1", "s", "a1", "x2"))),
        ("chsh-singlet", chsh_222(), singlet_joint()),
        ("chsh-signalling", chsh_222(), signalling),
        ("chsh-signalling-reorder-view", chsh_222(), signalling.reorder(("x2", "a2", "a1", "s", "x1"))),
        ("chsh-random", chsh_222(), random_bell_dist(rng, chsh_222())),
        ("chsh-random-shuffled", chsh_222(), random_bell_dist(rng, chsh_222(), ("a1", "s", "x2", "a2", "x1"))),
        ("three-party-mixture", three, mixture),
        ("three-party-mixture-reorder-view", three, mixture.reorder(order)),
        ("three-party-random", three, random_bell_dist(rng, three)),
        ("three-party-random-shuffled", three, random_bell_dist(rng, three, order)),
    ]
    return cases


NO_SIGNALLING_ORACLE_CASES = no_signalling_oracle_cases()


class TestFreeWillNoSignallingOracle:
    @pytest.mark.parametrize(
        "label, scenario, dist", NO_SIGNALLING_ORACLE_CASES, ids=[c[0] for c in NO_SIGNALLING_ORACLE_CASES]
    )
    def test_matches_marginal_loop(self, label, scenario, dist):
        freewill, nosig = marginal_loop_free_will_no_signalling(scenario, dist)
        verdict = bm.check_free_will_no_signalling(scenario, dist)
        assert abs(verdict.freewill_deviation - freewill) <= 1e-15
        assert len(verdict.nosig_deviations) == len(nosig)
        for dev, want in zip(verdict.nosig_deviations, nosig):
            assert abs(dev - want) <= 1e-15
        assert verdict.passes == (max([freewill] + nosig) <= verdict.tol)

    def test_some_cases_pass_and_some_fail(self):
        verdicts = [bm.check_free_will_no_signalling(s, d).passes for _, s, d in NO_SIGNALLING_ORACLE_CASES]
        assert any(verdicts) and not all(verdicts)


class TestLocalMembership:
    def test_deterministic_strategy_is_vertex(self):
        strategy = ((0, 1), (1, 0))
        verdict = bm.local_membership(chsh_222(), strategy_dist(strategy))
        assert verdict.is_local
        weights = verdict.weights[0]
        assert weights[strategy] == pytest.approx(1.0, abs=1e-9)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_pr_box_rejected(self):
        verdict = bm.local_membership(chsh_222(), pr_box_dist())
        assert not verdict.is_local
        assert verdict.max_residual > 1e-3

    def test_tsirelson_point_rejected(self):
        verdict = bm.local_membership(chsh_222(), singlet_joint())
        assert not verdict.is_local

    def test_exact_mode_agrees(self):
        assert bm.local_membership(chsh_222(), pr_box_dist(), exact=True).is_local is False
        strategy = ((0, 0), (0, 0))
        assert bm.local_membership(chsh_222(), strategy_dist(strategy), exact=True).is_local

    def test_signalling_input_rejected(self):
        scenario = bm.BellScenario(settings=(2, 1), outcomes=(1, 2))
        table = np.zeros((1, 2, 1, 1, 2))
        for x in range(2):
            table[0, x, 0, 0, x] = 0.5
        d = dm.JointDistribution(
            (("s", 1), ("x1", 2), ("x2", 1), ("a1", 1), ("a2", 2)), table
        )
        with pytest.raises(NotNoSignalling):
            bm.local_membership(scenario, d)

    @pytest.mark.parametrize("seed", range(5))
    def test_classical_models_accepted_with_sound_weights(self, seed):
        scenario = chsh_222()
        graph = bm.make_bell_graph(scenario)
        model = cm.random_model(graph, 2, seed)
        joint = cm.evaluate(model)
        verdict = bm.local_membership(scenario, joint)
        assert verdict.is_local
        # soundness: the weights reproduce the conditional
        cond = dm.conditional(joint, targets=["a1", "a2"], givens=["x1", "x2", "s"])
        rebuilt = np.zeros((2, 2, 2, 2))
        for strat, w in verdict.weights[0].items():
            for x, y in itertools.product(range(2), repeat=2):
                rebuilt[x, y, strat[0][x], strat[1][y]] += w
        for x, y in itertools.product(range(2), repeat=2):
            assert np.abs(rebuilt[x, y] - cond.probs[(x, y, 0)]).max() < 1e-7

    def test_completeness_on_classical_inputs(self):
        # every edge hidden-variable model on the scenario graph must land
        # inside the polytope
        scenario = chsh_222()
        graph = bm.make_bell_graph(scenario)
        for seed in range(100):
            joint = cm.evaluate(cm.random_model(graph, 2, seed))
            assert bm.local_membership(scenario, joint).is_local

    def test_noisy_pr_box_boundary(self):
        # visibility v gives CHSH 4v; the polytope boundary sits at v = 1/2
        def noisy(v):
            table = v * pr_box_dist().table + (1 - v) * np.full((1, 2, 2, 2, 2), 1 / 16)
            return dm.JointDistribution(
                (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table
            )

        assert bm.chsh_value(noisy(0.55)) == pytest.approx(2.2)
        assert not bm.local_membership(chsh_222(), noisy(0.55)).is_local
        assert bm.local_membership(chsh_222(), noisy(0.5)).is_local
        assert bm.local_membership(chsh_222(), noisy(0.25)).is_local

    def test_nonuniform_source_decomposes_per_outcome(self):
        # source outcome selects one of two different deterministic behaviours
        table = np.zeros((2, 2, 2, 2, 2))
        strats = {0: ((0, 0), (0, 0)), 1: ((0, 1), (1, 1))}
        for s, w in ((0, 0.3), (1, 0.7)):
            st = strats[s]
            for x, y in itertools.product(range(2), repeat=2):
                table[s, x, y, st[0][x], st[1][y]] = w * 0.25
        d = dm.JointDistribution(
            (("s", 2), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table
        )
        scenario = bm.BellScenario(settings=(2, 2), outcomes=(2, 2), source_outcomes=2)
        verdict = bm.local_membership(scenario, d)
        assert verdict.is_local
        assert verdict.weights[0][strats[0]] == pytest.approx(1.0, abs=1e-9)
        assert verdict.weights[1][strats[1]] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "name", ["unequal-mixture", "unequal-box", "three-party", "two-sources-zero-setting"]
    )
    def test_strategy_matrix_matches_response_loop_oracle(self, name, monkeypatch):
        scenario, joint, expect_local = oracle_case(name)
        built = record_bell_lps(monkeypatch)
        verdict = bm.local_membership(scenario, joint)
        strategies, lps = response_loop_lps(scenario, joint)
        oracle_local, weights, residual = True, {}, 0.0
        for (a, b), (s, (a_ref, b_ref)) in zip(built, lps.items()):
            assert a.dtype == a_ref.dtype and a.shape == a_ref.shape and a.tobytes() == a_ref.tobytes()
            assert b.dtype == b_ref.dtype and b.shape == b_ref.shape and b.tobytes() == b_ref.tobytes()
            res = solve_phase1(a_ref, b_ref, tol=verdict.tol)
            if not res.feasible:
                oracle_local, residual = False, float(res.infeasibility)
                break
            weights[s] = {strategies[j]: float(w) for j, w in enumerate(res.x) if w > 1e-12}
        assert len(built) == (len(lps) if oracle_local else len(weights) + 1)
        assert verdict.is_local is oracle_local is expect_local
        assert verdict.weights == weights
        assert verdict.max_residual == residual
        if name == "two-sources-zero-setting":
            n_rows = np.prod(scenario.settings) * np.prod(scenario.outcomes) + 1
            assert sorted(lps) == [0, 1] and all(len(a) < n_rows for a, _ in lps.values())


class TestClassicalBellModel:
    def test_shared_coin_strategy(self):
        # one uniform shared bit, both parties output it, settings ignored
        scenario = chsh_222()
        copy_response = np.zeros((2, 2, 2))
        for x, lam in itertools.product(range(2), repeat=2):
            copy_response[x, lam, lam] = 1.0
        model = bm.classical_bell_model(
            scenario,
            hidden_given_source=[[0.5, 0.5]],
            responses=[copy_response, copy_response],
            setting_dists=[[0.5, 0.5], [0.5, 0.5]],
            source_dist=[1.0],
        )
        assert cm.validate_model(model) == []
        joint = cm.evaluate(model)
        agree = dm.marginal(joint, {"a1", "a2"})
        assert agree.table[0, 0] + agree.table[1, 1] == pytest.approx(1.0, abs=1e-12)
        for x in ("x1", "x2"):
            np.testing.assert_allclose(dm.marginal(joint, {x}).table, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_membership_witness_replays_as_model(self, seed):
        # LP weights + deterministic responses must reproduce the joint
        scenario = chsh_222()
        graph = bm.make_bell_graph(scenario)
        joint = cm.evaluate(cm.random_model(graph, 2, seed))
        verdict = bm.local_membership(scenario, joint)
        assert verdict.is_local
        strategies = bm.enumerate_strategies(scenario)
        weights = np.array([verdict.weights[0].get(s, 0.0) for s in strategies])
        weights /= weights.sum()
        responses = []
        for i in range(2):
            r = np.zeros((2, len(strategies), 2))
            for d, strat in enumerate(strategies):
                for x in range(2):
                    r[x, d, strat[i][x]] = 1.0
            responses.append(r)
        rebuilt = bm.classical_bell_model(
            scenario,
            hidden_given_source=[weights],
            responses=responses,
            setting_dists=[dm.marginal(joint, {"x1"}).table, dm.marginal(joint, {"x2"}).table],
            source_dist=[1.0],
        )
        dev = np.abs(cm.evaluate(rebuilt).table - joint.table).max()
        assert dev < 1e-7


class TestQuantumBellModel:
    def test_product_state_behaves_classically(self):
        zero_zero = np.zeros(4, dtype=complex)
        zero_zero[0] = 1.0
        comp = [[projector(0.0, +1), projector(0.0, -1)]] * 2
        model = bm.quantum_bell_model(
            chsh_222(), [zero_zero], [comp, comp], [[0.5, 0.5], [0.5, 0.5]], [1.0]
        )
        joint = qm.evaluate(model)
        cond = dm.conditional(joint, targets=["a1", "a2"], givens=["x1", "x2", "s"])
        for x, y in itertools.product(range(2), repeat=2):
            np.testing.assert_allclose(
                cond.probs[(x, y, 0)], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10
            )

    def test_singlet_correlators_match_analytic_form(self):
        joint = singlet_joint()
        cond = dm.conditional(joint, targets=["a1", "a2"], givens=["x1", "x2", "s"])
        alice_angles = (0.0, np.pi / 2)
        bob_angles = (np.pi / 4, -np.pi / 4)
        for x, y in itertools.product(range(2), repeat=2):
            p = cond.probs[(x, y, 0)]
            e = p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]
            # singlet correlator along (alice axis, inverted bob axis)
            analytic = np.cos(alice_angles[x] - bob_angles[y])
            assert e == pytest.approx(analytic, abs=1e-10)
        assert bm.chsh_value(joint) == pytest.approx(2 * np.sqrt(2), abs=1e-10)

    def test_joint_factorizes_into_brakets_and_inputs(self):
        # dividing the full joint by the setting and source probabilities must
        # leave exactly the Born-rule values computed by direct bra-kets
        joint = singlet_joint()
        for s, x, y, a, b in itertools.product(range(1), range(2), range(2), range(2), range(2)):
            effect = np.kron(CHSH_ALICE[x][a], CHSH_BOB[y][b])
            born = (SINGLET.conj() @ effect @ SINGLET).real
            prob = joint.reorder(("s", "x1", "x2", "a1", "a2")).table[s, x, y, a, b]
            assert prob == pytest.approx(0.25 * born, abs=1e-9)

    def test_two_source_outcomes_conditionals(self):
        plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        zero = np.zeros(4, dtype=complex)
        zero[0] = 1.0
        comp = [[projector(0.0, +1), projector(0.0, -1)]] * 2
        scenario = bm.BellScenario(settings=(2, 2), outcomes=(2, 2), source_outcomes=2)
        model = bm.quantum_bell_model(
            scenario,
            [plus, zero],
            [comp, comp],
            [[0.5, 0.5], [0.5, 0.5]],
            [0.5, 0.5],
        )
        joint = qm.evaluate(model)
        cond = dm.conditional(joint, targets=["a1", "a2"], givens=["x1", "x2", "s"])
        for x, y in itertools.product(range(2), repeat=2):
            # maximally correlated in the computational basis for s=0
            np.testing.assert_allclose(
                cond.probs[(x, y, 0)], [[0.5, 0.0], [0.0, 0.5]], atol=1e-10
            )
            np.testing.assert_allclose(
                cond.probs[(x, y, 1)], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10
            )

    def test_incomplete_povm_rejected(self):
        bad = [[projector(0.0, +1), projector(0.0, +1)]] * 2
        with pytest.raises(IncompletePOVM):
            bm.quantum_bell_model(
                chsh_222(), [SINGLET], [bad, bad], [[0.5, 0.5], [0.5, 0.5]], [1.0]
            )

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ShapeMismatch):
            bm.quantum_bell_model(
                chsh_222(),
                [2 * SINGLET],
                [CHSH_ALICE, CHSH_BOB],
                [[0.5, 0.5], [0.5, 0.5]],
                [1.0],
            )


class TestChshValue:
    def test_best_deterministic_strategy(self):
        assert bm.chsh_value(strategy_dist(((0, 0), (0, 0)))) == pytest.approx(2.0)

    def test_local_bound_from_enumeration(self):
        values = [
            bm.chsh_value(strategy_dist(s)) for s in bm.enumerate_strategies(chsh_222())
        ]
        assert len(values) == 16
        assert max(values) == pytest.approx(2.0, abs=1e-12)

    def test_pr_box(self):
        assert bm.chsh_value(pr_box_dist()) == pytest.approx(4.0, abs=1e-12)

    def test_uniform_noise(self):
        table = np.full((2, 2, 2, 2), 1 / 16)
        d = dm.JointDistribution((("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table)
        assert bm.chsh_value(d) == pytest.approx(0.0, abs=1e-12)

    def test_nontrivial_source_rejected(self):
        table = np.full((2, 2, 2, 2, 2), 1 / 32)
        d = dm.JointDistribution(
            (("s", 2), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table
        )
        with pytest.raises(ShapeMismatch):
            bm.chsh_value(d)
