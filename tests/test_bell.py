import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from causalcorr import bell as bm
from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr import quantum as qm
from causalcorr.correlation import is_correlation
from causalcorr.errors import (
    CausalCorrError,
    IncompletePOVM,
    NotNoSignalling,
    ShapeMismatch,
    SizeLimitExceeded,
    SolverError,
)
from causalcorr._config import BoundedCache
from causalcorr._simplex import HIGHS_ENTRIES, phase1_program, solve_phase1
from causalcorr.cli import run

from conftest import (
    assert_identical,
    bell_joint,
    deterministic_mixture,
    enumerate_strategies,
    pr_box_dist,
    record_bell_lps,
)


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

    Returns the strategies and ``{source outcome: (A, b, defined setting
    tuples)}`` for the source outcomes with positive probability.
    """
    strategies = enumerate_strategies(scenario)
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
        if p_s[s] <= dm.DEFAULT_ZERO_TOL:
            continue
        rows = []
        rhs = []
        tuples = [xt for xt in x_tuples if cond.defined[xt + (s,)]]
        for xt in tuples:
            block = np.zeros((n_a, n_strat))
            block[response[xt], np.arange(n_strat)] = 1.0
            rows.append(block)
            rhs.append(cond.probs[xt + (s,)].ravel())
        rows.append(np.ones((1, n_strat)))
        rhs.append(np.array([1.0]))
        lps[s] = (np.vstack(rows), np.concatenate(rhs), tuples)
    return strategies, lps


def collins_gisin_oracle(scenario, tuples):
    """Oracle: the Collins–Gisin row map over the response rows of
    ``response_loop_lps`` (its row of ones left out), built entry by entry.

    A party's labels are ``None`` (its outcomes summed at its first used
    setting) and (setting, outcome) for each used setting and outcome but
    the last; the rows are the label tuples in ``itertools.product`` order.
    """
    n = scenario.n
    used = [sorted({xt[i] for xt in tuples}) for i in range(n)]
    labels = [[None] + [(x, a) for x in used[i] for a in range(scenario.outcomes[i] - 1)] for i in range(n)]
    cols = [(xt, at) for xt in tuples for at in itertools.product(*(range(m) for m in scenario.outcomes))]
    c = np.zeros((int(np.prod([len(lab) for lab in labels])), len(cols)))
    for r, row in enumerate(itertools.product(*labels)):
        for j, (xt, at) in enumerate(cols):
            c[r, j] = all(
                xt[i] == used[i][0] if label is None else (xt[i], at[i]) == label for i, label in enumerate(row)
            )
    return c[c.any(axis=1)]  # a row that reads only undefined tuples is dropped


def assert_certificate_holds(scenario, joint, verdict):
    """Check a verdict's certificate on the full conditional, by loops over
    strategies and setting tuples, independently of the package's matrices."""
    cond = dm.conditional(joint, targets=scenario.outcome_ids(), givens=scenario.setting_ids() + ["s"])
    x_tuples = list(itertools.product(*(range(k) for k in scenario.settings)))
    if verdict.is_local:
        assert verdict.weights and not verdict.inequality
        for s, weights in verdict.weights.items():
            assert min(weights.values()) > 0
            assert sum(weights.values()) == pytest.approx(1.0, abs=verdict.tol)
            for xt in x_tuples:
                if cond.defined[xt + (s,)]:
                    rebuilt = np.zeros(scenario.outcomes)
                    for strategy, w in weights.items():
                        rebuilt[tuple(strategy[i][x] for i, x in enumerate(xt))] += w
                    assert np.abs(rebuilt - cond.probs[xt + (s,)]).max() <= verdict.tol
        return
    assert not verdict.weights and verdict.max_residual > verdict.tol
    [(s, terms)] = verdict.inequality.items()
    for strategy in enumerate_strategies(scenario):
        value = sum(c for (xt, at), c in terms.items() if at == tuple(strategy[i][x] for i, x in enumerate(xt)))
        assert value <= verdict.tol
    violation = sum(c * cond.probs[xt + (s,) + at] for (xt, at), c in terms.items())
    assert violation == pytest.approx(verdict.max_residual, abs=1e-9)


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
    if name == "tiny-setting-pair":
        # each party's setting 1 has probability 1e-7, so the pair (1, 1) has
        # 1e-14, under the conditional's zero tolerance, and its rows are undefined
        settings, outcomes = (2, 2), (2, 2)
        probs = [np.array([1 - 1e-7, 1e-7])] * 2
        joint = bell_joint(settings, outcomes, [deterministic_mixture(rng, settings, outcomes, 4)], probs)
        return bm.BellScenario(settings, outcomes), joint, True
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

    @pytest.mark.parametrize("settings, outcomes, source, name", [
        ((2.5, 2), (2, 2), 1, "setting 'x1'"), ((2, 2), (2, "2"), 1, "outcome 'a2'"), ((2, 2), (2, 2), 1.0, "source 's'"),
        ((True, 2), (2, 2), 1, "setting 'x1'"),
    ])
    def test_scenario_refuses_a_size_that_is_no_integer(self, settings, outcomes, source, name):
        # int() would truncate 2.5: the checks would then run on a graph that is not the scenario
        with pytest.raises(ShapeMismatch, match=f"{name}: size .* is not an integer"):
            bm.BellScenario(settings, outcomes, source)
        scenario = bm.BellScenario([np.int64(2), 2], np.array([2, 3]), np.int32(1))
        assert scenario == bm.BellScenario((2, 2), (2, 3)) and hash(scenario) == hash(bm.BellScenario((2, 2), (2, 3)))

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

    def test_kept_axes_answer_as_new_ones(self, monkeypatch):
        # one entry per (scenario, variables); variables not matched before are checked
        cases = [(s, d) for _, s, d in no_signalling_oracle_cases()]
        monkeypatch.setattr(dm, "_FACTOR_PLANS", BoundedCache(0))  # keeps nothing
        unkept = [bm.check_free_will_no_signalling(s, d).to_dict() for s, d in cases]
        cache = BoundedCache(dm.MAX_CACHED_INDEX_ENTRIES)
        monkeypatch.setattr(dm, "_FACTOR_PLANS", cache)
        for _ in range(2):
            assert [bm.check_free_will_no_signalling(s, d).to_dict() for s, d in cases] == unkept
        assert len(cache.entries) == len({(s, d.variables) for s, d in cases}) == 6
        # the kept CHSH entry has the same variable order; a2 has 3 outcomes here
        variables = (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 3))
        wrong = dm.JointDistribution(variables, np.full((1, 2, 2, 2, 3), 1 / 24))
        with pytest.raises(ShapeMismatch, match="do not match the scenario"):
            bm.check_free_will_no_signalling(chsh_222(), wrong)

    # a bool is a numbers.Real, but no tolerance
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9, True, False])
    def test_rejects_a_tolerance_that_is_not_finite_and_non_negative(self, tol):
        with pytest.raises(CausalCorrError, match="tol="):
            bm.check_free_will_no_signalling(chsh_222(), pr_box_dist(), tol=tol)
        for exact in (False, True):  # at tol=inf the PR box would pass as local
            with pytest.raises(CausalCorrError, match="tol="):
                bm.local_membership(chsh_222(), pr_box_dist(), tol=tol, exact=exact)

    def test_zero_tolerance_is_valid(self):
        assert bm.check_free_will_no_signalling(chsh_222(), pr_box_dist(), tol=0).passes
        for exact in (False, True):
            assert not bm.local_membership(chsh_222(), pr_box_dist(), tol=0, exact=exact).is_local

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

    @pytest.mark.parametrize("correlation_first", [True, False])
    def test_correlation_and_no_signalling_share_one_cache(self, correlation_first, monkeypatch):
        # one entry per caller's key on the same graph and variables: their keys differ in length
        scenario = chsh_222()
        t = np.random.default_rng(1).uniform(size=(1, 2, 2, 2, 2))
        d = dm.JointDistribution((("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), t / t.sum())
        graph = bm.make_bell_graph(scenario)
        calls = [lambda: is_correlation(graph, d).to_dict(),
                 lambda: bm.check_free_will_no_signalling(scenario, d).to_dict()]
        if not correlation_first:
            calls.reverse()
        monkeypatch.setattr(dm, "_FACTOR_PLANS", BoundedCache(0))  # keeps nothing
        unkept = [call() for call in calls]
        cache = BoundedCache(dm.MAX_CACHED_INDEX_ENTRIES)
        monkeypatch.setattr(dm, "_FACTOR_PLANS", cache)
        for _ in range(2):
            assert [call() for call in calls] == unkept
        assert len(cache.entries) == 2


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

    @staticmethod
    def full_mixture(settings, outcomes):
        """Joint of a seed-0 Dirichlet mixture of every deterministic strategy, uniform settings."""
        strategies = enumerate_strategies(bm.BellScenario(settings, outcomes))
        cond = np.zeros(tuple(settings) + tuple(outcomes))
        for strategy, w in zip(strategies, np.random.default_rng(0).dirichlet(np.ones(len(strategies)))):
            for xs in itertools.product(*(range(k) for k in settings)):
                cond[xs + tuple(strategy[i][x] for i, x in enumerate(xs))] += w
        return bell_joint(settings, outcomes, [cond])

    @pytest.mark.parametrize(
        "settings, outcomes", [((2, 2), (2, 2)), ((2, 2, 2), (2, 2, 2)), ((3, 3), (2, 2)), ((2, 2), (3, 3))]
    )
    def test_exact_mode_judges_float_mixtures_local(self, settings, outcomes):
        # the float conditionals of these mixtures signal at round-off level, so
        # no mixture reproduces them exactly; their Collins–Gisin rows are inside the polytope
        scenario = bm.BellScenario(settings, outcomes)
        verdict = bm.local_membership(scenario, self.full_mixture(settings, outcomes), exact=True)
        assert verdict.is_local and verdict.solver == "exact"
        assert sum(verdict.weights[0].values()) == pytest.approx(1.0, abs=1e-12)

    def test_exact_mode_cli_exits_0_on_a_float_mixture(self, tmp_path, capsys):
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(dm.dist_to_dict(self.full_mixture((2, 2), (2, 2)))))
        assert run(["bell-local", "--dist", str(path), "--exact"]) == 0
        assert json.loads(capsys.readouterr().out)["is_local"] is True

    def test_exact_weights_must_reproduce_the_full_conditional(self):
        # signalling by 0.9 tol passes the no-signalling check, but weights that
        # reproduce the Collins–Gisin rows exactly put p(1,1|1,1) 1.8 tol off the input
        cond = np.full((2, 2, 2, 2), 0.25)
        cond[1, 1, 0, 0] += 0.9e-7
        cond[1, 1, 1, 1] -= 0.9e-7
        with pytest.raises(SolverError, match="miss the input by 1.8e-07"):
            bm.local_membership(chsh_222(), bell_joint((2, 2), (2, 2), [cond]), tol=1e-7, exact=True)

    @pytest.mark.parametrize("visibility", [1.0, 0.75, 0.7, 0.5])
    def test_exact_inequality_bounds_every_strategy(self, visibility):
        # noisy PR boxes are local exactly when the visibility is at most 1/2
        d = pr_box_dist()
        d = dm.JointDistribution(d.variables, visibility * d.table + (1 - visibility) / 16)
        verdict = bm.local_membership(chsh_222(), d, exact=True)
        assert verdict.is_local is (visibility <= 0.5)
        if verdict.is_local:
            return
        [terms] = verdict.inequality.values()
        assert verdict.max_residual > 0
        assert sum(c * 4 * d.table[(0,) + x + a] for (x, a), c in terms.items()) == pytest.approx(
            verdict.max_residual, abs=1e-12)
        for strategy in enumerate_strategies(chsh_222()):
            assert sum(c for (x, a), c in terms.items() if a == (strategy[0][x[0]], strategy[1][x[1]])) <= 1e-12

    def test_exact_mode_judges_a_float_mixture_on_a_face_not_local(self):
        # a mixture of 2 strategies lies on a face of the polytope; its float
        # conditional's Collins–Gisin rows fall outside it by about 1e-16
        cond = deterministic_mixture(np.random.default_rng(1), (2, 2), (2, 2), 2)
        joint = bell_joint((2, 2), (2, 2), [cond])
        assert bm.local_membership(chsh_222(), joint).is_local
        verdict = bm.local_membership(chsh_222(), joint, exact=True)
        assert not verdict.is_local and 0 < verdict.max_residual < 1e-15
        # the inequality, on the input's conditional as it is, holds for every
        # strategy and is violated, exactly
        [terms] = verdict.inequality.values()
        entries = list(itertools.product(itertools.product(range(2), repeat=2), repeat=2))
        y = np.array([Fraction(terms.get(e, 0.0)) for e in entries], dtype=object)
        probs = dm.conditional(joint, targets=["a1", "a2"], givens=["x1", "x2", "s"]).probs[:, :, 0]
        p = np.array([Fraction(float(probs[x + a])) for x, a in entries], dtype=object)
        responses = np.array([[int(a == (st[0][x[0]], st[1][x[1]])) for st in enumerate_strategies(chsh_222())]
                              for x, a in entries], dtype=object)
        bm.check_inequality(responses, p, y, slack=0)

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

    def test_lp_guard_refuses_before_any_lp_array(self, monkeypatch):
        # 2 parties with 9 binary settings: 10 x 10 rows over 2^9 x 2^9 strategies
        def fail(*args, **kwargs):
            raise AssertionError("an LP was built")

        monkeypatch.setattr(bm, "_collins_gisin", fail)
        monkeypatch.setattr(bm, "solve_phase1", fail)
        settings, outcomes = (9, 9), (2, 2)
        joint = bell_joint(settings, outcomes, [np.full(settings + outcomes, 0.25)])
        with pytest.raises(SizeLimitExceeded, match="100 rows over 262144 strategies"):
            bm.local_membership(bm.BellScenario(settings, outcomes), joint)

    def test_lp_guard_follows_the_state_space_variable(self, monkeypatch):
        # CHSH: 9 rows times max(16 strategies, 4 setting tuples x 4 joint outcomes)
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "143")
        with pytest.raises(SizeLimitExceeded, match="exceeds the guard 143"):
            bm.local_membership(chsh_222(), pr_box_dist())
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "144")
        assert not bm.local_membership(chsh_222(), pr_box_dist()).is_local

    def test_settings_of_probability_0_leave_the_lp(self):
        # party 1 uses only settings 1 and 9 of its 9: 3 x 10 rows over 2^2 x 2^9 strategies
        settings, outcomes = (9, 9), (2, 2)
        scenario = bm.BellScenario(settings, outcomes)
        p1 = np.zeros(9)
        p1[[0, 8]] = 0.5
        cond = deterministic_mixture(np.random.default_rng(3), settings, outcomes, 4)
        joint = bell_joint(settings, outcomes, [cond], [p1, np.full(9, 1 / 9)])
        verdict = bm.local_membership(scenario, joint)
        assert verdict.is_local and verdict.lp_shape == (30, 2048)
        assert all(strategy[0][1:8] == (0,) * 7 for strategy in verdict.weights[0])
        assert_certificate_holds(scenario, joint, verdict)

    def test_exact_mode_refuses_more_strategies_than_its_limit(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an exact LP was solved")

        monkeypatch.setattr(bm, "solve_phase1_exact", fail)
        settings, outcomes = (7, 6), (2, 2)
        joint = bell_joint(settings, outcomes, [np.full(settings + outcomes, 0.25)])
        with pytest.raises(SizeLimitExceeded, match="at most 4096 strategies, not 8192"):
            bm.local_membership(bm.BellScenario(settings, outcomes), joint, exact=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_weight_keys_answer_0_at_a_setting_of_probability_0(self, seed):
        # party 2's setting 1 has probability 0; the keys replay as a model of the joint
        settings, outcomes = (2, 3), (2, 2)
        scenario = bm.BellScenario(settings, outcomes)
        setting_probs = [np.array([0.5, 0.5]), np.array([0.6, 0.0, 0.4])]
        cond = deterministic_mixture(np.random.default_rng(seed), settings, outcomes, 4)
        joint = bell_joint(settings, outcomes, [cond], setting_probs)
        verdict = bm.local_membership(scenario, joint)
        assert verdict.is_local and verdict.lp_shape == (9, 16)
        strategies, weights = zip(*verdict.weights[0].items())
        assert all(strategy[1][1] == 0 for strategy in strategies)
        responses = [np.zeros((k, len(strategies), m)) for k, m in zip(settings, outcomes)]
        for j, strategy in enumerate(strategies):
            for r, answers in zip(responses, strategy):
                r[np.arange(len(answers)), j, answers] = 1.0
        weights = np.array(weights) / sum(weights)
        model = bm.classical_bell_model(scenario, [weights], responses, setting_probs, [1.0])
        assert np.abs(cm.evaluate(model).table - joint.table).max() < 1e-7

    def test_source_outcome_without_a_defined_setting_tuple_is_skipped(self):
        # p(s = 1) = 2e-12 is above the conditional's zero tolerance, but each of
        # its four setting tuples has 5e-13, below it, so no row of s = 1 is defined
        settings, outcomes = (2, 2), (2, 2)
        conds = [np.full(settings + outcomes, 0.25)] * 2
        joint = bell_joint(settings, outcomes, conds, source_probs=(1 - 2e-12, 2e-12))
        verdict = bm.local_membership(bm.BellScenario(settings, outcomes, source_outcomes=2), joint)
        assert verdict.is_local and list(verdict.weights) == [0]

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
        "name", ["unequal-mixture", "unequal-box", "three-party", "two-sources-zero-setting", "tiny-setting-pair"]
    )
    def test_collins_gisin_lp_matches_response_loop_oracle(self, name, monkeypatch):
        # each LP is the oracle's response rows under the Collins-Gisin row map,
        # the verdict is the full-row LP's, and its certificate holds on the full rows
        scenario, joint, expect_local = oracle_case(name)
        built = record_bell_lps(monkeypatch)
        verdict = bm.local_membership(scenario, joint)
        strategies, lps = response_loop_lps(scenario, joint)
        oracle_local, solved = True, 0
        for (a, b), (s, (a_ref, b_ref, tuples)) in zip(built, lps.items()):
            c = collins_gisin_oracle(scenario, tuples)
            # the LP's columns are the strategies that answer 0 at every setting no defined tuple reads
            unused = [set(range(k)) - {xt[i] for xt in tuples} for i, k in enumerate(scenario.settings)]
            cols = [j for j, st in enumerate(strategies) if not any(st[i][x] for i, u in enumerate(unused) for x in u)]
            assert a.shape == (len(c), len(cols)) and len(a) < len(a_ref)
            np.testing.assert_array_equal(a, c @ a_ref[:-1, cols])
            np.testing.assert_allclose(b, c @ b_ref[:-1], rtol=0, atol=1e-15)
            solved += 1
            if not solve_phase1(phase1_program(a_ref), b_ref, tol=verdict.tol).feasible:
                oracle_local = False
                break
        assert solved == len(built) == (len(lps) if oracle_local else len(verdict.inequality) + len(verdict.weights))
        assert verdict.is_local is oracle_local is expect_local
        assert verdict.solver == "highs" and verdict.iterations > 0
        assert verdict.lp_shape == max(a.shape for a, _ in built)
        assert_certificate_holds(scenario, joint, verdict)
        if name == "two-sources-zero-setting":
            # party 2's setting 1 is dropped: 3 x 3 rows where the full rows are 2 * 2 * 4 + 1,
            # over the 4 x 4 strategies at the used settings
            assert sorted(lps) == [0, 1] and [a.shape for a, _ in built] == [(9, 16)] * 2
        if name == "tiny-setting-pair":
            # the one row reading the pair (1, 1) is dropped
            assert len(lps[0][2]) == 3 and [a.shape for a, _ in built] == [(8, 16)]

    @pytest.mark.parametrize(
        "settings, outcomes, rows", [((2, 2), (2, 2), 9), ((2, 2, 2), (3, 3, 3), 125), ((3, 3, 3), (2, 2, 2), 64)]
    )
    def test_collins_gisin_row_counts(self, settings, outcomes, rows, monkeypatch):
        built = record_bell_lps(monkeypatch)
        joint = bell_joint(settings, outcomes, [deterministic_mixture(np.random.default_rng(1), settings, outcomes, 3)])
        assert bm.local_membership(bm.BellScenario(settings, outcomes), joint).is_local
        [(a, b)] = built
        assert a.shape == (rows, np.prod([m**k for k, m in zip(settings, outcomes)])) and b.shape == (rows,)

    @pytest.mark.parametrize("probe", ["3-party 2s3o box", "3-party 3s2o dense mixture"])
    def test_probe_lps_get_checked_verdicts(self, probe):
        # the dense float tableau stalled on both for 20k pivots with a blown-up objective
        if probe.endswith("box"):
            settings, outcomes = (2, 2, 2), (3, 3, 3)
            box = np.zeros(settings + outcomes)
            for xs in itertools.product(range(2), repeat=3):
                for a in itertools.product(range(3), repeat=3):
                    box[xs + a] = (sum(a) % 3 == np.prod(xs) % 3) / 9
            cond = 0.7 * box + 0.3 / 27
        else:
            settings, outcomes = (3, 3, 3), (2, 2, 2)
            cond = deterministic_mixture(np.random.default_rng(2), settings, outcomes, 100)
        scenario = bm.BellScenario(settings, outcomes)
        joint = bell_joint(settings, outcomes, [cond])
        start = time.perf_counter()
        verdict = bm.local_membership(scenario, joint)
        assert time.perf_counter() - start < 1.0
        assert verdict.is_local is probe.endswith("mixture")
        assert_certificate_holds(scenario, joint, verdict)


class TestCertificates:
    """A solver answer that its certificate does not back raises SolverError."""

    @staticmethod
    def tampered(monkeypatch, change):
        solve = bm.solve_phase1

        def tampered_solve(a, b, tol):
            res = solve(a, b, tol=tol)
            change(res)
            return res

        monkeypatch.setattr(bm, "solve_phase1", tampered_solve)

    @staticmethod
    def mixture():
        cond = deterministic_mixture(np.random.default_rng(4), (2, 2), (2, 2), 3)
        return bell_joint((2, 2), (2, 2), [cond])

    def test_untampered_answers_pass(self):
        assert bm.local_membership(chsh_222(), self.mixture()).is_local
        assert not bm.local_membership(chsh_222(), pr_box_dist()).is_local

    @pytest.mark.parametrize("shift", [1e-3, -1e-3])
    def test_tampered_weight_fails(self, monkeypatch, shift):
        def change(res):
            j = np.flatnonzero(res.x)[0]
            res.x[j] = max(res.x[j] + shift, 0.0)

        self.tampered(monkeypatch, change)
        with pytest.raises(SolverError, match="weights miss the input"):
            bm.local_membership(chsh_222(), self.mixture())

    def test_weight_moved_to_another_strategy_fails(self, monkeypatch):
        def change(res):
            j = np.flatnonzero(res.x)[0]
            res.x[(j + 1) % len(res.x)] += res.x[j]
            res.x[j] = 0.0

        self.tampered(monkeypatch, change)
        with pytest.raises(SolverError, match="weights miss the input"):
            bm.local_membership(chsh_222(), self.mixture())

    @pytest.mark.parametrize("change", ["normalisation row", "sign", "one entry"])
    def test_tampered_dual_fails(self, monkeypatch, change):
        def tamper(res):
            if change == "normalisation row":  # the all-ones row: every strategy's y.a rises
                res.y[0] += 0.5
            elif change == "sign":
                res.y *= -1
            else:
                res.y[np.argmax(np.abs(res.y))] *= 3

        self.tampered(monkeypatch, tamper)
        with pytest.raises(SolverError, match="Farkas vector fails its check"):
            bm.local_membership(chsh_222(), pr_box_dist())

    def test_false_local_claim_fails(self, monkeypatch):
        self.tampered(monkeypatch, lambda res: setattr(res, "feasible", True))
        with pytest.raises(SolverError, match="weights miss the input"):
            bm.local_membership(chsh_222(), pr_box_dist())

    def test_false_nonlocal_claim_fails(self, monkeypatch):
        self.tampered(monkeypatch, lambda res: setattr(res, "feasible", False))
        with pytest.raises(SolverError, match="Farkas vector fails its check"):
            bm.local_membership(chsh_222(), self.mixture())

    def test_checks_directly(self):
        resp, p = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.25, 0.75])
        bm.check_weights(resp @ [0.2, 0.05, 0.75], p, np.array([0.2, 0.05, 0.75]), 1e-7)
        for w in ([0.25, 0.0, 0.7501], [-0.25, 0.5, 0.75]):
            with pytest.raises(SolverError):
                bm.check_weights(resp @ w, p, np.array(w), 1e-7)

    @pytest.mark.parametrize("settings, outcomes", [((2, 3), (3, 2)), ((2, 1, 2), (2, 3, 2))])
    def test_response_fold_matches_strategy_loop(self, settings, outcomes):
        scenario = bm.BellScenario(settings, outcomes)
        strategies = enumerate_strategies(scenario)
        onehots = [
            np.array([[[s[x] == a for s in itertools.product(range(m), repeat=k)] for a in range(m)]
                      for x in range(k)], dtype=float)
            for k, m in zip(settings, outcomes)
        ]
        w = np.random.default_rng(0).dirichlet(np.ones(len(strategies)))
        expected = np.zeros(settings + outcomes)
        for strategy, wj in zip(strategies, w):
            for xt in itertools.product(*(range(k) for k in settings)):
                expected[xt + tuple(strategy[i][x] for i, x in enumerate(xt))] += wj
        got = bm._respond(onehots, w)
        np.testing.assert_allclose(got, expected.reshape(got.shape), rtol=0, atol=1e-15)
        columns = bm._respond(onehots, np.eye(len(strategies)))
        np.testing.assert_allclose(np.tensordot(w, columns, axes=1), got, rtol=0, atol=1e-15)
        a, b = np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0])
        bm.check_inequality(a, b, np.array([-1.0, 1.0]), 1e-7)
        for y in ([-1.0, 1.1], [0.0, 0.0], [1.0, -1.0]):
            with pytest.raises(SolverError):
                bm.check_inequality(a, b, np.array(y), 1e-7)

    def test_verdict_json_carries_solver_and_certificate(self):
        payload = bm.local_membership(chsh_222(), pr_box_dist()).to_dict()
        assert payload["solver"] == "highs" and payload["iterations"] > 0 and payload["lp_shape"] == [9, 16]
        assert payload["weights"] == {}
        [terms] = payload["inequality"].values()
        assert all(len(key.split("|")) == 2 for key in terms)
        local = bm.local_membership(chsh_222(), self.mixture()).to_dict()
        assert local["inequality"] == {} and local["weights"]["0"]

    def test_exact_mode_reports_its_solver(self):
        verdict = bm.local_membership(chsh_222(), pr_box_dist(), exact=True)
        assert not verdict.is_local and verdict.solver == "exact" and verdict.lp_shape == (9, 16)
        assert verdict.inequality[0] and verdict.max_residual > 0 and verdict.iterations > 0


def sum_box(settings, outcomes):
    """Conditional with ``sum(a) = prod(x)`` mod m, uniform over such outcomes: the PR box on CHSH."""
    m = outcomes[0]
    cond = np.zeros(tuple(settings) + tuple(outcomes))
    for xs in itertools.product(*(range(k) for k in settings)):
        for a in itertools.product(range(m), repeat=len(outcomes)):
            cond[xs + a] = (sum(a) % m == math.prod(xs) % m) / m ** (len(outcomes) - 1)
    return cond


def plan_cases():
    """(scenario, joint) pairs, a mixture and a box per shape, with random setting probabilities."""
    rng = np.random.default_rng(7)
    cases = []
    for settings, outcomes in (((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 2), (3, 3)), ((2, 2, 2), (2, 2, 2))):
        for cond in (deterministic_mixture(rng, settings, outcomes, 3), sum_box(settings, outcomes)):
            probs = [rng.dirichlet(np.ones(k)) for k in settings]
            cases.append((bm.BellScenario(settings, outcomes), bell_joint(settings, outcomes, [cond], probs)))
    return cases


class TestLPPlans:
    """Each Bell LP's scenario-only arrays are kept, and change no answer."""

    @staticmethod
    def fresh(monkeypatch, limit=bm.MAX_CACHED_LP_ENTRIES):
        cache = BoundedCache(limit)
        monkeypatch.setattr(bm, "_LP_PLANS", cache)
        return cache

    @staticmethod
    def answer(scenario, joint, exact=False):
        return json.dumps(bm.local_membership(scenario, joint, exact=exact).to_dict())

    @pytest.mark.parametrize("case", range(8))
    def test_cold_and_warm_calls_answer_as_an_unkept_plan(self, case, monkeypatch):
        scenario, joint = plan_cases()[case]
        self.fresh(monkeypatch, 0)  # keeps nothing: every call builds its plan
        unkept = self.answer(scenario, joint)
        cache = self.fresh(monkeypatch)
        assert self.answer(scenario, joint) == unkept and len(cache.entries) == 1
        assert self.answer(scenario, joint) == unkept and len(cache.entries) == 1

    def test_exact_mode_uses_the_float_plan(self, monkeypatch):
        scenario, joint = plan_cases()[0]
        self.fresh(monkeypatch, 0)
        unkept = self.answer(scenario, joint, exact=True)
        cache = self.fresh(monkeypatch)
        self.answer(scenario, joint)
        assert self.answer(scenario, joint, exact=True) == unkept and len(cache.entries) == 1

    def test_state_space_guard_refuses_after_a_warm_call(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an LP array was built or solved")

        assert not bm.local_membership(chsh_222(), pr_box_dist()).is_local
        for name in ("_collins_gisin", "phase1_program", "solve_phase1"):
            monkeypatch.setattr(bm, name, fail)
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "143")
        with pytest.raises(SizeLimitExceeded, match="exceeds the guard 143"):
            bm.local_membership(chsh_222(), pr_box_dist())

    def test_exact_strategy_limit_refuses_after_a_warm_call(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an exact LP was solved")

        assert not bm.local_membership(chsh_222(), pr_box_dist(), exact=True).is_local
        monkeypatch.setattr(bm, "EXACT_MODE_MAX_STRATEGIES", 15)
        monkeypatch.setattr(bm, "solve_phase1_exact", fail)
        with pytest.raises(SizeLimitExceeded, match="at most 15 strategies, not 16"):
            bm.local_membership(chsh_222(), pr_box_dist(), exact=True)

    def test_a_setting_of_probability_0_gets_its_own_plan(self, monkeypatch):
        settings, outcomes = (2, 3), (2, 2)
        scenario = bm.BellScenario(settings, outcomes)
        cond = deterministic_mixture(np.random.default_rng(0), settings, outcomes, 4)
        cache = self.fresh(monkeypatch)
        assert bm.local_membership(scenario, bell_joint(settings, outcomes, [cond])).lp_shape == (12, 32)
        zero = bell_joint(settings, outcomes, [cond], [np.array([0.5, 0.5]), np.array([0.6, 0.0, 0.4])])
        verdict = bm.local_membership(scenario, zero)
        assert verdict.is_local and verdict.lp_shape == (9, 16) and len(cache.entries) == 2
        assert_certificate_holds(scenario, zero, verdict)

    def test_exact_calls_build_no_program_until_a_float_call(self, monkeypatch):
        scenario, joint = plan_cases()[0]
        self.fresh(monkeypatch, 0)
        unkept = self.answer(scenario, joint)
        cache = self.fresh(monkeypatch)
        exact = self.answer(scenario, joint, exact=True)
        [((c_map, a_mat, program, answers, onehots), weight)] = cache.entries.values()
        arrays = sum(a.size for a in (c_map, *answers, *onehots))
        assert program is None and weight == arrays == cache.load
        assert self.answer(scenario, joint) == unkept
        [((_, kept, program, _, _), weight)] = cache.entries.values()
        assert kept is a_mat and weight == arrays + program.entries == cache.load
        assert self.answer(scenario, joint, exact=True) == exact and len(cache.entries) == 1

    def test_an_exact_only_process_never_loads_highs(self):
        code = (
            "import json, sys\n"
            "from causalcorr import bell as bm\n"
            "from causalcorr._simplex import HIGHS_MODULE\n"
            "from conftest import pr_box_dist\n"
            "scenario = bm.BellScenario((2, 2), (2, 2))\n"
            "exact = bm.local_membership(scenario, pr_box_dist(), exact=True).to_dict()\n"
            "print(HIGHS_MODULE in sys.modules)\n"
            "print(json.dumps(exact))\n"
            "print(json.dumps(bm.local_membership(scenario, pr_box_dist()).to_dict()))\n"
        )
        here = os.path.dirname(__file__)
        path = [os.path.join(os.path.dirname(here), "src"), here, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        loaded, exact, floating = out.stdout.splitlines()
        assert loaded == "False"
        assert exact == self.answer(chsh_222(), pr_box_dist(), exact=True)
        assert floating == self.answer(chsh_222(), pr_box_dist())

    def test_kept_arrays_are_read_only(self, monkeypatch):
        cache = self.fresh(monkeypatch)
        bm.local_membership(*plan_cases()[0])
        [((c_map, a_mat, program, answers, onehots), weight)] = cache.entries.values()
        arrays = [c_map, a_mat, *answers, *onehots]
        # the HiGHS object weighs a fixed share plus a share per nonzero of [A | I | -I]
        nonzeros = np.count_nonzero(a_mat) + 2 * len(a_mat)
        assert program.A is a_mat and program.entries == a_mat.size + HIGHS_ENTRIES + 8 * nonzeros
        assert weight == sum(a.size for a in (c_map, *answers, *onehots)) + program.entries
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            a_mat[0, 0] = 2.0

    def test_threads_answer_as_serial_calls(self, monkeypatch):
        cases = plan_cases()
        calls = [cases[i % len(cases)] for i in range(25)]
        serial = [self.answer(*call) for call in calls]
        self.fresh(monkeypatch)
        start, results = threading.Barrier(4), [None] * 4

        def work(t):  # each thread starts at another call, so the plans are built concurrently
            start.wait()
            results[t] = {i: self.answer(*calls[i]) for i in np.roll(np.arange(25), -t * 6).tolist()}

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the plan build and lookup too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all([got[i] for i in range(25)] == serial for got in results)


def bell_root_gates_loop(scenario, hidden_given_source, setting_dists, source_dist):
    """Source and setting gate tensors of ``classical_bell_model``, filled one entry at a time."""
    n, n_hidden = scenario.n, len(hidden_given_source[0])
    t = np.zeros((scenario.source_outcomes,) + (n_hidden,) * n)
    for s in range(scenario.source_outcomes):
        for lam in range(n_hidden):
            t[(s,) + (lam,) * n] = source_dist[s] * hidden_given_source[s][lam]
    tensors = {"s": t}
    for i in range(n):
        k = scenario.settings[i]
        t = np.zeros((k, k))
        for x in range(k):
            t[x, x] = setting_dists[i][x]
        tensors[f"x{i + 1}"] = t
    return tensors


class TestClassicalBellModel:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scenario", [chsh_222(), bm.BellScenario((2, 3, 2), (3, 2, 2), source_outcomes=2)])
    def test_gates_match_loop(self, scenario, seed):
        rng = np.random.default_rng(seed)
        n_hidden = 4
        hidden = rng.dirichlet(np.ones(n_hidden), size=scenario.source_outcomes)
        responses = [
            rng.dirichlet(np.ones(m), size=(k, n_hidden)) for k, m in zip(scenario.settings, scenario.outcomes)
        ]
        settings = [rng.dirichlet(np.ones(k)) for k in scenario.settings]
        source = rng.dirichlet(np.ones(scenario.source_outcomes))
        model = bm.classical_bell_model(scenario, hidden, responses, settings, source)
        assert cm.validate_model(model) == []
        for v, tensor in bell_root_gates_loop(scenario, hidden, settings, source).items():
            assert_identical(model.gates[v].tensor, tensor)

    @pytest.mark.parametrize(
        "n_responses, settings, match",
        [(2, [[0.5, 0.5], [1.0]], "setting"), (2, [[0.5, 0.5]], "setting"), (1, [[0.5, 0.5]] * 2, "responses")],
    )
    def test_missing_or_short_party_inputs_refused(self, n_responses, settings, match):
        response = np.full((2, 2, 2), 0.5)
        with pytest.raises(ShapeMismatch, match=match):
            bm.classical_bell_model(chsh_222(), [[0.5, 0.5]], [response] * n_responses, settings, [1.0])

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
        strategies = enumerate_strategies(scenario)
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


def random_effects(rng, d, m, projective):
    """``m`` effects on dimension ``d`` summing to the identity: projectors onto groups of
    a random basis (degenerate, and 0 for an empty group), or a random POVM."""
    if projective:
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        group = rng.integers(m, size=d)
        return [u[:, group == a] @ u[:, group == a].conj().T for a in range(m)]
    g = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(m)]
    w, v = np.linalg.eigh(sum(x.conj().T @ x for x in g))
    root = v @ np.diag(w**-0.5) @ v.conj().T
    return [root @ x.conj().T @ x @ root for x in g]


def measurement_kraus_loop(family):
    """Oracle: a party's measurement Kraus operators, one ``eigh`` per outcome ``a`` of
    ``sum_x kron(E[x][a], |x><x|)`` summed one setting at a time, and one operator per
    eigenvalue above 1e-14."""
    kx, d = len(family), len(family[0][0])
    comps = []
    for a in range(len(family[0])):
        m = np.zeros((d * kx, d * kx), dtype=complex)
        for x in range(kx):
            proj = np.zeros((kx, kx), dtype=complex)
            proj[x, x] = 1.0
            m += np.kron(np.asarray(family[x][a], dtype=complex), proj)
        w, u = np.linalg.eigh(m)
        comps.append(tuple(np.sqrt(w[j]) * u[:, j].conj().reshape(1, -1) for j in range(len(w)) if w[j] > 1e-14))
    return comps


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

    @pytest.mark.parametrize(
        "e0, message",
        [
            (np.diag([1.5, -0.5]), "party 1: an effect has the negative eigenvalue -0.5"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "party 1, setting 0: an effect is not Hermitian"),
        ],
        ids=["negative", "non-hermitian"],
    )
    def test_effects_summing_to_identity_but_no_povm_rejected(self, e0, message):
        # E1 = I - E0 completes each setting, so only the effects themselves are at fault
        fam = [[e0, np.eye(2) - e0], CHSH_ALICE[1]]
        with pytest.raises(IncompletePOVM, match=message):
            bm.quantum_bell_model(chsh_222(), [SINGLET], [fam, CHSH_BOB], [[0.5, 0.5], [0.5, 0.5]], [1.0])

    @pytest.mark.parametrize("effect", [1.0, [1.0], [[1.0, 0.0]]], ids=["0-d", "1-d", "1x2"])
    def test_effect_that_is_no_square_matrix_rejected(self, effect):
        with pytest.raises(ShapeMismatch, match="effect shape"):
            bm.quantum_bell_model(bm.BellScenario((1, 1), (1, 1)), [np.array([1.0])], [[[effect]], [[[1.0]]]],
                                  [[1.0], [1.0]], [1.0])

    def test_kraus_operators_match_per_outcome_loop(self):
        # projective measurements with degenerate projectors and random POVMs, per party
        for seed in range(20):
            rng = np.random.default_rng(seed)
            settings, outcomes = tuple(rng.integers(1, 4, size=2)), tuple(rng.integers(1, 4, size=2))
            dims = [int(d) for d in rng.integers(1, 4, size=2)]
            povms = [[random_effects(rng, d, m, projective=(seed + x) % 2 == 0) for x in range(k)]
                     for d, k, m in zip(dims, settings, outcomes)]
            psi = rng.normal(size=dims[0] * dims[1]) + 0j
            model = bm.quantum_bell_model(bm.BellScenario(settings, outcomes), [psi / np.linalg.norm(psi)], povms,
                                          [np.full(k, 1 / k) for k in settings], [1.0])
            for i, family in enumerate(povms):
                got = model.instruments[f"a{i + 1}"].components
                expected = measurement_kraus_loop(family)
                assert [len(c) for c in got] == [len(c) for c in expected]
                for k_got, k_ref in zip(itertools.chain(*got), itertools.chain(*expected)):
                    assert_identical(k_got, k_ref)

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
            bm.chsh_value(strategy_dist(s)) for s in enumerate_strategies(chsh_222())
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
