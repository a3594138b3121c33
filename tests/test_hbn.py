import itertools

import numpy as np
import pytest

from causalcorr import classical as cm
from causalcorr import hbn as hm
from causalcorr.correlation import is_correlation
from causalcorr.errors import InvalidModel, SchemaError, SizeLimitExceeded
from causalcorr.graph import CausalGraph

from conftest import (
    all_test_graphs,
    assert_identical,
    bell_graph,
    parallel_edge_graph,
    popescu_graph,
    triangle_graph,
)
from test_classical import shared_coin_model


def hmm_chain(lengths=3, n_hidden=3, n_obs=2, seed=0):
    """Stationary state-emitting chain as a hidden Bayesian network."""
    rng = np.random.default_rng(seed)
    prior = rng.uniform(size=n_hidden)
    prior /= prior.sum()
    trans = rng.uniform(size=(n_hidden, n_hidden))
    trans /= trans.sum(axis=1, keepdims=True)
    emit = rng.uniform(size=(n_hidden, n_obs))
    emit /= emit.sum(axis=1, keepdims=True)
    names = [f"t{i}" for i in range(lengths)]
    g = CausalGraph.build(
        [(n, n_obs) for n in names],
        [(f"{a}->{b}", a, b) for a, b in zip(names, names[1:])],
    )
    transitions = {names[0]: prior}
    readouts = {names[0]: emit}
    for n in names[1:]:
        transitions[n] = trans
        readouts[n] = emit
    return hm.HiddenBayesNet(g, {n: n_hidden for n in names}, transitions, readouts), (
        prior,
        trans,
        emit,
    )


def forward_probability(obs, prior, trans, emit):
    """Classic forward pass for one observation sequence."""
    alpha = prior * emit[:, obs[0]]
    for o in obs[1:]:
        alpha = (alpha @ trans) * emit[:, o]
    return float(alpha.sum())


def from_classical_loop(model):
    """Node alphabets, transitions and readouts built one parent assignment at a time."""
    graph = model.graph
    sizes = {}
    for v in graph.nodes:
        s = graph.outcomes[v]
        for e in cm.sorted_out_ids(graph, v):
            s *= model.edge_alphabet[e]
        sizes[v] = s
    out_pos = {}
    out_sizes = {}
    for v in graph.nodes:
        ids = cm.sorted_out_ids(graph, v)
        out_pos.update({e: i for i, e in enumerate(ids)})
        out_sizes[v] = tuple(model.edge_alphabet[e] for e in ids)
    transitions = {}
    readouts = {}
    for v in graph.nodes:
        gate = model.gates[v]
        pa = hm.sorted_parents(graph, v)
        pa_shapes = tuple(sizes[u] for u in pa)
        trans = np.zeros(pa_shapes + (sizes[v],))
        in_ids = gate.in_edges
        in_sizes = tuple(model.edge_alphabet[e] for e in in_ids)
        flat_gate = gate.tensor.reshape(in_sizes + (sizes[v],))
        for assign in np.ndindex(*pa_shapes):
            decoded = {}
            for u, mu in zip(pa, assign):
                decoded[u] = np.unravel_index(mu, (graph.outcomes[u],) + out_sizes[u])
            lam_in = tuple(decoded[graph.edge(e).src][1 + out_pos[e]] for e in in_ids)
            trans[assign] = flat_gate[lam_in]
        transitions[v] = trans
        n_o = graph.outcomes[v]
        read = np.zeros((sizes[v], n_o))
        block = sizes[v] // n_o
        for o in range(n_o):
            read[o * block : (o + 1) * block, o] = 1.0
        readouts[v] = read
    return sizes, transitions, readouts


def to_classical_gates_loop(net):
    """Gate tensors built one incoming assignment and one hidden value at a time."""
    graph = net.graph
    alphabet = {e.id: net.node_alphabet[e.src] for e in graph.edges}
    tensors = {}
    for v in graph.nodes:
        in_ids = cm.sorted_in_ids(graph, v)
        n_out = len(cm.sorted_out_ids(graph, v))
        yv = net.node_alphabet[v]
        in_sizes = tuple(alphabet[e] for e in in_ids)
        pa = hm.sorted_parents(graph, v)
        canonical_pos = {u: in_ids.index(min(e.id for e in graph.in_edges(v) if e.src == u)) for u in pa}
        weight = net.transitions[v][..., :, None] * net.readouts[v]
        tensor = np.zeros(in_sizes + (graph.outcomes[v],) + (yv,) * n_out)
        for tup in np.ndindex(*in_sizes):
            w = weight[tuple(tup[canonical_pos[u]] for u in pa)]  # (yv, n_o)
            if n_out == 0:
                tensor[tup] = w.sum(axis=0)
            else:
                for mu in range(yv):
                    tensor[tup + (slice(None),) + (mu,) * n_out] = w[mu]
        tensors[v] = tensor
    return tensors


def conversion_graphs(outcomes):
    return [*all_test_graphs(outcomes).values(), parallel_edge_graph(outcomes)]


class TestConversionsMatchLoops:
    """The index gathers give, bit for bit, what the per-assignment loops gave."""

    @pytest.mark.parametrize("outcomes", [2, 3])
    @pytest.mark.parametrize("at", range(6))
    def test_from_classical(self, outcomes, at):
        g = conversion_graphs(outcomes)[at]
        for alphabet, seed in itertools.product((1, 2, 3), range(4)):
            m = cm.random_model(g, alphabet, seed)
            net = hm.from_classical(m)
            sizes, transitions, readouts = from_classical_loop(m)
            assert net.node_alphabet == sizes
            for v in g.nodes:
                assert_identical(net.transitions[v], transitions[v])
                assert_identical(net.readouts[v], readouts[v])

    @pytest.mark.parametrize("outcomes", [2, 3])
    @pytest.mark.parametrize("at", range(6))
    def test_to_classical(self, outcomes, at):
        g = conversion_graphs(outcomes)[at]
        for alphabet, seed in itertools.product((1, 2, 3), range(4)):
            net = hm.random_hbn(g, alphabet, seed)
            m = hm.to_classical(net)
            tensors = to_classical_gates_loop(net)
            for v in g.nodes:
                assert_identical(m.gates[v].tensor, tensors[v])


class TestValidate:
    def test_uniform_tables_ok(self, bell):
        net = hm.random_hbn(bell, 2, seed=0)
        assert hm.validate(net) == []

    def test_bad_row_sum_flagged(self, bell):
        net = hm.random_hbn(bell, 2, seed=0)
        net.transitions["a"] = net.transitions["a"] * 2
        violations = hm.validate(net)
        assert any("'a'" in v and "transition" in v for v in violations)

    @pytest.mark.parametrize("seed", range(3))
    def test_from_classical_output_valid(self, seed, triangle):
        m = cm.random_model(triangle, 2, seed)
        assert hm.validate(hm.from_classical(m)) == []


class TestEvaluate:
    def test_identity_readout_reduces_to_bayes_net(self):
        # binary chain u -> v with identity readouts: joint is prior times transition
        g = CausalGraph.build([("u", 2), ("v", 2)], [("uv", "u", "v")])
        prior = np.array([0.3, 0.7])
        trans = np.array([[0.9, 0.1], [0.2, 0.8]])
        eye = np.eye(2)
        net = hm.HiddenBayesNet(
            g,
            {"u": 2, "v": 2},
            {"u": prior, "v": trans},
            {"u": eye, "v": eye},
        )
        p = hm.evaluate(net)
        np.testing.assert_allclose(p.table, prior[:, None] * trans, atol=1e-15)

    def test_single_node_symmetric_noise(self):
        g = CausalGraph.build([("u", 2)], [])
        net = hm.HiddenBayesNet(
            g,
            {"u": 2},
            {"u": np.array([0.5, 0.5])},
            {"u": np.array([[0.9, 0.1], [0.1, 0.9]])},
        )
        p = hm.evaluate(net)
        np.testing.assert_allclose(p.table, [0.5, 0.5], atol=1e-15)

    def test_hmm_chain_matches_forward_algorithm(self):
        net, (prior, trans, emit) = hmm_chain()
        p = hm.evaluate(net)
        for obs in itertools.product(range(2), repeat=3):
            expected = forward_probability(obs, prior, trans, emit)
            assert p.table[obs] == pytest.approx(expected, abs=1e-13)

    def test_outputs_are_correlations(self, triangle):
        net = hm.random_hbn(triangle, 2, seed=4)
        p = hm.evaluate(net)
        assert is_correlation(triangle, p, tol=1e-9).is_correlation


class TestFromClassical:
    def test_no_edge_graph_degenerates(self):
        g = CausalGraph.build([("u", 3)], [])
        m = cm.ClassicalModel(
            g, {}, {"u": cm.Gate((), (), np.array([0.2, 0.3, 0.5]))}
        )
        net = hm.from_classical(m)
        assert net.node_alphabet == {"u": 3}
        np.testing.assert_allclose(net.transitions["u"], [0.2, 0.3, 0.5])
        np.testing.assert_allclose(net.readouts["u"], np.eye(3))

    def test_shared_coin_round_trip(self, bell):
        m = shared_coin_model(bell)
        net = hm.from_classical(m)
        dev = np.abs(hm.evaluate(net).table - cm.evaluate(m).table).max()
        assert dev < 1e-12

    @pytest.mark.parametrize("graph_name", ["bell", "popescu", "triangle"])
    def test_random_models_preserved(self, graph_name):
        g = {"bell": bell_graph(), "popescu": popescu_graph(), "triangle": triangle_graph()}[
            graph_name
        ]
        m = cm.random_model(g, 2, seed=0)
        net = hm.from_classical(m)
        dev = np.abs(hm.evaluate(net).table - cm.evaluate(m).table).max()
        assert dev < 1e-12

    def test_transition_table_above_guard_refused(self, triangle, monkeypatch):
        m = cm.random_model(triangle, 3, seed=0)  # hidden alphabets 18 and 2: tables of 18 * 18 * 2
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "100")
        with pytest.raises(SizeLimitExceeded, match="transition table of 648 entries at node 'a'"):
            hm.from_classical(m)
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "648")
        assert hm.from_classical(m).transitions["a"].size == 648

    def test_readout_is_deterministic_projection(self, bell):
        net = hm.from_classical(cm.random_model(bell, 2, seed=1))
        for v in bell.nodes:
            r = net.readouts[v]
            assert set(np.unique(r)) <= {0.0, 1.0}
            assert np.all(r.sum(axis=1) == 1.0)


class TestToClassical:
    def test_single_node_composes_transition_and_readout(self):
        g = CausalGraph.build([("u", 2)], [])
        prior = np.array([0.25, 0.75])
        read = np.array([[0.9, 0.1], [0.4, 0.6]])
        net = hm.HiddenBayesNet(g, {"u": 2}, {"u": prior}, {"u": read})
        m = hm.to_classical(net)
        np.testing.assert_allclose(m.gates["u"].tensor, prior @ read, atol=1e-15)

    def test_hmm_chain_preserved(self):
        net, (prior, trans, emit) = hmm_chain()
        m = hm.to_classical(net)
        assert cm.validate_model(m) == []
        dev = np.abs(cm.evaluate(m).table - hm.evaluate(net).table).max()
        assert dev < 1e-12

    def test_gates_have_diagonal_support(self):
        net, _ = hmm_chain()
        m = hm.to_classical(net)
        gate = m.gates["t0"]  # no in-edges, one out-edge: fine
        gate = m.gates["t1"]  # in: t0->t1 ; out: t1->t2
        t = gate.tensor  # (3, 2, 3): lambda_in, o, lambda_out
        assert t.shape == (3, 2, 3)

    def test_multi_out_broadcast_is_diagonal(self, triangle):
        net = hm.random_hbn(triangle, 2, seed=3)
        m = hm.to_classical(net)
        gate = m.gates["x"]  # two outgoing edges
        t = gate.tensor  # (o, lam1, lam2)
        for o, l1, l2 in itertools.product(range(2), repeat=3):
            if l1 != l2:
                assert t[o, l1, l2] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_round_trip(self, seed, triangle):
        net = hm.random_hbn(triangle, 2, seed=seed)
        m = hm.to_classical(net)
        assert cm.validate_model(m) == []
        dev = np.abs(cm.evaluate(m).table - hm.evaluate(net).table).max()
        assert dev < 1e-12

    def test_gate_above_guard_refused(self, triangle, monkeypatch):
        # x has hidden alphabet 3, one outcome bit and two out-edges: a gate of 2 * 3 * 3 entries
        net = hm.random_hbn(triangle, {"x": 3, "y": 2, "z": 2, "a": 2, "b": 2, "c": 2}, seed=0)
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "17")
        with pytest.raises(SizeLimitExceeded, match="gate tensor at node 'x' exceeds the guard"):
            hm.to_classical(net)
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "18")
        assert hm.to_classical(net).gates["x"].tensor.size == 18

    def test_gate_whose_size_wraps_an_int64_refused(self):
        # v's gate would have (2^16)^4 = 2^64 entries, which an int64 product wraps to 0
        net = wide_broadcast()
        assert hm.validate(net) == []
        with pytest.raises(SizeLimitExceeded, match="gate tensor at node 'v' exceeds the guard"):
            hm.to_classical(net)


def wide_broadcast():
    """A node v of hidden alphabet 2^16 and one outcome, read by four one-letter children."""
    kids = [f"c{i}" for i in range(4)]
    g = CausalGraph.build([("v", 1)] + [(c, 1) for c in kids], [(f"v->{c}", "v", c) for c in kids])
    k = 1 << 16
    transitions = {"v": np.full(k, 1.0 / k), **{c: np.ones((k, 1)) for c in kids}}
    readouts = {"v": np.ones((k, 1)), **{c: np.ones((1, 1)) for c in kids}}
    return hm.HiddenBayesNet(g, {"v": k, **{c: 1 for c in kids}}, transitions, readouts)


class TestHbnJson:
    def test_round_trip(self, bell):
        import json

        net = hm.random_hbn(bell, 2, seed=6)
        data = json.loads(json.dumps(hm.hbn_to_dict(net)))
        again = hm.hbn_from_dict(data)
        assert hm.validate(again) == []
        np.testing.assert_array_equal(hm.evaluate(net).table, hm.evaluate(again).table)

    @pytest.mark.parametrize("field, entry", [("node_sizes", 1), ("transitions", [1.0]), ("readouts", [1.0])])
    def test_entry_naming_no_node_rejected(self, bell, field, entry):
        data = hm.hbn_to_dict(hm.random_hbn(bell, 2, seed=6))
        data[field]["ghost"] = entry
        with pytest.raises(SchemaError, match="ghost"):
            hm.hbn_from_dict(data)

    def test_short_table_rejected(self, bell):
        data = hm.hbn_to_dict(hm.random_hbn(bell, 2, seed=6))
        data["transitions"]["a"].pop()
        with pytest.raises(SchemaError, match="transitions of 'a'"):
            hm.hbn_from_dict(data)

    def test_missing_table_refused_by_the_validator(self, bell):
        data = hm.hbn_to_dict(hm.random_hbn(bell, 2, seed=6))
        del data["transitions"]["a"]
        with pytest.raises(InvalidModel, match="node 'a': missing transition"):
            hm.evaluate(hm.hbn_from_dict(data))
