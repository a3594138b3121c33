import itertools
import math

import numpy as np
import pytest

from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr._config import max_state_space
from causalcorr.correlation import is_correlation
from causalcorr.errors import (
    CausalCorrError,
    InvalidModel,
    MissingRelayPath,
    NotAncestral,
    SchemaError,
    SizeLimitExceeded,
    UnknownNode,
    WouldCreateCycle,
    require_valid,
)
from causalcorr.graph import CausalGraph, Edge, causal_past, topological_order

from conftest import (
    all_test_graphs,
    ancestral_sets,
    assert_identical,
    bell_graph,
    evaluate_naive,
    parallel_edge_graph,
    popescu_graph,
    triangle_graph,
)


def uniform_gate(graph, sizes, v):
    ins = cm.sorted_in_ids(graph, v)
    outs = cm.sorted_out_ids(graph, v)
    shape = (
        tuple(sizes[e] for e in ins) + (graph.outcomes[v],) + tuple(sizes[e] for e in outs)
    )
    rows = int(np.prod(shape[: len(ins)])) if ins else 1
    t = np.full(shape, 1.0 / (int(np.prod(shape)) // rows))
    return cm.Gate(ins, outs, t)


def shared_coin_model(graph):
    """Source broadcasts one uniform bit, both measurements output it, settings free."""
    sizes = {"s->a": 2, "s->b": 2, "x->a": 2, "y->b": 2}
    t = np.zeros((1, 2, 2))
    t[0, 0, 0] = t[0, 1, 1] = 0.5
    gates = {"s": cm.Gate((), ("s->a", "s->b"), t)}
    for setting, e in (("x", "x->a"), ("y", "y->b")):
        gates[setting] = cm.Gate((), (e,), np.full((2, 2), 0.25))
    for meas, es in (("a", ("s->a", "x->a")), ("b", ("s->b", "y->b"))):
        t = np.zeros((2, 2, 2))
        for coin in range(2):
            for lam in range(2):
                t[coin, lam, coin] = 1.0
        gates[meas] = cm.Gate(es, (), t)
    return cm.ClassicalModel(graph, sizes, gates)


def triangle_xor_model(graph):
    """Roots broadcast a uniform bit each; tips output the xor of their inputs."""
    sizes = {e.id: 2 for e in graph.edges}
    gates = {}
    for root in ("x", "y", "z"):
        outs = cm.sorted_out_ids(graph, root)
        t = np.zeros((2, 2, 2))
        for bit in range(2):
            t[bit, bit, bit] = 0.5  # outcome equals the broadcast bit
        gates[root] = cm.Gate((), outs, t)
    for tip in ("a", "b", "c"):
        ins = cm.sorted_in_ids(graph, tip)
        t = np.zeros((2, 2, 2))
        for l1, l2 in itertools.product(range(2), repeat=2):
            t[l1, l2, l1 ^ l2] = 1.0
        gates[tip] = cm.Gate(ins, (), t)
    return cm.ClassicalModel(graph, sizes, gates)


def push_back_oracle(model):
    """Push-back built with a scatter for the applied gate and moveaxis offsets,
    under the same alphabet bound and state-space guard as the rewrite."""
    require_valid(cm.validate_model(model))
    graph = model.graph
    edge_sizes = dict(model.edge_alphabet)
    gates = dict(model.gates)
    guard, max_alphabet = max_state_space(), cm.DEFAULT_MAX_PUSHBACK_ALPHABET
    for w in reversed(topological_order(graph)):
        gate = gates[w]
        if not gate.in_edges:
            continue
        if gate.deterministic:
            continue
        u = min(e.src for e in graph.in_edges(w))
        desig = min(e.id for e in graph.in_edges(w) if e.src == u)
        in_sizes = tuple(edge_sizes[e] for e in gate.in_edges)
        n_in = int(np.prod(in_sizes, dtype=np.int64))
        out_sizes = gate.tensor.shape[len(gate.in_edges) + 1 :]
        cell = int(graph.outcomes[w] * np.prod(out_sizes, dtype=np.int64))
        n_f = cell**n_in
        new_size = n_f * edge_sizes[desig]
        if new_size > max_alphabet:
            raise SizeLimitExceeded(
                f"pushed-back alphabet {new_size} on edge {desig!r} exceeds {max_alphabet}"
            )
        if n_f * n_in * cell > guard or math.prod(
            (new_size if e == desig else edge_sizes[e]) for e in gate.in_edges
        ) * cell > guard:
            raise SizeLimitExceeded("pushed-back gate tensor exceeds the state-space guard")
        if n_f * gates[u].tensor.size > guard:
            raise SizeLimitExceeded(
                f"pushed-back gate at parent {u!r} exceeds the state-space guard"
            )

        rows = gate.tensor.reshape(n_in, cell)
        f_probs = rows[0]
        for t in range(1, n_in):
            f_probs = np.multiply.outer(f_probs, rows[t])
        f_probs = f_probs.ravel()

        tau = np.arange(n_in)
        f_all = np.arange(n_f)
        chosen = (f_all[:, None] // cell ** (n_in - 1 - tau[None, :])) % cell
        applied = np.zeros((n_f, n_in, cell))
        applied[np.repeat(f_all, n_in), np.tile(tau, n_f), chosen.ravel()] = 1.0
        applied = applied.reshape((n_f,) + in_sizes + (cell,))
        p = gate.in_edges.index(desig)
        applied = np.moveaxis(applied, 0, p)
        new_in_sizes = tuple(
            new_size if e == desig else edge_sizes[e] for e in gate.in_edges
        )
        applied = applied.reshape(new_in_sizes + (graph.outcomes[w],) + out_sizes)
        gates[w] = cm.Gate(gate.in_edges, gate.out_edges, applied)

        ugate = gates[u]
        q = ugate.out_edges.index(desig)
        axis = len(ugate.in_edges) + 1 + q
        lifted = np.multiply.outer(f_probs, ugate.tensor)
        lifted = np.moveaxis(lifted, 0, axis)
        shape = list(ugate.tensor.shape)
        shape[axis] = new_size
        gates[u] = cm.Gate(ugate.in_edges, ugate.out_edges, lifted.reshape(shape))
        edge_sizes[desig] = new_size
    return cm.ClassicalModel(graph, edge_sizes, gates)


def lift_oracle(model, src, dst, edge_id=None):
    """Trivial lift built with expand_dims at computed positions."""
    require_valid(cm.validate_model(model))
    graph = model.graph
    nodes = set(graph.nodes)
    if src not in nodes or dst not in nodes:
        raise UnknownNode(f"unknown endpoint in {src!r}->{dst!r}")
    if src == dst or dst in causal_past(graph, [src]):
        raise WouldCreateCycle(f"{src}->{dst} would close a cycle")
    if edge_id is None:
        edge_id = f"{src}->{dst}#lift"
    if any(e.id == edge_id for e in graph.edges):
        raise SchemaError(f"edge id {edge_id!r} already in use")
    new_graph = CausalGraph(
        nodes=graph.nodes,
        edges=graph.edges + (Edge(edge_id, src, dst),),
        outcomes=dict(graph.outcomes),
    )
    sizes = dict(model.edge_alphabet)
    sizes[edge_id] = 1
    gates = dict(model.gates)
    src_gate = gates[src]
    out_ids = tuple(sorted(src_gate.out_edges + (edge_id,)))
    axis = len(src_gate.in_edges) + 1 + out_ids.index(edge_id)
    gates[src] = cm.Gate(
        src_gate.in_edges, out_ids, np.expand_dims(src_gate.tensor, axis=axis)
    )
    dst_gate = gates[dst]
    in_ids = tuple(sorted(dst_gate.in_edges + (edge_id,)))
    axis = in_ids.index(edge_id)
    gates[dst] = cm.Gate(in_ids, dst_gate.out_edges, np.expand_dims(dst_gate.tensor, axis=axis))
    return cm.ClassicalModel(new_graph, sizes, gates)


def reroute_oracle(model, edge_id, via):
    """Reroute built with a two-case merge of moved axes and "shifted by 1" offsets."""
    require_valid(cm.validate_model(model))
    graph = model.graph
    edge = graph.edge(edge_id)
    u, w = edge.src, edge.dst
    uv_candidates = sorted(e.id for e in graph.edges if e.src == u and e.dst == via)
    vw_candidates = sorted(e.id for e in graph.edges if e.src == via and e.dst == w)
    if not uv_candidates or not vw_candidates:
        raise MissingRelayPath(f"no {u}->{via}->{w} relay path for edge {edge_id!r}")
    uv, vw = uv_candidates[0], vw_candidates[0]
    k = model.edge_alphabet[edge_id]

    new_graph = CausalGraph(
        nodes=graph.nodes,
        edges=tuple(e for e in graph.edges if e.id != edge_id),
        outcomes=dict(graph.outcomes),
    )
    sizes = {e: s for e, s in model.edge_alphabet.items() if e != edge_id}
    sizes[uv] = model.edge_alphabet[uv] * k
    sizes[vw] = model.edge_alphabet[vw] * k
    gates = dict(model.gates)

    def merge_axes(tensor, keep_axis, merged_axis):
        if merged_axis > keep_axis:
            moved = np.moveaxis(tensor, merged_axis, keep_axis + 1)
            keep = keep_axis
        else:
            moved = np.moveaxis(tensor, merged_axis, keep_axis)
            keep = keep_axis - 1
        shape = list(moved.shape)
        shape[keep] = shape[keep] * shape[keep + 1]
        del shape[keep + 1]
        return np.ascontiguousarray(moved).reshape(shape)

    ugate = gates[u]
    uv_axis = len(ugate.in_edges) + 1 + ugate.out_edges.index(uv)
    uw_axis = len(ugate.in_edges) + 1 + ugate.out_edges.index(edge_id)
    new_out = tuple(e for e in ugate.out_edges if e != edge_id)
    gates[u] = cm.Gate(ugate.in_edges, new_out, merge_axes(ugate.tensor, uv_axis, uw_axis))

    wgate = gates[w]
    vw_axis = wgate.in_edges.index(vw)
    uw_axis = wgate.in_edges.index(edge_id)
    new_in = tuple(e for e in wgate.in_edges if e != edge_id)
    gates[w] = cm.Gate(new_in, wgate.out_edges, merge_axes(wgate.tensor, vw_axis, uw_axis))

    vgate = gates[via]
    arr = np.multiply.outer(vgate.tensor, np.eye(k))
    in_axis = vgate.in_edges.index(uv)
    out_axis = len(vgate.in_edges) + 1 + vgate.out_edges.index(vw)
    ndim = vgate.tensor.ndim
    arr = np.moveaxis(arr, ndim, in_axis + 1)
    arr = np.moveaxis(arr, ndim + 1, out_axis + 2)
    shape = list(vgate.tensor.shape)
    shape[in_axis] *= k
    shape[out_axis] *= k
    gates[via] = cm.Gate(vgate.in_edges, vgate.out_edges, arr.reshape(shape))

    return cm.ClassicalModel(new_graph, sizes, gates)


class TestValidateModel:
    def test_uniform_gates_ok(self, bell):
        sizes = {e.id: 2 for e in bell.edges}
        gates = {v: uniform_gate(bell, sizes, v) for v in bell.nodes}
        assert cm.validate_model(cm.ClassicalModel(bell, sizes, gates)) == []

    def test_bad_row_sum_reported_with_deviation(self, bell):
        sizes = {e.id: 2 for e in bell.edges}
        gates = {v: uniform_gate(bell, sizes, v) for v in bell.nodes}
        bad = gates["x"].tensor * 0.9
        gates["x"] = cm.Gate(gates["x"].in_edges, gates["x"].out_edges, bad)
        violations = cm.validate_model(cm.ClassicalModel(bell, sizes, gates))
        matching = [v for v in violations if "'x'" in v and "deviate" in v]
        assert matching
        reported = float(matching[0].split()[-1])
        assert reported == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_model_always_valid(self, seed, popescu):
        assert cm.validate_model(cm.random_model(popescu, 2, seed)) == []


class TestEvaluate:
    def test_no_edges_gives_product(self):
        g = CausalGraph.build([("u", 2), ("v", 3)], [])
        gates = {
            "u": cm.Gate((), (), np.array([0.3, 0.7])),
            "v": cm.Gate((), (), np.array([0.2, 0.5, 0.3])),
        }
        p = cm.evaluate(cm.ClassicalModel(g, {}, gates))
        np.testing.assert_allclose(p.table, np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))

    def test_shared_coin_hand_oracle(self, bell):
        p = cm.evaluate(shared_coin_model(bell))
        # hand enumeration over the coin: P(s,x,y,a,b) = 1/4 * 1/2 * [a==b]
        expected = np.zeros((1, 2, 2, 2, 2))
        for x, y, coin in itertools.product(range(2), repeat=3):
            expected[0, x, y, coin, coin] += 0.25 * 0.5
        np.testing.assert_allclose(p.table, expected, atol=1e-15)

    def test_triangle_xor_oracle(self, triangle):
        p = cm.evaluate(triangle_xor_model(triangle))
        # enumerate the 8 hidden-bit assignments by hand
        expected = np.zeros((2,) * 6)
        for bx, by, bz in itertools.product(range(2), repeat=3):
            # node order: x, y, z, a, b, c ; a sees y,z ; b sees x,z ; c sees x,y
            expected[bx, by, bz, by ^ bz, bx ^ bz, bx ^ by] += 1 / 8
        np.testing.assert_allclose(p.table, expected, atol=1e-15)
        for v in p.var_ids:
            np.testing.assert_allclose(dm.marginal(p, {v}).table, [0.5, 0.5], atol=1e-15)
        outcomes = dm.marginal(p, {"a", "b", "c"})
        parity_mass = sum(
            outcomes.table[a, b, c]
            for a, b, c in itertools.product(range(2), repeat=3)
            if a ^ b ^ c == 0
        )
        assert parity_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_elimination_matches_naive(self, seed):
        graphs = [bell_graph(), triangle_graph(), popescu_graph()]
        g = graphs[seed % 3]
        m = cm.random_model(g, 2, seed)
        a = cm.evaluate(m)
        b = evaluate_naive(m)
        assert np.abs(a.table - b.table).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_normalization(self, seed, popescu):
        p = cm.evaluate(cm.random_model(popescu, 3, seed))
        assert abs(p.table.sum() - 1.0) < 1e-10

    def test_invalid_model_rejected(self, bell):
        sizes = {e.id: 2 for e in bell.edges}
        gates = {v: uniform_gate(bell, sizes, v) for v in bell.nodes}
        gates["a"] = cm.Gate(gates["a"].in_edges, gates["a"].out_edges, gates["a"].tensor * 2)
        with pytest.raises(InvalidModel):
            cm.evaluate(cm.ClassicalModel(bell, sizes, gates))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gate_rejected(self, bell, bad):
        m = cm.random_model(bell, 2, 0)
        tensor = m.gates["a"].tensor.copy()
        tensor[(0,) * tensor.ndim] = bad
        m.gates["a"] = cm.Gate(m.gates["a"].in_edges, m.gates["a"].out_edges, tensor)
        assert any("non-finite" in v for v in cm.validate_model(m))
        for evaluate in (cm.evaluate, evaluate_naive):
            with pytest.raises(InvalidModel, match="non-finite"):
                evaluate(m)


class TestAncestralMarginal:
    def test_empty_set_is_scalar_one(self, bell):
        m = shared_coin_model(bell)
        p = cm.evaluate_marginal_ancestral(m, set())
        assert p.variables == ()
        assert float(p.table) == pytest.approx(1.0, abs=1e-15)

    def test_full_set_equals_evaluate(self, bell):
        m = shared_coin_model(bell)
        full = cm.evaluate(m)
        sub = cm.evaluate_marginal_ancestral(m, set(bell.nodes))
        np.testing.assert_allclose(sub.reorder(full.var_ids).table, full.table, atol=1e-15)

    def test_bell_settings_and_source(self, bell):
        m = shared_coin_model(bell)
        p = cm.evaluate_marginal_ancestral(m, {"x", "s"})
        expected = dm.marginal(cm.evaluate(m), {"x", "s"})
        np.testing.assert_allclose(
            p.reorder(expected.var_ids).table, expected.table, atol=1e-12
        )
        # product structure: P(s) x P(x)
        np.testing.assert_allclose(p.table.sum(axis=1), [1.0], atol=1e-12)

    def test_not_ancestral_rejected(self, bell):
        with pytest.raises(NotAncestral):
            cm.evaluate_marginal_ancestral(shared_coin_model(bell), {"a"})

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_marginal_of_full(self, seed, popescu):
        m = cm.random_model(popescu, 2, seed)
        full = cm.evaluate(m)
        for subset in ancestral_sets(popescu):
            sub = cm.evaluate_marginal_ancestral(m, subset)
            if not subset:
                assert float(sub.table) == pytest.approx(1.0, abs=1e-12)
                continue
            expected = dm.marginal(full, subset)
            assert (
                np.abs(sub.reorder(expected.var_ids).table - expected.table).max() < 1e-12
            )


class TestPushBackDeterminism:
    def test_bsc_chain_oracle(self):
        g = CausalGraph.build([("x", 2), ("a", 2)], [("x->a", "x", "a")])
        bsc = np.array([[0.75, 0.25], [0.25, 0.75]])
        m = cm.ClassicalModel(
            g,
            {"x->a": 2},
            {
                "x": cm.Gate((), ("x->a",), np.full((2, 2), 0.25)),
                "a": cm.Gate(("x->a",), (), bsc),
            },
        )
        pushed = cm.push_back_determinism(m)
        assert cm.validate_model(pushed) == []
        assert pushed.gates["a"].deterministic
        assert pushed.edge_alphabet["x->a"] == 8  # 2^2 functions x 2 original values
        before = cm.evaluate(m)
        after = cm.evaluate(pushed)
        assert np.abs(before.table - after.table).max() < 1e-12
        # independent 2x4-entry enumeration of the original model
        expected = np.zeros((2, 2))
        for o_x, lam in itertools.product(range(2), repeat=2):
            for o_a in range(2):
                expected[o_x, o_a] += 0.25 * bsc[lam, o_a]
        np.testing.assert_allclose(after.table, expected, atol=1e-12)

    def test_already_deterministic_untouched(self, bell):
        m = shared_coin_model(bell)
        pushed = cm.push_back_determinism(m)
        assert cm.validate_model(pushed) == []
        for v in ("a", "b"):
            assert pushed.gates[v].deterministic
        assert np.abs(cm.evaluate(m).table - cm.evaluate(pushed).table).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_models_preserved_and_deterministic(self, seed):
        # depth matters: alphabets grow doubly exponentially along chains
        chain3 = CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")]
        )
        graphs = [bell_graph(), triangle_graph(), chain3]
        g = graphs[seed % 3]
        m = cm.random_model(g, 2, seed)
        pushed = cm.push_back_determinism(m)
        assert cm.validate_model(pushed) == []
        for v in g.nodes:
            if g.in_edges(v):
                assert pushed.gates[v].deterministic
        assert np.abs(cm.evaluate(m).table - cm.evaluate(pushed).table).max() < 1e-12

    def test_blowup_guard(self, monkeypatch):
        g = CausalGraph.build(
            [("u", 2), ("w", 4)], [("e1", "u", "w"), ("e2", "u", "w"), ("e3", "u", "w")]
        )
        m = cm.random_model(g, 6, seed=0)
        monkeypatch.setattr(cm, "DEFAULT_MAX_PUSHBACK_ALPHABET", 1 << 10)
        with pytest.raises(SizeLimitExceeded):
            cm.push_back_determinism(m)


class TestLiftAndReroute:
    def test_lift_is_bit_exact(self):
        g = CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")]
        )
        m = cm.random_model(g, 2, seed=4)
        before = cm.evaluate(m)
        lifted = cm.lift_trivial_edge(m, "u", "w")
        assert cm.validate_model(lifted) == []
        assert lifted.edge_alphabet["u->w#lift"] == 1
        after = cm.evaluate(lifted)
        assert np.array_equal(before.table, after.table)

    def test_lift_cycle_rejected(self):
        g = CausalGraph.build([("u", 2), ("v", 2)], [("uv", "u", "v")])
        m = cm.random_model(g, 2, seed=0)
        with pytest.raises(WouldCreateCycle):
            cm.lift_trivial_edge(m, "v", "u")
        with pytest.raises(WouldCreateCycle):
            cm.lift_trivial_edge(m, "u", "u")

    def test_reroute_relay_of_broadcast_bit(self):
        # u sends a coin directly to w over u->w; w repeats it
        g = CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)],
            [("uv", "u", "v"), ("uw", "u", "w"), ("vw", "v", "w")],
        )
        tu = np.zeros((2, 1, 2))
        tu[0, 0, 0] = tu[1, 0, 1] = 0.5
        tw = np.zeros((2, 1, 2))
        tw[0, 0, 0] = tw[1, 0, 1] = 1.0
        m = cm.ClassicalModel(
            g,
            {"uv": 1, "uw": 2, "vw": 1},
            {
                "u": cm.Gate((), ("uv", "uw"), tu),
                "v": cm.Gate(("uv",), ("vw",), np.full((1, 2, 1), 0.5)),
                "w": cm.Gate(("uw", "vw"), (), tw),
            },
        )
        before = cm.evaluate(m)
        rerouted = cm.reroute_transitive_edge(m, "uw", "v")
        assert cm.validate_model(rerouted) == []
        assert set(e.id for e in rerouted.graph.edges) == {"uv", "vw"}
        assert rerouted.edge_alphabet == {"uv": 2, "vw": 2}
        after = cm.evaluate(rerouted)
        assert np.abs(before.table - after.table).max() < 1e-12
        # w still repeats u's coin exactly
        coupled = dm.marginal(after, {"u", "w"})
        assert coupled.table[0, 0] + coupled.table[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_trivial_reroute_restores_original_shape(self):
        g = CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")]
        )
        m = cm.random_model(g, 2, seed=9)
        lifted = cm.lift_trivial_edge(m, "u", "w")
        back = cm.reroute_transitive_edge(lifted, "u->w#lift", "v")
        assert back.edge_alphabet == {"uv": 2, "vw": 2}
        assert np.abs(cm.evaluate(m).table - cm.evaluate(back).table).max() < 1e-12

    def test_popescu_closure_edge_round_trips(self, popescu):
        m = cm.random_model(popescu, 2, seed=2)
        before = cm.evaluate(m)
        lifted = cm.lift_trivial_edge(m, "s", "a")
        relayed = cm.reroute_transitive_edge(lifted, "s->a#lift", "ap")
        assert np.abs(before.table - cm.evaluate(lifted).table).max() == 0.0
        assert np.abs(before.table - cm.evaluate(relayed).table).max() < 1e-12

    def test_missing_relay_rejected(self):
        g = CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)],
            [("uv", "u", "v"), ("uw", "u", "w")],
        )
        m = cm.random_model(g, 2, seed=0)
        with pytest.raises(MissingRelayPath):
            cm.reroute_transitive_edge(m, "uw", "v")

    def test_reroute_refuses_a_relay_gate_above_the_guard(self, monkeypatch):
        # gates of 128, 2 and 128 entries; the relay gate at v would have 2 * 64**2
        m = wide_transitive_chain()
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "1000")
        with pytest.raises(SizeLimitExceeded, match="relay gate of 8192 entries at 'v' exceeds the guard 1000"):
            cm.reroute_transitive_edge(m, "uw", "v")
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "8192")
        assert cm.reroute_transitive_edge(m, "uw", "v").gates["v"].tensor.size == 8192


def wide_transitive_chain():
    """The chain u->v->w with one-letter edges, and a 64-letter edge u->w."""
    g = CausalGraph.build([("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("uw", "u", "w"), ("vw", "v", "w")])
    return cm.random_model(g, {"uv": 1, "uw": 64, "vw": 1}, seed=0)


def rewrite_graphs(outcomes):
    """The figure graphs, the parallel-edge graph, and a graph whose edge ids
    spell the names a gate's outcome, function-table and relay axes might get."""
    spelled = CausalGraph.build(
        [("u", outcomes), ("v", outcomes), ("w", outcomes)],
        [("outcome", "u", "v"), ("out", "u", "v"), ("in", "v", "w"), ("f", "u", "w")],
    )
    return [*all_test_graphs(outcomes).values(), parallel_edge_graph(outcomes), spelled]


def assert_same_model(got, want):
    """Same graph, alphabet (in order), gate wiring, and gate tensors to the last bit."""
    for a, b in ((got.graph, want.graph), (got, want)):
        assert type(a) is type(b)
    assert (got.graph.nodes, got.graph.edges) == (want.graph.nodes, want.graph.edges)
    assert list(got.graph.outcomes.items()) == list(want.graph.outcomes.items())
    assert list(got.edge_alphabet.items()) == list(want.edge_alphabet.items())
    assert list(got.gates) == list(want.gates)
    for v, gate in got.gates.items():
        assert (gate.in_edges, gate.out_edges) == (want.gates[v].in_edges, want.gates[v].out_edges)
        assert_identical(gate.tensor, want.gates[v].tensor)


def same_as_oracle(rewrite, oracle, *args):
    """Both calls give identical models, or raise the same type with the same
    message; returns the model, or None on a refusal."""
    try:
        want = oracle(*args)
    except CausalCorrError as exc:
        with pytest.raises(CausalCorrError) as got:
            rewrite(*args)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return None
    got = rewrite(*args)
    assert_same_model(got, want)
    return got


def relay_paths(graph):
    """Every (u, v, w) with an edge u->v and an edge v->w, once each."""
    return sorted({(a.src, a.dst, b.dst) for a in graph.edges for b in graph.edges if a.dst == b.src})


class TestRewritesMatchOracles:
    """The labelled-axis rewrites give, byte for byte, what the index arithmetic gave."""

    @pytest.mark.parametrize("outcomes", [2, 3])
    @pytest.mark.parametrize("at", range(7))
    def test_push_back(self, outcomes, at, monkeypatch):
        g = rewrite_graphs(outcomes)[at]
        for alphabet, seed in itertools.product((1, 2, 3), range(3)):
            m = cm.random_model(g, alphabet, seed)
            for max_alphabet, max_states in ((1 << 20, None), (64, None), (1 << 20, 1 << 12)):
                with monkeypatch.context() as limits:
                    limits.setattr(cm, "DEFAULT_MAX_PUSHBACK_ALPHABET", max_alphabet)
                    limits.delenv("CC_MAX_STATE_SPACE", raising=False)
                    if max_states is not None:
                        limits.setenv("CC_MAX_STATE_SPACE", str(max_states))
                    same_as_oracle(cm.push_back_determinism, push_back_oracle, m)

    @pytest.mark.parametrize("at", range(7))
    def test_lift_then_reroute(self, at):
        g = rewrite_graphs(2)[at]
        for alphabet, seed in itertools.product((1, 2, 3), range(3)):
            m = cm.random_model(g, {e.id: 1 + (alphabet + i) % 3 for i, e in enumerate(g.edges)}, seed)
            for u, v, w in relay_paths(g):
                lifted = same_as_oracle(cm.lift_trivial_edge, lift_oracle, m, u, w)
                if lifted is not None:
                    same_as_oracle(cm.reroute_transitive_edge, reroute_oracle, lifted, f"{u}->{w}#lift", v)
            for e in g.edges:  # edges with a relay are rerouted; the rest are refused
                for via in g.nodes:
                    same_as_oracle(cm.reroute_transitive_edge, reroute_oracle, m, e.id, via)

    @pytest.mark.parametrize("at", range(7))
    def test_lift_refusals_and_named_ids(self, at):
        g = rewrite_graphs(2)[at]
        m = cm.random_model(g, 2, seed=at)
        for src, dst in itertools.product((*g.nodes, "nowhere"), repeat=2):
            same_as_oracle(cm.lift_trivial_edge, lift_oracle, m, src, dst)
        first = g.edges[0]
        for edge_id in (first.id, "outcome", "f", "in", "out"):
            same_as_oracle(cm.lift_trivial_edge, lift_oracle, m, first.src, first.dst, edge_id)

    def test_reroute_of_an_unknown_edge_refused_alike(self):
        m = cm.random_model(parallel_edge_graph(), 2, seed=0)
        same_as_oracle(cm.reroute_transitive_edge, reroute_oracle, m, "nowhere", "v")


class TestRandomModel:
    def test_deterministic_given_seed(self, bell):
        m1 = cm.random_model(bell, 2, seed=5)
        m2 = cm.random_model(bell, 2, seed=5)
        for v in bell.nodes:
            np.testing.assert_array_equal(m1.gates[v].tensor, m2.gates[v].tensor)

    def test_evaluate_passes_is_correlation(self, bell):
        for seed in range(5):
            m = cm.random_model(bell, 2, seed)
            assert is_correlation(bell, cm.evaluate(m), tol=1e-9).is_correlation

    def test_per_edge_sizes(self, bell):
        sizes = {"s->a": 3, "s->b": 2, "x->a": 1, "y->b": 2}
        m = cm.random_model(bell, sizes, seed=0)
        assert cm.validate_model(m) == []
        assert m.edge_alphabet == sizes


class TestModelJson:
    def test_round_trip(self, bell):
        import json

        m = cm.random_model(bell, 2, seed=8)
        data = json.loads(json.dumps(cm.model_to_dict(m)))
        again = cm.model_from_dict(data)
        assert cm.validate_model(again) == []
        np.testing.assert_array_equal(cm.evaluate(m).table, cm.evaluate(again).table)

    @pytest.mark.parametrize("field", ["edge_sizes", "gates"])
    def test_entry_naming_no_edge_or_node_rejected(self, bell, field):
        data = cm.model_to_dict(cm.random_model(bell, 2, seed=8))
        data[field]["ghost"] = 2 if field == "edge_sizes" else data["gates"]["a"]
        with pytest.raises(SchemaError, match="ghost"):
            cm.model_from_dict(data)

    def test_gate_wired_to_unknown_edge_rejected(self, bell):
        data = cm.model_to_dict(cm.random_model(bell, 2, seed=8))
        data["gates"]["a"]["in"] = ["nope", "x->a"]
        with pytest.raises(SchemaError, match="nope"):
            cm.model_from_dict(data)
