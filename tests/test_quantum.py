import itertools

import numpy as np
import pytest

from causalcorr import classical as cm
from causalcorr import quantum as qm
from causalcorr.correlation import is_correlation
from causalcorr import hbn as hm
from causalcorr.errors import InvalidModel, SchemaError, SizeLimitExceeded
from causalcorr.graph import CausalGraph

from conftest import (
    all_test_graphs,
    all_topological_orders,
    assert_identical,
    bell_graph,
    bilocality_graph,
    parallel_edge_graph,
    popescu_graph,
    triangle_graph,
)
from test_classical import shared_coin_model, triangle_xor_model


def ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


def source_then_measure(state, effects):
    """One emitter feeding one measurement node over a single wire."""
    d = len(state)
    g = CausalGraph.build(
        [("src", 1), ("meas", len(effects))], [("w", "src", "meas")]
    )
    src = qm.Instrument(((state.reshape(-1, 1),),))
    comps = []
    for e in effects:
        w, u = np.linalg.eigh(e)
        ops = tuple(
            np.sqrt(w[j]) * u[:, j].conj().reshape(1, -1) for j in range(d) if w[j] > 1e-14
        )
        comps.append(ops)
    meas = qm.Instrument(tuple(comps))
    return qm.QuantumModel(g, {"w": d}, {"src": src, "meas": meas})


class TestValidateModel:
    def test_identity_channel_relay(self):
        g = CausalGraph.build(
            [("src", 1), ("relay", 1), ("sink", 2)],
            [("w1", "src", "relay"), ("w2", "relay", "sink")],
        )
        model = qm.QuantumModel(
            g,
            {"w1": 2, "w2": 2},
            {
                "src": qm.Instrument(((ket(1, 1).reshape(-1, 1),),)),
                "relay": qm.Instrument(((np.eye(2, dtype=complex),),)),
                "sink": qm.Instrument(
                    (
                        (np.array([[1, 0]], dtype=complex),),
                        (np.array([[0, 1]], dtype=complex),),
                    )
                ),
            },
        )
        assert qm.validate_model(model) == []
        p = qm.evaluate(model)
        np.testing.assert_allclose(p.table.ravel(), [0.5, 0.5], atol=1e-12)

    def test_povm_completeness_ok(self):
        model = source_then_measure(ket(1, 0), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert qm.validate_model(model) == []

    def test_inflated_effects_flagged(self):
        model = source_then_measure(ket(1, 0), [np.diag([1.0, 0.0]), np.diag([0.1, 1.0])])
        violations = qm.validate_model(model)
        assert any("completeness" in v for v in violations)
        assert qm.completeness_deviation(model, "meas") == pytest.approx(0.1, abs=1e-12)

    def test_first_misshapen_kraus_operator_reported_once(self, bell):
        model = qm.random_model(bell, 2, seed=0)
        components = [list(ops) for ops in model.instruments["a"].components]
        components[1][0] = np.zeros((1, 3))
        components[1].append(np.zeros((2, 2)))
        model.instruments["a"] = qm.Instrument(tuple(tuple(ops) for ops in components))
        assert qm.validate_model(model) == ["node 'a': Kraus operator shape (1, 3), expected (1, 4)"]
        with pytest.raises(InvalidModel, match="Kraus operator shape"):
            qm.evaluate(model)

    @pytest.mark.parametrize("dim", [None, 0])
    def test_bad_edge_dimension_is_invalid_model(self, bell, dim):
        model = qm.random_model(bell, 2, seed=0)
        edge_dim = dict(model.edge_dim)
        if dim is None:
            del edge_dim["s->a"]
        else:
            edge_dim["s->a"] = dim
        broken = qm.QuantumModel(model.graph, edge_dim, model.instruments)
        violations = qm.validate_model(broken)
        assert violations == [
            "edge 's->a': missing dimension" if dim is None else "edge 's->a': dimension 0 < 1"
        ]
        with pytest.raises(InvalidModel, match="s->a"):
            qm.evaluate(broken)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_kraus_operators_are_invalid_model(self, bell, entry):
        # a NaN completeness deviation is a violation, not a pass
        model = qm.random_model(bell, 2, seed=0)
        components = tuple(tuple(np.full_like(k, entry) for k in ops) for ops in model.instruments["s"].components)
        model.instruments["s"] = qm.Instrument(components)
        assert [v for v in qm.validate_model(model) if "completeness" in v][0].startswith("node 's'")
        with pytest.raises(InvalidModel, match="node 's'"):
            qm.evaluate(model)


class TestEvaluate:
    def test_orthogonal_state_measurement(self):
        model = source_then_measure(ket(1, 0), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        p = qm.evaluate(model)
        np.testing.assert_allclose(p.table, [[1.0, 0.0]], atol=1e-12)

    def test_plus_state_unbiased(self):
        model = source_then_measure(ket(1, 1), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        p = qm.evaluate(model)
        np.testing.assert_allclose(p.table, [[0.5, 0.5]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models_normalized_correlations(self, seed):
        graphs = [bell_graph(), triangle_graph(), popescu_graph()]
        g = graphs[seed % 3]
        model = qm.random_model(g, 2, seed)
        assert qm.validate_model(model) == []
        p = qm.evaluate(model)
        assert abs(p.table.sum() - 1.0) < 1e-9
        assert is_correlation(g, p, tol=1e-8).is_correlation

    @pytest.mark.parametrize("seed", range(3))
    def test_order_invariance(self, seed, bell):
        model = qm.random_model(bell, 2, seed)
        orders = all_topological_orders(bell, limit=5)
        tables = [qm.evaluate(model, order=o).table for o in orders]
        for t in tables[1:]:
            assert np.abs(t - tables[0]).max() < 1e-10

    def test_in_edge_relabelling_with_swap_conjugation(self):
        # same physics, edge ids renamed so the in-edge ordering at the
        # measurement node flips; Kraus operators absorb the subsystem swap
        rng = np.random.default_rng(7)

        def emitter(dim, seed):
            r = np.random.default_rng(seed)
            v = r.normal(size=dim) + 1j * r.normal(size=dim)
            return (v / np.linalg.norm(v)).reshape(-1, 1)

        d1, d2 = 2, 3
        swap = np.zeros((d1 * d2, d2 * d1))
        for i in range(d1):
            for j in range(d2):
                swap[i * d2 + j, j * d1 + i] = 1.0

        povm_effects = []
        acc = np.zeros((d1 * d2, d1 * d2), dtype=complex)
        for k in range(2):
            h = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
            e = h @ h.conj().T
            povm_effects.append(e)
            acc += e
        # normalize into a proper two-outcome POVM
        scale = np.linalg.inv(np.linalg.cholesky(acc))
        povm_effects = [scale @ e @ scale.conj().T for e in povm_effects]

        def kraus_of(effect):
            w, u = np.linalg.eigh(effect)
            return tuple(
                np.sqrt(wj) * u[:, j].conj().reshape(1, -1)
                for j, wj in enumerate(w)
                if wj > 1e-14
            )

        ga = CausalGraph.build(
            [("r1", 1), ("r2", 1), ("m", 2)], [("e1", "r1", "m"), ("e2", "r2", "m")]
        )
        ma = qm.QuantumModel(
            ga,
            {"e1": d1, "e2": d2},
            {
                "r1": qm.Instrument(((emitter(d1, 1),),)),
                "r2": qm.Instrument(((emitter(d2, 2),),)),
                "m": qm.Instrument(tuple(kraus_of(e) for e in povm_effects)),
            },
        )
        gb = CausalGraph.build(
            [("r1", 1), ("r2", 1), ("m", 2)], [("f2", "r1", "m"), ("f1", "r2", "m")]
        )
        mb = qm.QuantumModel(
            gb,
            {"f2": d1, "f1": d2},
            {
                "r1": qm.Instrument(((emitter(d1, 1),),)),
                "r2": qm.Instrument(((emitter(d2, 2),),)),
                "m": qm.Instrument(
                    tuple(tuple(k @ swap for k in kraus_of(e)) for e in povm_effects)
                ),
            },
        )
        assert qm.validate_model(ma) == []
        assert qm.validate_model(mb) == []
        pa = qm.evaluate(ma)
        pb = qm.evaluate(mb)
        assert np.abs(pa.table - pb.table).max() < 1e-10

    def test_broken_instrument_flagged(self):
        model = source_then_measure(ket(1, 0), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        bad = qm.QuantumModel(
            model.graph,
            model.edge_dim,
            {
                "src": model.instruments["src"],
                "meas": qm.Instrument(
                    (model.instruments["meas"].components[0], tuple())
                ),
            },
        )
        with pytest.raises(InvalidModel):
            qm.evaluate(bad)


def transfer_matrix_probability(model, outcome_of):
    """Independent oracle: one flat einsum over vectorized instrument components.

    Each component becomes the superoperator sum of K (x) conj(K), carrying a
    ket and a bra index per edge; no density matrix is ever materialized, so
    this shares nothing with the sequential contraction path.
    """
    graph = model.graph
    index = {}
    counter = 0
    for e in graph.edges:
        index[e.id] = (counter, counter + 1)  # ket, bra
        counter += 2
    args = []
    for v in graph.nodes:
        ops = model.instruments[v].components[outcome_of[v]]
        in_ids = sorted(e.id for e in graph.in_edges(v))
        out_ids = sorted(e.id for e in graph.out_edges(v))
        in_dims = tuple(model.edge_dim[e] for e in in_ids)
        out_dims = tuple(model.edge_dim[e] for e in out_ids)
        din = int(np.prod(in_dims)) if in_dims else 1
        dout = int(np.prod(out_dims)) if out_dims else 1
        t = np.zeros((dout, dout, din, din), dtype=complex)
        for k in ops:
            t += np.einsum("oi,pj->opij", k, k.conj())
        t = t.reshape(out_dims + out_dims + in_dims + in_dims)
        subs = (
            [index[e][0] for e in out_ids]
            + [index[e][1] for e in out_ids]
            + [index[e][0] for e in in_ids]
            + [index[e][1] for e in in_ids]
        )
        args.append(t)
        args.append(subs)
    args.append([])
    return complex(np.einsum(*args, optimize="greedy"))


def sequential_probability(model, order, outcome_of) -> complex:
    """Independent oracle: the value of the diagram with each node fixed to one
    instrument component, contracted one node at a time along ``order``.

    A density operator on the open edges is carried from node to node; open
    edges are kept sorted by edge id, so the result does not depend on the
    order.
    """
    open_ids: list[str] = []
    dims: list[int] = []
    rho = np.ones((1, 1), dtype=complex)
    for v in order:
        ops = model.instruments[v].components[outcome_of[v]]
        in_ids = sorted(e.id for e in model.graph.in_edges(v))
        out_ids = sorted(e.id for e in model.graph.out_edges(v))
        in_set = set(in_ids)
        rest_axes = [i for i, e in enumerate(open_ids) if e not in in_set]
        in_axes = [open_ids.index(e) for e in in_ids]
        k = len(open_ids)
        tens = rho.reshape(tuple(dims) * 2)
        perm = rest_axes + in_axes
        tens = tens.transpose(perm + [k + i for i in perm])
        r_dim = int(np.prod([dims[i] for i in rest_axes]))
        din = int(np.prod([dims[i] for i in in_axes]))
        dout = int(np.prod([model.edge_dim[e] for e in out_ids]))
        block = tens.reshape(r_dim, din, r_dim, din)
        new = np.zeros((r_dim, dout, r_dim, dout), dtype=complex)
        for kr in ops:
            new += np.einsum("oi,aibj,pj->aobp", kr, block, kr.conj())
        unsorted_ids = [open_ids[i] for i in rest_axes] + out_ids
        unsorted_dims = [dims[i] for i in rest_axes] + [model.edge_dim[e] for e in out_ids]
        tens = new.reshape(tuple(unsorted_dims) * 2)
        sort_perm = sorted(range(len(unsorted_ids)), key=lambda i: unsorted_ids[i])
        kk = len(unsorted_ids)
        tens = tens.transpose(sort_perm + [kk + i for i in sort_perm])
        open_ids = [unsorted_ids[i] for i in sort_perm]
        dims = [unsorted_dims[i] for i in sort_perm]
        d = int(np.prod(dims))
        rho = tens.reshape(d, d)
    return complex(rho[0, 0])


class TestSequentialOracle:
    @pytest.mark.parametrize("outcomes", (2, 3))
    @pytest.mark.parametrize("name", sorted(all_test_graphs()))
    def test_matches_per_outcome_contraction_along_orders(self, name, outcomes):
        g = all_test_graphs(outcomes)[name]
        rng = np.random.default_rng(outcomes * 100 + len(g.edges))
        dims = {e.id: int(rng.integers(1, 4)) for e in g.edges}
        model = qm.random_model(g, dims, seed=outcomes)
        orders = all_topological_orders(g, limit=3)
        assert len(orders) == 3
        for order in orders:
            joint = qm.evaluate(model, order=order)
            assert abs(joint.table.sum() - 1.0) < 1e-9
            for _ in range(6):
                outcome = tuple(int(rng.integers(0, k)) for k in joint.sizes)
                expected = sequential_probability(model, order, dict(zip(g.nodes, outcome)))
                assert abs(expected.imag) < 1e-10
                assert joint.table[outcome] == pytest.approx(expected.real, abs=1e-10)

    def test_bilocality_dimension_three(self):
        g = bilocality_graph()
        model = qm.random_model(g, 3, seed=9)
        joint = qm.evaluate(model)
        assert abs(joint.table.sum() - 1.0) < 1e-9
        rng = np.random.default_rng(9)
        for _ in range(8):
            outcome = tuple(int(rng.integers(0, k)) for k in joint.sizes)
            expected = transfer_matrix_probability(model, dict(zip(g.nodes, outcome)))
            assert joint.table[outcome] == pytest.approx(expected.real, abs=1e-10)


class TestSizeGuard:
    @pytest.mark.parametrize(
        "evaluate, make",
        [(qm.evaluate, qm.random_model), (cm.evaluate, cm.random_model), (hm.evaluate, hm.random_hbn)],
    )
    def test_table_above_guard_refused(self, bell, evaluate, make):
        with pytest.raises(SizeLimitExceeded):
            evaluate(make(bell, 2, 0), max_states=8)  # the table has 16 entries

    def test_intermediate_above_guard_refused(self, triangle):
        m = cm.random_model(triangle, 3, seed=0)
        assert max(g.tensor.size for g in m.gates.values()) <= 64
        with pytest.raises(SizeLimitExceeded):
            cm.evaluate(m, max_states=64)  # the table has 64 entries, one intermediate 72
        assert cm.evaluate(m, max_states=72).table.size == 64

    def test_more_indices_than_einsum_letters_evaluate(self):
        # a 30-node chain of binary edges: 30 outcome and 29 hidden indices
        # classically, 30 + 2 x 29 quantumly; each step spans only a few
        nodes = [(f"n{i:02d}", 2 if i in (0, 29) else 1) for i in range(30)]
        g = CausalGraph.build(nodes, [(f"e{i:02d}", f"n{i:02d}", f"n{i + 1:02d}") for i in range(29)])
        m = cm.random_model(g, 2, seed=0)
        gates = [m.gates[v].tensor for v, _ in nodes]
        transfer = gates[0]  # (first outcome, hidden value), then one edge per matrix
        for t in gates[1:-1]:
            transfer = transfer @ t[:, 0, :]
        expected = transfer @ gates[-1]
        table = cm.evaluate(m).table
        assert table.shape == (2,) + (1,) * 28 + (2,)
        assert np.abs(table.reshape(2, 2) - expected).max() < 1e-12
        q = qm.decohere_embed(m)
        assert np.abs(qm.evaluate(q).table - table).max() < 1e-10

    @pytest.mark.parametrize("n", [53, 65])
    def test_output_with_more_axes_than_einsum_refused(self, n):
        # one-outcome nodes: the table has one entry but n axes, more than
        # one einsum call can write (and, at 65, than a numpy array can have)
        g = CausalGraph.build([(f"n{i:02d}", 1) for i in range(n)], [])
        with pytest.raises(SizeLimitExceeded, match="52"):
            cm.evaluate(cm.random_model(g, 2, seed=0))

    def test_large_alphabet_product_with_small_contraction_accepted(self):
        from conftest import sequential_graph

        g = sequential_graph(3)
        m = cm.random_model(g, 3, seed=1)  # 3^9 outcomes x 3^8 hidden values
        assert abs(cm.evaluate(m).table.sum() - 1.0) < 1e-9
        g = popescu_graph(3)
        m = cm.random_model(g, 3, seed=2)
        back = hm.to_classical(hm.from_classical(m))
        assert np.abs(cm.evaluate(back).table - cm.evaluate(m).table).max() < 1e-12


class TestTransferMatrixOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_contraction_matches_flat_superoperator_einsum(self, seed):
        from conftest import all_test_graphs

        graphs = all_test_graphs()
        names = sorted(graphs)
        g = graphs[names[seed % len(names)]]
        model = qm.random_model(g, 2, seed)
        joint = qm.evaluate(model)
        for outcome in np.ndindex(*joint.sizes):
            expected = transfer_matrix_probability(model, dict(zip(g.nodes, outcome)))
            assert abs(expected.imag) < 1e-10
            assert joint.table[outcome] == pytest.approx(expected.real, abs=1e-10)


def decohere_components_loop(cmodel):
    """Per node, the Kraus lists of each outcome, one operator per positive gate entry in a loop."""
    components = {}
    for v in cmodel.graph.nodes:
        gate = cmodel.gates[v]
        n_in = len(gate.in_edges)
        din = int(np.prod(gate.tensor.shape[:n_in], dtype=np.int64))
        n_o = cmodel.graph.outcomes[v]
        dout = int(np.prod(gate.tensor.shape[n_in + 1 :], dtype=np.int64))
        rows = gate.tensor.reshape(din, n_o, dout)
        by_outcome = []
        for o in range(n_o):
            ops = []
            for lam_in in range(din):
                for lam_out in range(dout):
                    g = rows[lam_in, o, lam_out]
                    if g > 0.0:
                        k = np.zeros((dout, din), dtype=complex)
                        k[lam_out, lam_in] = np.sqrt(g)
                        ops.append(k)
            by_outcome.append(ops)
        components[v] = by_outcome
    return components


class TestDecohereEmbed:
    @pytest.mark.parametrize("outcomes", [2, 3])
    @pytest.mark.parametrize("at", range(6))
    def test_kraus_lists_match_loop(self, outcomes, at):
        g = [*all_test_graphs(outcomes).values(), parallel_edge_graph(outcomes)][at]
        for alphabet, seed in itertools.product((1, 2, 3), range(4)):
            # dense gates, and the sparse diagonal gates of an unpacked hidden Bayesian network
            for m in (cm.random_model(g, alphabet, seed), hm.to_classical(hm.random_hbn(g, alphabet, seed))):
                q = qm.decohere_embed(m)
                for v, by_outcome in decohere_components_loop(m).items():
                    components = q.instruments[v].components
                    assert [len(ops) for ops in components] == [len(ops) for ops in by_outcome]
                    for ops, expected in zip(components, by_outcome):
                        for k, k_expected in zip(ops, expected):
                            assert_identical(k, k_expected)

    def test_deterministic_copy_gate_partial_isometries(self):
        g = CausalGraph.build([("u", 2), ("v", 2)], [("uv", "u", "v")])
        t = np.zeros((2, 2))  # o[u] = lambda, uniform
        t_u = np.zeros((2, 2))
        t_u[0, 0] = t_u[1, 1] = 0.5
        copy = np.zeros((2, 2))
        copy[0, 0] = copy[1, 1] = 1.0
        m = cm.ClassicalModel(
            g,
            {"uv": 2},
            {"u": cm.Gate((), ("uv",), t_u), "v": cm.Gate(("uv",), (), copy)},
        )
        q = qm.decohere_embed(m)
        assert qm.validate_model(q) == []
        for ops in q.instruments["v"].components:
            for k in ops:
                assert set(np.unique(np.abs(k))) <= {0.0, 1.0}

    def test_shared_coin_matches_classical(self, bell):
        m = shared_coin_model(bell)
        q = qm.decohere_embed(m)
        assert qm.validate_model(q) == []
        dev = np.abs(qm.evaluate(q).table - cm.evaluate(m).table).max()
        assert dev < 1e-10

    def test_triangle_xor_matches_classical(self, triangle):
        m = triangle_xor_model(triangle)
        q = qm.decohere_embed(m)
        dev = np.abs(qm.evaluate(q).table - cm.evaluate(m).table).max()
        assert dev < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models_match_classical(self, seed, bell):
        m = cm.random_model(bell, 2, seed)
        q = qm.decohere_embed(m)
        assert qm.validate_model(q) == []
        dev = np.abs(qm.evaluate(q).table - cm.evaluate(m).table).max()
        assert dev < 1e-10

    def test_kraus_stack_past_the_guard_refused(self, monkeypatch):
        # the middle gate of a 16-letter chain has 512 entries, all positive,
        # and so 512 Kraus operators of 16 x 16 entries: 131,072 in all
        g = CausalGraph.build([("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")])
        m = cm.random_model(g, 16, seed=0)
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "131072")
        assert qm.validate_model(qm.decohere_embed(m)) == []
        for guard in ("131071", "10000"):
            monkeypatch.setenv("CC_MAX_STATE_SPACE", guard)
            with pytest.raises(SizeLimitExceeded, match=f"Kraus operators of node 'v' exceed the guard {guard}"):
                qm.decohere_embed(m)


class TestQuantumJson:
    def test_round_trip(self, bell):
        import json

        model = qm.random_model(bell, 2, seed=3)
        data = json.loads(json.dumps(qm.model_to_dict(model)))
        again = qm.model_from_dict(data)
        assert qm.validate_model(again) == []
        np.testing.assert_array_equal(
            qm.evaluate(model).table, qm.evaluate(again).table
        )

    def test_unknown_outcome_key_rejected(self, bell):
        data = qm.model_to_dict(qm.random_model(bell, 2, seed=3))
        data["instruments"]["a"]["7"] = data["instruments"]["a"]["0"]
        with pytest.raises(SchemaError):
            qm.model_from_dict(data)

    def test_unknown_instrument_node_rejected(self, bell):
        data = qm.model_to_dict(qm.random_model(bell, 2, seed=3))
        data["instruments"]["ghost"] = data["instruments"]["a"]
        with pytest.raises(SchemaError):
            qm.model_from_dict(data)

    def test_edge_dim_naming_no_edge_rejected(self, bell):
        data = qm.model_to_dict(qm.random_model(bell, 2, seed=3))
        data["edge_dims"]["ghost"] = 2
        with pytest.raises(SchemaError, match="ghost"):
            qm.model_from_dict(data)
