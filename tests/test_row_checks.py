"""Batched row checks and kept structures of the model validators.

``classical.validate_model`` and ``hbn.validate`` sum the rows of a model's
tables once per row length over the whole model; these tests hold their
violation lists to those of the gate-by-gate and table-by-table oracles in
``conftest``, byte for byte, on valid and broken models.  All three
validators keep their structural verdicts per key; the tests at the end
check that a kept verdict never hides a change, cold, warm and across
threads, and that sizes that are no integers are named violations.
"""

import re
import sys
import threading

import numpy as np
import pytest

from causalcorr import classical as cm
from causalcorr import graph as gm
from causalcorr import hbn as hm
from causalcorr import quantum as qm
from causalcorr._config import BoundedCache
from causalcorr.errors import InvalidModel
from causalcorr.graph import CausalGraph

from conftest import all_test_graphs, hbn_validate_loop, triangle_graph, validate_model_loop

FAMILY_MODELS = [(name, sizes) for name in all_test_graphs() for sizes in (1, 2, 3)]


def dag_model(seed: int, n: int) -> cm.ClassicalModel:
    """Binary sparse DAG of ``n`` nodes, each past the first with one or two parents, edge alphabets 1 or 2."""
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(n)]
    edges = set()
    for j in range(1, n):
        for i in rng.choice(j, size=min(j, int(rng.integers(1, 3))), replace=False):
            edges.add((nodes[int(i)], nodes[j]))
    g = CausalGraph.build([(v, 2) for v in nodes], [(f"{u}->{w}", u, w) for u, w in sorted(edges)])
    sizes = {e.id: int(rng.integers(1, 3)) for e in g.edges}
    return cm.random_model(g, sizes, seed)


def valid_models() -> list[cm.ClassicalModel]:
    graphs = all_test_graphs()
    models = [cm.random_model(graphs[name], sizes, seed) for seed, (name, sizes) in enumerate(FAMILY_MODELS)]
    models += [dag_model(seed, n) for seed, n in enumerate((10, 11, 12, 13, 14, 12))]
    for seed, name in enumerate(("bell", "triangle", "bilocality")):
        models.append(cm.push_back_determinism(cm.random_model(graphs[name], 2, seed)))
    g = CausalGraph.build([("u", 2), ("v", 3), ("w", 2)], [("uv", "u", "v"), ("uw", "u", "w"), ("vw", "v", "w")])
    lifted = cm.lift_trivial_edge(cm.random_model(triangle_graph(), 2, 5), "x", "a")
    models += [lifted, cm.reroute_transitive_edge(cm.random_model(g, {"uv": 2, "uw": 3, "vw": 2}, 6), "uw", "v")]
    return models


def with_gate(model, v, tensor=None, **changes) -> cm.ClassicalModel:
    gates = dict(model.gates)
    gate = gates[v]
    gates[v] = cm.Gate(changes.get("in_edges", gate.in_edges), changes.get("out_edges", gate.out_edges),
                       gate.tensor if tensor is None else tensor)
    return cm.ClassicalModel(model.graph, dict(model.edge_alphabet), gates)


def corrupt(tensor: np.ndarray, lead: int, kind: str) -> np.ndarray:
    """A copy of ``tensor`` with the first entry of its first row changed."""
    t = np.array(tensor, dtype=float)
    rows = t.reshape(int(np.prod(t.shape[:lead], dtype=int)), -1)
    rows[0, 0] = {
        "negative": -0.25,
        "nan": np.nan,
        "inf": np.inf,
        "-inf": -np.inf,
        "off by 0.9e-12": rows[0, 0] + 0.9e-12,
        "off by 1.1e-12": rows[0, 0] + 1.1e-12,
    }[kind]
    return t


ENTRY_FAULTS = ("negative", "nan", "inf", "-inf", "off by 0.9e-12", "off by 1.1e-12")


def as_fortran(tensor):
    return np.asfortranarray(tensor)


def as_transposed_view(tensor):
    """The same tensor read through a view of a C-ordered copy with its axes reversed."""
    return np.ascontiguousarray(tensor.T).T


class TestClassicalParity:
    @pytest.mark.parametrize("index", range(len(valid_models())))
    def test_valid_models_validate_to_nothing(self, index):
        model = valid_models()[index]
        assert cm.validate_model(model) == validate_model_loop(model) == []

    @pytest.mark.parametrize("kind", ENTRY_FAULTS)
    @pytest.mark.parametrize("seed, n", [(0, 10), (1, 12), (2, 14)])
    def test_each_gate_broken_alone(self, kind, seed, n):
        # every node in turn, so a row-length group left unchecked shows
        model = dag_model(seed, n)
        for v in model.graph.nodes:
            gate = model.gates[v]
            broken = with_gate(model, v, corrupt(gate.tensor, len(gate.in_edges), kind))
            assert cm.validate_model(broken) == validate_model_loop(broken)

    @pytest.mark.parametrize("kind", ENTRY_FAULTS)
    def test_entry_faults_are_reported(self, kind):
        model = cm.random_model(triangle_graph(), 2, 1)
        gate = model.gates["a"]
        violations = cm.validate_model(with_gate(model, "a", corrupt(gate.tensor, 2, kind)))
        expected = {
            "negative": ["node 'a': negative gate entry -0.25", "node 'a': gate rows deviate"],
            "nan": ["node 'a': non-finite gate entry"],
            "inf": ["node 'a': non-finite gate entry"],
            "-inf": ["node 'a': negative gate entry -inf", "node 'a': non-finite gate entry"],
            "off by 0.9e-12": [],
            "off by 1.1e-12": ["node 'a': gate rows deviate from 1 by 1.1"],
        }[kind]
        assert len(violations) == len(expected)
        assert all(v.startswith(e) for v, e in zip(violations, expected))

    def test_many_faults_interleave_in_node_order(self):
        model = dag_model(3, 12)
        nodes = model.graph.nodes
        broken = model
        for i, v in enumerate(nodes[1:]):
            gate = broken.gates[v]
            step = i % 5
            if step == 0:
                broken = with_gate(broken, v, corrupt(gate.tensor, len(gate.in_edges), ENTRY_FAULTS[i % 6]))
            elif step == 1:
                broken = with_gate(broken, v, gate.tensor[..., None])
            elif step == 2:
                broken = with_gate(broken, v, in_edges=gate.out_edges, out_edges=gate.in_edges)
            elif step == 3:
                del broken.gates[v]
        violations = cm.validate_model(broken)
        assert violations == validate_model_loop(broken)
        assert len(violations) >= len(nodes) // 2

    def test_structural_faults(self):
        model = cm.random_model(triangle_graph(), 2, 2)
        cases = []
        gates = dict(model.gates)
        del gates["b"]
        cases.append(cm.ClassicalModel(model.graph, dict(model.edge_alphabet), gates))
        gate = model.gates["c"]
        cases.append(with_gate(model, "c", in_edges=gate.in_edges[::-1]))
        cases.append(with_gate(model, "a", model.gates["a"].tensor[..., None]))
        sizes = dict(model.edge_alphabet)
        sizes["x->b"] = 0
        cases.append(cm.ClassicalModel(model.graph, sizes, dict(model.gates)))
        sizes = dict(model.edge_alphabet)
        del sizes["x->b"]
        cases.append(cm.ClassicalModel(model.graph, sizes, dict(model.gates)))
        zero = CausalGraph(model.graph.nodes, model.graph.edges, {**model.graph.outcomes, "z": 0})
        gate = model.gates["z"]
        cases.append(cm.ClassicalModel(zero, dict(model.edge_alphabet),
                                       {**model.gates, "z": cm.Gate((), gate.out_edges, np.zeros((0, 2, 2)))}))
        for broken in cases:
            violations = cm.validate_model(broken)
            assert violations and violations == validate_model_loop(broken)
        assert "node 'z': gate rows deviate from 1 by 1.0" in cm.validate_model(cases[-1])

    def test_zero_incoming_alphabet_leaves_no_rows_to_check(self):
        # the gate-by-gate loop raises TypeError on a gate of no rows
        g = CausalGraph.build([("a", 2), ("b", 2)], [("a->b", "a", "b")])
        gates = {"a": cm.Gate((), ("a->b",), np.zeros((2, 0))), "b": cm.Gate(("a->b",), (), np.zeros((0, 2)))}
        model = cm.ClassicalModel(g, {"a->b": 0}, gates)
        assert cm.validate_model(model) == [
            "edge 'a->b': hidden alphabet size 0 < 1",
            "node 'a': gate rows deviate from 1 by 1.0",
        ]
        with pytest.raises(TypeError):
            validate_model_loop(model)

    def test_opposite_infinities_in_one_row_raise_no_warning(self):
        model = cm.random_model(triangle_graph(), 2, 3)
        t = model.gates["x"].tensor.copy()
        t[0, 0], t[0, 1] = np.inf, -np.inf
        broken = with_gate(model, "x", t)
        violations = cm.validate_model(broken)  # a RuntimeWarning would fail the test
        assert violations == ["node 'x': negative gate entry -inf", "node 'x': non-finite gate entry"]
        with np.errstate(invalid="ignore"):
            assert violations == validate_model_loop(broken)

    def test_every_call_checks_again(self):
        model = dag_model(4, 10)
        assert cm.validate_model(model) == []
        model.gates["n5"].tensor.flat[0] = np.nan
        assert cm.validate_model(model) == ["node 'n5': non-finite gate entry"]

    @pytest.mark.parametrize("layout", [as_fortran, as_transposed_view])
    @pytest.mark.parametrize("kind", [None, "negative", "nan", "off by 0.9e-12", "off by 1.1e-12"])
    def test_other_memory_orders_get_the_same_verdicts(self, layout, kind):
        for model in (dag_model(5, 12), cm.random_model(all_test_graphs()["bilocality"], 3, 7)):
            if kind is not None:
                for v in model.graph.nodes[::3]:
                    gate = model.gates[v]
                    model = with_gate(model, v, corrupt(gate.tensor, len(gate.in_edges), kind))
            laid = cm.ClassicalModel(model.graph, model.edge_alphabet,
                                     {v: cm.Gate(g.in_edges, g.out_edges, layout(g.tensor))
                                      for v, g in model.gates.items()})
            # the deviation digits may differ in the last places: compare the messages up to them
            verdict = [s.split(" by ")[0] for s in cm.validate_model(laid)]
            assert verdict == [s.split(" by ")[0] for s in validate_model_loop(laid)]
            assert verdict == [s.split(" by ")[0] for s in cm.validate_model(model)]


def hbn_with(net, which, v, table) -> hm.HiddenBayesNet:
    tables = {"transitions": dict(net.transitions), "readouts": dict(net.readouts)}
    if table is None:
        del tables[which][v]
    else:
        tables[which][v] = table
    return hm.HiddenBayesNet(net.graph, dict(net.node_alphabet), tables["transitions"], tables["readouts"])


def valid_nets() -> list[hm.HiddenBayesNet]:
    graphs = all_test_graphs()
    nets = [hm.random_hbn(graphs[name], sizes, seed) for seed, (name, sizes) in enumerate(FAMILY_MODELS)]
    nets += [hm.from_classical(dag_model(seed, n)) for seed, n in enumerate((10, 12, 14))]
    nets += [hm.from_classical(cm.random_model(g, 2, 8)) for g in graphs.values()]
    return nets


class TestHBNParity:
    @pytest.mark.parametrize("index", range(len(valid_nets())))
    def test_valid_networks_validate_to_nothing(self, index):
        net = valid_nets()[index]
        assert hm.validate(net) == hbn_validate_loop(net) == []
        if len(net.graph.nodes) < 10:  # to_classical's gates grow as a state to its out-degree
            back = hm.to_classical(net)
            assert cm.validate_model(back) == validate_model_loop(back) == []

    @pytest.mark.parametrize("kind", ENTRY_FAULTS)
    @pytest.mark.parametrize("which", ["transitions", "readouts"])
    def test_each_table_broken_alone(self, kind, which):
        for net in (hm.from_classical(dag_model(6, 12)), hm.random_hbn(all_test_graphs()["popescu"], 3, 9)):
            for v in net.graph.nodes:
                table = getattr(net, which)[v]
                broken = hbn_with(net, which, v, corrupt(table, table.ndim - 1, kind))
                violations = hm.validate(broken)
                assert violations == hbn_validate_loop(broken)
                assert bool(violations) == (kind != "off by 0.9e-12")

    def test_structural_faults(self):
        net = hm.random_hbn(all_test_graphs()["bilocality"], 2, 10)
        cases = [
            hbn_with(net, "transitions", "b", None),
            hbn_with(net, "readouts", "c", None),
            hbn_with(net, "transitions", "a", net.transitions["a"][..., None]),
            hbn_with(net, "readouts", "s", net.readouts["s"].T.copy()[:1]),
            hm.HiddenBayesNet(net.graph, {**net.node_alphabet, "t": 0}, net.transitions, net.readouts),
        ]
        for broken in cases:
            violations = hm.validate(broken)
            assert violations and violations == hbn_validate_loop(broken)


class TestMissingAlphabetsAreViolations:
    # the table-by-table loop raised KeyError on each of these
    def test_missing_node_alphabet(self):
        net = hm.random_hbn(all_test_graphs()["bell"], 2, 0)
        del net.node_alphabet["s"]
        with pytest.raises(KeyError):
            hbn_validate_loop(net)
        assert hm.validate(net) == ["node 's': missing hidden alphabet"]
        with pytest.raises(InvalidModel, match="node 's': missing hidden alphabet"):
            hm.evaluate(net)

    def test_missing_parent_alphabet_skips_only_the_children(self):
        net = hm.random_hbn(all_test_graphs()["bell"], 2, 1)
        del net.node_alphabet["x"]
        net.readouts["y"] = -net.readouts["y"]
        assert hm.validate(net) == ["node 'x': missing hidden alphabet", "node 'y': negative readout entry",
                                    "node 'y': readout rows deviate from 1 by 2.0"]
        with pytest.raises(InvalidModel, match="node 'x': missing hidden alphabet"):
            hm.to_classical(net)

    def test_missing_outcome_alphabet_in_hbn(self):
        net = hm.random_hbn(all_test_graphs()["bell"], 2, 2)
        outcomes = {v: k for v, k in net.graph.outcomes.items() if v != "a"}
        net.graph = CausalGraph(net.graph.nodes, net.graph.edges, outcomes)
        with pytest.raises(KeyError):
            hbn_validate_loop(net)
        with pytest.raises(InvalidModel, match="node 'a': missing outcome alphabet"):
            hm.evaluate(net)

    def test_missing_outcome_count_in_quantum_model(self):
        g = all_test_graphs()["bell"]
        model = qm.random_model(g, 2, 3)
        model.graph = CausalGraph(g.nodes, g.edges, {v: k for v, k in g.outcomes.items() if v != "b"})
        assert qm.validate_model(model) == ["node 'b': missing outcome alphabet"]
        with pytest.raises(InvalidModel, match="node 'b': missing outcome alphabet"):
            qm.evaluate(model)


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty structural cache with the package's budget: the next check of every model is cold."""
    fresh = BoundedCache(cm.MAX_STRUCTURE_ENTRIES)
    monkeypatch.setattr(cm, "_STRUCTURES", fresh)
    return fresh


def triangle_quantum_model(seed: int) -> qm.QuantumModel:
    return qm.random_model(all_test_graphs()["triangle"], 2, seed)


class TestKeptStructure:
    """The structural verdict is kept per key; every value, and every part of the key, is read on every call."""

    def test_hbn_every_call_checks_again(self):
        net = hm.from_classical(dag_model(4, 10))
        assert hm.validate(net) == []
        net.readouts["n5"].flat[0] = np.nan
        assert hm.validate(net) == ["node 'n5': readout rows deviate from 1 by nan"] == hbn_validate_loop(net)

    def test_quantum_every_call_checks_again(self):
        model = triangle_quantum_model(4)
        assert qm.validate_model(model) == []
        model.instruments["b"].components[0][0][...] *= 1.5
        dev = qm.completeness_deviation(model, "b")
        assert dev > qm.COMPLETENESS_TOL
        assert qm.validate_model(model) == [f"node 'b': completeness deviation {dev}"]

    def test_a_structure_is_kept_once_and_weighs_its_key(self, empty_cache):
        model = dag_model(7, 12)
        for _ in range(3):
            assert cm.validate_model(model) == []
            assert len(empty_cache.entries) == 1
        (key, (_, weight)), = empty_cache.entries.items()
        assert weight == len(key) == empty_cache.load
        # the key refers to the graph's own tuples, it does not copy them
        assert key[1] is model.graph.nodes and key[2] is model.graph.edges
        hm.validate(hm.from_classical(model))
        qm.validate_model(qm.decohere_embed(model))
        assert len(empty_cache.entries) == 3

    def test_numpy_int_sizes_are_accepted_but_not_kept(self, empty_cache):
        model = cm.random_model(triangle_graph(), 2, 1)
        sizes = {e: np.int64(s) for e, s in model.edge_alphabet.items()}
        wide = cm.ClassicalModel(model.graph, sizes, dict(model.gates))
        assert cm.validate_model(wide) == cm.validate_model(wide) == []
        sizes["x->b"] = np.int64(3)  # the message shows numpy's repr, as an unkept check gives it
        assert cm.validate_model(wide) == validate_model_loop(wide) != []
        assert not empty_cache.entries

    @pytest.mark.parametrize("change", ["outcomes", "alphabet", "alphabet below 1", "gate swapped",
                                        "gate swapped, same structure", "shape reassigned", "gate removed"])
    def test_classical_in_place_changes_are_seen(self, change):
        model = dag_model(8, 10)
        assert cm.validate_model(model) == []
        v, e = "n4", model.graph.edges[3].id
        gate = model.gates[v]
        assert gate.tensor.shape != gate.tensor.shape[::-1]
        if change == "outcomes":
            model.graph.outcomes[v] = 3
        elif change == "alphabet":
            model.edge_alphabet[e] = 3
        elif change == "alphabet below 1":
            model.edge_alphabet[e] = 0
        elif change == "gate swapped":
            model.gates[v] = cm.Gate(gate.out_edges, gate.in_edges, gate.tensor)
        elif change == "gate swapped, same structure":
            model.gates[v] = cm.Gate(gate.in_edges, gate.out_edges, -gate.tensor)
        elif change == "shape reassigned":  # the same rank and size, in another order
            gate.tensor.shape = gate.tensor.shape[::-1]
        else:
            del model.gates[v]
        violations = cm.validate_model(model)
        assert violations and violations == validate_model_loop(model)

    @pytest.mark.parametrize("change", ["outcomes", "alphabet", "table swapped", "shape reassigned"])
    def test_hbn_in_place_changes_are_seen(self, change):
        net = hm.random_hbn(all_test_graphs()["bilocality"], 3, 11)
        assert hm.validate(net) == []
        if change == "outcomes":
            net.graph.outcomes["b"] = 3
        elif change == "alphabet":
            net.node_alphabet["b"] = 2
        elif change == "table swapped":
            net.transitions["b"] = 2 * net.transitions["b"]
        else:
            net.readouts["b"].shape = net.readouts["b"].shape[::-1]  # (3, 2) as (2, 3)
        violations = hm.validate(net)
        assert violations and violations == hbn_validate_loop(net)

    @pytest.mark.parametrize("change", ["outcomes", "dimension", "instrument swapped", "shape reassigned"])
    def test_quantum_in_place_changes_are_seen(self, monkeypatch, change):
        model = triangle_quantum_model(5)
        assert qm.validate_model(model) == []
        inst = model.instruments["b"]
        if change == "outcomes":
            model.graph.outcomes["b"] = 3
        elif change == "dimension":
            model.edge_dim["x->b"] = 3
        elif change == "instrument swapped":
            model.instruments["b"] = qm.Instrument(tuple(tuple(1.5 * k for k in ops) for ops in inst.components))
        else:
            inst.components[0][0].shape = inst.components[0][0].shape[::-1]
        violations = qm.validate_model(model)
        monkeypatch.setattr(cm, "_STRUCTURES", BoundedCache(cm.MAX_STRUCTURE_ENTRIES))
        assert violations and violations == qm.validate_model(model)  # as a cold check gives them

    def test_cold_and_warm_lists_match_the_oracles(self, empty_cache):
        models, nets = valid_models()[::3], valid_nets()[::3]
        structures = len(models) + len(nets)
        for model in list(models):
            for v in model.graph.nodes[::4]:
                gate = model.gates[v]
                models.append(with_gate(model, v, gate.tensor[..., None]))
                structures += 1
                # a value fault shares the structure of the valid model
                models.append(with_gate(model, v, corrupt(gate.tensor, len(gate.in_edges), "nan")))
        for net in list(nets):
            v = net.graph.nodes[-1]
            nets.append(hbn_with(net, "readouts", v, corrupt(net.readouts[v], 1, "negative")))
        empty_cache.entries.clear()  # building the models validated others
        empty_cache.load = 0
        for _ in range(2):
            for model in models:
                assert cm.validate_model(model) == validate_model_loop(model)
            for net in nets:
                assert hm.validate(net) == hbn_validate_loop(net)
        assert len(empty_cache.entries) == structures

    def test_threads_sharing_the_cache_get_serial_lists(self, empty_cache):
        models = [dag_model(seed, 11) for seed in range(6)]
        models += [with_gate(m, "n3", corrupt(m.gates["n3"].tensor, len(m.gates["n3"].in_edges), "negative"))
                   for m in models[:3]]
        nets = [hm.from_classical(m) for m in models[:3]]
        quantum = [triangle_quantum_model(seed) for seed in range(3)]
        quantum[0].instruments["c"].components[1][0][...] *= 2.0
        serial = ([validate_model_loop(m) for m in models], [hbn_validate_loop(n) for n in nets],
                  [qm.validate_model(q) for q in quantum])
        empty_cache.entries.clear()
        empty_cache.load = 0
        results, failures = [], []

        def check():
            try:
                for _ in range(20):
                    results.append(([cm.validate_model(m) for m in models], [hm.validate(n) for n in nets],
                                    [qm.validate_model(q) for q in quantum]))
            except Exception as exc:  # reported below: a thread's exception would not fail the test
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=check) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(thread.is_alive() for thread in threads)
        assert len(results) == 80 and all(r == serial for r in results)
        assert empty_cache.load == sum(w for _, w in empty_cache.entries.values())


NOT_INTEGERS = [2.5, 2.0, np.float64(2.0), True, "2", [2], None]


class TestSizesThatAreNoIntegers:
    """A size that is no integer is a named violation, also where it is unhashable; numpy ints are integers."""

    @staticmethod
    def expect(violations, message):
        assert message in violations and len(violations) == len(set(violations))

    @pytest.mark.parametrize("size", NOT_INTEGERS)
    def test_outcome_count(self, size):
        g = all_test_graphs()["bell"]
        model = cm.random_model(g, 2, 0)
        outcomes = {**g.outcomes, "a": size}
        if size is None:
            del outcomes["a"]
        bad = CausalGraph(g.nodes, g.edges, outcomes)
        message = "node 'a': missing outcome alphabet" if size is None else \
            f"node 'a': outcome alphabet size {size!r} is not an integer"
        self.expect(gm.validate(bad), message)
        self.expect(cm.validate_model(cm.ClassicalModel(bad, model.edge_alphabet, model.gates)), message)
        net = hm.random_hbn(g, 2, 0)
        self.expect(hm.validate(hm.HiddenBayesNet(bad, net.node_alphabet, net.transitions, net.readouts)), message)
        quantum = qm.random_model(g, 2, 0)
        self.expect(qm.validate_model(qm.QuantumModel(bad, quantum.edge_dim, quantum.instruments)), message)

    @pytest.mark.parametrize("size", NOT_INTEGERS[:-1])
    def test_alphabets_and_dimensions(self, size):
        g = all_test_graphs()["bell"]
        model = cm.random_model(g, 2, 0)
        sizes = {**model.edge_alphabet, "x->a": size}
        with pytest.raises(InvalidModel, match=re.escape(f"edge 'x->a': hidden alphabet size {size!r} is not an integer")):
            cm.evaluate(cm.ClassicalModel(g, sizes, model.gates))
        net = hm.random_hbn(g, 2, 0)
        bad = hm.HiddenBayesNet(g, {**net.node_alphabet, "x": size}, net.transitions, net.readouts)
        with pytest.raises(InvalidModel, match=re.escape(f"node 'x': hidden alphabet size {size!r} is not an integer")):
            hm.evaluate(bad)
        quantum = qm.random_model(g, 2, 0)
        dims = {**quantum.edge_dim, "x->a": size}
        bad_q = qm.QuantumModel(g, dims, quantum.instruments)
        assert qm.validate_model(bad_q) == [f"edge 'x->a': dimension {size!r} is not an integer"]
        with pytest.raises(InvalidModel, match="is not an integer"):
            qm.evaluate(bad_q)

    def test_numpy_ints_are_integers(self):
        g = all_test_graphs()["bell"]
        outcomes = {v: np.int64(k) for v, k in g.outcomes.items()}
        model = cm.random_model(g, 2, 0)
        graph = CausalGraph(g.nodes, g.edges, outcomes)
        assert gm.validate(graph) == []
        assert cm.validate_model(cm.ClassicalModel(graph, {e: np.int32(s) for e, s in model.edge_alphabet.items()},
                                                   model.gates)) == []
        quantum = qm.random_model(g, 2, 0)
        assert qm.validate_model(qm.QuantumModel(graph, {e: np.int64(d) for e, d in quantum.edge_dim.items()},
                                                 quantum.instruments)) == []
