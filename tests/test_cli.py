import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from causalcorr import bell as bm
from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr import graph as gm
from causalcorr import hbn as hm
from causalcorr import quantum as qm
from causalcorr import _simplex
from causalcorr.cli import COMMANDS, _library, run

from conftest import bell_graph, popescu_graph, pr_box_dist

# child processes import the same causalcorr package as this one
CHILD_PYTHONPATH = os.pathsep.join(
    [os.path.dirname(os.path.dirname(cm.__file__)), os.environ.get("PYTHONPATH", "")]
)


@pytest.fixture
def bell_files(tmp_path):
    graph_path = tmp_path / "bell.json"
    dist_path = tmp_path / "pr_box.json"
    graph_path.write_text(json.dumps(gm.graph_to_dict(bm.make_bell_graph(
        bm.BellScenario(settings=(2, 2), outcomes=(2, 2))
    ))))
    dist_path.write_text(json.dumps(dm.dist_to_dict(pr_box_dist())))
    return graph_path, dist_path


def replace_at(data, keys, value):
    """Set the entry of nested JSON ``data`` that the key path ``keys`` names."""
    *outer, last = keys
    for k in outer:
        data = data[k]
    data[last] = value


def bell_quantum_setup() -> dict:
    """Two qubits in |00>, both parties measuring in the computational basis."""
    def enc(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]

    comp0 = [enc(np.diag([1.0, 0.0])), enc(np.diag([0.0, 1.0]))]
    return {
        "scenario": {"settings": [2, 2], "outcomes": [2, 2], "source_outcomes": 1},
        "states": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
        "povms": [[comp0, comp0], [comp0, comp0]],
        "setting_dists": [[0.5, 0.5], [0.5, 0.5]],
        "source_dist": [1.0],
    }


def run_json(argv, capsys):
    code = run([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestExitCodes:
    def test_check_correlation_pr_box(self, bell_files, capsys):
        graph_path, dist_path = bell_files
        code, payload = run_json(
            ["check-correlation", "--graph", graph_path, "--dist", dist_path], capsys
        )
        assert code == 0
        assert payload["is_correlation"] is True

    def test_check_correlation_reports_margin(self, bell_files, tmp_path, capsys):
        graph_path, dist_path = bell_files
        code, payload = run_json(
            ["check-correlation", "--graph", graph_path, "--dist", dist_path], capsys
        )
        graph = gm.graph_from_dict(json.loads(graph_path.read_text()))
        n_pairs = len(gm.maximal_disjoint_past_pairs(graph))
        assert code == 0
        assert set(payload) == {"is_correlation", "violations", "tol", "pairs_checked", "max_deviation"}
        assert payload["violations"] == [] and payload["tol"] == 1e-9
        assert payload["pairs_checked"] == n_pairs
        assert 0.0 <= payload["max_deviation"] < 1e-15
        # party 2's outcome copies party 1's setting: the margin is the worst violation
        table = np.zeros((1, 2, 2, 2, 2))
        for x, y, a in np.ndindex(2, 2, 2):
            table[0, x, y, a, x] = 1 / 8
        bad = dm.JointDistribution((("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table)
        bad_path = tmp_path / "signalling.json"
        bad_path.write_text(json.dumps(dm.dist_to_dict(bad)))
        code, payload = run_json(
            ["check-correlation", "--graph", graph_path, "--dist", bad_path], capsys
        )
        assert code == 1
        assert payload["pairs_checked"] == n_pairs
        assert payload["max_deviation"] == max(v["dev"] for v in payload["violations"])
        assert payload["max_deviation"] == pytest.approx(0.125, abs=1e-12)

    def test_bell_local_pr_box_fails_with_residual(self, bell_files, capsys):
        _, dist_path = bell_files
        code, payload = run_json(["bell-local", "--dist", dist_path], capsys)
        assert code == 1
        assert payload["is_local"] is False
        assert payload["max_residual"] > 0

    def test_solver_non_termination_is_exit_2(self, bell_files, capsys, monkeypatch):
        _, dist_path = bell_files
        monkeypatch.setattr(_simplex, "PIVOTS_PER_DIMENSION", 0)
        assert run(["bell-local", "--dist", str(dist_path)]) == 2
        assert "did not terminate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bell-check-ns", "bell-local"])
    @pytest.mark.parametrize("variables", [popescu_graph().outcomes, {"x1": 2, "x2": 2, "a1": 2, "a2": 2}],
                             ids=["popescu", "no-source"])
    def test_bell_check_of_other_variables_names_the_bell_ones(self, tmp_path, capsys, command, variables):
        path = tmp_path / "dist.json"
        size = math.prod(variables.values())
        path.write_text(json.dumps({"vars": [{"id": v, "size": k} for v, k in variables.items()],
                                    "probs": [1 / size] * size}))
        assert run([command, "--dist", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"expected the Bell variables s, x1..xn, a1..an (n >= 1), got {sorted(variables)}" in err

    def test_missing_file_is_usage_error(self, capsys):
        code = run(["eval-classical", "--model", "missing.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["graph-validate", "--graph", str(bad)]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"nodes": 5, "edges": []},
            {"nodes": [], "edges": {"id": "e"}},
            {"nodes": [{"id": "a", "outcomes": "2"}], "edges": []},
            {"nodes": [{"id": "a", "outcomes": 2.5}], "edges": []},
            {"nodes": [{"id": "a", "outcomes": True}], "edges": []},
        ],
    )
    def test_wrongly_typed_graph_is_usage_error(self, tmp_path, capsys, data):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        assert run(["graph-validate", "--graph", str(path)]) == 2
        assert "malformed graph JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"vars": 5, "probs": []},
            {"vars": [{"id": "a", "size": 2}], "probs": 0.5},
            {"vars": [{"id": "a", "size": True}], "probs": [1.0]},
            {"vars": [{"id": "a", "size": 2}], "probs": [0.5, "0.5"]},
            {"vars": [{"id": "a", "size": 2}], "probs": [0.5, {}]},
            {"vars": [{"id": "a", "size": 10**20}], "probs": []},
            {"vars": [{"id": "a", "size": 1}], "probs": [10**400]},
        ],
    )
    def test_wrongly_typed_dist_is_usage_error(self, tmp_path, capsys, data):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(data))
        assert run(["chsh", "--dist", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("edge_sizes",), 5),
            (("edge_sizes", "s->a"), True),
            (("gates",), 5),
            (("gates", "a", "in"), "s->a"),
            (("gates", "a", "out"), 5),
            (("gates", "a", "tensor"), [0.5, {}]),
            (("gates", "a", "in"), ["nope", "x->a"]),
        ],
    )
    def test_wrongly_typed_classical_model_is_usage_error(self, tmp_path, capsys, keys, value):
        data = cm.model_to_dict(cm.random_model(bell_graph(), 2, seed=0))
        replace_at(data, keys, value)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert run(["eval-classical", "--model", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("edge_dims",), 5),
            (("edge_dims", "s->a"), True),
            (("edge_dims", "s->a"), 2.0),
            (("instruments",), 5),
            (("instruments", "a"), [1]),
            (("instruments", "a", "0"), 5),
            (("instruments", "a", "0"), [[[["1", 0.0]]]]),
            (("instruments", "a", "0"), [[[1.0, 0.0]]]),
        ],
    )
    def test_wrongly_typed_quantum_model_is_usage_error(self, tmp_path, capsys, keys, value):
        data = qm.model_to_dict(qm.random_model(bell_graph(), 2, seed=0))
        replace_at(data, keys, value)
        path = tmp_path / "q.json"
        path.write_text(json.dumps(data))
        assert run(["eval-quantum", "--model", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("node_sizes",), 5),
            (("node_sizes", "a"), True),
            (("node_sizes", "a"), 2.0),
            (("transitions",), 5),
            (("transitions", "a"), "0.5"),
            (("readouts",), [0.5]),
            (("readouts", "b"), [0.5, {}]),
            (("transitions", "a"), [0.5]),
        ],
    )
    def test_wrongly_typed_hbn_is_usage_error(self, tmp_path, capsys, keys, value):
        data = hm.hbn_to_dict(hm.random_hbn(bell_graph(), 2, seed=0))
        replace_at(data, keys, value)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        assert run(["eval-hbn", "--hbn", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, field",
        [("eval-classical", "--model", "edge_sizes"), ("eval-quantum", "--model", "edge_dims"),
         ("eval-hbn", "--hbn", "node_sizes")],
    )
    def test_entry_naming_no_edge_or_node_is_usage_error(self, tmp_path, capsys, command, flag, field):
        data = {
            "eval-classical": lambda: cm.model_to_dict(cm.random_model(bell_graph(), 2, seed=0)),
            "eval-quantum": lambda: qm.model_to_dict(qm.random_model(bell_graph(), 2, seed=0)),
            "eval-hbn": lambda: hm.hbn_to_dict(hm.random_hbn(bell_graph(), 2, seed=0)),
        }[command]()
        data[field]["ghost"] = 2
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert run([command, flag, str(path)]) == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", [b"[" * 100000, b"1" * 5000, b"\xff{}"], ids=["deep-nesting", "long-integer", "not-utf-8"]
    )
    def test_unreadable_json_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert run(["graph-validate", "--graph", str(path)]) == 2
        assert "is not a JSON document" in capsys.readouterr().err

    def test_hbn_without_a_transition_table_is_usage_error(self, tmp_path, capsys):
        data = hm.hbn_to_dict(hm.random_hbn(bell_graph(), 2, seed=0))
        del data["transitions"]["a"]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        assert run(["eval-hbn", "--hbn", str(path)]) == 2
        assert "missing transition or readout table" in capsys.readouterr().err

    def test_edge_joining_an_unknown_node(self, tmp_path, capsys):
        graph = gm.graph_to_dict(bell_graph())
        graph["edges"][0]["src"] = "ghost"
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        code, payload = run_json(["graph-validate", "--graph", path], capsys)
        assert code == 1 and "unknown source node 'ghost'" in payload["violations"][0]
        assert run(["poset-closure", "--graph", str(path)]) == 2
        net = hm.hbn_to_dict(hm.random_hbn(bell_graph(), 2, seed=0))
        net["graph"] = graph
        path.write_text(json.dumps(net))
        assert run(["eval-hbn", "--hbn", str(path)]) == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["lift-edge", "--src", "u", "--dst", "w"], ["reroute-edge", "--edge", "u->w", "--via", "v"]],
    )
    def test_rewrite_of_an_invalid_model_is_usage_error(self, tmp_path, capsys, argv):
        g = gm.CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w"), ("u->w", "u", "w")]
        )
        data = cm.model_to_dict(cm.random_model(g, 2, seed=0))
        del data["gates"]["w"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert run(argv + ["--model", str(path)]) == 2
        assert "missing gate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("states",), [[1]]),
            (("scenario",), 5),
            (("scenario", "settings"), [2]),
            (("scenario", "source_outcomes"), 1.0),
            (("povms", 0, 0, 0), [[[1.0, 0.0]]]),
            (("setting_dists",), [[0.5, 0.5]]),
            (("setting_dists", 0), [1.5, -0.5]),
            (("source_dist",), [float("nan")]),
        ],
    )
    def test_malformed_bell_quantum_setup_is_usage_error(self, tmp_path, capsys, keys, value):
        setup = bell_quantum_setup()
        replace_at(setup, keys, value)
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(setup))
        assert run(["bell-quantum", "--model", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "effect, message",
        [([[1.5, 0.0], [0.0, -0.5]], "negative eigenvalue"), ([[0.5, 0.5], [0.0, 0.5]], "not Hermitian")],
        ids=["negative", "non-hermitian"],
    )
    def test_bell_quantum_effect_that_is_no_povm_element_is_usage_error(self, tmp_path, capsys, effect, message):
        setup = bell_quantum_setup()
        e0 = np.array(effect, dtype=complex)
        setup["povms"][0][0] = [[[[float(z.real), float(z.imag)] for z in row] for row in e]
                                for e in (e0, np.eye(2) - e0)]
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(setup))
        out_path = tmp_path / "qmodel.json"
        assert run(["bell-quantum", "--model", str(path), "--out", str(out_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "cg",
        [
            {"domain": 5, "codomain": 2, "map": [0]},
            {"domain": [3, 3], "codomain": 2, "map": [0] * 8},
            {"domain": [3, 3], "codomain": True, "map": [0] * 9},
            {"domain": [3, 3], "codomain": 2, "map": [0.0] * 9},
            {"domain": [3, 3], "codomain": 2, "map": [0] * 9, "extra": 1},
        ],
    )
    def test_malformed_coarse_graining_is_usage_error(self, tmp_path, capsys, cg):
        dist_path = tmp_path / "p.json"
        dist_path.write_text(json.dumps(dm.dist_to_dict(
            dm.JointDistribution((("v1", 3), ("v2", 3)), np.full((3, 3), 1 / 9))
        )))
        cg_path = tmp_path / "cg.json"
        cg_path.write_text(json.dumps(cg))
        assert run(["compress-cg", "--dist", str(dist_path), "--cg", str(cg_path), "--eps", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [["--settings", "two"], ["--settings", "2,2,2", "--outcomes", "2,2,2"]])
    def test_bell_gen_bad_sizes_is_usage_error(self, capsys, sizes):
        assert run(["bell-gen", "--parties", "2"] + sizes) == 2

    def test_nan_probability_is_usage_error(self, bell_files, tmp_path, capsys):
        graph_path, _ = bell_files
        data = dm.dist_to_dict(pr_box_dist())
        data["probs"][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert run(["check-correlation", "--graph", str(graph_path), "--dist", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["transitions", "readouts"])
    def test_nan_hbn_entry_is_usage_error(self, tmp_path, capsys, table):
        data = hm.hbn_to_dict(hm.random_hbn(bell_graph(), 2, seed=0))
        entries = data[table]["a"]
        while isinstance(entries[0], list):
            entries = entries[0]
        entries[0] = float("nan")
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        assert run(["from-hbn", "--hbn", str(path)]) == 2
        assert "deviate from 1 by nan" in capsys.readouterr().err

    def test_huge_codomain_allocates_one_column_per_map_value(self, tmp_path, capsys):
        # a 2x2 map whose codomain would make a 14.6 TiB table of cells x codomain values
        dist_path = tmp_path / "p.json"
        dist_path.write_text(json.dumps(dm.dist_to_dict(
            dm.JointDistribution((("v1", 2), ("v2", 2)), np.full((2, 2), 0.25))
        )))
        cg_path = tmp_path / "cg.json"
        cg_path.write_text(json.dumps({"domain": [2, 2], "codomain": 10**12, "map": [0, 10**12 - 1, 7, 0]}))
        code, payload = run_json(["compress-cg", "--dist", dist_path, "--cg", cg_path, "--eps", "0"], capsys)
        assert code == 0
        assert payload["achieved_error"] == 0.0
        assert payload["composed"] == [0, 10**12 - 1, 7, 0]

    def test_huge_outcome_count_is_refused_before_parsing(self, tmp_path, capsys, monkeypatch):
        # the parser made one key string per outcome before any guard; under a
        # small guard, 10^5 outcomes would cost several MB of keys
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "4096")
        data = qm.model_to_dict(qm.random_model(bell_graph(), 2, seed=0))
        node = next(v for v in data["graph"]["nodes"] if v["id"] == "x")
        node["outcomes"] = 10**5
        data["instruments"]["x"] = {}
        path = tmp_path / "q.json"
        path.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            assert run(["eval-quantum", "--model", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "exceeds the guard" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_malformed_state_space_variable_is_usage_error(self, bell_files, capsys, monkeypatch):
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "lots")
        graph_path, dist_path = bell_files
        assert run(["check-correlation", "--graph", str(graph_path), "--dist", str(dist_path)]) == 2
        assert "CC_MAX_STATE_SPACE='lots' is not an integer" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, bell_files, capsys):
        graph_path, _ = bell_files
        assert run(["graph-validate", "--graph", str(graph_path), "--bogus"]) == 2

    @pytest.mark.parametrize("node, key", [("a", "7"), ("ghost", "0")])
    def test_quantum_unknown_instrument_entry_is_usage_error(self, tmp_path, capsys, node, key):
        data = qm.model_to_dict(qm.random_model(bell_graph(), 1, seed=0))
        data["instruments"].setdefault(node, {})[key] = data["instruments"]["a"]["0"]
        path = tmp_path / "q.json"
        path.write_text(json.dumps(data))
        assert run(["eval-quantum", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and (node if node == "ghost" else key) in err

    def test_check_correlation_failing_verdict(self, bell_files, tmp_path, capsys):
        graph_path, _ = bell_files
        # party 2's outcome copies party 1's setting: signalling
        table = np.zeros((1, 2, 2, 2, 2))
        for x, y, a in np.ndindex(2, 2, 2):
            table[0, x, y, a, x] = 1 / 8
        bad = dm.JointDistribution(
            (("s", 1), ("x1", 2), ("x2", 2), ("a1", 2), ("a2", 2)), table
        )
        dist_path = tmp_path / "signalling.json"
        dist_path.write_text(json.dumps(dm.dist_to_dict(bad)))
        code, payload = run_json(
            ["check-correlation", "--graph", graph_path, "--dist", dist_path], capsys
        )
        assert code == 1
        assert payload["is_correlation"] is False
        assert payload["violations"]

    def test_graph_validate_failing_graph(self, tmp_path, capsys):
        data = {
            "nodes": [{"id": "a", "outcomes": 2}, {"id": "b", "outcomes": 2}],
            "edges": [
                {"id": "e1", "src": "a", "dst": "b"},
                {"id": "e2", "src": "b", "dst": "a"},
            ],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(data))
        code, payload = run_json(["graph-validate", "--graph", path], capsys)
        assert code == 1
        assert payload["ok"] is False

    def test_graph_validate_duplicate_node_with_an_edge(self, tmp_path, capsys):
        data = {
            "nodes": [{"id": "a", "outcomes": 2}, {"id": "a", "outcomes": 2}, {"id": "b", "outcomes": 2}],
            "edges": [{"id": "e1", "src": "a", "dst": "b"}],
        }
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(data))
        code, payload = run_json(["graph-validate", "--graph", path], capsys)
        assert code == 1
        assert payload == {"ok": False, "violations": ["duplicate node id 'a'"]}


class TestPipelines:
    def test_eval_classical_round_trip(self, tmp_path, capsys):
        g = bell_graph()
        model = cm.random_model(g, 2, seed=1)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(cm.model_to_dict(model)))
        out_path = tmp_path / "joint.json"
        code = run(["eval-classical", "--model", str(model_path), "--out", str(out_path)])
        assert code == 0
        emitted = dm.dist_from_dict(json.loads(out_path.read_text()))
        np.testing.assert_array_equal(emitted.table, cm.evaluate(model).table)

    def test_hbn_round_trip_through_cli(self, tmp_path, capsys):
        g = bell_graph()
        model = cm.random_model(g, 2, seed=2)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(cm.model_to_dict(model)))
        hbn_path = tmp_path / "net.json"
        assert run(["to-hbn", "--model", str(model_path), "--out", str(hbn_path)]) == 0
        back_path = tmp_path / "back.json"
        assert run(["from-hbn", "--hbn", str(hbn_path), "--out", str(back_path)]) == 0
        back = cm.model_from_dict(json.loads(back_path.read_text()))
        dev = np.abs(cm.evaluate(back).table - cm.evaluate(model).table).max()
        assert dev < 1e-12

    def test_lift_and_reroute_through_cli(self, tmp_path, capsys):
        g = gm.CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")]
        )
        model = cm.random_model(g, 2, seed=3)
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(cm.model_to_dict(model)))
        lifted_path = tmp_path / "lifted.json"
        assert (
            run(
                [
                    "lift-edge",
                    "--model",
                    str(model_path),
                    "--src",
                    "u",
                    "--dst",
                    "w",
                    "--out",
                    str(lifted_path),
                ]
            )
            == 0
        )
        rerouted_path = tmp_path / "rerouted.json"
        assert (
            run(
                [
                    "reroute-edge",
                    "--model",
                    str(lifted_path),
                    "--edge",
                    "u->w#lift",
                    "--via",
                    "v",
                    "--out",
                    str(rerouted_path),
                ]
            )
            == 0
        )
        rerouted = cm.model_from_dict(json.loads(rerouted_path.read_text()))
        dev = np.abs(cm.evaluate(rerouted).table - cm.evaluate(model).table).max()
        assert dev < 1e-12

    def test_reroute_above_the_guard_is_usage_error(self, tmp_path, capsys, monkeypatch):
        g = gm.CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("uw", "u", "w"), ("vw", "v", "w")]
        )
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(cm.model_to_dict(cm.random_model(g, {"uv": 1, "uw": 64, "vw": 1}, seed=0))))
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "1000")
        out_path = tmp_path / "rerouted.json"
        argv = ["reroute-edge", "--model", str(model_path), "--edge", "uw", "--via", "v", "--out", str(out_path)]
        assert run(argv) == 2
        assert "relay gate of 8192 entries" in capsys.readouterr().err
        assert not out_path.exists()

    def test_push_determinism_and_embed_quantum(self, tmp_path, capsys):
        g = bell_graph()
        model = cm.random_model(g, 2, seed=4)
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(cm.model_to_dict(model)))
        pushed_path = tmp_path / "pushed.json"
        assert run(["push-determinism", "--model", str(model_path), "--out", str(pushed_path)]) == 0
        pushed = cm.model_from_dict(json.loads(pushed_path.read_text()))
        assert np.abs(cm.evaluate(pushed).table - cm.evaluate(model).table).max() < 1e-12
        q_path = tmp_path / "q.json"
        assert run(["embed-quantum", "--model", str(model_path), "--out", str(q_path)]) == 0
        q = qm.model_from_dict(json.loads(q_path.read_text()))
        assert np.abs(qm.evaluate(q).table - cm.evaluate(model).table).max() < 1e-10

    def test_embed_quantum_past_the_guard_is_usage_error(self, tmp_path, capsys, monkeypatch):
        g = gm.CausalGraph.build([("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")])
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(cm.model_to_dict(cm.random_model(g, 16, seed=0))))
        monkeypatch.setenv("CC_MAX_STATE_SPACE", "10000")
        q_path = tmp_path / "q.json"
        assert run(["embed-quantum", "--model", str(model_path), "--out", str(q_path)]) == 2
        assert "Kraus operators of node 'v' exceed the guard 10000" in capsys.readouterr().err
        assert not q_path.exists()

    def test_eval_quantum_command(self, tmp_path, capsys):
        g = bell_graph()
        model = qm.random_model(g, 2, seed=5)
        path = tmp_path / "q.json"
        path.write_text(json.dumps(qm.model_to_dict(model)))
        out_path = tmp_path / "joint.json"
        assert run(["eval-quantum", "--model", str(path), "--out", str(out_path)]) == 0
        emitted = dm.dist_from_dict(json.loads(out_path.read_text()))
        np.testing.assert_array_equal(emitted.table, qm.evaluate(model).table)

    def test_eval_hbn_command(self, tmp_path, capsys):
        g = bell_graph()
        net = hm.random_hbn(g, 2, seed=5)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(hm.hbn_to_dict(net)))
        out_path = tmp_path / "joint.json"
        assert run(["eval-hbn", "--hbn", str(path), "--out", str(out_path)]) == 0
        emitted = dm.dist_from_dict(json.loads(out_path.read_text()))
        np.testing.assert_array_equal(emitted.table, hm.evaluate(net).table)

    def test_bell_check_ns_command(self, bell_files, capsys):
        _, dist_path = bell_files
        code, payload = run_json(["bell-check-ns", "--dist", dist_path], capsys)
        assert code == 0
        assert payload["passes"] is True

    def test_tol_flag_is_honored(self, bell_files, capsys):
        graph_path, dist_path = bell_files
        code, payload = run_json(
            ["check-correlation", "--graph", graph_path, "--dist", dist_path, "--tol", "0.5"],
            capsys,
        )
        assert code == 0
        assert payload["tol"] == 0.5

    @pytest.mark.parametrize("command", ["check-correlation", "bell-check-ns", "bell-local"])
    def test_tol_zero_is_honored(self, bell_files, capsys, command):
        graph_path, dist_path = bell_files
        argv = [command, "--dist", dist_path, "--tol", "0"]
        if command == "check-correlation":
            argv += ["--graph", graph_path]
        code, payload = run_json(argv, capsys)
        assert code in (0, 1)
        assert payload["tol"] == 0.0

    @pytest.mark.parametrize("tol", ["-0.5", "nan", "inf"])
    def test_bad_tol_is_usage_error(self, bell_files, capsys, tol):
        _, dist_path = bell_files
        assert run(["bell-local", "--dist", str(dist_path), "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_bell_gen_chsh_and_closure(self, tmp_path, capsys):
        code, payload = run_json(["bell-gen", "--parties", "3"], capsys)
        assert code == 0
        assert len(payload["nodes"]) == 7
        code, payload = run_json(
            ["bell-gen", "--parties", "2", "--settings", "3,2", "--outcomes", "2"], capsys
        )
        assert code == 0
        sizes = {n["id"]: n["outcomes"] for n in payload["nodes"]}
        assert sizes["x1"] == 3 and sizes["x2"] == 2

    def test_chsh_command(self, bell_files, capsys):
        _, dist_path = bell_files
        code, payload = run_json(["chsh", "--dist", dist_path], capsys)
        assert code == 0
        assert payload["chsh"] == pytest.approx(4.0)

    def test_poset_closure_command(self, tmp_path, capsys):
        g = gm.CausalGraph.build(
            [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w")]
        )
        path = tmp_path / "g.json"
        path.write_text(json.dumps(gm.graph_to_dict(g)))
        code, payload = run_json(["poset-closure", "--graph", path], capsys)
        assert code == 0
        assert {e["id"] for e in payload["edges"]} == {"uv", "vw", "u->w#tc"}

    def test_compress_cg_command(self, tmp_path, capsys):
        f = [[(i + j) % 2 for j in range(3)] for i in range(3)]
        dist_path = tmp_path / "p.json"
        dist_path.write_text(
            json.dumps(
                dm.dist_to_dict(
                    dm.JointDistribution((("v1", 3), ("v2", 3)), np.full((3, 3), 1 / 9))
                )
            )
        )
        cg_path = tmp_path / "cg.json"
        cg_path.write_text(json.dumps({"domain": [3, 3], "codomain": 2, "map": sum(f, [])}))
        code, payload = run_json(
            ["compress-cg", "--dist", dist_path, "--cg", cg_path, "--eps", "0"], capsys
        )
        assert code == 0
        assert sum(payload["sizes"]) == 4
        assert payload["achieved_error"] == 0.0

    def test_bell_quantum_setup(self, tmp_path, capsys):
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(bell_quantum_setup()))
        out_path = tmp_path / "qmodel.json"
        assert run(["bell-quantum", "--model", str(path), "--out", str(out_path)]) == 0
        model = qm.model_from_dict(json.loads(out_path.read_text()))
        assert qm.validate_model(model) == []
        joint = qm.evaluate(model)
        assert abs(joint.table.sum() - 1.0) < 1e-9


class TestEntryPoint:
    def test_module_invocation(self, bell_files):
        graph_path, dist_path = bell_files
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "causalcorr.cli",
                "check-correlation",
                "--graph",
                str(graph_path),
                "--dist",
                str(dist_path),
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=CHILD_PYTHONPATH),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_correlation"] is True

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "causalcorr" in capsys.readouterr().out


def modules_after(code: str) -> set:
    """Names in ``sys.modules`` of a fresh interpreter after it runs ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=CHILD_PYTHONPATH))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def modules_after_run(argv, expect: int) -> set:
    """``modules_after`` a ``cli.run(argv)`` that must return ``expect``."""
    return modules_after(f"from causalcorr.cli import run\nassert run({[str(a) for a in argv]!r}) == {expect}")


MODEL_MODULES = {f"causalcorr.{name}" for name in
                 ("graph", "dist", "correlation", "classical", "quantum", "hbn", "bell", "_simplex")}


class TestImportSet:
    """A command loads only the modules it runs; the import checks each start a fresh interpreter."""

    def test_importing_the_cli_loads_no_numpy_and_no_model_module(self):
        loaded = modules_after("import causalcorr.cli")
        assert "numpy" not in loaded
        assert not loaded & MODEL_MODULES

    @pytest.mark.parametrize("argv, expect, modules", [
        (["--version"], 0, set()), (["--help"], 0, set()), (["bell-gen", "--parties", "two"], 2, set()),
        # a node without its outcomes: the graph reader runs and refuses it
        (["graph-validate", "--graph", "malformed.json"], 2, {"causalcorr.graph"}),
    ])
    def test_help_version_and_usage_errors_load_no_numpy(self, argv, expect, modules, tmp_path):
        (tmp_path / "malformed.json").write_text('{"nodes": [{"id": "a"}], "edges": []}')
        loaded = modules_after_run([tmp_path / a if a.endswith(".json") else a for a in argv], expect)
        assert "numpy" not in loaded
        assert loaded & MODEL_MODULES == modules

    @pytest.mark.parametrize("command", ["graph-validate", "poset-closure"])
    def test_graph_validate_loads_only_graph(self, bell_files, command):
        graph_path, _ = bell_files
        loaded = modules_after_run([command, "--graph", graph_path], 0)
        assert loaded & MODEL_MODULES == {"causalcorr.graph"}
        assert not loaded & {"numpy", "causalcorr._config"}

    def test_eval_hbn_loads_neither_bell_nor_quantum(self, tmp_path):
        path = tmp_path / "hbn.json"
        path.write_text(json.dumps(hm.hbn_to_dict(hm.random_hbn(bell_graph(), 2, seed=0))))
        loaded = modules_after_run(["eval-hbn", "--hbn", path], 0)
        assert "causalcorr.hbn" in loaded
        assert not loaded & {"causalcorr.bell", "causalcorr.quantum"}

    def test_every_named_library_call_resolves(self):
        for name, (_, _, calls) in COMMANDS.items():
            assert all(callable(_library(call)) for call in calls.split()), name

    # the Bell checks run neither model family, and only exact mode runs Fractions
    UNUSED_BY_BELL_CHECKS = {"causalcorr.classical", "causalcorr.quantum", "fractions"}

    @pytest.mark.parametrize("run_what, expect, present, absent", [
        (["bell-gen", "--parties", "2"], 0, {"causalcorr.graph"},
         MODEL_MODULES - {"causalcorr.graph"} | {"numpy", "causalcorr._config"}),
        (["bell-check-ns", "--dist", "pr_box.json"], 0, {"causalcorr.bell"}, UNUSED_BY_BELL_CHECKS),
        (["chsh", "--dist", "pr_box.json"], 0, {"causalcorr.bell"}, UNUSED_BY_BELL_CHECKS),
        (["bell-local", "--dist", "pr_box.json"], 1, {"causalcorr.bell"}, UNUSED_BY_BELL_CHECKS),
        (["bell-local", "--dist", "pr_box.json", "--exact"], 1, {"causalcorr.bell", "fractions"},
         UNUSED_BY_BELL_CHECKS - {"fractions"}),
        ("import causalcorr; causalcorr.make_bell_graph(causalcorr.BellScenario((2, 2), (2, 2)))", None,
         {"causalcorr.graph"}, {"numpy", "causalcorr.bell"}),
    ], ids=["bell-gen", "bell-check-ns", "chsh", "bell-local", "bell-local-exact", "package-make_bell_graph"])
    def test_bell_commands_load_only_what_they_run(self, bell_files, run_what, expect, present, absent):
        _, dist_path = bell_files
        if isinstance(run_what, str):
            loaded = modules_after(run_what)
        else:
            loaded = modules_after_run([dist_path if a == "pr_box.json" else a for a in run_what], expect)
        assert present <= loaded
        assert not loaded & absent

    def test_bell_local_loads_bell_and_simplex(self, bell_files):
        _, dist_path = bell_files
        loaded = modules_after_run(["bell-local", "--dist", dist_path], 1)
        assert {"causalcorr.bell", "causalcorr._simplex"} <= loaded
