"""The JSON readers, and a property test: mutated payloads of every input kind
make the CLI exit with 0, 1 or 2 and never raise."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcorr import _schema
from causalcorr import classical as cm
from causalcorr import dist as dm
from causalcorr import graph as gm
from causalcorr import hbn as hm
from causalcorr import quantum as qm
from causalcorr.cli import run
from causalcorr.errors import SchemaError

from conftest import bell_graph, pr_box_dist


class TestReaders:
    @pytest.mark.parametrize("value", [True, 2.0, "2", None, [2]])
    def test_typed_int_refuses_other_json_types(self, value):
        with pytest.raises(SchemaError, match="expected an integer"):
            _schema.typed(value, int, "size")

    def test_fields_names_missing_and_unknown(self):
        with pytest.raises(SchemaError, match=r"missing fields \['b'\], unknown \['c'\]"):
            _schema.fields({"a": 1, "c": 2}, "thing", {"a": int, "b": int})
        assert _schema.fields({"b": [], "a": 1}, "thing", {"a": int, "b": list}) == (1, [])

    def test_named_refuses_unknown_keys_and_list_entries(self):
        with pytest.raises(SchemaError, match="ghost"):
            _schema.named({"e": 1, "ghost": 2}, "map", {"e"})
        with pytest.raises(SchemaError, match="ghost"):
            _schema.named(["e", "ghost"], "list", {"e"}, list)
        with pytest.raises(SchemaError, match="a string"):
            _schema.named([1], "list", {"e"}, list)

    def test_complex_matrix(self):
        k = dm._json_numbers([[[1, 0.5], [0, -1]]], "kraus", (None, None), complex)
        np.testing.assert_array_equal(k, np.array([[1 + 0.5j, -1j]]))
        assert dm._json_numbers([], "kraus", (None, None), complex).shape == (0, 0)

    @pytest.mark.parametrize(
        "value",
        [[[[1, 0]], [[1, 0], [0, 0]]], [[[1, 0, 0]]], [[[True, 0]]], [[["1", 0]]], [[1, 0]], 5],
    )
    def test_malformed_complex_matrix(self, value):
        with pytest.raises(SchemaError):
            dm._json_numbers(value, "kraus", (None, None), complex)

    def test_numbers_out_of_range(self):
        with pytest.raises(SchemaError, match="out of range"):
            dm._json_numbers([10**400], "probs", (None,))
        with pytest.raises(SchemaError, match="out of range"):
            dm._json_numbers([2**63], "map", (None,), int)
        with pytest.raises(SchemaError, match="integers"):
            dm._json_numbers([1.0], "map", (None,), int)

    def test_table(self):
        np.testing.assert_array_equal(dm._json_table([0, 1, 2, 3, 4, 5], "t", [2, 3]), np.arange(6.0).reshape(2, 3))
        with pytest.raises(SchemaError, match="5 entries, expected 6"):
            dm._json_table([0] * 5, "t", [2, 3])
        # two negative sizes multiply to a length a list can have
        with pytest.raises(SchemaError, match="no table"):
            dm._json_table([0, 0], "t", [-1, -2])


# ---- property test over the CLI ---------------------------------------------


def _enc(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _payloads():
    """One valid payload per input kind, and the commands that read it ("{}")."""
    lift_graph = gm.CausalGraph.build(
        [("u", 2), ("v", 2), ("w", 2)], [("uv", "u", "v"), ("vw", "v", "w"), ("u->w", "u", "w")]
    )
    effects = [_enc(np.diag([1.0, 0.0])), _enc(np.diag([0.0, 1.0]))]
    setup = {
        "scenario": {"settings": [2, 2], "outcomes": [2, 2], "source_outcomes": 1},
        "states": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
        "povms": [[effects, effects], [effects, effects]],
        "setting_dists": [[0.5, 0.5], [0.5, 0.5]],
        "source_dist": [1.0],
    }
    return {
        "graph": (gm.graph_to_dict(bell_graph()), [
            ["graph-validate", "--graph", "{}"],
            ["poset-closure", "--graph", "{}"],
            ["check-correlation", "--graph", "{}", "--dist", "dist.json"],
        ]),
        "dist": (dm.dist_to_dict(pr_box_dist()), [
            ["check-correlation", "--graph", "graph.json", "--dist", "{}"],
            ["bell-check-ns", "--dist", "{}"],
            ["bell-local", "--dist", "{}"],
            ["chsh", "--dist", "{}"],
        ]),
        "classical": (cm.model_to_dict(cm.random_model(lift_graph, 2, seed=0)), [
            ["eval-classical", "--model", "{}"],
            ["to-hbn", "--model", "{}"],
            ["push-determinism", "--model", "{}"],
            ["embed-quantum", "--model", "{}"],
            ["lift-edge", "--model", "{}", "--src", "u", "--dst", "w"],
            ["reroute-edge", "--model", "{}", "--edge", "u->w", "--via", "v"],
        ]),
        "quantum": (qm.model_to_dict(qm.random_model(bell_graph(), 2, seed=0)), [["eval-quantum", "--model", "{}"]]),
        "hbn": (hm.hbn_to_dict(hm.random_hbn(bell_graph(), 2, seed=0)), [
            ["eval-hbn", "--hbn", "{}"],
            ["from-hbn", "--hbn", "{}"],
        ]),
        "bell-quantum setup": (setup, [["bell-quantum", "--model", "{}"]]),
        "coarse-graining": ({"domain": [2, 2], "codomain": 2, "map": [0, 1, 1, 0]}, [
            ["compress-cg", "--dist", "cg_dist.json", "--cg", "{}", "--eps", "0.1"],
        ]),
    }


PAYLOADS = _payloads()
# a value of every JSON type, and strings that name nodes and edges of the payloads
RETYPED = [None, True, 0, -1, 2, 1.5, "x", "s", "a", "u->w", "0", [], [1], [[1.0, 0.0]], {}, {"0": []}]
MUTATIONS = ["drop", "add field", "retype", "shorten", "ragged", "ghost key"]


def _paths(value, prefix=()):
    """Key paths into a JSON document, the document first: every object entry,
    and of each list its first entry only, so that a long table does not
    crowd out the fields and map keys."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value[:1]) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _mutate(doc, path, mutation, new):
    """``doc`` with one mutation applied at ``path``; a mutation that does not
    apply there leaves the document as it is."""
    if not path:
        return new if mutation == "retype" else doc
    *outer, last = path
    parent = doc
    for key in outer:
        parent = parent[key]
    value = parent[last]
    if mutation == "drop":
        del parent[last]
    elif mutation == "add field" and isinstance(parent, dict):
        parent["extra"] = new
    elif mutation == "retype":
        parent[last] = new
    elif mutation == "shorten" and isinstance(value, list) and value:
        value.pop()
    elif mutation == "ragged" and isinstance(value, list) and value and isinstance(value[0], list) and value[0]:
        value[0].pop()
    elif mutation == "ghost key" and isinstance(value, dict):
        value["ghost"] = copy.deepcopy(next(iter(value.values()), 1))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("payloads")
    (path / "graph.json").write_text(json.dumps(PAYLOADS["graph"][0]))
    (path / "dist.json").write_text(json.dumps(PAYLOADS["dist"][0]))
    cg_dist = dm.JointDistribution((("v1", 2), ("v2", 2)), np.full((2, 2), 0.25))
    (path / "cg_dist.json").write_text(json.dumps(dm.dist_to_dict(cg_dist)))
    return path


@pytest.mark.parametrize(
    "kind, command", [(kind, command) for kind, (_, commands) in PAYLOADS.items() for command in commands]
)
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_payloads_exit_0_1_or_2(workdir, kind, command, data):
    doc = copy.deepcopy(PAYLOADS[kind][0])
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        paths = list(_paths(doc))
        path = paths[data.draw(st.integers(0, len(paths) - 1), label="path index")]
        mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
        new = copy.deepcopy(data.draw(st.sampled_from(RETYPED), label="new value"))
        doc = _mutate(doc, path, mutation, new)
    (workdir / "input.json").write_text(json.dumps(doc))
    argv = [str(workdir / ("input.json" if a == "{}" else a)) if a.endswith((".json", "{}")) else a for a in command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
