"""Hidden Bayesian networks: node-dwelling hidden variables with noisy readouts.

Each node carries a finite hidden alphabet, a transition table conditioned on
the parents' hidden values (parents ordered by node id), and a readout table
from hidden value to outcome.  The two constructive conversions to and from
edge hidden-variable models preserve the evaluated joint exactly (up to float
rounding): an edge model packs (outcome, outgoing hidden values) into the
node's hidden state, and conversely every outgoing edge of a node broadcasts
a copy of that node's hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as cg
from .classical import ClassicalModel, Gate, _row_checked, sorted_in_ids, sorted_out_ids
from .classical import validate_model as validate_classical
from . import _schema
from .dist import JointDistribution, _json_table
from .errors import SizeLimitExceeded, require_valid
from ._config import _contract, max_state_space

ROW_NORM_TOL = 1e-12


@dataclass
class HiddenBayesNet:
    graph: cg.CausalGraph
    node_alphabet: dict[str, int]
    transitions: dict[str, np.ndarray]  # shape: (parent alphabets..., own alphabet)
    readouts: dict[str, np.ndarray]  # shape: (own alphabet, outcome alphabet)


def sorted_parents(graph: cg.CausalGraph, v: str) -> tuple[str, ...]:
    return tuple(sorted(graph.parents(v)))


def _table_faults(label, least, dev):
    v, kind = label
    if least is not None:
        yield f"node {v!r}: negative {kind} entry"
    if dev is not None:
        yield f"node {v!r}: {kind} rows deviate from 1 by {dev}"


def _table_items(hbn: HiddenBayesNet) -> list:
    violations = list(cg.validate(hbn.graph))
    alphabet = hbn.node_alphabet
    violations += cg._size_faults("node", hbn.graph.nodes, alphabet, "hidden alphabet")
    for v in hbn.graph.nodes:
        trans, read = hbn.transitions.get(v), hbn.readouts.get(v)
        if trans is None or read is None:
            violations.append(f"node {v!r}: missing transition or readout table")
            continue
        expected = tuple(alphabet.get(u) for u in sorted_parents(hbn.graph, v) + (v,))
        if None in expected:  # the missing alphabet is reported above
            continue
        if trans.shape != expected:
            violations.append(f"node {v!r}: transition shape {trans.shape}, expected {expected}")
            continue
        violations.append((trans, trans.ndim - 1, (v, "transition")))
        n_o = hbn.graph.outcomes.get(v)
        if n_o is None:  # reported by cg.validate
            continue
        if read.shape != (alphabet[v], n_o):
            violations.append(f"node {v!r}: readout shape {read.shape}, expected {(alphabet[v], n_o)}")
            continue
        violations.append((read, 1, (v, "readout")))
    return violations


def validate(hbn: HiddenBayesNet) -> list[str]:
    """Check table shapes and row normalization; returns violations (empty = ok).

    Shapes and alphabets are checked as in ``classical.validate_model``; a
    node whose own, a parent's or an outcome alphabet is missing gets no
    shape check of the tables that need it.  A table's rows are its last
    axis, checked on every call as ``classical._row_checked`` does, within
    ``ROW_NORM_TOL``.  The violations are those of a table-by-table check.
    """
    graph, tables = hbn.graph, {"transition": hbn.transitions, "readout": hbn.readouts}
    sizes = [*map(graph.outcomes.get, graph.nodes), *map(hbn.node_alphabet.get, graph.nodes)]
    key = [_table_items, graph.nodes, graph.edges, *sizes]
    for t in (table.get(v) for v in graph.nodes for table in tables.values()):
        key += (None,) if t is None else (t.ndim, t.dtype, *t.shape)
    return _row_checked(tuple(key), sizes, lambda: _table_items(hbn), lambda label: tables[label[1]][label[0]],
                        ROW_NORM_TOL, _table_faults)


def evaluate(hbn: HiddenBayesNet, max_states: int | None = None) -> JointDistribution:
    """Exact sum over hidden assignments of readout times transition products.

    One einsum contraction, refused when an operand, an intermediate or the
    table exceeds the state-space guard.
    """
    require_valid(validate(hbn))
    graph = hbn.graph
    operands = []
    for v in graph.nodes:
        operands.append((hbn.transitions[v], list(sorted_parents(graph, v)) + [v]))
        operands.append((hbn.readouts[v], [v, ("outcome", v)]))
    table = _contract(operands, [("outcome", v) for v in graph.nodes], max_states)
    variables = tuple((v, graph.outcomes[v]) for v in graph.nodes)
    return JointDistribution(variables, table)


def from_classical(model: ClassicalModel) -> HiddenBayesNet:
    """Repackage an edge hidden-variable model with node-dwelling hidden states.

    The hidden state of a node is its (outcome, outgoing hidden values) tuple,
    outcome index major; transitions replay the node's gate with the incoming
    values read off the parents' states, and readouts project onto the
    outcome.  Evaluations agree within 1e-12.  SizeLimitExceeded is raised
    when a transition table exceeds the state-space guard.
    """
    require_valid(validate_classical(model))
    graph = model.graph
    guard = max_state_space()
    # a node's hidden state packs its outcome and its out-edges' values, in that order
    out_ids = {v: sorted_out_ids(graph, v) for v in graph.nodes}
    packed = {v: (graph.outcomes[v], *(model.edge_alphabet[e] for e in out_ids[v])) for v in graph.nodes}
    sizes = {v: math.prod(shape) for v, shape in packed.items()}
    transitions = {}
    readouts = {}
    for v in graph.nodes:
        gate = model.gates[v]
        pa = sorted_parents(graph, v)
        entries = math.prod(sizes[u] for u in pa) * sizes[v]  # bounds the hidden alphabets too
        if entries > guard:
            raise SizeLimitExceeded(f"transition table of {entries} entries at node {v!r} exceeds the guard")
        # index[i][mu_pa...]: the value of in-edge i in the packed state of its source
        index = []
        for e in gate.in_edges:
            u = graph.edge(e).src
            digit = np.unravel_index(np.arange(sizes[u]), packed[u])[1 + out_ids[u].index(e)]
            index.append(digit.reshape([-1 if w == u else 1 for w in pa]))
        in_sizes = tuple(model.edge_alphabet[e] for e in gate.in_edges)
        # astype copies: a root's empty index would hand back a view of its gate
        transitions[v] = gate.tensor.reshape(in_sizes + (sizes[v],))[tuple(index)].astype(float)
        n_o = graph.outcomes[v]
        readouts[v] = np.repeat(np.eye(n_o), sizes[v] // n_o, axis=0)
    return HiddenBayesNet(graph, sizes, transitions, readouts)


def to_classical(hbn: HiddenBayesNet) -> ClassicalModel:
    """Unpack a hidden Bayesian network into an edge hidden-variable model.

    Every edge carries a copy of its source node's hidden state; a node's
    gate draws its own hidden value from the transition row selected by the
    parents' states, draws the outcome from the readout of that value, and
    broadcasts the value on all outgoing edges (diagonal support).  With
    parallel edges from the same parent, the incoming value is read from the
    lexicographically smallest edge.  Evaluations agree within 1e-12.
    SizeLimitExceeded is raised when a gate tensor exceeds the state-space guard.
    """
    require_valid(validate(hbn))
    graph = hbn.graph
    guard = max_state_space()
    alphabet = {e.id: hbn.node_alphabet[e.src] for e in graph.edges}
    gates = {}
    for v in graph.nodes:
        in_ids = sorted_in_ids(graph, v)
        out_ids = sorted_out_ids(graph, v)
        yv = hbn.node_alphabet[v]
        n_o = graph.outcomes[v]
        in_sizes = tuple(alphabet[e] for e in in_ids)
        shape = in_sizes + (n_o,) + (yv,) * len(out_ids)
        if math.prod(shape) > guard:  # exact: an int64 product can wrap below the guard
            raise SizeLimitExceeded(f"gate tensor at node {v!r} exceeds the guard")
        # weight[lam_in..., mu, o] = transition * readout, each parent's value read
        # off its canonical in-edge and broadcast over that parent's other in-edges
        index = []
        for u in sorted_parents(graph, v):
            canonical = min(e.id for e in graph.in_edges(v) if e.src == u)
            axes = [-1 if e == canonical else 1 for e in in_ids]
            index.append(np.arange(hbn.node_alphabet[u]).reshape(axes))
        weight = (hbn.transitions[v][..., :, None] * hbn.readouts[v])[tuple(index)]
        tensor = np.zeros(shape)
        if out_ids:  # one value on the diagonal of the out-edge axes
            tensor[(..., slice(None)) + (np.arange(yv),) * len(out_ids)] = np.swapaxes(weight, -1, -2)
        else:
            tensor[...] = weight.sum(axis=-2)
        gates[v] = Gate(in_ids, out_ids, tensor)
    return ClassicalModel(graph, alphabet, gates)


def random_hbn(graph: cg.CausalGraph, node_sizes, seed: int) -> HiddenBayesNet:
    """Random valid network: uniform entries, row-normalized; deterministic per seed."""
    if isinstance(node_sizes, int):
        sizes = {v: node_sizes for v in graph.nodes}
    else:
        sizes = {v: int(node_sizes[v]) for v in graph.nodes}
    rng = np.random.default_rng(seed)
    transitions = {}
    readouts = {}
    for v in graph.nodes:
        pa = sorted_parents(graph, v)
        shape = tuple(sizes[u] for u in pa) + (sizes[v],)
        t = rng.uniform(size=shape)
        t /= t.sum(axis=-1, keepdims=True)
        transitions[v] = t
        r = rng.uniform(size=(sizes[v], graph.outcomes[v]))
        r /= r.sum(axis=-1, keepdims=True)
        readouts[v] = r
    return HiddenBayesNet(graph, sizes, transitions, readouts)


def hbn_to_dict(hbn: HiddenBayesNet) -> dict:
    return {
        "graph": cg.graph_to_dict(hbn.graph),
        "node_sizes": {v: int(s) for v, s in hbn.node_alphabet.items()},
        "transitions": {v: [float(x) for x in t.ravel()] for v, t in hbn.transitions.items()},
        "readouts": {v: [float(x) for x in r.ravel()] for v, r in hbn.readouts.items()},
    }


def hbn_from_dict(data: dict) -> HiddenBayesNet:
    """Parse the hidden-Bayesian-network JSON schema; unknown fields and map keys are rejected."""
    what = "hidden-Bayesian-network JSON"
    kinds = {"graph": dict, "node_sizes": dict, "transitions": dict, "readouts": dict}
    graph, sizes, transitions, readouts = _schema.fields(data, what, kinds)
    graph = cg.graph_from_dict(graph)
    # a transition table's shape is read off the graph's parents, so the graph must be sound first
    require_valid(cg.validate(graph))
    sizes = _schema.sizes(sizes, f"{what} node_sizes", graph.nodes)
    transitions = {
        v: _json_table(t, f"{what} transitions of {v!r}", [sizes[u] for u in sorted_parents(graph, v) + (v,)])
        for v, t in _schema.named(transitions, f"{what} transitions", graph.outcomes).items()
    }
    readouts = {
        v: _json_table(r, f"{what} readouts of {v!r}", [sizes[v], graph.outcomes[v]])
        for v, r in _schema.named(readouts, f"{what} readouts", graph.outcomes).items()
    }
    return HiddenBayesNet(graph, sizes, transitions, readouts)
