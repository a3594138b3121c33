"""Edge hidden-variable models with stochastic gates at the nodes.

Every edge carries a finite hidden alphabet and every node a gate: a
conditional distribution of (outcome, outgoing hidden values) given the
incoming hidden values.  Gate tensors are laid out incoming-values-major,
then the outcome axis, then outgoing values, with edges always ordered
lexicographically by edge id so that layouts are reproducible.

Besides evaluation, this module implements three structural rewrites that
preserve the evaluated joint: pushing gate randomness back into an enlarged
parent edge (making all non-root gates deterministic), adding a trivial
one-letter edge along an indirect causal link, and rerouting such a direct
edge through an intermediate relay node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import graph as cg
from . import _schema
from .dist import JointDistribution, _json_table
from .errors import (
    MissingRelayPath,
    NotAncestral,
    SchemaError,
    SizeLimitExceeded,
    UnknownNode,
    WouldCreateCycle,
    require_valid,
)
from ._config import DEFAULT_MAX_PUSHBACK_ALPHABET, BoundedCache, _contract, max_state_space

GATE_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Gate:
    """Stochastic gate of one node.

    ``tensor`` has shape (incoming alphabet sizes, outcome size, outgoing
    alphabet sizes); every incoming-values slice sums to 1.
    """

    in_edges: tuple[str, ...]
    out_edges: tuple[str, ...]
    tensor: np.ndarray

    @property
    def deterministic(self) -> bool:
        t = self.tensor
        return bool(np.all((t == 0.0) | (t == 1.0)))


@dataclass
class ClassicalModel:
    graph: cg.CausalGraph
    edge_alphabet: dict[str, int]
    gates: dict[str, Gate]


def sorted_in_ids(graph: cg.CausalGraph, v: str) -> tuple[str, ...]:
    return tuple(sorted(e.id for e in graph.in_edges(v)))


def sorted_out_ids(graph: cg.CausalGraph, v: str) -> tuple[str, ...]:
    return tuple(sorted(e.id for e in graph.out_edges(v)))


# axis labels that are not edge ids: the outcome, a pushed-back function
# table and the relayed input and output; objects, so no edge id equals one
_OUTCOME, _TABLE, _RELAY_IN, _RELAY_OUT = object(), object(), object(), object()


def _labels(gate: Gate) -> tuple:
    return (*gate.in_edges, _OUTCOME, *gate.out_edges)


def _rewire(tensor: np.ndarray, labels, in_edges, out_edges, merged) -> Gate:
    """Gate wired to ``in_edges``/``out_edges`` from ``tensor``, whose axes carry ``labels``.

    The axis of each new edge ``e`` is the group ``merged.get(e, (e,))`` of
    old axes, the first most significant; ``()`` gives a one-letter axis.
    """
    at = {x: i for i, x in enumerate(labels)}
    groups = [merged.get(e, (e,)) for e in (*in_edges, _OUTCOME, *out_edges)]
    shape = [math.prod(tensor.shape[at[x]] for x in g) for g in groups]
    return Gate(in_edges, out_edges, tensor.transpose([at[x] for g in groups for x in g]).reshape(shape))


# Structural verdicts of the model validators, one per key (see _kept) weighed
# by its length; a structure pass keeps about 1,500 keys, 150,000 entries in all.
MAX_STRUCTURE_ENTRIES = 2**19
_STRUCTURES = BoundedCache(MAX_STRUCTURE_ENTRIES)


def _kept(key, sizes, build):
    """``build()``, kept under ``key`` (the oldest dropped first) when each of ``sizes``
    is an int or None; a model with other sizes or an unhashable key is judged afresh."""
    try:
        kept = set(map(type, sizes)) <= {int, type(None)} and _STRUCTURES.get(key)
    except TypeError:  # an unhashable key: a gate wired to a list of edge ids, say
        kept = False
    return build() if kept is False else kept or _STRUCTURES.put(key, build(), len(key))


def _row_groups(items):
    """The violations among ``items``, the labels of its tables with entries per
    row length and dtype, and those of its tables with rows of no entries."""
    groups, empty = {}, []
    for t, lead, label in (item for item in items if not isinstance(item, str)):
        if t.size:
            groups.setdefault((math.prod(t.shape[lead:]), t.dtype), []).append(label)
        elif math.prod(t.shape[:lead]):
            empty.append(label)
    clean = tuple(item for item in items if isinstance(item, str))
    return clean, tuple((cell, tuple(labels)) for (cell, _), labels in groups.items()), tuple(empty)


def _row_checked(key, sizes, items, table, tol, describe) -> list[str]:
    """Violations of a model, with the row checks of its tables filled in.

    ``items()`` lists its violations and ``(tensor, lead, label)`` tables, whose
    rows are the blocks of their axes after the first ``lead``; their
    :func:`_row_groups` are kept under ``key``.  On every call each group's
    tables ``table(label)`` are checked by one concatenation, row sum and
    minimum, so a C-ordered tensor's row sums are bit-identical to its own
    ``sum``.  A table fails on a negative entry or a row sum more than ``tol``
    from 1 (NaN and infinite entries make it so; rows of no entries sum to 0);
    only then is ``items()`` listed again, and ``describe(label, least, dev)``
    gives its violations: ``least`` is its least entry when one is negative,
    ``dev`` its largest row deviation when that fails, each else None.
    """
    clean, groups, empty = _kept(key, sizes, lambda: _row_groups(items()))
    faults = dict.fromkeys(empty, (None, 1.0))  # label -> (least, dev)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in a row sum is a NaN fault
        for cell, labels in groups:
            parts = [table(label).ravel() for label in labels]
            flat = np.concatenate(parts) if len(parts) > 1 else parts[0]
            devs = np.abs(flat.reshape(-1, cell).sum(axis=1) - 1.0)
            if flat.min() >= 0 and devs.max() <= tol:
                continue
            row = 0
            for label, part in zip(labels, parts):
                rows = part.size // cell
                dev = float(devs[row:row + rows].max())
                row += rows
                least = float(part.min()) if np.any(part < 0) else None
                if least is not None or not dev <= tol:
                    faults[label] = (least, None if dev <= tol else dev)
    if not faults:
        return list(clean)
    violations = []
    for item in items():
        if isinstance(item, str):
            violations.append(item)
        elif item[2] in faults:
            violations.extend(describe(item[2], *faults[item[2]]))
    return violations


def _gate_faults(v, least, dev):
    if least is not None:
        yield f"node {v!r}: negative gate entry {least}"
    if dev is not None:
        yield f"node {v!r}: gate rows deviate from 1 by {dev}" if math.isfinite(dev) else f"node {v!r}: non-finite gate entry"


def _gate_items(model: ClassicalModel) -> list:
    violations = list(cg.validate(model.graph))
    alphabet = model.edge_alphabet
    violations += cg._size_faults("edge", [e.id for e in model.graph.edges], alphabet, "hidden alphabet")
    in_ids, out_ids = {}, {}  # node -> ids of its in- and out-edges, in one pass
    for e in model.graph.edges:
        in_ids.setdefault(e.dst, []).append(e.id)
        out_ids.setdefault(e.src, []).append(e.id)
    for v in model.graph.nodes:
        gate = model.gates.get(v)
        if gate is None:
            violations.append(f"node {v!r}: missing gate")
            continue
        ins, outs = (tuple(sorted(ids.get(v, ()))) for ids in (in_ids, out_ids))
        if gate.in_edges != ins or gate.out_edges != outs:
            violations.append(f"node {v!r}: gate wired to {gate.in_edges}/{gate.out_edges}, expected {ins}/{outs}")
            continue
        try:
            expected = (*(alphabet[e] for e in ins), model.graph.outcomes[v], *(alphabet[e] for e in outs))
        except KeyError:
            continue
        if gate.tensor.shape != expected:
            violations.append(f"node {v!r}: gate tensor shape {gate.tensor.shape}, expected {expected}")
            continue
        violations.append((gate.tensor, len(ins), v))
    return violations


def validate_model(model: ClassicalModel) -> list[str]:
    """Check model invariants; returns a list of violations (empty means ok).

    Wiring, shapes and alphabets (integers of at least 1) are checked node by
    node, once per key of the graph, the sizes and each gate's wiring, rank,
    dtype and shape.  On every call, every gate entry must be non-negative and
    every (outcome, outgoing values) row must sum to 1 within
    ``GATE_NORM_TOL`` (:func:`_row_checked`).  The violations are those of a
    gate-by-gate check, in node order.
    """
    graph, gates = model.graph, model.gates
    sizes = [*map(graph.outcomes.get, graph.nodes), *(model.edge_alphabet.get(e.id) for e in graph.edges)]
    key = [_gate_items, graph.nodes, graph.edges, *sizes]
    for g in map(gates.get, graph.nodes):
        key += (None,) if g is None else (g.in_edges, g.out_edges, g.tensor.ndim, g.tensor.dtype, *g.tensor.shape)
    return _row_checked(tuple(key), sizes, lambda: _gate_items(model), lambda v: gates[v].tensor,
                        GATE_NORM_TOL, _gate_faults)


def _contract_gates(model: ClassicalModel, nodes, max_states) -> JointDistribution:
    """Joint of ``nodes`` (an ancestral set, in graph order): einsum over their
    gates with the outcomes open.  Hidden values on edges leaving the set are
    summed out; one-letter edges are squeezed away first."""
    operands = []
    for v in nodes:
        gate = model.gates[v]
        n_in = len(gate.in_edges)
        subs = list(gate.in_edges) + [("outcome", v)] + list(gate.out_edges)
        keep = [i for i, e in enumerate(subs) if i == n_in or model.edge_alphabet[e] > 1]
        squeeze = tuple(i for i in range(len(subs)) if i not in keep)
        operands.append((np.squeeze(gate.tensor, axis=squeeze), [subs[i] for i in keep]))
    table = _contract(operands, [("outcome", v) for v in nodes], max_states)
    variables = tuple((v, model.graph.outcomes[v]) for v in nodes)
    return JointDistribution(variables, table)


def evaluate(model: ClassicalModel, max_states: int | None = None) -> JointDistribution:
    """Joint outcome distribution: sum over hidden values of the gate product.

    Contraction is delegated to einsum (variable elimination) and refused
    when an operand, an intermediate or the table exceeds the state-space
    guard; trivial one-letter edges are squeezed out first, so adding such an
    edge leaves the result bit-identical.
    """
    require_valid(validate_model(model))
    return _contract_gates(model, model.graph.nodes, max_states)


def evaluate_marginal_ancestral(model: ClassicalModel, subset) -> JointDistribution:
    """Marginal on an ancestral node set, computed from that set's gates only.

    Sums over the hidden values on edges leaving the set; equals the marginal
    of the full evaluation within 1e-12.  The empty set gives the scalar 1.
    """
    require_valid(validate_model(model))
    subset = frozenset(subset)
    for v in subset:
        if v not in set(model.graph.nodes):
            raise UnknownNode(f"unknown node {v!r}")
    if cg.causal_past(model.graph, subset) != subset:
        raise NotAncestral(f"{sorted(subset)} is not equal to its causal past")
    return _contract_gates(model, [v for v in model.graph.nodes if v in subset], None)


def push_back_determinism(
    model: ClassicalModel,
    max_alphabet: int = DEFAULT_MAX_PUSHBACK_ALPHABET,
    max_states: int | None = None,
) -> ClassicalModel:
    """Equivalent model whose every gate at a node with incoming edges is deterministic.

    Nodes are visited in reverse topological order.  For a stochastic gate at
    ``w``, the full function table from incoming tuples to (outcome, outgoing
    values) cells is sampled once at the designated parent (lowest node id,
    then lowest edge id) and shipped to ``w`` inside an enlarged edge
    alphabet; ``w`` then merely applies the received function.  Alphabets grow
    doubly exponentially, hence the hard guard; the evaluated joint is
    preserved within 1e-12.
    """
    require_valid(validate_model(model))
    graph = model.graph
    edge_sizes = dict(model.edge_alphabet)
    gates = dict(model.gates)
    guard = max_state_space(max_states)
    for w in reversed(cg.topological_order(graph)):
        gate = gates[w]
        if not gate.in_edges:
            continue
        if gate.deterministic:
            continue
        u = min(e.src for e in graph.in_edges(w))
        desig = min(e.id for e in graph.in_edges(w) if e.src == u)
        n_in = math.prod(gate.tensor.shape[: len(gate.in_edges)])  # incoming tuples
        cell = gate.tensor.size // n_in  # (outcome, outgoing values) cells
        n_f = cell**n_in
        new_size = n_f * edge_sizes[desig]
        if new_size > max_alphabet:
            raise SizeLimitExceeded(
                f"pushed-back alphabet {new_size} on edge {desig!r} exceeds {max_alphabet}"
            )
        if n_f * n_in * cell > guard:  # the entries of w's new gate, and of its lookup table
            raise SizeLimitExceeded("pushed-back gate tensor exceeds the state-space guard")
        if n_f * gates[u].tensor.size > guard:
            raise SizeLimitExceeded(
                f"pushed-back gate at parent {u!r} exceeds the state-space guard"
            )

        # a function table f picks one cell per incoming tuple, the first tuple
        # most significant; its weight is the product of the picked entries
        f_probs = functools.reduce(np.multiply.outer, gate.tensor.reshape(n_in, cell)).ravel()
        digits = np.transpose(np.unravel_index(np.arange(n_f), (cell,) * n_in))
        applied = np.eye(cell)[digits].reshape((n_f,) + gate.tensor.shape)  # w looks up the cell f picks
        gates[w] = _rewire(applied, (_TABLE, *_labels(gate)), gate.in_edges, gate.out_edges,
                           {desig: (_TABLE, desig)})
        ugate = gates[u]
        gates[u] = _rewire(np.multiply.outer(f_probs, ugate.tensor), (_TABLE, *_labels(ugate)),
                           ugate.in_edges, ugate.out_edges, {desig: (_TABLE, desig)})
        edge_sizes[desig] = new_size
    return ClassicalModel(graph, edge_sizes, gates)


def lift_trivial_edge(
    model: ClassicalModel, src: str, dst: str, edge_id: str | None = None
) -> ClassicalModel:
    """Add an edge carrying a one-letter alphabet; the evaluated joint is unchanged.

    Intended for links already implied by the partial order (a transitive
    edge); adding any acyclic edge with a trivial alphabet is sound since a
    one-point hidden variable carries no information.
    """
    require_valid(validate_model(model))
    graph = model.graph
    nodes = set(graph.nodes)
    if src not in nodes or dst not in nodes:
        raise UnknownNode(f"unknown endpoint in {src!r}->{dst!r}")
    if src == dst or dst in cg.causal_past(graph, [src]):
        raise WouldCreateCycle(f"{src}->{dst} would close a cycle")
    if edge_id is None:
        edge_id = f"{src}->{dst}#lift"
    if any(e.id == edge_id for e in graph.edges):
        raise SchemaError(f"edge id {edge_id!r} already in use")
    new_graph = replace(graph, edges=graph.edges + (cg.Edge(edge_id, src, dst),),
                        outcomes=dict(graph.outcomes))
    sizes = dict(model.edge_alphabet)
    sizes[edge_id] = 1
    gates = dict(model.gates)
    for v, ins, outs in ((src, (), (edge_id,)), (dst, (edge_id,), ())):
        g = gates[v]
        gates[v] = _rewire(g.tensor, _labels(g), tuple(sorted(g.in_edges + ins)),
                           tuple(sorted(g.out_edges + outs)), {edge_id: ()})
    return ClassicalModel(new_graph, sizes, gates)


def reroute_transitive_edge(model: ClassicalModel, edge_id: str, via: str) -> ClassicalModel:
    """Remove the edge and relay its hidden variable through ``via`` instead.

    Requires existing edges ``src(edge)->via`` and ``via->dst(edge)`` (the
    lexicographically smallest of each is used as relay).  Their alphabets are
    enlarged by the removed edge's alphabet (original value major), the relay
    node's gate is tensored with an identity channel on the relayed component,
    and the endpoint gates are rewired.  The evaluated joint is preserved
    within 1e-12.  SizeLimitExceeded is raised, before anything is built,
    when the relay gate (its entries times k² for a removed edge of alphabet
    k) exceeds the state-space guard.
    """
    require_valid(validate_model(model))
    graph = model.graph
    edge = graph.edge(edge_id)
    u, w = edge.src, edge.dst
    uv_candidates = sorted(e.id for e in graph.edges if e.src == u and e.dst == via)
    vw_candidates = sorted(e.id for e in graph.edges if e.src == via and e.dst == w)
    if not uv_candidates or not vw_candidates:
        raise MissingRelayPath(f"no {u}->{via}->{w} relay path for edge {edge_id!r}")
    uv, vw = uv_candidates[0], vw_candidates[0]
    k = model.edge_alphabet[edge_id]
    relay, guard = model.gates[via].tensor.size * k * k, max_state_space()
    if relay > guard:
        raise SizeLimitExceeded(f"relay gate of {relay} entries at {via!r} exceeds the guard {guard}")

    new_graph = replace(graph, edges=tuple(e for e in graph.edges if e.id != edge_id),
                        outcomes=dict(graph.outcomes))
    sizes = {e: s for e, s in model.edge_alphabet.items() if e != edge_id}
    sizes[uv] = model.edge_alphabet[uv] * k
    sizes[vw] = model.edge_alphabet[vw] * k
    gates = dict(model.gates)
    g = gates[u]
    gates[u] = _rewire(g.tensor, _labels(g), g.in_edges, tuple(e for e in g.out_edges if e != edge_id),
                       {uv: (uv, edge_id)})
    g = gates[w]
    gates[w] = _rewire(g.tensor, _labels(g), tuple(e for e in g.in_edges if e != edge_id), g.out_edges,
                       {vw: (vw, edge_id)})
    g = gates[via]
    gates[via] = _rewire(np.multiply.outer(g.tensor, np.eye(k)), (*_labels(g), _RELAY_IN, _RELAY_OUT),
                         g.in_edges, g.out_edges, {uv: (uv, _RELAY_IN), vw: (vw, _RELAY_OUT)})
    return ClassicalModel(new_graph, sizes, gates)


def random_model(graph: cg.CausalGraph, edge_sizes, seed: int) -> ClassicalModel:
    """Model with independently drawn, row-normalized uniform gate entries.

    ``edge_sizes`` is either one int for all edges or a map from edge id.
    Deterministic for a given seed.
    """
    if isinstance(edge_sizes, int):
        alphabet = {e.id: edge_sizes for e in graph.edges}
    else:
        alphabet = {e.id: int(edge_sizes[e.id]) for e in graph.edges}
    rng = np.random.default_rng(seed)
    gates = {}
    for v in graph.nodes:
        ins = sorted_in_ids(graph, v)
        outs = sorted_out_ids(graph, v)
        shape = (
            tuple(alphabet[e] for e in ins)
            + (graph.outcomes[v],)
            + tuple(alphabet[e] for e in outs)
        )
        t = rng.uniform(size=shape)
        t /= t.sum(axis=tuple(range(len(ins), len(shape))), keepdims=True)
        gates[v] = Gate(ins, outs, t)
    return ClassicalModel(graph, alphabet, gates)


def model_to_dict(model: ClassicalModel) -> dict:
    return {
        "graph": cg.graph_to_dict(model.graph),
        "edge_sizes": {e: int(s) for e, s in model.edge_alphabet.items()},
        "gates": {
            v: {
                "in": list(g.in_edges),
                "out": list(g.out_edges),
                "tensor": [float(x) for x in g.tensor.ravel()],
            }
            for v, g in model.gates.items()
        },
    }


def model_from_dict(data: dict) -> ClassicalModel:
    """Parse the classical model JSON schema; unknown fields and map keys are rejected."""
    graph, sizes, gates = _schema.fields(data, "model JSON", {"graph": dict, "edge_sizes": dict, "gates": dict})
    graph = cg.graph_from_dict(graph)
    sizes = _schema.sizes(sizes, "model JSON edge_sizes", [e.id for e in graph.edges])
    parsed = {}
    for v, g in _schema.named(gates, "model JSON gates", graph.outcomes).items():
        what = f"gate JSON of node {v!r}"
        ins, outs, tensor = _schema.fields(g, what, {"in": list, "out": list, "tensor": list})
        ins = tuple(_schema.named(ins, f"{what}, in", sizes, list))
        outs = tuple(_schema.named(outs, f"{what}, out", sizes, list))
        shape = [sizes[e] for e in ins] + [graph.outcomes[v]] + [sizes[e] for e in outs]
        parsed[v] = Gate(ins, outs, _json_table(tensor, f"{what}, tensor", shape))
    return ClassicalModel(graph, sizes, parsed)
