"""Quantum models on causal graphs: Hilbert dimensions on edges, instruments on nodes.

An instrument maps each outcome of its node to a list of Kraus operators of
shape (product of outgoing edge dimensions, product of incoming edge
dimensions); summed over outcomes and operators, K†K accumulates to the
identity.  Evaluation turns each instrument into one superoperator tensor,
sum over Kraus operators of K (x) conj(K), with the node's outcome as an
open axis and a ket and a bra axis per edge, and contracts all of them in a
single einsum whose open indices are the outcomes.  The joint table is a
sum over the same products whatever the contraction order, so it does not
depend on the topological order up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as cg
from .classical import ClassicalModel, sorted_in_ids, sorted_out_ids
from .classical import validate_model as validate_classical
from . import _schema
from .dist import JointDistribution
from .errors import InvalidModel, NegativeProbability, SizeLimitExceeded, require_valid
from ._config import _contract, max_state_space

COMPLETENESS_TOL = 1e-10
IMAG_TOL = 1e-12
NEG_TOL = 1e-9


@dataclass(frozen=True)
class Instrument:
    """Per-outcome families of Kraus operators; empty families are allowed."""

    components: tuple[tuple[np.ndarray, ...], ...]

    @property
    def n_outcomes(self) -> int:
        return len(self.components)


@dataclass
class QuantumModel:
    graph: cg.CausalGraph
    edge_dim: dict[str, int]
    instruments: dict[str, Instrument]


def _io_dims(graph: cg.CausalGraph, edge_dim, v: str) -> tuple[int, int]:
    """Input and output dimensions of ``v``: products over its in- and out-edges."""
    din = math.prod(edge_dim[e.id] for e in graph.in_edges(v))
    dout = math.prod(edge_dim[e.id] for e in graph.out_edges(v))
    return din, dout


def completeness_deviation(model: QuantumModel, v: str) -> float:
    """Max-abs deviation of the summed K†K from the identity on the input space."""
    din, _ = _io_dims(model.graph, model.edge_dim, v)
    acc = np.zeros((din, din), dtype=complex)
    for ops in model.instruments[v].components:
        for k in ops:
            acc += k.conj().T @ k
    return float(np.abs(acc - np.eye(din)).max())


def validate_model(model: QuantumModel) -> list[str]:
    """Check shapes and trace preservation; returns violations (empty means ok)."""
    violations = list(cg.validate(model.graph))
    n_graph = len(violations)
    for e in model.graph.edges:
        d = model.edge_dim.get(e.id)
        if d is None:
            violations.append(f"edge {e.id!r}: missing dimension")
        elif d < 1:
            violations.append(f"edge {e.id!r}: dimension {d} < 1")
    # node dimensions are products of edge dimensions: check them only when those are sound
    dims_known = len(violations) == n_graph
    for v in model.graph.nodes:
        inst = model.instruments.get(v)
        if inst is None:
            violations.append(f"node {v!r}: missing instrument")
            continue
        n_o = model.graph.outcomes.get(v)
        if n_o is None:  # reported by cg.validate
            continue
        if inst.n_outcomes != n_o:
            violations.append(f"node {v!r}: instrument has {inst.n_outcomes} outcomes, expected {n_o}")
            continue
        if not dims_known:
            continue
        din, dout = _io_dims(model.graph, model.edge_dim, v)
        bad_shape = next((k.shape for ops in inst.components for k in ops if k.shape != (dout, din)), None)
        if bad_shape is not None:
            violations.append(f"node {v!r}: Kraus operator shape {bad_shape}, expected {(dout, din)}")
            continue
        dev = completeness_deviation(model, v)
        if dev > COMPLETENESS_TOL:
            violations.append(f"node {v!r}: completeness deviation {dev}")
    return violations


def _check_order(model: QuantumModel, order) -> list[str]:
    nodes = list(model.graph.nodes)
    order = list(order)
    if sorted(order) != sorted(nodes):
        raise InvalidModel(f"{order} is not a permutation of the graph nodes")
    pos = {v: i for i, v in enumerate(order)}
    for e in model.graph.edges:
        if pos[e.src] >= pos[e.dst]:
            raise InvalidModel(f"order violates edge {e.id!r}")
    return order


def _superoperator(model: QuantumModel, v: str, guard: int):
    """Node ``v`` as an einsum operand: the sum over its Kraus operators of
    K (x) conj(K), axes (outcome, outgoing kets, incoming kets, outgoing bras,
    incoming bras), edges in id order; edges of dimension 1 carry no axis."""
    components = model.instruments[v].components
    din, dout = _io_dims(model.graph, model.edge_dim, v)
    if len(components) * (din * dout) ** 2 > guard:
        raise SizeLimitExceeded(f"superoperator of node {v!r} exceeds the guard {guard}")
    kraus = np.zeros((len(components), max(map(len, components)), dout * din), dtype=complex)
    for o, ops in enumerate(components):
        for r, k in enumerate(ops):
            kraus[o, r] = k.ravel()
    s = np.matmul(kraus.transpose(0, 2, 1), kraus.conj())
    wide = [
        e for ids in (sorted_out_ids(model.graph, v), sorted_in_ids(model.graph, v))
        for e in ids if model.edge_dim[e] > 1
    ]
    subs = [("outcome", v)] + [("ket", e) for e in wide] + [("bra", e) for e in wide]
    return s.reshape([len(components)] + [model.edge_dim[e] for e in wide] * 2), subs


def evaluate(
    model: QuantumModel,
    order=None,
    max_states: int | None = None,
) -> JointDistribution:
    """Joint outcome distribution by one contraction of per-node superoperators.

    Every node's superoperator keeps its outcome axis open, and one einsum
    over all of them, listed along ``order`` (default: the canonical
    topological order), gives the whole table; any topological order gives
    the same table within 1e-10.  SizeLimitExceeded is raised when an
    operand, an intermediate or the table exceeds the state-space guard.
    Entries with imaginary residue beyond 1e-12 are rejected; entries below
    -1e-9 raise NegativeProbability, smaller negative noise is clamped to
    zero.
    """
    require_valid(validate_model(model))
    graph = model.graph
    order = _check_order(model, order if order is not None else cg.topological_order(graph))
    guard = max_state_space(max_states)
    operands = [_superoperator(model, v, guard) for v in order]
    p = _contract(operands, [("outcome", v) for v in graph.nodes], guard)
    bad = np.argwhere(np.abs(p.imag) > IMAG_TOL)
    if len(bad):
        at = tuple(bad[0].tolist())
        raise InvalidModel(f"imaginary residue {p.imag[at]} at outcome {at}")
    bad = np.argwhere(p.real < -NEG_TOL)
    if len(bad):
        at = tuple(bad[0].tolist())
        raise NegativeProbability(f"probability {p.real[at]} at outcome {at}")
    variables = tuple((v, graph.outcomes[v]) for v in graph.nodes)
    return JointDistribution(variables, np.maximum(p.real, 0.0), norm_tol=1e-8)


def decohere_embed(cmodel: ClassicalModel) -> QuantumModel:
    """Embed a classical model as a quantum one, diagonal in the canonical basis.

    Each edge alphabet becomes a Hilbert dimension and each positive gate
    entry one Kraus operator: the square-rooted entry times the matrix unit
    sending the incoming basis vector to the outgoing one.  Evaluation agrees
    with the classical evaluation within 1e-10.  SizeLimitExceeded is raised,
    before it is allocated, when a node's stack of Kraus operators has more
    entries than the state-space guard.
    """
    require_valid(validate_classical(cmodel))
    graph = cmodel.graph
    guard = max_state_space()
    dims = {e: int(s) for e, s in cmodel.edge_alphabet.items()}
    instruments = {}
    for v in graph.nodes:
        din, dout = _io_dims(graph, dims, v)
        n_o = graph.outcomes[v]
        rows = cmodel.gates[v].tensor.reshape(din, n_o, dout)
        # one operator per positive entry, outcome major, then lam_in, then lam_out
        o, lam_in, lam_out = np.nonzero(rows.transpose(1, 0, 2) > 0.0)
        if len(o) * dout * din > guard:
            raise SizeLimitExceeded(f"Kraus operators of node {v!r} exceed the guard {guard}")
        kraus = np.zeros((len(o), dout, din), dtype=complex)
        kraus[np.arange(len(o)), lam_out, lam_in] = np.sqrt(rows[lam_in, o, lam_out])
        parts = np.split(kraus, np.searchsorted(o, np.arange(1, n_o)))
        instruments[v] = Instrument(tuple(tuple(part) for part in parts))
    return QuantumModel(graph, dims, instruments)


def random_model(graph: cg.CausalGraph, edge_dims, seed: int) -> QuantumModel:
    """Random valid model: per node, a Haar-style isometry split into Kraus blocks.

    ``edge_dims`` is one int for all edges or a map from edge id.  A complex
    Gaussian matrix is orthonormalized by QR, giving an isometry from the
    input space into (outcomes x environment x output); its blocks are exactly
    complete.  Deterministic for a given seed.
    """
    if isinstance(edge_dims, int):
        dims = {e.id: edge_dims for e in graph.edges}
    else:
        dims = {e.id: int(edge_dims[e.id]) for e in graph.edges}
    rng = np.random.default_rng(seed)
    instruments = {}
    for v in graph.nodes:
        din, dout = _io_dims(graph, dims, v)
        m = graph.outcomes[v]
        env = max(1, -(-din // (dout * m)))
        g = rng.normal(size=(dout * m * env, din)) + 1j * rng.normal(size=(dout * m * env, din))
        q, _ = np.linalg.qr(g)
        blocks = q.reshape(m, env, dout, din)
        instruments[v] = Instrument(
            tuple(tuple(blocks[o, j] for j in range(env)) for o in range(m))
        )
    return QuantumModel(graph, dims, instruments)


def model_to_dict(model: QuantumModel) -> dict:
    def encode(k: np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in k]

    return {
        "graph": cg.graph_to_dict(model.graph),
        "edge_dims": {e: int(d) for e, d in model.edge_dim.items()},
        "instruments": {
            v: {
                str(o): [encode(k) for k in ops]
                for o, ops in enumerate(inst.components)
            }
            for v, inst in model.instruments.items()
        },
    }


def model_from_dict(data: dict) -> QuantumModel:
    """Parse the quantum model JSON schema; unknown fields and map keys are rejected."""
    what = "quantum model JSON"
    graph, dims, instruments = _schema.fields(data, what, {"graph": dict, "edge_dims": dict, "instruments": dict})
    graph = cg.graph_from_dict(graph)
    dims = _schema.sizes(dims, f"{what} edge_dims", [e.id for e in graph.edges])
    # refused before one key per outcome is made: evaluation would refuse the table anyway
    entries = math.prod(graph.outcomes.values())
    if entries > max_state_space():
        raise SizeLimitExceeded(f"the joint outcome table of {entries} entries exceeds the guard {max_state_space()}")
    parsed = {}
    for v, byo in _schema.named(instruments, f"{what} instruments", graph.outcomes).items():
        keys = [str(o) for o in range(graph.outcomes[v])]
        what_v = f"{what} instrument of {v!r}"
        _schema.named(byo, what_v, keys)
        components = []
        for o in keys:
            kraus = _schema.typed(byo.get(o, []), list, what_v)
            components.append(tuple(_schema.numbers(k, what_v, (None, None), complex) for k in kraus))
        parsed[v] = Instrument(tuple(components))
    return QuantumModel(graph, dims, parsed)
