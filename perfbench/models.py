"""Seeded inputs and output checks shared by the workloads.

Every input is built here from a ``numpy.random.Generator``, using only the
package's public data classes, so the benchmark depends neither on the test
suite nor on the package's own random-model helpers.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from causalcorr import classical, correlation, dist, graph, hbn, quantum

# Per-op deadline in seconds; an op past it is abandoned and counted failed.
DEADLINE_S = 5.0


class CheckFailed(Exception):
    """An op returned an answer that fails its output check."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# The five standard causal structures of the paper; edges are (src, dst).
FAMILIES = {
    "bell": (
        ["s", "x", "y", "a", "b"],
        [("s", "a"), ("s", "b"), ("x", "a"), ("y", "b")],
    ),
    "triangle": (
        ["x", "y", "z", "a", "b", "c"],
        [("x", "b"), ("x", "c"), ("y", "a"), ("y", "c"), ("z", "a"), ("z", "b")],
    ),
    "popescu": (
        ["s", "ap", "bp", "x", "y", "a", "b"],
        [("s", "ap"), ("s", "bp"), ("ap", "a"), ("bp", "b"), ("x", "a"), ("y", "b")],
    ),
    "bilocality": (
        ["s", "t", "x", "y", "z", "a", "b", "c"],
        [("s", "a"), ("s", "b"), ("t", "b"), ("t", "c"), ("x", "a"), ("y", "b"), ("z", "c")],
    ),
    "sequential": (
        ["s", "xp", "yp", "ap", "bp", "x", "y", "a", "b"],
        [
            ("s", "ap"), ("s", "bp"), ("xp", "ap"), ("yp", "bp"),
            ("ap", "a"), ("bp", "b"), ("x", "a"), ("y", "b"),
        ],
    ),
}


def make_graph(nodes, edges, outcomes) -> graph.CausalGraph:
    """Graph with edge ids ``u->w``; ``outcomes`` is one size or a map per node."""
    sizes = outcomes if isinstance(outcomes, dict) else {v: outcomes for v in nodes}
    return graph.CausalGraph.build(
        [(v, sizes[v]) for v in nodes], [(f"{u}->{w}", u, w) for u, w in edges]
    )


def family_graph(name: str, outcomes: int) -> graph.CausalGraph:
    nodes, edges = FAMILIES[name]
    return make_graph(nodes, edges, outcomes)


def sparse_dag(rng, n: int, extra: int):
    """Random DAG on ``n`` nodes: a random tree plus ``extra`` forward edges."""
    nodes = [f"v{i:02d}" for i in range(n)]
    n_roots = int(rng.integers(2, 4))
    edges = set()
    for j in range(n_roots, n):
        edges.add((int(rng.integers(0, j)), j))
    while len(edges) < n - n_roots + extra:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((i, j))
    return nodes, [(nodes[i], nodes[j]) for i, j in sorted(edges)]


def _in_out(g: graph.CausalGraph, v: str):
    ins = tuple(sorted(e.id for e in g.edges if e.dst == v))
    outs = tuple(sorted(e.id for e in g.edges if e.src == v))
    return ins, outs


def random_classical(rng, g: graph.CausalGraph, sizes) -> classical.ClassicalModel:
    """Gate entries uniform in [0, 1), normalised per incoming tuple."""
    gates = {}
    for v in g.nodes:
        ins, outs = _in_out(g, v)
        shape = tuple(sizes[e] for e in ins) + (g.outcomes[v],) + tuple(sizes[e] for e in outs)
        t = rng.uniform(size=shape)
        t /= t.sum(axis=tuple(range(len(ins), len(shape))), keepdims=True)
        gates[v] = classical.Gate(ins, outs, t)
    return classical.ClassicalModel(g, dict(sizes), gates)


def random_hbn(rng, g: graph.CausalGraph, sizes) -> hbn.HiddenBayesNet:
    transitions, readouts = {}, {}
    for v in g.nodes:
        parents = sorted({e.src for e in g.edges if e.dst == v})
        t = rng.uniform(size=tuple(sizes[u] for u in parents) + (sizes[v],))
        transitions[v] = t / t.sum(axis=-1, keepdims=True)
        r = rng.uniform(size=(sizes[v], g.outcomes[v]))
        readouts[v] = r / r.sum(axis=-1, keepdims=True)
    return hbn.HiddenBayesNet(g, dict(sizes), transitions, readouts)


def random_quantum(rng, g: graph.CausalGraph, dims) -> quantum.QuantumModel:
    """Per node, a random isometry (QR of a complex Gaussian) cut into Kraus blocks."""
    instruments = {}
    for v in g.nodes:
        ins, outs = _in_out(g, v)
        din = int(np.prod([dims[e] for e in ins], dtype=np.int64))
        dout = int(np.prod([dims[e] for e in outs], dtype=np.int64))
        m = g.outcomes[v]
        env = max(1, -(-din // (dout * m)))
        z = rng.normal(size=(dout * m * env, din)) + 1j * rng.normal(size=(dout * m * env, din))
        q, _ = np.linalg.qr(z)
        blocks = q.reshape(m, env, dout, din)
        instruments[v] = quantum.Instrument(
            tuple(tuple(blocks[o, j] for j in range(env)) for o in range(m))
        )
    return quantum.QuantumModel(g, dict(dims), instruments)


def check_normalised(p: dist.JointDistribution, tol: float) -> None:
    s = float(np.sum(p.table))
    check(abs(s - 1.0) <= tol, f"table sums to {s!r}")


def check_equal(p: dist.JointDistribution, q: dist.JointDistribution, tol: float, what: str) -> None:
    q = q.reorder(p.var_ids)
    dev = float(np.abs(p.table - q.table).max())
    check(dev <= tol, f"{what} deviates by {dev:.3g} > {tol:g}")


def check_is_correlation(g: graph.CausalGraph, p: dist.JointDistribution, tol: float) -> None:
    verdict = correlation.is_correlation(g, p, tol=tol)
    check(verdict.is_correlation, "model output judged not a correlation")


# ---- Bell scenarios -------------------------------------------------------


def bell_table(settings, outcomes, cond, setting_probs) -> dist.JointDistribution:
    """Joint over (s, x1.., a1..) with a trivial source from ``cond[x..., a...]``."""
    px = joint_setting_probs(setting_probs)
    table = (px.reshape(px.shape + (1,) * len(outcomes)) * cond)[None, ...]
    variables = [("s", 1)] + [(f"x{i + 1}", k) for i, k in enumerate(settings)]
    variables += [(f"a{i + 1}", m) for i, m in enumerate(outcomes)]
    return dist.JointDistribution(tuple(variables), table)


def joint_setting_probs(setting_probs) -> np.ndarray:
    """Product distribution of the parties' independent settings."""
    px = setting_probs[0]
    for p in setting_probs[1:]:
        px = np.multiply.outer(px, p)
    return px


def random_setting_probs(rng, settings):
    return [rng.dirichlet(np.full(k, 5.0)) for k in settings]


def deterministic_mixture(rng, settings, outcomes, n_strategies: int) -> np.ndarray:
    """cond[x..., a...] of a convex mixture of random deterministic strategies."""
    cond = np.zeros(tuple(settings) + tuple(outcomes))
    for w in rng.dirichlet(np.ones(n_strategies)):
        responses = [rng.integers(0, m, size=k) for k, m in zip(settings, outcomes)]
        for xs in itertools.product(*(range(k) for k in settings)):
            cond[xs + tuple(int(r[x]) for r, x in zip(responses, xs))] += w
    return cond


def noisy_box(settings, outcomes, visibility: float) -> np.ndarray:
    """PR-type box (outcomes summing to the product of settings mod m) mixed with white noise.

    Every marginal of the box on fewer than all parties is uniform, so it is
    no-signalling for any settings and equal outcome counts ``m``.
    """
    m = outcomes[0]
    n = len(settings)
    cond = np.zeros(tuple(settings) + tuple(outcomes))
    for xs in itertools.product(*(range(k) for k in settings)):
        target = int(np.prod(xs)) % m
        for a in itertools.product(range(m), repeat=n):
            if sum(a) % m == target:
                cond[xs + a] = 1.0 / m ** (n - 1)
    return visibility * cond + (1.0 - visibility) / m**n


def chsh_from_table(p: dist.JointDistribution) -> float:
    """CHSH value of a two-party binary table, outcome 0 -> +1, computed here."""
    t = p.reorder(("s", "x1", "x2", "a1", "a2")).table.sum(axis=0)
    cond = t / t.sum(axis=(2, 3), keepdims=True)
    corr = cond[:, :, 0, 0] - cond[:, :, 0, 1] - cond[:, :, 1, 0] + cond[:, :, 1, 1]
    return float(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1])


def check_local_weights(verdict, settings, outcomes, cond: np.ndarray) -> None:
    """A "local" verdict's strategy weights must reproduce the conditional within its tol."""
    for weights in verdict.weights.values():
        rebuilt = np.zeros_like(cond)
        for strategy, w in weights.items():
            for xs in itertools.product(*(range(k) for k in settings)):
                rebuilt[xs + tuple(strategy[i][x] for i, x in enumerate(xs))] += w
        dev = float(np.abs(rebuilt - cond).max())
        check(dev <= verdict.tol, f"local weights miss the conditional by {dev:.3g}")


class Op(NamedTuple):
    """One timed operation: ``run()`` calls the program and checks its answer."""

    id: str
    kind: str
    run: Callable[[], None]
