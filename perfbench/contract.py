"""Workload ``contract``: evaluate pre-built models on the standard families.

Each op evaluates one classical, hidden-Bayesian-network or quantum model on
the bell, triangle, popescu, bilocality or sequential graph, then checks
normalisation and the disjoint-past factorisation of its output.  ``embed``
ops also check that the decoherence embedding of a classical model evaluates,
as a quantum model, to the classical joint within 1e-10.  Per-op quantum
contraction does nearly all the work; graphs have at most 9 nodes, so poset
and dist work stays small, and no LP is solved.
"""

from __future__ import annotations

import numpy as np

from causalcorr import classical, hbn, quantum

import models as m

# (family, allowed outcome counts, largest per-edge dimension, ops per round)
# of the quantum ops.  A dimension of 3 on every edge of bilocality or
# sequential takes tens of seconds per evaluation on the seed, which a probe
# below covers instead.
QUANTUM_MIX = (
    ("bell", (2, 3), 3, 1),
    ("triangle", (2,), 2, 1),
    ("popescu", (2,), 3, 1),
    ("bilocality", (2,), 2, 4),
    ("sequential", (2,), 2, 2),
)
# Per round: 20 classical and HBN ops (1-5 ms), 6 light quantum or embed ops
# and 6 bilocality or sequential ones (40-250 ms), sequential the slower.  The median then falls
# inside the cheap cluster and the 90th percentile inside the heavy one, not
# on the edge between clusters, where a small shift moves it a lot.
CLASSICAL_PER_FAMILY = 2
EMBED_FAMILIES = ("bell", "triangle", "popescu")
IN_PROCESS = True
ROUNDS = 6
TRACE_OPS = 64


def _sizes(keys, largest: int, r: int) -> dict:
    """Per-key sizes 1..largest, fixed by the round ``r``, not by the seed, so
    that the mix's cost is the same for every seed (the seed draws the
    tensors).  Across rounds every key takes every size."""
    return {k: 1 + (r + i) % largest for i, k in enumerate(keys)}


def _hidden_sizes(keys, outcomes: int, r: int) -> dict:
    """Hidden alphabets up to 3, or up to 2 at 3 outcomes.

    The seed's size guards multiply every alphabet of the model, and refuse
    3 outcomes with alphabet 3 on the sequential family although it
    contracts in milliseconds; that case is a probe.
    """
    return _sizes(keys, 3 if outcomes == 2 else 2, r)


def _evaluate_op(family, g, model):
    """Evaluate with ``family.evaluate``, looked up per call so that the traced
    run sees its wrapper; check normalisation and factorisation."""

    def run():
        p = family.evaluate(model)
        m.check_normalised(p, 1e-9)
        m.check_is_correlation(g, p, 1e-8)

    return run


def _embed_op(g, model):
    def run():
        p = classical.evaluate(model)
        m.check_normalised(p, 1e-9)
        q = quantum.evaluate(quantum.decohere_embed(model))
        m.check_equal(p, q, 1e-10, "decohered quantum joint")

    return run


def build(seed: int, workdir) -> tuple[list, list]:
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(ROUNDS):
        for fam in m.FAMILIES:
            for j in range(CLASSICAL_PER_FAMILY):
                k = 2 + (r + j) % 2
                g = m.family_graph(fam, k)
                model = m.random_classical(rng, g, _hidden_sizes([e.id for e in g.edges], k, r + j))
                ops.append(m.Op(f"classical-{fam}-{r}.{j}", "classical", _evaluate_op(classical, g, model)))

                k = 2 + (r + j + 1) % 2
                g = m.family_graph(fam, k)
                net = m.random_hbn(rng, g, _hidden_sizes(g.nodes, k, r + j))
                ops.append(m.Op(f"hbn-{fam}-{r}.{j}", "hbn", _evaluate_op(hbn, g, net)))

        for fam, outcomes, largest, count in QUANTUM_MIX:
            for j in range(count):
                g = m.family_graph(fam, outcomes[(r + j) % len(outcomes)])
                model = m.random_quantum(rng, g, _sizes([e.id for e in g.edges], largest, r + j))
                ops.append(m.Op(f"quantum-{fam}-{r}.{j}", "quantum", _evaluate_op(quantum, g, model)))

        for fam in EMBED_FAMILIES:
            g = m.family_graph(fam, 2)
            model = m.random_classical(rng, g, _sizes([e.id for e in g.edges], 2, r))
            ops.append(m.Op(f"embed-{fam}-{r}", "embed", _embed_op(g, model)))
    rng.shuffle(ops)
    return ops, _probes(rng)


def _probes(rng) -> list:
    """Known seed defects: a quantum stall and guard refusals of cheap models."""
    g = m.family_graph("bilocality", 2)
    stall = m.random_quantum(rng, g, {e.id: 3 for e in g.edges})

    g_seq = m.family_graph("sequential", 3)
    dense = m.random_classical(rng, g_seq, {e.id: 3 for e in g_seq.edges})

    # The HBN of a popescu model at 3 outcomes and alphabet 3 converts back
    # to a classical model whose alphabet product the guard refuses.
    g_pop = m.family_graph("popescu", 3)
    pop = m.random_classical(rng, g_pop, {e.id: 3 for e in g_pop.edges})

    def round_trip():
        back = hbn.to_classical(hbn.from_classical(pop))
        m.check_equal(classical.evaluate(pop), classical.evaluate(back), 1e-12, "round trip")

    return [
        m.Op("probe-quantum-bilocality-d3", "probe", _evaluate_op(quantum, g, stall)),
        m.Op("probe-classical-sequential-o3k3", "probe", _evaluate_op(classical, g_seq, dense)),
        m.Op("probe-hbn-popescu-o3k3-round-trip", "probe", round_trip),
    ]
