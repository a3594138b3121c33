"""Workload ``cli``: one ``python -m causalcorr.cli`` process per op.

Set-up writes seeded JSON inputs for all 18 commands, plus malformed inputs
that must be refused with exit code 2.  Ops run sequentially, one process at
a time; each checks the exit code and parses the JSON payload.  Interpreter
start-up, import, argparse and JSON I/O dominate, and the in-process layers
are idle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from causalcorr import classical, dist, hbn

import models as m

IN_PROCESS = False
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TRACE_OPS = 12


def reference_seconds() -> float:
    """Time of a bare interpreter start, the reference unit of this workload.

    A CLI op runs in another process, which the host can slow independently
    of the benchmark's own; a process start tracks that speed.
    """
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls at intervals of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


class ExitMismatch(m.CheckFailed):
    """The process ended with another exit code than the one expected."""


def run_cli(args, expect: int, cwd: str, env: dict) -> str:
    """Run one CLI process to completion; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "causalcorr.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=m.DEADLINE_S,
    )
    if proc.returncode != expect:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise ExitMismatch(f"exit {proc.returncode}, expected {expect}: {tail[0][:160]}")
    return proc.stdout


# ---- JSON encoders following the schemas in the README --------------------


def graph_json(g) -> dict:
    return {
        "nodes": [{"id": v, "outcomes": g.outcomes[v]} for v in g.nodes],
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
    }


def dist_json(p) -> dict:
    return {"vars": [{"id": v, "size": k} for v, k in p.variables], "probs": p.table.ravel().tolist()}


def classical_json(model) -> dict:
    return {
        "graph": graph_json(model.graph),
        "edge_sizes": dict(model.edge_alphabet),
        "gates": {
            v: {"in": list(gt.in_edges), "out": list(gt.out_edges), "tensor": gt.tensor.ravel().tolist()}
            for v, gt in model.gates.items()
        },
    }


def _complex_rows(k) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(k, dtype=complex).tolist()]


def quantum_json(model) -> dict:
    return {
        "graph": graph_json(model.graph),
        "edge_dims": dict(model.edge_dim),
        "instruments": {
            v: {str(o): [_complex_rows(k) for k in ops] for o, ops in enumerate(inst.components)}
            for v, inst in model.instruments.items()
        },
    }


def hbn_json(net) -> dict:
    return {
        "graph": graph_json(net.graph),
        "node_sizes": dict(net.node_alphabet),
        "transitions": {v: t.ravel().tolist() for v, t in net.transitions.items()},
        "readouts": {v: r.ravel().tolist() for v, r in net.readouts.items()},
    }


def bell_quantum_setup(rng) -> dict:
    """Two-qubit pure state with random projective measurements (bell-quantum input)."""
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    povms = []
    for _ in range(2):
        family = []
        for _ in range(2):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            family.append([_complex_rows(np.outer(u[:, a], u[:, a].conj())) for a in range(2)])
        povms.append(family)
    return {
        "scenario": {"settings": [2, 2], "outcomes": [2, 2]},
        "states": [[[z.real, z.imag] for z in psi.tolist()]],
        "povms": povms,
        "setting_dists": [[0.5, 0.5], [0.5, 0.5]],
        "source_dist": [1.0],
    }


# ---- payload checks -------------------------------------------------------


def _payload(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise m.CheckFailed(f"payload is not JSON: {exc}") from exc


def _probs_equal(expected):
    def check(payload):
        got = np.asarray(payload["probs"], dtype=float)
        dev = float(np.abs(got - expected.table.ravel()).max())
        m.check(dev <= 1e-12, f"payload probabilities deviate by {dev:.3g}")

    return check


def _normalised(payload):
    m.check(abs(sum(payload["probs"]) - 1.0) <= 1e-9, "payload probabilities not normalised")


def _field(name, value):
    def check(payload):
        m.check(payload[name] == value, f"payload {name} = {payload[name]!r}, expected {value!r}")

    return check


def _has(*keys):
    def check(payload):
        m.check(all(k in payload for k in keys), f"payload lacks one of {keys}")

    return check


def _close(name, value, tol):
    def check(payload):
        m.check(abs(payload[name] - value) <= tol, f"payload {name} = {payload[name]!r}, expected {value!r}")

    return check


def build(seed: int, workdir: str) -> tuple[list, list]:
    rng = np.random.default_rng(seed)
    env = dict(os.environ, PYTHONPATH=SRC)

    def put(name, payload):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return name

    # Shapes are fixed so that process cost does not depend on the seed,
    # which draws the tables, states and probabilities.
    g = m.family_graph("popescu", 2)
    cmodel = m.random_classical(rng, g, {e.id: 2 for e in g.edges})
    p = classical.evaluate(cmodel)
    put("graph.json", graph_json(g))
    put("model.json", classical_json(cmodel))
    put("p.json", dist_json(p))
    noise = rng.uniform(size=p.table.shape)
    # independent noise almost surely fails to factorise
    put("p_signalling.json", dist_json(dist.JointDistribution(p.variables, noise / noise.sum())))

    g_push = m.family_graph("bell", 2)
    put("model_push.json", classical_json(m.random_classical(rng, g_push, {e.id: 2 for e in g_push.edges})))

    g_q = m.family_graph("bell", 2)
    q_model = m.random_quantum(rng, g_q, {e.id: 2 for e in g_q.edges})
    put("quantum.json", quantum_json(q_model))
    net = m.random_hbn(rng, g, {v: 2 for v in g.nodes})
    p_hbn = hbn.evaluate(net)
    put("hbn.json", hbn_json(net))

    # u->v, v->w and u->w, for lift-edge and reroute-edge
    g_tri = m.make_graph(["u", "v", "w", "z"], [("u", "v"), ("v", "w"), ("u", "w"), ("z", "w")], 2)
    put("model_tri.json", classical_json(m.random_classical(rng, g_tri, {e.id: 2 for e in g_tri.edges})))

    settings, outcomes = (2, 2), (2, 2)
    probs = m.random_setting_probs(rng, settings)
    box_v = rng.uniform(0.6, 1.0)
    box = m.bell_table(settings, outcomes, m.noisy_box(settings, outcomes, box_v), probs)
    put("box.json", dist_json(box))
    mix = m.bell_table(settings, outcomes, m.deterministic_mixture(rng, settings, outcomes, 3), probs)
    put("mixture.json", dist_json(mix))
    # each party's outcome copies the other party's setting
    signalling = np.zeros((2, 2, 2, 2))
    for x1, x2 in np.ndindex(2, 2):
        signalling[x1, x2, x2, x1] = 1.0
    put("box_signalling.json", dist_json(m.bell_table(settings, outcomes, signalling, probs)))
    put("bell_quantum.json", bell_quantum_setup(rng))

    domain = (3, 3)
    cg_probs = rng.dirichlet(np.ones(domain[0] * domain[1]))
    put("cg_dist.json", {"vars": [{"id": "v1", "size": domain[0]}, {"id": "v2", "size": domain[1]}],
                         "probs": cg_probs.tolist()})
    put("cg.json", {"domain": list(domain), "codomain": 2,
                    "map": [int(v) for v in rng.integers(0, 2, size=domain[0] * domain[1])]})

    put("graph_unknown_field.json", dict(graph_json(g), extra=1))
    put("dist_unknown_field.json", dict(dist_json(p), extra=1))
    put("dist_wrong_type.json", {"vars": dist_json(p)["vars"], "probs": "0.5"})
    ghost = quantum_json(q_model)
    ghost["instruments"]["ghost"] = ghost["instruments"]["s"]
    del ghost["instruments"]["s"]
    put("quantum_ghost_node.json", ghost)

    cases = [  # (op name, command, arguments, expected exit code, payload check)
        ("graph-validate", "graph-validate", ["--graph", "graph.json"], 0, _field("ok", True)),
        ("check-correlation", "check-correlation", ["--graph", "graph.json", "--dist", "p.json"], 0,
         _field("is_correlation", True)),
        ("check-correlation-fails", "check-correlation", ["--graph", "graph.json", "--dist", "p_signalling.json"],
         1, _field("is_correlation", False)),
        ("eval-classical", "eval-classical", ["--model", "model.json"], 0, _probs_equal(p)),
        ("eval-quantum", "eval-quantum", ["--model", "quantum.json"], 0, _normalised),
        ("eval-hbn", "eval-hbn", ["--hbn", "hbn.json"], 0, _probs_equal(p_hbn)),
        ("to-hbn", "to-hbn", ["--model", "model.json"], 0, _has("node_sizes", "transitions", "readouts")),
        ("from-hbn", "from-hbn", ["--hbn", "hbn.json"], 0, _has("edge_sizes", "gates")),
        ("push-determinism", "push-determinism", ["--model", "model_push.json"], 0, _has("edge_sizes", "gates")),
        ("embed-quantum", "embed-quantum", ["--model", "model.json"], 0, _has("edge_dims", "instruments")),
        ("lift-edge", "lift-edge", ["--model", "model_tri.json", "--src", "u", "--dst", "w", "--edge-id", "u->w#2"],
         0, _has("gates")),
        ("reroute-edge", "reroute-edge", ["--model", "model_tri.json", "--edge", "u->w", "--via", "v"], 0,
         _has("gates")),
        ("bell-gen", "bell-gen", ["--parties", "3", "--outcomes", "3"], 0, _has("nodes", "edges")),
        ("bell-check-ns", "bell-check-ns", ["--dist", "box.json"], 0, _field("passes", True)),
        ("bell-check-ns-fails", "bell-check-ns", ["--dist", "box_signalling.json"], 1, _field("passes", False)),
        ("bell-local", "bell-local", ["--dist", "mixture.json"], 0, _field("is_local", True)),
        ("bell-local-fails", "bell-local", ["--dist", "box.json"], 1, _field("is_local", False)),
        ("bell-quantum", "bell-quantum", ["--model", "bell_quantum.json"], 0, _has("edge_dims", "instruments")),
        ("chsh", "chsh", ["--dist", "box.json"], 0, _close("chsh", m.chsh_from_table(box), 1e-9)),
        ("poset-closure", "poset-closure", ["--graph", "graph.json"], 0, _has("nodes", "edges")),
        ("compress-cg", "compress-cg", ["--dist", "cg_dist.json", "--cg", "cg.json", "--eps", "0.05"], 0,
         _has("factor_maps", "achieved_error")),
        ("bad-graph-unknown-field", "graph-validate", ["--graph", "graph_unknown_field.json"], 2, None),
        ("bad-dist-unknown-field", "check-correlation", ["--graph", "graph.json", "--dist", "dist_unknown_field.json"],
         2, None),
        ("bad-dist-wrong-type", "chsh", ["--dist", "dist_wrong_type.json"], 2, None),
        ("bad-quantum-unknown-node", "eval-quantum", ["--model", "quantum_ghost_node.json"], 2, None),
        ("bad-usage", "bell-gen", ["--parties", "two"], 2, None),
    ]
    ops = [
        m.Op(name, "cli", _cli_op([command, *args], expect, check, workdir, env))
        for name, command, args, expect, check in cases
    ]
    rng.shuffle(ops)
    return ops, _probes(rng, workdir, env, put, p)


def _cli_op(args, expect, check, workdir, env):
    def run():
        out = run_cli(args, expect, workdir, env)
        if check is not None:
            check(_payload(out))

    return run


def _probes(rng, workdir, env, put, p) -> list:
    """Known seed defects: malformed inputs that do not exit with code 2."""
    put("graph_nodes_int.json", {"nodes": 5, "edges": []})
    nan = dist_json(p)
    nan["probs"][0] = float("nan")
    put("dist_nan.json", nan)
    g_q = m.family_graph("bell", 2)
    extra = quantum_json(m.random_quantum(rng, g_q, {e.id: 1 for e in g_q.edges}))
    extra["instruments"]["a"]["7"] = extra["instruments"]["a"]["0"]
    put("quantum_unknown_outcome.json", extra)
    return [
        m.Op("probe-cli-nodes-int", "probe", _cli_op(["graph-validate", "--graph", "graph_nodes_int.json"], 2, None, workdir, env)),
        m.Op("probe-cli-nan-probs", "probe",
             _cli_op(["check-correlation", "--graph", "graph.json", "--dist", "dist_nan.json"], 2, None, workdir, env)),
        m.Op("probe-cli-unknown-outcome-key", "probe",
             _cli_op(["eval-quantum", "--model", "quantum_unknown_outcome.json"], 2, None, workdir, env)),
    ]
