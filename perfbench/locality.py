"""Workload ``locality``: local-polytope membership of no-signalling inputs.

Each op is one ``bell.local_membership(scenario, dist)`` call on an input
made in set-up: a mixture of deterministic strategies (local by
construction), a PR-type box mixed with white noise at a visibility on
either side of the local bound, or a quantum point: a random pure state
measured in random orthonormal bases, evaluated in set-up by the Born rule.
LP build and solve do almost all the work; no contraction is timed.
Feasible and infeasible LPs use the simplex differently: one stops once the
residual reaches zero, the other runs phase 1 to its optimum.
"""

from __future__ import annotations

import itertools

import numpy as np

from causalcorr import bell

import models as m

# (settings, outcomes, kinds, ops per round); shapes are per party.  At 3/3
# some noisy boxes stall the seed's simplex for tens of seconds, and quantum
# points take 66-780 ms with a spread that a few seconds of ops cannot
# average; 3-party 2/3 boxes stall too (a probe covers them).  The counts
# put the median inside the 3/2 and 2/3 cluster and the 90th percentile
# inside the 4/2 one, away from the edges between clusters.
MIX = (
    ((2, 2), (2, 2), ("mixture", "box", "quantum"), 6),
    ((3, 3), (2, 2), ("mixture", "box", "quantum"), 6),
    ((2, 2), (3, 3), ("mixture", "box", "quantum"), 6),
    ((4, 4), (2, 2), ("mixture", "box", "quantum"), 3),
    ((3, 3), (3, 3), ("mixture",), 1),
    ((2, 2, 2), (2, 2, 2), ("mixture", "box", "quantum"), 3),
    ((2, 2, 2), (3, 3, 3), ("mixture",), 1),
)
IN_PROCESS = True
ROUNDS = 14
TRACE_OPS = 60
CHSH_MARGIN = 1e-6  # above the LP tolerance's effect on the CHSH value


def _quantum_point(rng, settings, outcomes):
    """Random pure state measured in random orthonormal bases (Born rule)."""
    d = outcomes[0]
    n = len(settings)
    psi = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    psi = (psi / np.linalg.norm(psi)).reshape((d,) * n)
    # bases[i][x][:, a] is party i's measurement vector for outcome a at setting x
    bases = [[np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] for _ in range(k)]
             for k in settings]
    cond = np.zeros(tuple(settings) + tuple(outcomes))
    for xs in itertools.product(*(range(k) for k in settings)):
        amp = psi
        for i, x in enumerate(xs):  # contract party i's axis with <u_a|, moving the outcome axis last
            amp = np.moveaxis(np.tensordot(bases[i][x].conj(), amp, axes=([0], [0])), 0, -1)
        cond[xs] = np.abs(amp) ** 2
    return m.bell_table(settings, outcomes, cond, m.random_setting_probs(rng, settings)), cond


def make_input(rng, settings, outcomes, kind):
    """(distribution, conditional table) of one input of the given kind."""
    if kind == "quantum":
        return _quantum_point(rng, settings, outcomes)
    if kind == "mixture":
        cond = m.deterministic_mixture(rng, settings, outcomes, int(rng.integers(2, 7)))
    else:
        low = rng.uniform() < 0.5
        cond = m.noisy_box(settings, outcomes, rng.uniform(0.3, 0.45) if low else rng.uniform(0.55, 0.9))
    return m.bell_table(settings, outcomes, cond, m.random_setting_probs(rng, settings)), cond


def membership_op(settings, outcomes, kind, p, cond):
    scenario = bell.BellScenario(tuple(settings), tuple(outcomes))
    binary_pair = settings == (2, 2) and outcomes == (2, 2)
    chsh = m.chsh_from_table(p) if binary_pair else None

    def run():
        verdict = bell.local_membership(scenario, p)
        if kind == "mixture":
            m.check(verdict.is_local, "a mixture of deterministic strategies judged not local")
        if verdict.is_local:
            m.check_local_weights(verdict, settings, outcomes, cond)
            m.check(chsh is None or chsh <= 2 + CHSH_MARGIN, f"CHSH {chsh!r} > 2 judged local")

    return run


def build(seed: int, workdir) -> tuple[list, list]:
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(ROUNDS):
        for settings, outcomes, kinds, count in MIX:
            for j in range(count):
                kind = kinds[(r * count + j) % len(kinds)]
                p, cond = make_input(rng, settings, outcomes, kind)
                name = f"{len(settings)}p-{settings[0]}s{outcomes[0]}o-{kind}-{r}.{j}"
                ops.append(m.Op(name, kind, membership_op(settings, outcomes, kind, p, cond)))
    rng.shuffle(ops)
    return ops, _probes(rng)


def _probes(rng) -> list:
    """Known seed defects: LPs on which the float simplex does not terminate.

    A PR-type box at 3-party 2 settings / 3 outcomes, and a dense mixture of
    100 deterministic strategies at 3-party 3/2, with uniform settings.
    """
    settings, outcomes = (2, 2, 2), (3, 3, 3)
    box = m.noisy_box(settings, outcomes, 0.7)
    dense_settings, dense_outcomes = (3, 3, 3), (2, 2, 2)
    dense = m.deterministic_mixture(rng, dense_settings, dense_outcomes, 100)
    probes = []
    for name, st, oc, kind, cond in (
        ("probe-3p-2s3o-box-v0.7", settings, outcomes, "box", box),
        ("probe-3p-3s2o-dense-mixture", dense_settings, dense_outcomes, "mixture", dense),
    ):
        p = m.bell_table(st, oc, cond, [np.full(k, 1.0 / k) for k in st])
        probes.append(m.Op(name, "probe", membership_op(st, oc, kind, p, cond)))
    return probes
